"""Test helpers that cross between the columnar core and plain values:
index rows as named tuples of strings, string-keyed taxonomy and rule
tables in their term-id form, edge columns as dicts of checked
`ScoredEdge`s, and graphs sealed from `Eventuality`/`ScoredEdge` lists."""

from array import array
from collections import defaultdict
from typing import NamedTuple

from evgraph.corpus import ARITY, MAX_ARITY
from evgraph.model import ENTAILS, PATTERNS, PROVENANCES, TYPE_LABELS, EdgeColumns, ScoredEdge
from evgraph.rules import term_probabilities
from evgraph.store import EntailmentGraph


class Row(NamedTuple):
    """One index row read back as strings."""

    pattern: str
    predicate: str
    args: tuple[str, ...]
    cond_prob: float


def rows(index) -> dict[str, Row]:
    """Eventuality id -> its row, in row order, read off the columns."""
    out = {}
    for r, eid in enumerate(index.ids):
        code = index.pattern[r]
        args = index.args[r * MAX_ARITY:r * MAX_ARITY + ARITY[code]]
        out[eid] = Row(
            PATTERNS[code],
            index.predicates[index.predicate[r]],
            tuple(index.terms[t] for t in args),
            index.cond_prob[r],
        )
    return out


def by_predicate(index) -> dict[str, tuple[str, ...]]:
    """Predicate -> the ids of its rows."""
    return {p: tuple(index.ids[r] for r in rs) for p, rs in index.by_predicate.items()}


def row_of(index, eid: str) -> int:
    return index.ids.index(eid)


def term_ids(index) -> dict[str, int]:
    return {term: i for i, term in enumerate(index.terms)}


def probs(index, store) -> dict[int, dict[int, float]]:
    """The taxonomy as the scorers read it."""
    return term_probabilities(store, term_ids(index))


def rule_table(index, rule_by_pair) -> dict[tuple[int, int], float]:
    """A (from term, to term) -> score table in term ids."""
    ids = term_ids(index)
    return {(ids[a], ids[b]): score for (a, b), score in rule_by_pair.items()}


def edge_dict(index, edges: EdgeColumns) -> dict[tuple[str, str], ScoredEdge]:
    """(from_id, to_id) -> edge, each built through the checking constructor."""
    out = {}
    for i in range(len(edges)):
        edge = ScoredEdge(*edges.edge(i, index.ids))
        key = (edge.from_id, edge.to_id)
        assert key not in out, key
        out[key] = edge
    return out


def columns_of(edges, row) -> EdgeColumns:
    """ScoredEdges as columns, endpoints mapped to rows by `row`."""
    cols = EdgeColumns()
    for e in edges:
        cols.append(
            row[e.from_id], row[e.to_id], e.arg_score, e.pred_score, e.penalty, e.local_score,
            TYPE_LABELS.index(e.type_label), PROVENANCES.index(e.provenance),
        )
    return cols


def sealed(nodes, edges) -> EntailmentGraph:
    """EntailmentGraph.from_parts over Eventuality and ScoredEdge lists as
    given: each endpoint is the row of its node's first occurrence, and
    an endpoint that is no node the row past the last."""
    row = defaultdict(lambda: len(nodes))
    for i, node in enumerate(nodes):
        row.setdefault(node.id, i)
    ids, frequency = [n.id for n in nodes], array("q", (n.frequency for n in nodes))
    return EntailmentGraph.from_parts(ids, frequency, columns_of(edges, row))


def graph_from(nodes, edges) -> EntailmentGraph:
    """`sealed` over the nodes and edges put in key order first, as the
    seal requires."""
    return sealed(
        sorted(nodes, key=lambda n: n.id), sorted(edges, key=lambda e: (e.from_id, e.to_id))
    )


def signature_texts(index) -> dict[int, str]:
    """Signature id -> its argument surfaces joined with "|"."""
    return {index.signature[r]: "|".join(row.args) for r, row in enumerate(rows(index).values())}


def text_keyed(index, vector):
    """A feature vector's weights keyed by signature text, in its order."""
    texts = signature_texts(index)
    return {texts[sig]: w for sig, w in vector.items()}


def type_label(premise: str, hypothesis: str) -> str:
    return f"{premise} {ENTAILS} {hypothesis}"
