"""Persisted entailment graph: node/edge TSV files, per-type statistics,
annotation sampling, and entailment queries.

Edge file columns: from_id, to_id, type_label, provenance, arg_score,
pred_score, penalty, local_score.  Node file columns: id, pattern,
role=token pairs, frequency.  Scores serialize as shortest round-trip
decimals, so a write/read cycle is bit-exact.

`read_graph` streams both files through `corpus.decoded_lines`, the
reader of every input file.  A node line is the node id followed by a
corpus line, which `corpus.parse_corpus_line` reads: `write_graph`
writes canonical lines, so they take its regex fast path.  Each edge is
validated by the `ScoredEdge` constructor.

A sealed graph holds `nodes` and `edges` as dicts in key order, and
`by_source` read off the edge keys in that order;
`EntailmentGraph.from_parts` sorts only input that comes out of order,
and the build and `read_graph` both deliver it in order.  `ids_by_text`
is built on first use.  `stats` and `sample_for_annotation` group the
edges by type in one pass of their own, and they and `write_graph`
reuse the stored order rather than sorting again.  The
cyclic garbage collector is paused (`paused_collector`) for a whole
build as well as for a read.
"""

from __future__ import annotations

import gc
import random
from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

from .corpus import corpus_line, decoded_lines, parse_corpus_line
from .model import PROVENANCE_LOCAL, TYPE_LABELS, Eventuality, ScoredEdge

NODE_FILE = "nodes.tsv"
EDGE_FILE = "edges.tsv"

OVERALL_LABEL = "Overall"

STATS_COLUMNS = ("type", "n_eventualities", "n_er_local", "n_er_global")


class GraphFormatError(ValueError):
    """Malformed graph file, with the offending line number."""


class NodeLookupError(KeyError):
    """Unknown or ambiguous eventuality reference in a query."""


@dataclass(frozen=True)
class EntailmentGraph:
    nodes: dict[str, Eventuality]
    edges: dict[tuple[str, str], ScoredEdge]
    by_source: dict[str, tuple[str, ...]]

    @classmethod
    def from_parts(cls, nodes, edges) -> "EntailmentGraph":
        """Seal nodes and edges into a graph, kept in key order; a node id
        or an edge's (from, to) pair given twice is rejected, as is an
        edge whose endpoint is not a node.  Input already in key order is
        not sorted again."""
        node_map: dict[str, Eventuality] = {}
        nodes_in_order = True
        last_id = ""
        for node in nodes:
            node_id = node.id
            if node_id in node_map:
                raise ValueError(f"duplicate node {node_id}")
            if node_id < last_id:
                nodes_in_order = False
            node_map[node_id] = node
            last_id = node_id
        if not nodes_in_order:
            node_map = dict(sorted(node_map.items()))

        merged: dict[tuple[str, str], ScoredEdge] = {}
        edges_in_order = True
        last_key = ("", "")
        for edge in edges:
            from_id, to_id = key = edge.key
            if from_id not in node_map or to_id not in node_map:
                raise ValueError(
                    f"edge endpoint not among graph nodes: {from_id} -> {to_id}"
                )
            if key in merged:
                raise ValueError(f"duplicate edge {from_id} -> {to_id}")
            if key < last_key:
                edges_in_order = False
            merged[key] = edge
            last_key = key
        if not edges_in_order:
            merged = dict(sorted(merged.items()))

        # Filled after the edge map, not alongside it: built in the same
        # loop, the source lists interleave with the map's allocations,
        # and later lookups in the read graph got slower.
        by_source: dict[str, list[str]] = {}
        for from_id, to_id in merged:
            by_source.setdefault(from_id, []).append(to_id)
        return cls(
            nodes=node_map,
            edges=merged,
            by_source={k: tuple(v) for k, v in by_source.items()},
        )

    @cached_property
    def ids_by_text(self) -> dict[str, list[str]]:
        """Display text -> the sorted ids of the nodes that read so; built
        on the first text lookup, not when the graph is sealed."""
        out: dict[str, list[str]] = {}
        for node_id, node in self.nodes.items():
            out.setdefault(node.text, []).append(node_id)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EntailmentGraph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges


def write_graph(graph: EntailmentGraph, directory: str | Path) -> None:
    """Write nodes and edges in the graph's key order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / NODE_FILE, "w", encoding="utf-8") as fh:
        for node_id, node in graph.nodes.items():
            fh.write(f"{node_id}\t{corpus_line(node)}\n")
    with open(directory / EDGE_FILE, "w", encoding="utf-8") as fh:
        for e in graph.edges.values():
            fh.write(
                f"{e.from_id}\t{e.to_id}\t{e.type_label}\t{e.provenance}\t"
                f"{e.arg_score!r}\t{e.pred_score!r}\t{e.penalty!r}\t{e.local_score!r}\n"
            )


class paused_collector:
    """Context manager that pauses the cyclic garbage collector for its
    block and leaves it as the caller had it, also when the block raises.
    A build or a read makes millions of objects and next to no reference
    cycles, so the collector would only rescan the growing heap.  Nested
    pauses are harmless: an inner one finds the collector off and leaves
    it off.  `__exit__` allocates nothing after it turns the collector
    back on, so the collector's first pass over the objects the block
    made runs at the caller's next allocation, not within the block; a
    `contextlib.contextmanager` generator would raise `StopIteration`
    there and run that pass at once."""

    def __enter__(self) -> None:
        self._collecting = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._collecting:
            gc.enable()


def read_graph(directory: str | Path) -> EntailmentGraph:
    """Read a written graph.  A malformed line, a line that is not UTF-8,
    a node or an edge given twice, or an edge to an unknown node raises
    GraphFormatError naming the file and the line."""
    with paused_collector():
        return _read_graph(Path(directory))


def _file_lines(directory: Path, name: str):
    """`decoded_lines` of one graph file; a line that is not UTF-8 raises
    GraphFormatError naming the file."""
    return decoded_lines(directory / name, lambda message: GraphFormatError(f"{name} {message}"))


def _read_graph(directory: Path) -> EntailmentGraph:
    nodes = []
    node_lines = array("L")
    for lineno, line in _file_lines(directory, NODE_FILE):
        if line.count("\t") != 3:
            raise GraphFormatError(f"{NODE_FILE} line {lineno}: expected 4 fields")
        node_id, corpus_fields = line.split("\t", 1)
        try:
            node = parse_corpus_line(corpus_fields, lineno)
        except ValueError as exc:
            # The corpus parser's message already starts "line N: ".
            raise GraphFormatError(f"{NODE_FILE} {exc}") from exc
        if node.id != node_id:
            raise GraphFormatError(
                f"{NODE_FILE} line {lineno}: id {node_id!r} does not match tokens"
            )
        nodes.append(node)
        node_lines.append(lineno)

    edges = []
    edge_lines = array("L")
    for lineno, line in _file_lines(directory, EDGE_FILE):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 8:
            raise GraphFormatError(f"{EDGE_FILE} line {lineno}: expected 8 fields")
        from_id, to_id, label, provenance, arg, pred, penalty, local = parts
        try:
            edge = ScoredEdge(
                from_id, to_id, float(arg), float(pred), float(penalty), float(local),
                provenance, label,
            )
        except ValueError as exc:
            raise GraphFormatError(f"{EDGE_FILE} line {lineno}: {exc}") from exc
        edges.append(edge)
        edge_lines.append(lineno)

    # from_parts rejects a duplicate node or edge and a dangling edge;
    # `where` follows the item it takes, so the error can name its line.
    where = (NODE_FILE, 0)

    def located(items, name, lines):
        nonlocal where
        for item, lineno in zip(items, lines):
            where = (name, lineno)
            yield item

    try:
        return EntailmentGraph.from_parts(
            located(nodes, NODE_FILE, node_lines), located(edges, EDGE_FILE, edge_lines)
        )
    except ValueError as exc:
        raise GraphFormatError(f"{where[0]} line {where[1]}: {exc}") from exc


@dataclass(frozen=True)
class StatsRow:
    label: str
    n_eventualities: int
    n_er_local: int
    n_er_global: int


def stats(graph: EntailmentGraph) -> list[StatsRow]:
    """Per-type counts in the canonical row order, plus an Overall row.

    n_er_local counts local-provenance edges; n_er_global counts all
    edges of the type after global inference (local and global alike).
    Eventuality counts are unique edge endpoints; the Overall row counts
    unique items, not column sums.
    """
    keys_by_type: dict[str, list[tuple[str, str]]] = {label: [] for label in TYPE_LABELS}
    n_local = dict.fromkeys(TYPE_LABELS, 0)
    for key, edge in graph.edges.items():
        label = edge.type_label
        keys_by_type[label].append(key)
        if edge.provenance == PROVENANCE_LOCAL:
            n_local[label] += 1
    # One type's endpoint set at a time keeps the peak memory low.
    rows = []
    all_endpoints: set[str] = set()
    for label in TYPE_LABELS:
        keys = keys_by_type[label]
        endpoints = set(chain.from_iterable(keys))
        rows.append(StatsRow(label, len(endpoints), n_local[label], len(keys)))
        all_endpoints |= endpoints
    rows.append(
        StatsRow(OVERALL_LABEL, len(all_endpoints), sum(n_local.values()), len(graph.edges))
    )
    return rows


def format_stats(rows) -> str:
    lines = ["\t".join(STATS_COLUMNS)]
    for row in rows:
        lines.append(
            f"{row.label}\t{row.n_eventualities}\t{row.n_er_local}\t{row.n_er_global}"
        )
    return "\n".join(lines) + "\n"


def sample_for_annotation(
    graph: EntailmentGraph, n_per_type: int, seed: int
) -> list[str]:
    """Per-type uniform sample of premise/hypothesis pairs, without
    replacement, reproducible under the seed.

    Types with fewer edges than requested emit everything behind a
    warning record (a leading '#' line).
    """
    if n_per_type < 0:
        raise ValueError(f"n_per_type must be >= 0, got {n_per_type}")
    rng = random.Random(seed)
    lines: list[str] = []
    if n_per_type == 0:
        return lines
    keys_by_type: dict[str, list[tuple[str, str]]] = {}
    for key, edge in graph.edges.items():
        keys_by_type.setdefault(edge.type_label, []).append(key)
    for label in TYPE_LABELS:
        keys = keys_by_type.get(label)
        if not keys:
            continue
        if len(keys) <= n_per_type:
            if len(keys) < n_per_type:
                lines.append(
                    f"# warning: type {label!r} has only {len(keys)} edges, "
                    f"requested {n_per_type}"
                )
            chosen = keys
        else:
            chosen = sorted(rng.sample(keys, n_per_type))
        for key in chosen:
            edge = graph.edges[key]
            premise = graph.nodes[edge.from_id].text
            hypothesis = graph.nodes[edge.to_id].text
            lines.append(f"{premise}\t{hypothesis}\t{label}\t{edge.local_score!r}")
    return lines


def resolve_node(graph: EntailmentGraph, ref: str) -> str:
    """Resolve an id or a unique display text to a node id."""
    if ref in graph.nodes:
        return ref
    matches = graph.ids_by_text.get(ref, [])
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise NodeLookupError(f"unknown eventuality {ref!r}")
    raise NodeLookupError(f"ambiguous eventuality text {ref!r}: {matches}")


@dataclass(frozen=True)
class QueryResult:
    kind: str  # "direct" | "chain" | "none"
    trail: tuple[ScoredEdge, ...]


def query_entails(graph: EntailmentGraph, ref_a: str, ref_b: str) -> QueryResult:
    """Direct edge, shortest chain witness over stored edges, or none."""
    src = resolve_node(graph, ref_a)
    dst = resolve_node(graph, ref_b)
    if src == dst:
        return QueryResult("none", ())
    direct = graph.edges.get((src, dst))
    if direct is not None:
        return QueryResult("direct", (direct,))
    parent: dict[str, str] = {src: ""}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nxt in graph.by_source.get(cur, ()):
            if nxt in parent:
                continue
            parent[nxt] = cur
            if nxt == dst:
                trail = []
                node = dst
                while node != src:
                    prev = parent[node]
                    trail.append(graph.edges[(prev, node)])
                    node = prev
                return QueryResult("chain", tuple(reversed(trail)))
            queue.append(nxt)
    return QueryResult("none", ())
