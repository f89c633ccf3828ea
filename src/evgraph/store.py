"""Persisted entailment graph: node/edge TSV files, per-type statistics,
annotation sampling, and entailment queries.

Edge file columns: from_id, to_id, type_label, provenance, arg_score,
pred_score, penalty, local_score.  Node file columns: id, pattern,
role=token pairs, frequency.  Scores serialize as shortest round-trip
decimals, so a write/read cycle is bit-exact.

A sealed graph is columnar: node `ids` (ascending) and `frequency`, and
one `EdgeColumns` sorted by (from row, to row), which is (from_id,
to_id) order, with `offsets` marking each source row's edges.  Key order
is the graph's only order, and the two ways in check it rather than
restore it: `from_parts` holds the parts it is given, moving nothing, and
rejects the first node or edge out of order; `read_graph` names the
first line out of order.  Edges are sorted once, by the global stage
(`EdgeColumns.sort`).  `nodes` and `edges` are read-only mappings over
the columns that build an `Eventuality` or a `ScoredEdge` on lookup.
`read_graph` parses the files `write_graph` writes by columns, a chunk
of whole lines at a time: one regex per node line, whose role field
back-references the id's tokens, and one split per edge chunk, whose
every eighth field makes a column.  The checks then run over the
columns: `EdgeColumns.check`, and key order once, in `from_parts`.  The
chunks are small (`_CHUNK_BYTES`) and the edge columns sized once, as a
larger chunk or a regrown column leaves freed memory behind that raises
the read's peak.  Any other file, valid or not, is read again line by
line, by the reader that alone names a faulty line.
"""

from __future__ import annotations

import random
import re
from array import array
from bisect import bisect_left
from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import astuple, dataclass, field
from functools import cached_property, partial
from itertools import compress, count, islice, repeat
from operator import eq, ge
from pathlib import Path

from .corpus import _TOKEN, corpus_line, decoded_lines, parse_corpus_line
from .model import LOCAL, PROVENANCES, TYPE_LABELS, EdgeColumns, Eventuality, ScoredEdge, _starts
from .model import PATTERN_ROLES, display_text, split_id

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
    ids: list[str]  # row -> node id, ascending
    frequency: array  # 'q'
    columns: EdgeColumns  # sorted by (from row, to row)
    # 'I': row r's edges are offsets[r] up to offsets[r + 1]; it follows
    # from the columns, so equality leaves it out.
    offsets: array = field(compare=False)

    @classmethod
    def from_parts(cls, ids: list[str], frequency: array, edges: EdgeColumns) -> "EntailmentGraph":
        """Seal nodes and edges, given in key order, into a graph.  `ids` and
        `frequency` are the nodes, `ids` strictly ascending; the edges'
        endpoints are positions in `ids`, their (from, to) pairs strictly
        ascending.  The graph holds all three as given.  An endpoint past
        the last node is rejected, then the first node and the first edge
        out of order, as a duplicate when it repeats the one before."""
        n = len(ids)
        src, dst = edges.src, edges.dst
        if src and (top := max(max(src), max(dst))) >= n:
            raise ValueError(f"edge endpoint not among graph nodes: row {top}")
        for i in compress(count(1), map(ge, ids, islice(ids, 1, None))):
            raise ValueError(_disorder("node", ids[i], ids[i] == ids[i - 1]))
        later = zip(islice(src, 1, None), islice(dst, 1, None))
        for i in compress(count(1), map(ge, zip(src, dst), later)):
            same = src[i] == src[i - 1] and dst[i] == dst[i - 1]
            raise ValueError(_disorder("edge", f"{ids[src[i]]} -> {ids[dst[i]]}", same))
        return cls(ids, frequency, edges, _starts(src, n))

    @property
    def nodes(self) -> Mapping[str, Eventuality]:
        """Node id -> Eventuality, in id order."""
        return _View(
            lambda: iter(self.ids), self.row, len(self.ids),
            lambda r: Eventuality.from_id(self.ids[r], self.frequency[r]),
        )

    @property
    def edges(self) -> Mapping[tuple[str, str], ScoredEdge]:
        """(from_id, to_id) -> ScoredEdge, in key order."""
        ids, c = self.ids, self.columns
        return _View(
            lambda: ((ids[s], ids[d]) for s, d in zip(c.src, c.dst)),
            lambda key: self.edge_index(self.row(key[0]), self.row(key[1])),
            len(c), self.edge,
        )

    def row(self, node_id: str) -> int:
        """The row of a node id, or -1."""
        return self._rows.get(node_id, -1)

    @cached_property
    def _rows(self) -> dict[str, int]:
        """Node id -> row, built on the first lookup by id."""
        return {node_id: r for r, node_id in enumerate(self.ids)}

    def edge_index(self, src: int, dst: int) -> int:
        """The position of edge src -> dst (rows) in the columns, or -1."""
        if src < 0 or dst < 0:
            return -1
        lo, hi = self.offsets[src], self.offsets[src + 1]
        i = bisect_left(self.columns.dst, dst, lo, hi)
        return i if i < hi and self.columns.dst[i] == dst else -1

    def edge(self, i: int) -> ScoredEdge:
        return self.columns.edge(i, self.ids)

    def text(self, row: int) -> str:
        return display_text(*split_id(self.ids[row]))

    @cached_property
    def row_by_text(self) -> dict[str, int]:
        """Display text -> the row of the one node that reads so, or -1 when
        several do; built on first use, and holding no container, so the
        cyclic collector never scans it."""
        out: dict[str, int] = {}
        for r in range(len(self.ids)):
            text = self.text(r)
            out[text] = -1 if text in out else r
        return out


class _View(Mapping):
    """A read-only mapping over a graph's columns: `find` gives a key's
    position, or -1 for no key, and `build` the value at a position."""

    def __init__(self, keys, find, size, build) -> None:
        self._keys, self._find, self._size, self._build = keys, find, size, build

    def __getitem__(self, key):
        i = self._find(key)
        if i < 0:
            raise KeyError(key)
        return self._build(i)

    def __iter__(self):
        return self._keys()

    def __len__(self) -> int:
        return self._size


def write_graph(graph: EntailmentGraph, directory: str | Path) -> None:
    """Write nodes and edges in the graph's key order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ids = graph.ids
    with open(directory / NODE_FILE, "w", encoding="utf-8") as fh:
        for node_id, frequency in zip(ids, graph.frequency):
            fh.write(f"{node_id}\t{corpus_line(*split_id(node_id), frequency)}\n")
    c = graph.columns
    with open(directory / EDGE_FILE, "w", encoding="utf-8") as fh:
        for src, dst, code, prov, arg, pred, pen, local in zip(
            c.src, c.dst, c.type, c.prov, c.arg, c.pred, c.pen, c.local
        ):
            fh.write(
                f"{ids[src]}\t{ids[dst]}\t{TYPE_LABELS[code]}\t{PROVENANCES[prov]}\t"
                f"{arg!r}\t{pred!r}\t{pen!r}\t{local!r}\n"
            )


def _disorder(kind: str, item: str, same: bool) -> str:
    """The fault of a node or edge that does not ascend past the one
    before it: a repeat of it, or out of order."""
    return f"duplicate {kind} {item}" if same else f"{kind} {item} out of key order"


def _file_lines(directory: Path, name: str):
    """`decoded_lines` of one graph file; a line that is not UTF-8 raises
    GraphFormatError naming the file."""
    return decoded_lines(directory / name, lambda message: GraphFormatError(f"{name} {message}"))


_TYPE_CODES = {label: code for code, label in enumerate(TYPE_LABELS)}
_PROVENANCE_CODES = {name: code for code, name in enumerate(PROVENANCES)}

# Pattern -> the regex of a node line as `write_graph` writes it, whose
# role field back-references the id's tokens: group 1 is the id, the last
# group the frequency.
_NODE_LINES = {
    pattern: re.compile(
        f"({pattern}:{'[|]'.join([f'({_TOKEN})'] * len(roles))})\t{pattern}\t"
        + ";".join(f"{role}=\\{group}" for group, role in enumerate(roles, 2))
        + r"\t([1-9][0-9]{0,17})"
    )
    for pattern, roles in PATTERN_ROLES.items()
}
# Files are parsed in chunks of whole lines of about this many bytes.
_CHUNK_BYTES = 16 * 1024


def read_graph(directory: str | Path) -> EntailmentGraph:
    """Read a written graph.  A malformed line, a line that is not UTF-8,
    an edge to an unknown node, or a node or an edge that does not ascend
    in key order (given twice, or out of order) raises GraphFormatError
    naming the file and the line: the first such line, nodes.tsv before
    edges.tsv."""
    directory = Path(directory)
    graph = _read_columns(directory)
    return _read_lines(directory) if graph is None else graph


def _chunks(path: Path):
    """A file's text in chunks of whole lines, each without its last
    newline; ValueError for bytes not UTF-8 or no newline at the end."""
    rest = b""
    with open(path, "rb") as fh:
        while block := fh.read(_CHUNK_BYTES):
            lines, newline, rest = (rest + block).rpartition(b"\n")
            if newline:
                yield lines.decode("utf-8")
    if rest:
        raise ValueError("no newline at the end")


def _read_columns(directory: Path) -> EntailmentGraph | None:
    """The graph, parsed by columns from files as `write_graph` writes
    them, or None for any other files, which `_read_lines` reads."""
    ids, frequency = [], array("q")
    try:
        for text in _chunks(directory / NODE_FILE):
            if text != text.lower():
                return None
            for line in text.split("\n"):
                match = _NODE_LINES[line.partition(":")[0]].fullmatch(line)
                if match is None:
                    return None
                ids.append(match[1])
                frequency.append(int(match[match.lastindex]))
        row = dict(zip(ids, count())).__getitem__
        # Per column, in `EdgeColumns` order: its parse and its field in a line.
        codes = _TYPE_CODES.__getitem__, _PROVENANCE_CODES.__getitem__
        parses = (row, row, float, float, float, float, *codes)
        reads = tuple(zip(parses, (0, 1, 4, 5, 6, 7, 2, 3)))
        with open(directory / EDGE_FILE, "rb") as fh:
            n = sum(block.count(b"\n") for block in iter(partial(fh.read, _CHUNK_BYTES), b""))
        # Each column is sized once: one regrown chunk by chunk leaves its
        # old copies behind, raising the read's peak.
        edges = EdgeColumns()
        for name in edges.__slots__:
            setattr(edges, name, array(getattr(edges, name).typecode, [0]) * n)
        end = 0
        for text in _chunks(directory / EDGE_FILE):
            lines = text.split("\n")
            # The fields line up with the columns only if each line has eight.
            if list(map(str.count, lines, repeat("\t"))).count(7) != len(lines):
                return None
            fields = "\t".join(lines).split("\t")
            start, end = end, end + len(lines)
            for column, (read, at) in zip(edges.columns(), reads):
                column[start:end] = array(column.typecode, map(read, fields[at::8]))
        del row, parses, reads
        edges.check(ids)
        # A count that differs: the file changed while it was read.
        return EntailmentGraph.from_parts(ids, frequency, edges) if end == n else None
    except (OSError, KeyError, ValueError):
        return None


def _read_lines(directory: Path) -> EntailmentGraph:
    """`read_graph` one line at a time: the only source of its errors."""
    ids: list[str] = []
    frequency = array("q")
    row_of: dict[str, int] = {}
    for lineno, line in _file_lines(directory, NODE_FILE):
        if line.count("\t") != 3:
            raise _fault(NODE_FILE, lineno, "expected 4 fields")
        node_id, corpus_fields = line.split("\t", 1)
        try:
            parsed_id, freq = parse_corpus_line(corpus_fields, lineno)
        except ValueError as exc:
            # The corpus parser's message already starts "line N: ".
            raise GraphFormatError(f"{NODE_FILE} {exc}") from exc
        if parsed_id != node_id:
            raise _fault(NODE_FILE, lineno, f"id {node_id!r} does not match tokens")
        if ids and node_id <= ids[-1]:
            raise _fault(NODE_FILE, lineno, _disorder("node", node_id, node_id == ids[-1]))
        row_of[node_id] = len(ids)
        ids.append(node_id)
        frequency.append(freq)

    n = len(ids)
    edges = EdgeColumns()
    last_key = -1
    for lineno, line in _file_lines(directory, EDGE_FILE):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 8:
            raise _fault(EDGE_FILE, lineno, "expected 8 fields")
        from_id, to_id, label, provenance = parts[:4]
        try:
            scores = tuple(map(float, parts[4:]))
            ScoredEdge(from_id, to_id, *scores, provenance, label)
        except ValueError as exc:
            raise _fault(EDGE_FILE, lineno, exc) from exc
        src, dst = row_of.get(from_id), row_of.get(to_id)
        if src is None or dst is None:
            message = f"edge endpoint not among graph nodes: {from_id} -> {to_id}"
            raise _fault(EDGE_FILE, lineno, message)
        key = src * n + dst
        if key <= last_key:
            message = _disorder("edge", f"{from_id} -> {to_id}", key == last_key)
            raise _fault(EDGE_FILE, lineno, message)
        last_key = key
        edges.append(src, dst, *scores, _TYPE_CODES[label], _PROVENANCE_CODES[provenance])
    del row_of
    return EntailmentGraph.from_parts(ids, frequency, edges)


def _fault(name: str, lineno: int, message) -> GraphFormatError:
    return GraphFormatError(f"{name} line {lineno}: {message}")


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
    c = graph.columns
    n_type = Counter(c.type)
    n_local = Counter(compress(c.type, map(eq, c.prov, repeat(LOCAL))))
    # Endpoints marked over the rows: per type present, and for all types.
    every = bytearray(len(graph.ids))
    marks = {code: bytearray(len(every)) for code in n_type}
    for src, dst, code in zip(c.src, c.dst, c.type):
        mark = marks[code]
        mark[src] = mark[dst] = every[src] = every[dst] = 1
    rows = [
        StatsRow(label, marks.get(code, b"").count(1), n_local[code], n_type[code])
        for code, label in enumerate(TYPE_LABELS)
    ]
    rows.append(StatsRow(OVERALL_LABEL, every.count(1), sum(n_local.values()), len(c)))
    return rows


def format_stats(rows) -> str:
    lines = [STATS_COLUMNS, *map(astuple, rows)]
    return "".join("\t".join(map(str, line)) + "\n" for line in lines)


def sample_for_annotation(graph: EntailmentGraph, n_per_type: int, seed: int) -> list[str]:
    """Per-type uniform sample of premise/hypothesis pairs, without
    replacement, reproducible under the seed.

    Types with fewer edges than requested emit everything behind a
    warning record (a leading '#' line).
    """
    if n_per_type < 0:
        raise ValueError(f"n_per_type must be >= 0, got {n_per_type}")
    rng = random.Random(seed)
    lines: list[str] = []
    c = graph.columns
    by_type: list[list[int]] = [[] for _ in TYPE_LABELS]
    for i, code in enumerate(c.type if n_per_type else ()):
        by_type[code].append(i)
    for label, keys in zip(TYPE_LABELS, by_type):
        if 0 < len(keys) < n_per_type:
            lines.append(
                f"# warning: type {label!r} has only {len(keys)} edges, requested {n_per_type}"
            )
        chosen = keys if len(keys) <= n_per_type else sorted(rng.sample(keys, n_per_type))
        for i in chosen:
            premise, hypothesis = graph.text(c.src[i]), graph.text(c.dst[i])
            lines.append(f"{premise}\t{hypothesis}\t{label}\t{c.local[i]!r}")
    return lines


def resolve_node(graph: EntailmentGraph, ref: str) -> str:
    """Resolve an id or a unique display text to a node id."""
    if graph.row(ref) >= 0:
        return ref
    r = graph.row_by_text.get(ref)
    if r is None:
        raise NodeLookupError(f"unknown eventuality {ref!r}")
    if r >= 0:
        return graph.ids[r]
    matches = [node_id for i, node_id in enumerate(graph.ids) if graph.text(i) == ref]
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
    src, dst = graph.row(src), graph.row(dst)
    direct = graph.edge_index(src, dst)
    if direct >= 0:
        return QueryResult("direct", (graph.edge(direct),))
    offsets, targets = graph.offsets, graph.columns.dst
    # Breadth-first over rows; `parent` holds the row that first reached a row.
    parent: dict[int, int] = {src: -1}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nxt in targets[offsets[cur]:offsets[cur + 1]]:
            if nxt in parent:
                continue
            parent[nxt] = cur
            if nxt == dst:
                trail = []
                while nxt != src:
                    prev = parent[nxt]
                    trail.append(graph.edge(graph.edge_index(prev, nxt)))
                    nxt = prev
                return QueryResult("chain", tuple(reversed(trail)))
            queue.append(nxt)
    return QueryResult("none", ())
