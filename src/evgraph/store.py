"""Persisted entailment graph: node/edge TSV files, per-type statistics,
annotation sampling, and entailment queries.

Edge file columns: from_id, to_id, type_label, provenance, arg_score,
pred_score, penalty, local_score.  Node file columns: id, pattern,
role=token pairs, frequency.  Scores serialize as shortest round-trip
decimals, so a write/read cycle is bit-exact.

A sealed graph is columnar: node `ids` (ascending) and `frequency`, and
one `EdgeColumns` sorted by (from row, to row), which is (from_id,
to_id) order, with `offsets` marking each source row's edges.  `nodes`,
`edges` and `by_source` are read-only mappings over the columns that
build an `Eventuality` or a `ScoredEdge` on lookup.  `from_parts` takes
its columns over and puts edges that come out of order in key order in
place (`EdgeColumns.sort`).  `read_graph` streams both files
through `corpus.decoded_lines` straight into the columns: node lines
through `corpus.parse_corpus_line` (whose regex fast path takes the
canonical lines `write_graph` writes), edge lines through the
`ScoredEdge` constructor's checks.  The cyclic garbage collector is
paused (`paused_collector`) for a whole build as well as for a read.
"""

from __future__ import annotations

import gc
import random
from array import array
from bisect import bisect_left
from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import astuple, dataclass
from functools import cached_property
from itertools import compress, count, islice, repeat
from operator import eq
from pathlib import Path
from types import MappingProxyType

from .corpus import corpus_line, decoded_lines, parse_corpus_line
from .model import LOCAL, PROVENANCES, TYPE_LABELS, EdgeColumns, Eventuality, ScoredEdge
from .model import display_text, plausible, split_id

NODE_FILE = "nodes.tsv"
EDGE_FILE = "edges.tsv"

OVERALL_LABEL = "Overall"

STATS_COLUMNS = ("type", "n_eventualities", "n_er_local", "n_er_global")


class GraphFormatError(ValueError):
    """Malformed graph file, with the offending line number."""


class NodeLookupError(KeyError):
    """Unknown or ambiguous eventuality reference in a query."""


@dataclass(frozen=True, eq=False)
class EntailmentGraph:
    ids: list[str]  # row -> node id, ascending
    frequency: array  # 'q'
    columns: EdgeColumns  # sorted by (from row, to row)
    offsets: array  # 'I': row r's edges are offsets[r] up to offsets[r + 1]

    @classmethod
    def from_parts(cls, ids: list[str], frequency: array, edges: EdgeColumns) -> "EntailmentGraph":
        """Seal nodes and edges into a graph, kept in key order.  `ids` and
        `frequency` are the nodes; the edges' endpoints are positions in
        `ids`.  The graph takes all three over: `edges.sort` puts the edges
        in key order on the given holder, so a caller that still holds it
        sees them reordered.  A node id or an edge's (from, to) pair given
        twice is rejected, as is an endpoint past the last node."""
        n = len(ids)
        if edges.src and (top := max(max(edges.src), max(edges.dst))) >= n:
            raise ValueError(f"edge endpoint not among graph nodes: row {top}")
        if not all(map(str.__lt__, ids, islice(ids, 1, None))):
            order = array("I", sorted(range(n), key=ids.__getitem__))
            ids = list(map(ids.__getitem__, order))
            for prev, node_id in zip(ids, islice(ids, 1, None)):
                if prev == node_id:
                    raise ValueError(f"duplicate node {node_id}")
            frequency = array("q", map(frequency.__getitem__, order))
            rank = sorted(range(n), key=order.__getitem__)  # the inverse of order
            edges.src = array("I", map(rank.__getitem__, edges.src))
            edges.dst = array("I", map(rank.__getitem__, edges.dst))
        offsets = edges.sort(n)
        src, dst = edges.src, edges.dst
        for i in compress(count(1), map(eq, dst, islice(dst, 1, None))):
            if src[i] == src[i - 1]:
                raise ValueError(f"duplicate edge {ids[src[i]]} -> {ids[dst[i]]}")
        return cls(ids, frequency, edges, offsets)

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

    @cached_property
    def by_source(self) -> Mapping[str, tuple[str, ...]]:
        """Node id -> the to_ids of its edges, for each node with edges;
        built on first use."""
        ids, dst, off = self.ids, self.columns.dst, self.offsets
        spans = ((ids[r], dst[off[r]:off[r + 1]]) for r in range(len(ids)) if off[r] < off[r + 1])
        return MappingProxyType({node_id: tuple(ids[d] for d in to) for node_id, to in spans})

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EntailmentGraph):
            return NotImplemented
        parts = (self.ids, self.frequency, self.columns)
        return parts == (other.ids, other.frequency, other.columns)


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


class paused_collector:
    """Context manager that pauses the cyclic garbage collector for its
    block and leaves it as the caller had it, also when the block raises
    or is nested: a build or a read makes next to no reference cycles.
    `__exit__` allocates nothing after it turns the collector back on,
    so its first pass runs at the caller's next allocation; a
    `contextlib.contextmanager` generator would run it at once."""

    def __enter__(self) -> None:
        self._collecting = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._collecting:
            gc.enable()


def read_graph(directory: str | Path) -> EntailmentGraph:
    """Read a written graph.  A malformed line, a line that is not UTF-8,
    a node or an edge given twice, or an edge to an unknown node raises
    GraphFormatError naming the file and the line: the first such line,
    nodes.tsv before edges.tsv."""
    with paused_collector():
        return _read_graph(Path(directory))


def _file_lines(directory: Path, name: str):
    """`decoded_lines` of one graph file; a line that is not UTF-8 raises
    GraphFormatError naming the file."""
    return decoded_lines(directory / name, lambda message: GraphFormatError(f"{name} {message}"))


_TYPE_CODES = {label: code for code, label in enumerate(TYPE_LABELS)}
_PROVENANCE_CODES = {name: code for code, name in enumerate(PROVENANCES)}


def _read_graph(directory: Path) -> EntailmentGraph:
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
        if row_of.setdefault(node_id, len(ids)) != len(ids):
            raise _fault(NODE_FILE, lineno, f"duplicate node {node_id}")
        ids.append(node_id)
        frequency.append(freq)

    n = len(ids)
    edges = EdgeColumns()
    last_from, src, last_key = None, None, -1
    keys: set[int] | None = None  # every key so far, once the edges came out of order
    for lineno, line in _file_lines(directory, EDGE_FILE):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 8:
            raise _fault(EDGE_FILE, lineno, "expected 8 fields")
        from_id, to_id, label, provenance = parts[:4]
        try:
            a, p, f, loc = map(float, parts[4:])
        except ValueError as exc:
            raise _fault(EDGE_FILE, lineno, exc) from exc
        code, prov = _TYPE_CODES.get(label), _PROVENANCE_CODES.get(provenance)
        if from_id != last_from:
            src, last_from = row_of.get(from_id), from_id
        dst = row_of.get(to_id)
        # A screen for the common case; a line it stops gets the
        # ScoredEdge constructor's checks, which name the fault.
        if not (
            from_id != to_id and code is not None and prov is not None and plausible(a, p, f, loc)
            and src is not None and dst is not None
        ):
            try:
                ScoredEdge(from_id, to_id, a, p, f, loc, provenance, label)
            except ValueError as exc:
                raise _fault(EDGE_FILE, lineno, exc) from exc
            message = f"edge endpoint not among graph nodes: {from_id} -> {to_id}"
            raise _fault(EDGE_FILE, lineno, message)
        key = src * n + dst
        if key <= last_key and keys is None:
            keys = {s * n + d for s, d in zip(edges.src, edges.dst)}
        if keys is not None:
            if key in keys:
                raise _fault(EDGE_FILE, lineno, f"duplicate edge {from_id} -> {to_id}")
            keys.add(key)
        last_key = key
        edges.append(src, dst, a, p, f, loc, code, prov)
    del row_of, keys
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
