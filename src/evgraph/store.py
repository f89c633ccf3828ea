"""Persisted entailment graph: node/edge TSV files and the column file
beside them, per-type statistics, annotation sampling, and entailment
queries.

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
the columns that build an `Eventuality` or a `ScoredEdge` on lookup; no
evgraph code reads them, and they stay for the benchmark's graph digest
(`perfbench/phases.py`).

`write_graph` formats node lines a block of one pattern's rows at a time:
the block's tokens are split at once, and formatted by columns into the
corpus's role field of the pattern.  It then writes the column file
(`COLUMN_FILE`, laid out at `_HEADER`): the same graph as binary arrays,
with the sha256 of both TSVs.  It holds no whole-file copy: ids are
encoded a block at a time, the arrays go out by `tofile`, and the TSVs
are hashed as read back in chunks.

`read_graph` takes the column file only when its header and all three
digests match the files on disk and its graph passes the line reader's
checks.  Any other graph (no column file, a stale one, one of another
build, or a graph that fails a check) is read line by line, by the
reader that alone names a faulty line.  So a read depends on the TSVs
alone, and deleting the column file is always safe.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import struct
import sys
from array import array
from bisect import bisect_left
from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import astuple, dataclass, field
from functools import cached_property, partial
from itertools import compress, count, islice, repeat
from operator import eq, ge
from pathlib import Path

from .corpus import _TOKEN, decoded_lines, parse_corpus_line
from .model import LOCAL, PROVENANCES, TYPE_LABELS, EdgeColumns, Eventuality, ScoredEdge, _starts
from .model import PATTERN_ROLES, display_text, split_id

NODE_FILE = "nodes.tsv"
EDGE_FILE = "edges.tsv"
COLUMN_FILE = "graph.bin"

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


# Node lines are formatted and written this many at a time; blocks of 4096
# raised the `forest-wide` build's peak by 0.8 MB.
_NODE_BLOCK = 256
# Pattern -> the role=token field of its corpus line, as a format string.
_ROLE_FIELDS = {
    pattern: ";".join(f"{role}={{}}" for role in roles) for pattern, roles in PATTERN_ROLES.items()
}


def write_graph(graph: EntailmentGraph, directory: str | Path) -> None:
    """Write nodes and edges in the graph's key order, then the column file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ids = graph.ids
    with open(directory / NODE_FILE, "w", encoding="utf-8") as fh:
        start = 0
        while start < len(ids):
            # A pattern's ids run up to the first one not below "pattern;".
            pattern = ids[start].partition(":")[0]
            end = min(bisect_left(ids, pattern + ";", start), start + _NODE_BLOCK)
            roles = _ROLE_FIELDS[pattern]
            block, cut, n = ids[start:end], len(pattern) + 1, len(PATTERN_ROLES[pattern])
            tokens = "|".join([node_id[cut:] for node_id in block]).split("|")
            if len(tokens) != n * len(block):
                raise ValueError(f"a {pattern} node id without {n} tokens")
            line = f"{{}}\t{pattern}\t{roles}\t{{}}\n".format
            columns = (islice(tokens, k, None, n) for k in range(n))
            fh.write("".join(map(line, block, *columns, graph.frequency[start:end])))
            start = end
    c = graph.columns
    with open(directory / EDGE_FILE, "w", encoding="utf-8") as fh:
        for src, dst, code, prov, arg, pred, pen, local in zip(
            c.src, c.dst, c.type, c.prov, c.arg, c.pred, c.pen, c.local
        ):
            fh.write(
                f"{ids[src]}\t{ids[dst]}\t{TYPE_LABELS[code]}\t{PROVENANCES[prov]}\t"
                f"{arg!r}\t{pred!r}\t{pen!r}\t{local!r}\n"
            )
    _write_column_file(graph, directory)


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

# The column file's header: magic, version, byte order, the item sizes of
# `frequency` and the eight edge columns, the node, edge and id-blob
# counts, then the sha256 of nodes.tsv, of edges.tsv and of the body and
# counts.  The body: the "\n"-joined ids in UTF-8, then `frequency` and
# the eight edge columns, in the byte order of the header.
_HEADER = struct.Struct("<8sHc9s3Q32s32s32s")
_COUNTS = struct.Struct("<3Q")
_SIZES = bytes(column.itemsize for column in (array("q"), *EdgeColumns().columns()))
_STAMP = (b"evgraph\0", 1, sys.byteorder[0].encode(), _SIZES)
# A node id as the line reader takes it, lower case apart.
_ID = re.compile(
    "|".join(f"{re.escape(p)}:{'[|]'.join([_TOKEN] * len(r))}" for p, r in PATTERN_ROLES.items())
)


def _tsv_digests(directory: Path) -> list[bytes]:
    """The sha256 of nodes.tsv and of edges.tsv, each read a MiB at a time."""
    digests = [hashlib.sha256(), hashlib.sha256()]
    for digest, name in zip(digests, (NODE_FILE, EDGE_FILE)):
        with open(directory / name, "rb") as fh:
            for block in iter(partial(fh.read, 1 << 20), b""):
                digest.update(block)
    return [digest.digest() for digest in digests]


def _write_column_file(graph: EntailmentGraph, directory: Path) -> None:
    """Write the column file beside the graph's written TSVs, header last."""
    ids, body, blob = graph.ids, hashlib.sha256(), 0
    with open(directory / COLUMN_FILE, "wb") as fh:
        fh.write(bytes(_HEADER.size))
        for start in range(0, len(ids), _NODE_BLOCK):
            data = (("\n" if start else "") + "\n".join(ids[start:start + _NODE_BLOCK])).encode()
            body.update(data)
            blob += fh.write(data)
        for column in (graph.frequency, *graph.columns.columns()):
            body.update(column)
            column.tofile(fh)
        counts = (len(ids), len(graph.columns), blob)
        body.update(_COUNTS.pack(*counts))
        fh.seek(0)
        fh.write(_HEADER.pack(*_STAMP, *counts, *_tsv_digests(directory), body.digest()))


def read_graph(directory: str | Path) -> EntailmentGraph:
    """Read a written graph.  A malformed line, a line that is not UTF-8,
    an edge to an unknown node, or a node or an edge that does not ascend
    in key order (given twice, or out of order) raises GraphFormatError
    naming the file and the line: the first such line, nodes.tsv before
    edges.tsv."""
    directory = Path(directory)
    graph = _read_column_file(directory)
    return _read_lines(directory) if graph is None else graph


def _read_column_file(directory: Path) -> EntailmentGraph | None:
    """The graph in the column file, or None unless its header and digests
    match the files on disk and it passes the line reader's checks: the id
    grammar, frequency below 10**18, `EdgeColumns.check` and `from_parts`."""
    try:
        with open(directory / COLUMN_FILE, "rb") as fh:
            *stamp, n, m, blob, nodes_sha, edges_sha, digest = _HEADER.unpack(fh.read(_HEADER.size))
            size = _HEADER.size + blob + n * _SIZES[0] + m * sum(_SIZES[1:])
            stale = tuple(stamp) != _STAMP or size != os.fstat(fh.fileno()).st_size
            if stale or [nodes_sha, edges_sha] != _tsv_digests(directory):
                return None
            frequency, edges = array("q"), EdgeColumns()
            body = hashlib.sha256(text := fh.read(blob))
            for column in (frequency, *edges.columns()):
                column.fromfile(fh, n if column is frequency else m)
                body.update(column)
            body.update(_COUNTS.pack(n, m, blob))
            if body.digest() != digest:
                return None
        text = text.decode("utf-8")
        ids = text.split("\n") if text else []
        if (len(ids) != n or text != text.lower() or not all(map(_ID.fullmatch, ids))
                or min(frequency, default=1) < 1 or max(frequency, default=1) >= 10**18):
            return None
        edges.check(ids)
        return EntailmentGraph.from_parts(ids, frequency, edges)
    except (OSError, EOFError, ValueError, struct.error):
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
