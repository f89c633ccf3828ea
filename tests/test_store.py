"""Graph persistence, statistics, sampling, and queries."""

import gc
import math
import operator
import random
import tempfile
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from columns import columns_of, graph_from, sealed, type_label
from evgraph import store
from evgraph.config import PipelineConfig
from evgraph.local import compose_edge
from evgraph.model import EdgeColumns, Eventuality, ScoredEdge, aligned_slots, split_id
from evgraph.pipeline import run_build
from evgraph.store import (
    EntailmentGraph,
    GraphFormatError,
    NodeLookupError,
    format_stats,
    query_entails,
    read_graph,
    resolve_node,
    sample_for_annotation,
    stats,
    write_graph,
)
from evgraph.synth import write_toy_inputs
from randomtoy import corpus_line, eventualities, write_random_toy


def node(n1, v1, n2, freq=1):
    return Eventuality.create("s-v-o", {"n1": n1, "v1": v1, "n2": n2}, freq)


def edge(a, b, arg=0.5, pred=0.5, pen=1.0, provenance="global"):
    return ScoredEdge(
        from_id=a.id,
        to_id=b.id,
        arg_score=arg,
        pred_score=pred,
        penalty=pen,
        local_score=math.sqrt(arg * pred * pen),
        provenance=provenance,
        type_label=type_label(a.pattern, b.pattern),
    )


@pytest.fixture
def small_graph():
    a, b, c = node("boy", "chew", "apple"), node("boy", "eat", "apple"), node("boy", "eat", "food")
    nodes = [a, b, c]
    edges = [
        edge(a, b, arg=1 / 3, pred=0.7),
        edge(b, c, arg=0.9, pred=1.0, provenance="local"),
        edge(a, c, arg=0.1, pred=0.7),
    ]
    return graph_from(nodes, edges)


def test_round_trip_small_graph(small_graph, tmp_path):
    write_graph(small_graph, tmp_path)
    again = read_graph(tmp_path)
    assert again == small_graph
    # scores survive bit-exactly
    for key, e in small_graph.edges.items():
        assert again.edges[key].local_score == e.local_score


def test_round_trip_is_byte_stable(small_graph, tmp_path):
    write_graph(small_graph, tmp_path / "one")
    write_graph(read_graph(tmp_path / "one"), tmp_path / "two")
    for name in ("nodes.tsv", "edges.tsv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_truncated_edge_file_errors_with_line(small_graph, tmp_path):
    write_graph(small_graph, tmp_path)
    edges_file = tmp_path / "edges.tsv"
    lines = edges_file.read_text(encoding="utf-8").splitlines()
    lines[1] = "\t".join(lines[1].split("\t")[:5])
    edges_file.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(GraphFormatError, match="line 2"):
        read_graph(tmp_path)


def test_corrupted_score_identity_rejected(small_graph, tmp_path):
    write_graph(small_graph, tmp_path)
    edges_file = tmp_path / "edges.tsv"
    lines = edges_file.read_text(encoding="utf-8").splitlines()
    parts = lines[0].split("\t")
    parts[7] = "0.99"
    lines[0] = "\t".join(parts)
    edges_file.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(GraphFormatError, match="line 1"):
        read_graph(tmp_path)


def test_node_id_token_mismatch_rejected(small_graph, tmp_path):
    write_graph(small_graph, tmp_path)
    nodes_file = tmp_path / "nodes.tsv"
    content = nodes_file.read_text(encoding="utf-8").replace(
        "s-v-o:boy|chew|apple\t", "s-v-o:boy|chew|pear\t", 1
    )
    nodes_file.write_text(content, encoding="utf-8")
    with pytest.raises(GraphFormatError, match="does not match"):
        read_graph(tmp_path)


def test_bad_node_line_names_its_line_once(tmp_path):
    (tmp_path / "nodes.tsv").write_text("s-v-o:boy|eat\ts-v-o\tn1=boy;v1=eat\t1\n", encoding="utf-8")
    (tmp_path / "edges.tsv").write_text("", encoding="utf-8")
    with pytest.raises(GraphFormatError) as err:
        read_graph(tmp_path)
    assert str(err.value) == (
        "nodes.tsv line 1: pattern s-v-o: missing roles ['n2'], extra roles none"
    )


@pytest.mark.parametrize(
    "line",
    [
        "s-v:dog|bark\ts-v\tn1=dog;v1=bark",
        "s-v:dog|bark\ts-v\tn1=dog;v1=bark\t1\t1",
    ],
)
def test_node_line_needs_four_fields(small_graph, tmp_path, line):
    write_graph(small_graph, tmp_path)
    nodes_file = tmp_path / "nodes.tsv"
    nodes_file.write_text(nodes_file.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    with pytest.raises(GraphFormatError) as err:
        read_graph(tmp_path)
    assert str(err.value) == "nodes.tsv line 4: expected 4 fields"


@pytest.mark.parametrize(
    "column,value,message",
    [
        (4, "high", "could not convert string to float: 'high'"),
        (5, "1.5", "pred_score out of [0,1]: 1.5"),
        (2, "s-v ⊨ s-v-o", "unknown type label 's-v ⊨ s-v-o'"),
        (3, "remote", "unknown provenance 'remote'"),
        (1, "s-v-o:boy|chew|apple", "self-entailment edge rejected: s-v-o:boy|chew|apple"),
    ],
)
def test_edge_line_checks_name_their_line(small_graph, tmp_path, column, value, message):
    write_graph(small_graph, tmp_path)
    edges_file = tmp_path / "edges.tsv"
    lines = edges_file.read_text(encoding="utf-8").splitlines()
    parts = lines[1].split("\t")
    assert parts[0] == "s-v-o:boy|chew|apple"
    parts[column] = value
    lines[1] = "\t".join(parts)
    edges_file.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(GraphFormatError) as err:
        read_graph(tmp_path)
    assert str(err.value) == f"edges.tsv line 2: {message}"


@pytest.mark.parametrize("name,fields", [("nodes.tsv", 4), ("edges.tsv", 8)])
def test_blank_lines_are_skipped_but_counted(small_graph, tmp_path, name, fields):
    write_graph(small_graph, tmp_path)
    path = tmp_path / name
    lines = path.read_text(encoding="utf-8").splitlines()
    padded = ["", lines[0], " \t ", *lines[1:]]
    path.write_text("".join(line + "\n" for line in padded), encoding="utf-8")
    assert read_graph(tmp_path) == small_graph
    path.write_text("".join(line + "\n" for line in [*padded, "cut"]), encoding="utf-8")
    with pytest.raises(GraphFormatError) as err:
        read_graph(tmp_path)
    assert str(err.value) == f"{name} line {len(padded) + 1}: expected {fields} fields"


def test_crlf_line_endings_read_alike(small_graph, tmp_path):
    write_graph(small_graph, tmp_path)
    for name in ("nodes.tsv", "edges.tsv"):
        path = tmp_path / name
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_graph(tmp_path) == small_graph


@pytest.mark.parametrize("enabled", [True, False])
def test_read_graph_leaves_the_collector_as_the_caller_left_it(
    small_graph, tmp_path, monkeypatch, enabled
):
    # The good graph is read by columns; the bad one by columns up to its
    # edges, then again line by line.
    write_graph(small_graph, tmp_path / "good")
    write_graph(small_graph, tmp_path / "bad")
    (tmp_path / "bad" / "edges.tsv").write_text("cut\n", encoding="utf-8")
    seen = {"_chunks": [], "parse_corpus_line": []}

    def see(name):
        call = getattr(store, name)

        def call_and_see(*args):
            seen[name].append(gc.isenabled())
            return call(*args)

        monkeypatch.setattr(store, name, call_and_see)

    for name in seen:
        see(name)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert read_graph(tmp_path / "good") == small_graph
        assert gc.isenabled() is enabled
        with pytest.raises(GraphFormatError):
            read_graph(tmp_path / "bad")
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    for states in seen.values():
        assert states and all(state is enabled for state in states)


def test_dangling_edge_endpoint_is_format_error(small_graph, tmp_path):
    write_graph(small_graph, tmp_path)
    nodes_file = tmp_path / "nodes.tsv"
    lines = nodes_file.read_text(encoding="utf-8").splitlines()
    nodes_file.write_text("".join(line + "\n" for line in lines[1:]), encoding="utf-8")
    with pytest.raises(GraphFormatError, match=r"^edges.tsv line \d+: edge endpoint"):
        read_graph(tmp_path)


def test_from_parts_rejects_duplicate_edge():
    a, b = node("boy", "chew", "apple"), node("boy", "eat", "apple")
    weak = edge(a, b, arg=0.25, pred=1.0)
    strong = edge(a, b, arg=0.81, pred=1.0)
    for edges in ([weak, strong], [strong, weak], [weak, weak]):
        with pytest.raises(ValueError, match="duplicate edge"):
            graph_from([a, b], edges)


def test_from_parts_rejects_duplicate_node():
    a = node("boy", "chew", "apple")
    with pytest.raises(ValueError, match="duplicate node"):
        graph_from([a, node("boy", "chew", "apple", freq=101)], [])


def _add_copy(path, lineno, at=None, edit=lambda fields: fields):
    """Insert a copy of the given 1-based line, its fields passed through
    edit, so that it becomes line `at` (None: the last line); return the
    copy's line number and its first two fields."""
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = edit(lines[lineno - 1].split("\t"))
    at = len(lines) + 1 if at is None else at
    lines.insert(at - 1, "\t".join(fields))
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return at, fields[:2]


def test_read_graph_rejects_duplicate_node_line(small_graph, tmp_path):
    # Next to its original a copy is a repeat; after the last line it is
    # out of key order.
    for at, fault in ((3, "duplicate node {}"), (None, "node {} out of key order")):
        write_graph(small_graph, tmp_path)
        line, (node_id, _) = _add_copy(
            tmp_path / "nodes.tsv", 2, at, lambda f: [*f[:3], str(int(f[3]) + 100)]
        )
        with pytest.raises(GraphFormatError) as err:
            read_graph(tmp_path)
        assert str(err.value) == f"nodes.tsv line {line}: {fault.format(node_id)}"


def test_read_graph_rejects_duplicate_edge_line(small_graph, tmp_path):
    for at, fault in ((2, "duplicate edge {}"), (None, "edge {} out of key order")):
        write_graph(small_graph, tmp_path)
        line, (a, b) = _add_copy(tmp_path / "edges.tsv", 1, at)
        with pytest.raises(GraphFormatError) as err:
            read_graph(tmp_path)
        assert str(err.value) == f"edges.tsv line {line}: {fault.format(f'{a} -> {b}')}"


def test_edge_endpoints_must_be_nodes():
    a, b = node("boy", "chew", "apple"), node("boy", "eat", "apple")
    edges = columns_of([edge(a, b)], {a.id: 0, b.id: 1})
    with pytest.raises(ValueError, match="^edge endpoint not among graph nodes: row 1$"):
        EntailmentGraph.from_parts([a.id], array("q", [1]), edges)


def test_stats_row_structure_and_counts(small_graph):
    rows = stats(small_graph)
    labels = [r.label for r in rows]
    assert labels == [
        "s-v ⊨ s-v",
        "s-v-o ⊨ s-v-o",
        "s-v-p-o ⊨ s-v-p-o",
        "s-v-o-p-o ⊨ s-v-o",
        "s-v-p-o ⊨ s-v-o",
        "s-v-o ⊨ s-v-p-o",
        "s-v-o-p-o ⊨ s-v-o-p-o",
        "s-v-a ⊨ s-be-a",
        "s-be-a-p-o ⊨ s-be-a",
        "s-be-a-p-o ⊨ s-be-a-p-o",
        "Overall",
    ]
    svo = rows[1]
    assert (svo.n_eventualities, svo.n_er_local, svo.n_er_global) == (3, 1, 3)
    overall = rows[-1]
    assert (overall.n_eventualities, overall.n_er_local, overall.n_er_global) == (3, 1, 3)


def test_stats_empty_graph():
    graph = graph_from([], [])
    for row in stats(graph):
        assert row.n_eventualities == row.n_er_local == row.n_er_global == 0


def test_format_stats_tsv(small_graph):
    text = format_stats(stats(small_graph))
    lines = text.splitlines()
    assert lines[0] == "type\tn_eventualities\tn_er_local\tn_er_global"
    assert len(lines) == 12


def test_sampling_deterministic(small_graph):
    first = sample_for_annotation(small_graph, 2, seed=42)
    second = sample_for_annotation(small_graph, 2, seed=42)
    assert first == second
    assert sample_for_annotation(small_graph, 2, seed=7) != first or len(first) <= 2


def test_sampling_zero_is_empty(small_graph):
    assert sample_for_annotation(small_graph, 0, seed=1) == []


def test_sampling_warns_when_short(small_graph):
    lines = sample_for_annotation(small_graph, 100, seed=1)
    assert lines[0].startswith("# warning:")
    assert len([line for line in lines if not line.startswith("#")]) == 3
    assert any("boy chew apple\tboy eat apple" in line for line in lines)


def test_sampling_rejects_negative(small_graph):
    with pytest.raises(ValueError):
        sample_for_annotation(small_graph, -1, seed=0)


def test_query_direct(small_graph):
    result = query_entails(small_graph, "boy chew apple", "boy eat apple")
    assert result.kind == "direct" and len(result.trail) == 1


def test_query_chain(small_graph):
    a = node("boy", "chew", "apple")
    b = node("boy", "eat", "apple")
    c = node("boy", "eat", "food")
    graph = graph_from([a, b, c], [edge(a, b), edge(b, c)])
    result = query_entails(graph, a.id, c.id)
    assert result.kind == "chain"
    assert [e.from_id for e in result.trail] == [a.id, b.id]


def test_query_none_cases(small_graph):
    assert query_entails(small_graph, "boy eat food", "boy chew apple").kind == "none"
    assert query_entails(small_graph, "boy chew apple", "boy chew apple").kind == "none"


def test_query_unknown_raises(small_graph):
    with pytest.raises(NodeLookupError, match="unknown"):
        query_entails(small_graph, "boy chew apple", "nobody knows this")


def test_query_ambiguous_text_raises():
    # same display text under two patterns: "it smell nice"
    sva = Eventuality.create("s-v-a", {"n1": "it", "v1": "smell", "a1": "nice"}, 1)
    svo = Eventuality.create("s-v-o", {"n1": "it", "v1": "smell", "n2": "nice"}, 1)
    graph = graph_from([sva, svo], [])
    with pytest.raises(NodeLookupError, match="ambiguous"):
        query_entails(graph, "it smell nice", "it smell nice")
    # exact ids still resolve
    assert query_entails(graph, sva.id, svo.id).kind == "none"


def test_resolve_id_takes_precedence_over_equal_text():
    # A node's text never holds a "|", so it cannot read like another
    # node's id; the text index is made to say so, to pin the precedence.
    named = Eventuality("s-v", ("x y", "z"), 1)
    other = Eventuality("s-v", ("x", "y"), 1)
    graph = graph_from([named, other], [])
    graph.__dict__["row_by_text"] = {named.id: 1, named.text: 0}
    assert resolve_node(graph, named.id) == named.id
    assert resolve_node(graph, named.text) == named.id
    assert resolve_node(graph, other.id) == other.id


def test_resolve_unknown_and_ambiguous_messages():
    sva = Eventuality.create("s-v-a", {"n1": "it", "v1": "smell", "a1": "nice"}, 1)
    svo = Eventuality.create("s-v-o", {"n1": "it", "v1": "smell", "n2": "nice"}, 1)
    graph = graph_from([svo, sva], [])
    with pytest.raises(NodeLookupError) as unknown:
        resolve_node(graph, "it smell bad")
    assert unknown.value.args == ("unknown eventuality 'it smell bad'",)
    with pytest.raises(NodeLookupError) as ambiguous:
        resolve_node(graph, "it smell nice")
    assert ambiguous.value.args == (
        "ambiguous eventuality text 'it smell nice': "
        "['s-v-a:it|smell|nice', 's-v-o:it|smell|nice']",
    )


def _scan(graph, ref):
    """resolve_node as a linear scan over every node."""
    if ref in graph.nodes:
        return ref
    matches = [nid for nid in sorted(graph.nodes) if graph.nodes[nid].text == ref]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise NodeLookupError(f"unknown eventuality {ref!r}")
    raise NodeLookupError(f"ambiguous eventuality text {ref!r}: {matches}")


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except NodeLookupError as exc:
        return "error", exc.args


# Few tokens, with "be" as a verb too, so display texts collide across
# patterns ("it be nice" reads the same as s-v-o and s-be-a).
WORDS = ("it", "be", "nice", "at")


@given(st.lists(eventualities(WORDS), max_size=12), st.lists(st.sampled_from(WORDS), max_size=5))
def test_resolve_index_equals_linear_scan(nodes, words):
    graph = graph_from({n.id: n for n in nodes}.values(), [])
    refs = [n.text for n in nodes] + [n.id for n in nodes] + [" ".join(words)]
    for ref in refs:
        assert _outcome(resolve_node, graph, ref) == _outcome(_scan, graph, ref)


# Multi-word and non-ASCII tokens, in every role of all seven patterns.
ROUND_TRIP_WORDS = ("ice cream", "new york city", "crème brûlée", "it", "be", "at")
unit_scores = st.floats(0.0, 1.0)
conditionals = st.floats(1e-9, 1.0)


@st.composite
def graph_parts(draw, min_nodes=0, min_edges=0, max_nodes=10):
    """The nodes and edges of a random graph, each list in key order;
    at least `min_edges` edges where the nodes admit as many."""
    drawn = draw(
        st.lists(
            eventualities(ROUND_TRIP_WORDS, st.integers(1, 10**9)),
            min_size=min_nodes, max_size=max_nodes,
        )
    )
    nodes = list({n.id: n for n in drawn}.values())
    admissible = [
        (a, b)
        for a in nodes
        for b in nodes
        if a.id != b.id and aligned_slots(a.pattern, b.pattern) is not None
    ]
    pairs = []
    if admissible:
        least = min(min_edges, len(admissible))
        pairs = draw(st.lists(st.sampled_from(admissible), min_size=least, unique=True))
    edges = []
    for a, b in pairs:
        pred, c_from, c_to, arg = (
            draw(unit_scores), draw(conditionals), draw(conditionals), draw(unit_scores)
        )
        pen, score = compose_edge(pred, c_from, c_to, arg)
        provenance = draw(st.sampled_from(("local", "global")))
        edges.append(
            ScoredEdge(a.id, b.id, arg, pred, pen, score, provenance, type_label(a.pattern, b.pattern))
        )
    return sorted(nodes, key=lambda n: n.id), sorted(edges, key=lambda e: (e.from_id, e.to_id))


# Three examples in four come with four nodes or more and, where their
# patterns admit them, two edges or more; the rest may be empty or tiny.
edged_parts = st.integers(0, 3).flatmap(
    lambda k: graph_parts(min_nodes=4, min_edges=2) if k else graph_parts()
)
scored_graphs = edged_parts.map(lambda parts: graph_from(*parts))


def _score_bits(graph):
    return {
        key: tuple(float.hex(x) for x in (e.arg_score, e.pred_score, e.penalty, e.local_score))
        for key, e in graph.edges.items()
    }


@given(scored_graphs)
def test_round_trip_is_bit_exact_on_random_graphs(graph):
    with tempfile.TemporaryDirectory() as tmp:
        one, two = Path(tmp) / "one", Path(tmp) / "two"
        write_graph(graph, one)
        again = read_graph(one)
        assert again == graph
        assert _score_bits(again) == _score_bits(graph)
        write_graph(again, two)
        for name in ("nodes.tsv", "edges.tsv"):
            assert (one / name).read_bytes() == (two / name).read_bytes()


def _out_edges(graph):
    """Node id -> the to_ids of its edges, read through `offsets`, for
    each node with edges, in row order."""
    ids, dst, off = graph.ids, graph.columns.dst, graph.offsets
    spans = ((ids[r], dst[off[r]:off[r + 1]]) for r in range(len(ids)))
    return {node_id: tuple(ids[d] for d in to) for node_id, to in spans if to}


@given(graph_parts(), st.data())
def test_seal_rejects_shuffled_input_that_edge_sort_orders(parts, data):
    # The seal moves nothing, rejecting input out of key order and holding
    # input in order as given; the global stage's sort orders edges.
    nodes, edges = parts
    ordered = graph_from(nodes, edges)
    assert list(ordered.nodes) == [n.id for n in nodes]
    assert list(ordered.edges) == [(e.from_id, e.to_id) for e in edges]
    shuffled_nodes = data.draw(st.permutations(nodes))
    if shuffled_nodes != nodes:
        with pytest.raises(ValueError, match="^node .* out of key order$"):
            sealed(shuffled_nodes, [])
    shuffled = data.draw(st.permutations(edges))
    row = {n.id: r for r, n in enumerate(nodes)}
    columns = columns_of(shuffled, row)
    given_columns = columns.columns()
    if shuffled != edges:
        with pytest.raises(ValueError, match="^edge .* -> .* out of key order$"):
            EntailmentGraph.from_parts(ordered.ids, ordered.frequency, columns)
        assert all(map(operator.is_, columns.columns(), given_columns))
        assert columns == columns_of(shuffled, row)
    columns.sort(len(nodes))
    assert columns == ordered.columns
    ids, frequency, given_columns = list(ordered.ids), array("q", ordered.frequency), columns.columns()
    graph = EntailmentGraph.from_parts(ids, frequency, columns)
    assert graph.ids is ids and graph.frequency is frequency and graph.columns is columns
    assert all(map(operator.is_, columns.columns(), given_columns))
    assert graph == ordered
    # `offsets` span each source's edges, to_ids ascending.
    source_ref: dict[str, tuple[str, ...]] = {}
    for a, b in sorted((e.from_id, e.to_id) for e in shuffled):
        source_ref[a] = (*source_ref.get(a, ()), b)
    assert list(_out_edges(graph).items()) == list(source_ref.items())


def test_edge_sort_makes_no_second_copy_of_the_columns():
    # Shuffled edges are reordered a column at a time, each old column
    # freed as its reordered copy replaces it: beyond its input the sort
    # allocates at most half the columns' own bytes, where a sorted copy
    # of every column alone would be all of them.
    rng = random.Random(3)
    n = 3000
    ids = [f"s-v:n{i:05d}|v" for i in range(n)]
    tracemalloc.start()
    try:
        edges = EdgeColumns()
        for key in rng.sample(range(n * n), 12_000):
            src, dst = divmod(key, n)
            if src != dst:
                edges.append(src, dst, 0.25, 1.0, 1.0, 0.5, 1, key % 2)
        keys = [(ids[s], ids[d]) for s, d in zip(edges.src, edges.dst)]
        size = sum(column.itemsize * len(column) for column in edges.columns())
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        edges.sort(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= size / 2
    graph = EntailmentGraph.from_parts(ids, array("q", [1] * n), edges)
    assert graph.columns is edges
    assert list(graph.edges) == sorted(keys)


def _write_lines(directory, nodes, edges):
    """nodes.tsv and edges.tsv holding the given nodes and edges, in order."""
    directory.mkdir()
    (directory / "nodes.tsv").write_text(
        "".join(f"{n.id}\t{corpus_line(n.pattern, n.tokens, n.frequency)}\n" for n in nodes),
        encoding="utf-8",
    )
    (directory / "edges.tsv").write_text(
        "".join(
            f"{e.from_id}\t{e.to_id}\t{e.type_label}\t{e.provenance}\t{e.arg_score!r}\t"
            f"{e.pred_score!r}\t{e.penalty!r}\t{e.local_score!r}\n"
            for e in edges
        ),
        encoding="utf-8",
    )


def _first_fault(nodes, edges):
    """(file, line, message) of the first line that a read of the nodes
    and edges, written in the order given, rejects; or None."""
    for i in range(1, len(nodes)):
        node_id, before = nodes[i].id, nodes[i - 1].id
        if node_id == before:
            return "nodes.tsv", i + 1, f"duplicate node {node_id}"
        if node_id < before:
            return "nodes.tsv", i + 1, f"node {node_id} out of key order"
    known = {n.id for n in nodes}
    for i, e in enumerate(edges):
        name = f"{e.from_id} -> {e.to_id}"
        key, before = (e.from_id, e.to_id), (edges[i - 1].from_id, edges[i - 1].to_id)
        if not known.issuperset(key):
            return "edges.tsv", i + 1, f"edge endpoint not among graph nodes: {name}"
        if i and key == before:
            return "edges.tsv", i + 1, f"duplicate edge {name}"
        if i and key < before:
            return "edges.tsv", i + 1, f"edge {name} out of key order"
    return None


@given(
    edged_parts, st.sampled_from(("node", "edge")),
    st.sampled_from(("shuffled", "doubled", "endpoint")), st.data(),
)
def test_seal_errors_read_alike_in_shuffled_input(parts, kind, defect, data):
    # Nodes or edges shuffled, one of them given twice, or an endpoint's
    # node gone: the seal and a read name the same first fault, and the
    # read names its line too.  The seal sees rows, so it names a gone
    # endpoint as the row past the last node.
    nodes, edges = parts
    if defect == "endpoint":
        if not edges:
            return
        edge = data.draw(st.sampled_from(edges))
        gone = data.draw(st.sampled_from((edge.from_id, edge.to_id)))
        nodes = [n for n in nodes if n.id != gone]
    else:
        items = nodes if kind == "node" else edges
        if not items:
            return
        if defect == "doubled":
            at = data.draw(st.integers(0, len(items)))
            items = [*items[:at], data.draw(st.sampled_from(items)), *items[at:]]
        else:
            items = data.draw(st.permutations(items))
        nodes, edges = (items, edges) if kind == "node" else (nodes, items)
    fault = _first_fault(nodes, edges)
    with tempfile.TemporaryDirectory() as tmp:
        _write_lines(Path(tmp) / "graph", nodes, edges)
        if fault is None:
            assert read_graph(Path(tmp) / "graph") == sealed(nodes, edges)
            return
        with pytest.raises(GraphFormatError) as err:
            read_graph(Path(tmp) / "graph")
    name, line, message = fault
    assert str(err.value) == f"{name} line {line}: {message}"
    if defect == "endpoint":
        message = f"edge endpoint not among graph nodes: row {len(nodes)}"
    with pytest.raises(ValueError) as err:
        sealed(nodes, edges)
    assert str(err.value) == message


@given(edged_parts, st.data())
def test_columnar_views_equal_a_dict_reference(parts, data):
    # The mappings over the columns read like plain dicts built from the
    # same values, in the same key order, before and after a round trip.
    nodes, edges = parts
    graph = graph_from(data.draw(st.permutations(nodes)), data.draw(st.permutations(edges)))
    node_ref = {n.id: n for n in nodes}
    edge_ref = {(e.from_id, e.to_id): e for e in edges}
    source_ref: dict[str, tuple[str, ...]] = {}
    for a, b in edge_ref:
        source_ref[a] = (*source_ref.get(a, ()), b)
    text_ref: dict[str, int] = {}
    for r, n in enumerate(nodes):
        text_ref[n.text] = -1 if n.text in text_ref else r
    absent = ("s-v:nobody|here", nodes[0].id if nodes else "s-v:x|y")
    with tempfile.TemporaryDirectory() as tmp:
        write_graph(graph, Path(tmp))
        again = read_graph(Path(tmp))
    for g in (graph, again):
        assert list(g.nodes.items()) == list(node_ref.items())
        assert list(g.edges.items()) == list(edge_ref.items())
        assert list(_out_edges(g).items()) == list(source_ref.items())
        assert len(g.offsets) == len(nodes) + 1
        assert g.row_by_text == text_ref
        assert len(g.nodes) == len(node_ref) and len(g.edges) == len(edge_ref)
        assert all(key in g.edges and g.edges[key] == e for key, e in edge_ref.items())
        assert absent[0] not in g.nodes and absent not in g.edges and absent[0] not in _out_edges(g)
        assert all(type(e) is ScoredEdge for e in g.edges.values())
        assert _score_bits(g) == {
            key: tuple(float.hex(x) for x in e[2:6]) for key, e in edge_ref.items()
        }


def _read_lines_only(directory):
    raise AssertionError(f"{directory} read line by line")


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_built_graphs_are_read_by_columns(tmp_path, monkeypatch, seed):
    # The demo (no seed) and random toy corpora, built and written, never
    # take the per-line reader.
    inputs = tmp_path / "inputs"
    files = write_toy_inputs(inputs) if seed is None else write_random_toy(inputs, seed)
    config = PipelineConfig(
        **{key: str(path) for key, path in files.items()},
        output_dir=str(tmp_path / "out"),
        min_pred_freq=1,
    )
    built = run_build(config).graph
    assert len(built.columns) > 0
    monkeypatch.setattr(store, "_read_lines", _read_lines_only)
    assert read_graph(tmp_path / "out") == built


@given(scored_graphs, st.sampled_from((store._CHUNK_BYTES, 1, 2, 3, 50)))
def test_written_graphs_are_read_by_columns(graph, chunk_bytes):
    # Tiny chunks make lines straddle chunk boundaries.
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        write_graph(graph, Path(tmp))
        patch.setattr(store, "_read_lines", _read_lines_only)
        patch.setattr(store, "_CHUNK_BYTES", chunk_bytes)
        assert read_graph(Path(tmp)) == graph


@given(graph_parts(min_nodes=8, max_nodes=40), st.sampled_from((store._NODE_BLOCK, 1, 2, 3, 5)))
def test_node_blocks_write_each_corpus_line(parts, block):
    # Up to 40 nodes of all seven patterns, so that runs of one pattern
    # are both shorter and longer than a block.
    nodes, edges = parts
    graph = graph_from(nodes, edges)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(store, "_NODE_BLOCK", block)
        write_graph(graph, Path(tmp))
        with open(Path(tmp) / store.NODE_FILE, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
        expected = [f"{n.id}\t{corpus_line(*split_id(n.id), n.frequency)}" for n in nodes]
        assert lines == [*expected, ""]
        patch.setattr(store, "_read_lines", _read_lines_only)
        assert read_graph(Path(tmp)) == graph


# Values an edited field takes, besides a field of another line.
FIELD_EDITS = (
    "", "x", "S-V:X|Y", "0.5", " 0.5", "1.5", "-0.0", "nan", "1e0", "1_0", "global", "local", "07",
)
CORRUPTIONS = (
    "drop", "repeat", "swap", "edit", "shift", "crlf", "bom", "blank", "no newline", "not utf-8",
    "upper", "reorder",
)


def _corrupt(draw, raw: bytes, corruption: str) -> bytes:
    """A graph file's bytes with one corruption; one that needs a line
    adds a blank line to a file with none."""
    lines = raw.decode("utf-8").split("\n")[:-1]
    if corruption == "crlf":
        return raw.replace(b"\n", b"\r\n")
    if corruption == "bom":
        return b"\xef\xbb\xbf" + raw
    if corruption == "no newline":
        return raw[:-1]
    if corruption == "blank" or not lines:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", " ", " \t "))))
        return "".join(line + "\n" for line in lines).encode("utf-8")
    if corruption == "not utf-8":
        at = draw(st.integers(0, len(raw) - 1))
        return raw[:at] + b"\xff" + raw[at:]
    i = draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split("\t")
    j = draw(st.integers(0, len(fields) - 1))
    if corruption == "drop":
        del lines[i]
    elif corruption == "repeat":
        lines.insert(i, lines[i])
    elif corruption == "swap":
        k = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[k] = lines[k], lines[i]
    elif corruption == "edit":
        others = [field for line in lines for field in line.split("\t")]
        fields[j] = draw(st.sampled_from(FIELD_EDITS) | st.sampled_from(others))
    elif corruption == "shift":
        # The line's first field moved to the end of the line before it.
        if i:
            lines[i - 1] += "\t" + fields.pop(0)
            lines[i] = "\t".join(fields)
    elif corruption == "upper":
        # In a node line, a token in upper case in the id and in the role
        # field alike; in an edge line, one field.
        if len(fields) == 4:
            token = draw(st.sampled_from(fields[0].partition(":")[2].split("|")))
            fields = [field.replace(token, token.upper()) for field in fields]
        else:
            fields[j] = fields[j].upper()
    else:
        # The role=token chunks of a node line's role field, or the
        # fields of an edge line, in another order.
        if len(fields) == 4:
            fields[2] = ";".join(draw(st.permutations(fields[2].split(";"))))
        else:
            fields = draw(st.permutations(fields))
    if corruption in ("edit", "upper", "reorder"):
        lines[i] = "\t".join(fields)
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _read_outcome(read, directory):
    try:
        return "ok", read(directory)
    except GraphFormatError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@settings(max_examples=40)
@given(
    graph_parts(min_nodes=4, min_edges=2).map(lambda parts: graph_from(*parts)),
    st.sampled_from(("nodes.tsv", "edges.tsv")), st.sampled_from((store._CHUNK_BYTES, 1, 50)),
    st.data(),
)
def test_both_read_paths_agree_on_corrupted_files(corruption, graph, name, chunk_bytes, data):
    # Whatever a column parse takes, a read returns what the per-line
    # reader returns, or raises its error.
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        write_graph(graph, Path(tmp))
        path = Path(tmp) / name
        path.write_bytes(_corrupt(data.draw, path.read_bytes(), corruption))
        patch.setattr(store, "_CHUNK_BYTES", chunk_bytes)
        assert _read_outcome(read_graph, Path(tmp)) == _read_outcome(store._read_lines, Path(tmp))
