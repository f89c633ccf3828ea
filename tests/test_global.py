"""Forest construction, path extraction, the candidate pairs of one path
edge, path inference against a brute-force oracle, and argument-rule
expansion."""

import gc
import math
import weakref
from collections import Counter
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import evgraph.global_inference as gi
from chains import iter_chains
from columns import by_predicate, edge_dict, probs, row_of, rows, rule_table, type_label
from digests import diamond_ladder
from evgraph.config import PipelineConfig
from evgraph.corpus import (
    MAX_ARITY,
    CorpusIndex,
    posting_base,
    posting_probe,
    posting_table,
)
from evgraph.global_inference import (
    build_forest,
    count_paths,
    expand_with_argument_rules,
    extract_paths,
    forest_pairs,
    infer_path_edges,
    run_global_stage,
)
from evgraph.local import argument_score
from evgraph.model import (
    PATTERN_CODE,
    PATTERN_ROLES,
    PATTERNS,
    Eventuality,
    ScoredEdge,
    aligned_slots,
)
from evgraph.pipeline import build, run_build
from evgraph.rules import PredicateRule
from evgraph.synth import write_layered_inputs
from inputs import index_from, store_from, taxonomy_from


def _scored(*pairs):
    return tuple(PredicateRule(a, b, s) for a, b, s in pairs)


def _children(forest):
    """General predicate -> its more-specific predicates, sorted, read
    off the forest's parents."""
    out = {}
    for s, gs in sorted(forest.parents.items()):
        for g in gs:
            out[g] = out.get(g, ()) + (s,)
    return out


def infer(index, path, rule_scores, store, tau_a, tau_e):
    """infer_path_edges over each pair of a path on a string-keyed
    taxonomy, each right predicate's table built through
    `gi.posting_table`: the edges keyed by ids, and the summed checks."""
    term_probs = probs(index, store)
    edges, checks = {}, 0
    for pair in zip(path, path[1:]):
        pid = index.predicate_ids.get(pair[1])
        table = {} if pid is None else gi.posting_table(index, pid)
        pair_edges, pair_checks = infer_path_edges(
            index, pair, rule_scores, term_probs, tau_a, tau_e, table
        )
        edges.update(edge_dict(index, pair_edges))
        checks += pair_checks
    return edges, checks


def expand(index, node_ids, rule_by_pair, tau_e):
    """expand_with_argument_rules on ids and string-keyed rules, its
    edges keyed by ids."""
    nodes = {row_of(index, node) for node in node_ids}
    edges, checks = expand_with_argument_rules(
        index, nodes, rule_table(index, rule_by_pair), tau_e
    )
    return edge_dict(index, edges), checks


def path_pairs(paths):
    """The distinct adjacent pairs of the paths, sorted."""
    return sorted({pair for path in paths for pair in zip(path, path[1:])})


def _lines(*paths):
    """The `paths.tsv` lines of the paths, in the order given."""
    return ["\t".join(path) + "\n" for path in paths]


def _runs(lines):
    """The paths of `paths.tsv` lines."""
    return [tuple(line[:-1].split("\t")) for line in lines]


def _reference_paths(forest, general_roots=()):
    """Every maximal specific-first chain, each cut at the listed roots
    into its runs; the runs of two or more, once each, sorted."""
    removed = set(general_roots)
    parents = forest.parents
    leaves = sorted(set(parents).difference(*parents.values()))
    chains = []
    stack = [(leaf,) for leaf in leaves]
    while stack:
        trail = stack.pop()
        if parents.get(trail[-1]):
            stack.extend(trail + (nxt,) for nxt in parents[trail[-1]])
        else:
            chains.append(trail)
    cut = removed.__contains__
    runs = (tuple(run) for chain in chains for gone, run in groupby(chain, cut) if not gone)
    return sorted({run for run in runs if len(run) >= 2})


def global_stage(index, pairs, rule_scores, store, rule_by_pair, tau_a, tau_e):
    """run_global_stage on string-keyed tables: its edges, which it
    returns in the seal's key order, and its two check counts."""
    result = run_global_stage(
        index, pairs, rule_scores, probs(index, store), rule_table(index, rule_by_pair),
        tau_a, tau_e,
    )
    edges = edge_dict(index, result.edges)
    assert list(edges) == sorted(edges)
    return tuple(edges.values()), result.candidate_checks, result.expansion_checks


# --- forest --------------------------------------------------------------------


def test_forest_groups_one_tree():
    rules = _scored(
        ("sniff", "smell", 0.5),
        ("smell", "perceive", 0.5),
        ("glimpse", "see", 0.5),
        ("see", "perceive", 0.5),
    )
    forest = build_forest(rules)
    assert forest.n_trees == 1
    # "perceive" is the one root: it has children and no parent.
    assert forest.parents == {
        "glimpse": ("see",),
        "see": ("perceive",),
        "smell": ("perceive",),
        "sniff": ("smell",),
    }
    assert _children(forest) == {
        "perceive": ("see", "smell"),
        "see": ("glimpse",),
        "smell": ("sniff",),
    }
    assert list(extract_paths(forest)) == _lines(
        ("glimpse", "see", "perceive"),
        ("sniff", "smell", "perceive"),
    )


def test_forest_empty():
    forest = build_forest(())
    assert forest.parents == {} and _children(forest) == {}
    assert forest.n_trees == 0 and forest.dropped_edges == ()
    assert list(extract_paths(forest)) == _lines()


def test_forest_breaks_two_cycle_on_lowest_score():
    forest = build_forest(_scored(("a", "b", 0.3), ("b", "a", 0.6)))
    assert forest.parents == {"b": ("a",)} and _children(forest) == {"a": ("b",)}
    assert forest.dropped_edges == (("a", "b"),)


def test_forest_cycle_tie_breaks_lexicographically():
    forest = build_forest(_scored(("a", "b", 0.4), ("b", "c", 0.4), ("c", "a", 0.4)))
    assert forest.dropped_edges == (("a", "b"),)
    assert forest.parents == {"b": ("c",), "c": ("a",)}
    assert _children(forest) == {"a": ("c",), "c": ("b",)}


def test_forest_counts_components():
    forest = build_forest(_scored(("a", "b", 0.5), ("c", "d", 0.5)))
    assert forest.n_trees == 2


# --- path extraction -----------------------------------------------------------


def test_extract_paths_frees_the_forest_without_the_collector():
    forest = build_forest(
        _scored(("crunch", "chew", 0.9), ("chew", "eat", 0.9), ("sip", "eat", 0.5))
    )
    ref = weakref.ref(forest)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert list(extract_paths(forest)) == _lines(("crunch", "chew", "eat"), ("sip", "eat"))
        del forest
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_paths_specific_first_chain():
    forest = build_forest(_scored(("crunch", "chew", 0.9), ("chew", "eat", 0.9)))
    assert list(extract_paths(forest)) == _lines(("crunch", "chew", "eat"))


def test_paths_remove_edges_touching_listed_roots():
    forest = build_forest(_scored(("crunch", "chew", 0.9), ("chew", "eat", 0.9)))
    assert list(extract_paths(forest, ("eat",))) == _lines(("crunch", "chew"))


def test_paths_listed_root_in_middle_splits_chain():
    forest = build_forest(
        _scored(("a", "b", 0.9), ("b", "c", 0.9), ("c", "d", 0.9), ("d", "e", 0.9))
    )
    assert list(extract_paths(forest, ("c",))) == _lines(("a", "b"), ("d", "e"))


def test_single_edge_tree_removed_entirely_by_root_listing():
    forest = build_forest(_scored(("a", "b", 0.9)))
    assert list(extract_paths(forest, ("b",))) == _lines()
    assert list(extract_paths(forest)) == _lines(("a", "b"))


def test_paths_branching_tree_enumerates_all_maximal_chains():
    forest = build_forest(
        _scored(("x", "m", 0.9), ("y", "m", 0.9), ("m", "r", 0.9))
    )
    assert list(extract_paths(forest)) == _lines(("x", "m", "r"), ("y", "m", "r"))


@pytest.mark.parametrize(
    "roots, pairs", [((), [("chew", "eat"), ("crunch", "chew")]), (("eat",), [("crunch", "chew")])]
)
def test_forest_pairs_of_the_demo_forest(roots, pairs):
    forest = build_forest(_scored(("crunch", "chew", 0.9), ("chew", "eat", 0.9)))
    assert forest_pairs(forest, roots) == pairs
    assert set(pairs) == set(path_pairs(_runs(extract_paths(forest, roots))))


PREDICATES = ("a", "b", "c", "d", "e", "f")


@given(
    st.lists(
        st.tuples(st.sampled_from(PREDICATES), st.sampled_from(PREDICATES), st.floats(0.0, 1.0)),
        max_size=12,
    ).map(lambda rules: _scored(*((a, b, s) for a, b, s in rules if a != b))),
    st.lists(st.sampled_from(PREDICATES), max_size=3, unique=True).map(tuple),
)
def test_forest_pairs_are_the_distinct_path_pairs(rules, roots):
    # Random rule sets have cycles and multiple parents: the kept forest
    # edges that touch no listed root are exactly the pairs the maximal
    # chains, cut at the roots, hold.
    forest = build_forest(rules)
    pairs = forest_pairs(forest, roots)
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == set(path_pairs(_runs(extract_paths(forest, roots))))


MANY_PREDICATES = tuple("abcdefghi")
# Rule sets over nine predicates, with cycles and multiple parents, and
# up to four listed roots.
many_rules = st.lists(
    st.tuples(
        st.sampled_from(MANY_PREDICATES), st.sampled_from(MANY_PREDICATES), st.floats(0.0, 1.0),
    ),
    max_size=24,
).map(lambda rules: _scored(*((a, b, s) for a, b, s in rules if a != b)))
many_roots = st.lists(st.sampled_from(MANY_PREDICATES), max_size=4, unique=True).map(tuple)


@given(many_rules, many_roots)
def test_extract_paths_equals_the_chain_reference(rules, roots):
    # The walk of the forest less the roots yields the lines of every
    # maximal chain's runs, deduplicated and sorted, on rule sets with
    # cycles and multiple parents; its pairs are the runs' pairs.
    forest = build_forest(rules)
    reference = _reference_paths(forest, roots)
    assert list(extract_paths(forest, roots)) == _lines(*reference)
    assert forest_pairs(forest, roots) == path_pairs(reference)


@given(many_rules, many_roots)
def test_count_paths_equals_the_walks_line_count(rules, roots):
    forest = build_forest(rules)
    assert count_paths(forest, roots) == len(list(extract_paths(forest, roots)))


def test_extract_paths_yields_its_first_line_before_the_rest():
    # A d = 40 diamond ladder has 2**40 paths: only a lazy walk returns.
    d = 40
    forest = build_forest(_scored(*(
        (a, b, 0.5) for i in range(d) for mid in (f"a{i}", f"b{i}")
        for a, b in ((f"x{i}", mid), (mid, f"x{i + 1}"))
    )))
    first = ("x0",) + tuple(p for i in range(d) for p in (f"a{i}", f"x{i + 1}"))
    assert next(extract_paths(forest)) == _lines(first)[0]


# --- candidate pairs of one path edge ------------------------------------------
# With tau_a = tau_e = 0 and rule score > 0, the accepted set of a path edge
# is every pair with identical or taxonomy-related arguments.

FIG_CORPUS = [
    "s-v-o\tn1=boy;v1=chew;n2=apple\t4",
    "s-v-o\tn1=boy;v1=chew;n2=food\t4",
    "s-v-o\tn1=boy;v1=eat;n2=apple\t4",
    "s-v-o\tn1=boy;v1=eat;n2=food\t4",
]


def test_bipartite_contains_identical_argument_pair(tmp_path):
    index = index_from(FIG_CORPUS)
    store = taxonomy_from([], tmp_path)
    edges, checks = infer(
        index, ("chew", "eat"), {("chew", "eat"): 1.0}, store, 0.0, 0.0
    )
    assert checks == 2 * 2
    key = ("s-v-o:boy|chew|apple", "s-v-o:boy|eat|apple")
    assert key in edges
    assert edges[key].arg_score == 1.0 and edges[key].local_score == 1.0


def test_bipartite_empty_side(tmp_path):
    index = index_from(FIG_CORPUS)
    store = taxonomy_from([], tmp_path)
    edges, checks = infer(
        index, ("chew", "drink"), {("chew", "drink"): 1.0}, store, 0.0, 0.0
    )
    assert edges == {} and checks == 0


def test_bipartite_taxonomy_related_candidate_carries_composed_weight(tmp_path):
    index = index_from(
        ["s-v-o\tn1=x;v1=chew;n2=apple\t2", "s-v-o\tn1=x;v1=eat;n2=fruit\t2"]
    )
    store = taxonomy_from(["fruit\tapple\t3", "company\tapple\t1"], tmp_path)
    edges, _ = infer(
        index, ("chew", "eat"), {("chew", "eat"): 0.81}, store, 0.0, 0.0
    )
    [((lid, rid), edge)] = list(edges.items())
    assert lid == "s-v-o:x|chew|apple" and rid == "s-v-o:x|eat|fruit"
    # subject x matches (noisy-OR gives 1.0), penalty 1, rule score 0.81
    assert (edge.arg_score, edge.penalty, edge.pred_score) == (1.0, 1.0, 0.81)
    assert edge.local_score == pytest.approx(math.sqrt(0.81 * 1.0 * 1.0), abs=1e-12)


def test_bipartite_unrelated_arguments_excluded(tmp_path):
    index = index_from(
        ["s-v-o\tn1=x;v1=chew;n2=apple\t2", "s-v-o\tn1=y;v1=eat;n2=rock\t2"]
    )
    store = taxonomy_from([], tmp_path)
    edges, checks = infer(
        index, ("chew", "eat"), {("chew", "eat"): 1.0}, store, 0.0, 0.0
    )
    assert edges == {} and checks == 1


# --- path inference vs brute force ---------------------------------------------


def _term_prob(store, a, b):
    if a == b:
        return 1.0
    return store.get(a, {}).get(b, 0.0)


def brute_force_accepted(index, path, rule_scores, store, tau_a, tau_e):
    """Independent re-derivation of the accepted edges, with every score
    factor, over all pairs."""
    expected = {}
    row, by_pred = rows(index), by_predicate(index)
    for p_l, p_r in zip(path, path[1:]):
        rule = rule_scores.get((p_l, p_r), 0.0)
        for lid in by_pred.get(p_l, ()):
            for rid in by_pred.get(p_r, ()):
                pat_l, pat_r = row[lid].pattern, row[rid].pattern
                slots = aligned_slots(pat_l, pat_r)
                if slots is None:
                    continue
                args_l = row[lid].args
                args_r = row[rid].args
                pairs = [(args_l[i], args_r[j]) for i, j in slots]
                identical = all(a == b for a, b in pairs)
                miss = 1.0
                for a, b in pairs:
                    miss *= 1.0 - _term_prob(store, a, b)
                l_a = 1.0 - miss
                pen = min(1.0, row[lid].cond_prob / row[rid].cond_prob)
                l_e = math.sqrt(rule * pen * l_a)
                if identical or (l_a > tau_a and l_e > tau_e):
                    expected[(lid, rid)] = ScoredEdge(
                        lid, rid, l_a, rule, pen, l_e, "global", type_label(pat_l, pat_r)
                    )
    return expected


MIXED_CORPUS = [
    "s-v-o\tn1=boy;v1=chew;n2=apple\t4",
    "s-v-o\tn1=boy;v1=chew;n2=food\t2",
    "s-v-o\tn1=girl;v1=chew;n2=nut\t3",
    "s-v-o-p-o\tn1=boy;v1=chew;n2=apple;p1=at;n3=home\t2",
    "s-v-o\tn1=boy;v1=eat;n2=apple\t1",
    "s-v-o\tn1=boy;v1=eat;n2=food\t5",
    "s-v-o\tn1=girl;v1=eat;n2=food\t2",
    "s-v-p-o\tn1=boy;v1=eat;p1=at;n2=home\t2",
    "s-v\tn1=dog;v1=eat\t2",
]


@pytest.mark.parametrize("tau_a,tau_e", [(0.3, 0.2), (0.0, 0.0), (1.0, 1.0)])
def test_infer_matches_brute_force(tmp_path, tau_a, tau_e):
    index = index_from(MIXED_CORPUS)
    store = taxonomy_from(["food\tapple\t3", "food\tnut\t1", "toy\tapple\t1"], tmp_path)
    path = ("chew", "eat")
    rule_scores = {("chew", "eat"): 0.7}
    edges, checks = infer(index, path, rule_scores, store, tau_a, tau_e)
    assert edges == brute_force_accepted(index, path, rule_scores, store, tau_a, tau_e)
    assert checks == 4 * 4  # |U_chew| x |V_eat| (eat-at is its own predicate)


def test_strict_thresholds_keep_only_identical_argument_pairs(tmp_path):
    index = index_from(MIXED_CORPUS)
    store = taxonomy_from(["food\tapple\t3"], tmp_path)
    edges, _ = infer(
        index, ("chew", "eat"), {("chew", "eat"): 1.0}, store, 1.0, 1.0
    )
    row = rows(index)
    for key, edge in edges.items():
        assert edge.arg_score == 1.0
        slots = aligned_slots(row[key[0]].pattern, row[key[1]].pattern)
        args_l = row[key[0]].args
        args_r = row[key[1]].args
        assert all(args_l[i] == args_r[j] for i, j in slots)
    assert edges  # boy chew apple -> boy eat apple among others


def test_infer_consistent_with_bipartite_acceptance(tmp_path):
    # The thresholds only filter: the edges accepted at (tau_a, tau_e) are
    # the loose (0, 0) candidates that pass the acceptance test, unchanged,
    # and every candidate's factors re-derive independently.
    index = index_from(MIXED_CORPUS)
    store = taxonomy_from(["food\tapple\t3", "food\tnut\t1"], tmp_path)
    tau_a, tau_e = 0.25, 0.15
    rule_scores = {("chew", "eat"): 0.7}
    edges, _ = infer(index, ("chew", "eat"), rule_scores, store, tau_a, tau_e)
    loose, _ = infer(index, ("chew", "eat"), rule_scores, store, 0.0, 0.0)
    accepted_from_bipartite = {}
    row = rows(index)
    for (lid, rid), edge in loose.items():
        slots = aligned_slots(row[lid].pattern, row[rid].pattern)
        args_l, args_r = row[lid].args, row[rid].args
        identical = all(args_l[i] == args_r[j] for i, j in slots)
        miss = 1.0
        for i, j in slots:
            miss *= 1.0 - _term_prob(store, args_l[i], args_r[j])
        assert edge.arg_score == 1.0 - miss
        assert edge.penalty == min(1.0, row[lid].cond_prob / row[rid].cond_prob)
        assert edge.local_score == math.sqrt(0.7 * edge.penalty * edge.arg_score)
        if identical or (edge.arg_score > tau_a and edge.local_score > tau_e):
            accepted_from_bipartite[(lid, rid)] = edge
    assert edges == accepted_from_bipartite


def test_path_identical_slot_saturates_argument_score(tmp_path):
    # boy chew apple -> girl eat apple: no taxonomy entry relates boy and
    # girl, but the identical object has probability 1 and zeroes the
    # noisy-OR miss product, so the pair scores 1.0 and is accepted.
    index = index_from(
        ["s-v-o\tn1=boy;v1=chew;n2=apple\t2", "s-v-o\tn1=girl;v1=eat;n2=apple\t2"]
    )
    store = taxonomy_from(["food\tapple\t3"], tmp_path)
    edges, _ = infer(
        index, ("chew", "eat"), {("chew", "eat"): 0.7}, store, 0.3, 0.2
    )
    edge = edges[("s-v-o:boy|chew|apple", "s-v-o:girl|eat|apple")]
    assert edge.arg_score == 1.0
    assert edge.local_score == math.sqrt(0.7)


# --- chains ----------------------------------------------------------------


def test_iter_chains_linear():
    assert list(iter_chains((("a", "b"), ("b", "c")))) == [("a", "b", "c")]


def test_iter_chains_branching():
    chains = list(iter_chains((("a", "b"), ("a", "c"), ("c", "d"))))
    assert chains == [("a", "b"), ("a", "c", "d")]


def test_iter_chains_diamond():
    chains = set(iter_chains((("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))))
    assert chains == {("a", "b", "d"), ("a", "c", "d")}


# --- expansion -------------------------------------------------------------


def test_expansion_attaches_incoming_same_predicate_edges(tmp_path):
    index = index_from(
        [
            "s-v-o\tn1=boy;v1=crunch;n2=apple\t4",
            "s-v-o\tn1=boy;v1=crunch;n2=food\t4",
            "s-v-o\tn1=boy;v1=crunch;n2=nut\t4",
        ]
    )
    store = taxonomy_from(["food\tapple\t3", "company\tapple\t1", "food\tnut\t1"], tmp_path)
    rules = {("apple", "food"): 0.75, ("nut", "food"): 1.0}
    edges, _ = expand(
        index, {"s-v-o:boy|crunch|food"}, rules, 0.2
    )
    assert set(edges) == {
        ("s-v-o:boy|crunch|apple", "s-v-o:boy|crunch|food"),
        ("s-v-o:boy|crunch|nut", "s-v-o:boy|crunch|food"),
    }
    for edge in edges.values():
        assert edge.provenance == "local"
        assert edge.pred_score == 1.0


def test_expansion_respects_threshold(tmp_path):
    index = index_from(
        [
            "s-v-o\tn1=boy;v1=crunch;n2=apple\t1",
            "s-v-o\tn1=boy;v1=crunch;n2=food\t9",
        ]
    )
    store = taxonomy_from(["food\tapple\t1"], tmp_path)
    rules = {("apple", "food"): 1.0}
    # composed score = sqrt(penalty * 1.0) = sqrt(min(1, (1/10)/(9/10))) ~ 0.333
    edges, _ = expand(
        index, {"s-v-o:boy|crunch|food"}, rules, 0.5
    )
    assert edges == {}
    edges, _ = expand(
        index, {"s-v-o:boy|crunch|food"}, rules, 0.2
    )
    assert len(edges) == 1


def test_expansion_without_applicable_rules(tmp_path):
    index = index_from(
        ["s-v-o\tn1=boy;v1=crunch;n2=rock\t1", "s-v-o\tn1=boy;v1=crunch;n2=food\t1"]
    )
    store = taxonomy_from([], tmp_path)
    edges, _ = expand(index, {"s-v-o:boy|crunch|food"}, {}, 0.0)
    assert edges == {}


def test_expansion_allows_all_equal_cross_pattern_pair(tmp_path):
    # "boy eat apple at home" entails "boy eat apple" with the p-o term dropped
    index = index_from(
        [
            "s-v-o\tn1=boy;v1=eat;n2=apple\t1",
            "s-v-o-p-o\tn1=boy;v1=eat;n2=apple;p1=at;n3=home\t1",
        ]
    )
    store = taxonomy_from([], tmp_path)
    edges, _ = expand(index, {"s-v-o:boy|eat|apple"}, {}, 0.2)
    assert set(edges) == {("s-v-o-p-o:boy|eat|apple|at|home", "s-v-o:boy|eat|apple")}


def test_expansion_rejects_identical_subject_beside_unruled_slot(tmp_path):
    # Expansion needs a rule for every non-identical slot: the identical
    # subject and the ruled object do not carry the prep-object, although
    # the path-inference noisy-OR scores the same pair 1.0.
    index = index_from(
        [
            "s-v-o-p-o\tn1=boy;v1=eat;n2=apple;p1=at;n3=home\t1",
            "s-v-o-p-o\tn1=boy;v1=eat;n2=food;p1=at;n3=school\t1",
        ]
    )
    store = taxonomy_from([], tmp_path)
    rules = {("apple", "food"): 1.0}
    cand, node = "s-v-o-p-o:boy|eat|apple|at|home", "s-v-o-p-o:boy|eat|food|at|school"
    edges, checks = expand(index, {node}, rules, 0.0)
    assert edges == {} and checks == 1
    slots = aligned_slots("s-v-o-p-o", "s-v-o-p-o")
    assert argument_score(
        rows(index)[cand].args, rows(index)[node].args, slots, store
    ) == (False, 1.0)


SIBLING_CORPUS = [
    "s-v-o-p-o\tn1=boy;v1=eat;n2=apple;p1=at;n3=the-food\t1",
    "s-v-o-p-o\tn1=boy;v1=eat;n2=apple;p1=at-the;n3=food\t1",
    "s-v-o\tn1=boy;v1=eat;n2=apple\t1",
    "s-v-o\tn1=boy;v1=consume;n2=apple\t1",
    "s-v-o-p-o\tn1=boy;v1=consume;n2=apple;p1=at;n3=the-food\t1",
]


def test_expansion_links_compound_siblings(tmp_path):
    # Both eat rows decompose to (boy, apple, at-the-food).  No argument
    # rule targets a term of theirs, so only being compound siblings lets
    # each reach the other as a same-pattern premise.
    corpus = "".join(line + "\n" for line in SIBLING_CORPUS)
    (tmp_path / "c.tsv").write_text(corpus, encoding="utf-8")
    (tmp_path / "t.tsv").write_text("fruit\tapple\t5\n", encoding="utf-8")
    (tmp_path / "h.tsv").write_text("eat\tconsume\thypernym\n", encoding="utf-8")
    cfg = PipelineConfig(
        corpus=str(tmp_path / "c.tsv"),
        taxonomy=str(tmp_path / "t.tsv"),
        verb_hierarchy=str(tmp_path / "h.tsv"),
        output_dir=str(tmp_path / "out"),
        min_pred_freq=1,
    )
    graph = build(cfg).graph
    one, other = "s-v-o-p-o:boy|eat|apple|at|the-food", "s-v-o-p-o:boy|eat|apple|at-the|food"
    for key in ((one, other), (other, one)):
        edge = graph.edges.get(key)
        assert edge is not None and edge.provenance == "local"
        assert edge.type_label == "s-v-o-p-o ⊨ s-v-o-p-o"


def counted_probe(probes, lookups=None):
    """`posting_probe` that appends each search's (index, pid, pattern,
    terms, slots, related) to `probes`, and each key a table is asked
    for to `lookups`."""

    class CountingTable(dict):
        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

    def bind(index, pid, pattern, slots, related, table=None):
        if table is not None and lookups is not None:
            table = CountingTable(table)
        probe = posting_probe(index, pid, pattern, slots, related, table)

        def counted(terms):
            probes.append((index, pid, pattern, terms, slots, related))
            return probe(terms)

        return counted

    return bind


def test_expansion_probes_only_nodes_a_premise_can_reach(tmp_path, monkeypatch):
    # Every row of the layered corpus is s-v-o, so every expansion probe
    # is for a same-pattern premise: it may only go to a chain node that
    # holds an argument rule's target term or has a compound sibling.
    files = write_layered_inputs(tmp_path / "in", n_paths=4, per_predicate=12)
    cfg = PipelineConfig(
        corpus=str(files["corpus"]),
        taxonomy=str(files["taxonomy"]),
        verb_hierarchy=str(files["verb_hierarchy"]),
        output_dir=str(tmp_path / "out"),
        min_pred_freq=1,
    )
    seen = {}

    def count_expand(index, chain_nodes, rule_by_pair, tau_e):
        probes = []
        monkeypatch.setattr(gi, "posting_probe", counted_probe(probes))
        seen.update(index=index, nodes=list(chain_nodes), rules=rule_by_pair, probes=probes)
        return expand_with_argument_rules(index, chain_nodes, rule_by_pair, tau_e)

    monkeypatch.setattr(gi, "expand_with_argument_rules", count_expand)
    result = build(cfg)
    assert result.report["counts"]["edges_by_provenance"]["local"] > 0
    index = seen["index"]
    targets = {index.terms[t] for (_, t), score in seen["rules"].items() if score > 0.0}
    row = rows(index)
    shapes = Counter((r.predicate, r.pattern, r.args) for r in row.values())
    reachable = [
        node
        for node in map(index.ids.__getitem__, seen["nodes"])
        if targets.intersection(row[node].args)
        or shapes[(row[node].predicate, row[node].pattern, row[node].args)] > 1
    ]
    assert 0 < len(seen["probes"]) <= len(reachable) < len(seen["nodes"])


# --- merged stage ------------------------------------------------------------


@pytest.mark.parametrize("d", [6, 10, 18])
def test_global_stage_counts_grow_with_forest_edges_not_paths(tmp_path, d):
    # 4d forest edges of 3 x 3 dense pairs each, three identical ones
    # accepted; every row is a chain node with two other rows.
    counts = build(diamond_ladder(tmp_path / "ladder", d)).report["counts"]
    assert counts["paths"] == 2**d
    assert counts["candidate_checks"] == 36 * d
    assert counts["expansion_checks"] == 6 * (3 * d + 1)
    assert counts["edges_total"] == 12 * d


@pytest.mark.parametrize("roots, n_paths", [((), 2**10), (("x3", "a7"), 2**3 + 2 * 2**3 * 5 + 2**2)])
def test_report_counts_the_lines_of_paths_tsv(tmp_path, roots, n_paths):
    # x0 is the one leaf and x10 the one top.  x3 cuts every chain: runs
    # x0..a2|b2 below it, and above it runs from a3|b3 that end at x7
    # (a child of a7) or go on by b7 to x10, and runs x8..x10 from a7.
    cfg = diamond_ladder(tmp_path / "ladder", 10)
    result = run_build(PipelineConfig(**{**cfg.__dict__, "general_roots": roots}))
    lines = Path(cfg.output_dir, "paths.tsv").read_text(encoding="utf-8").splitlines()
    assert result.report["counts"]["paths"] == len(lines) == n_paths


def test_run_global_stage_counts_dense_checks(tmp_path):
    index = index_from(MIXED_CORPUS)
    store = taxonomy_from(["food\tapple\t3", "food\tnut\t1"], tmp_path)
    pairs = [("chew", "eat")]
    rule_scores = {("chew", "eat"): 0.7}
    tr = {("apple", "food"): 0.75, ("nut", "food"): 0.25}
    _, checks, _ = global_stage(index, pairs, rule_scores, store, tr, 0.3, 0.2)
    assert checks == 16


SHARED_CORPUS = [
    "s-v-o\tn1=boy;v1=crunch;n2=apple\t2",
    "s-v-o\tn1=girl;v1=crunch;n2=nut\t2",
    "s-v-o\tn1=boy;v1=munch;n2=apple\t2",
    "s-v-o\tn1=boy;v1=munch;n2=food\t2",
    "s-v-o\tn1=boy;v1=chew;n2=apple\t2",
    "s-v-o\tn1=boy;v1=chew;n2=food\t2",
    "s-v-o\tn1=girl;v1=chew;n2=nut\t2",
    "s-v-o\tn1=boy;v1=eat;n2=apple\t2",
    "s-v-o\tn1=boy;v1=eat;n2=food\t2",
    "s-v-o\tn1=girl;v1=eat;n2=food\t2",
]
SHARED_PATHS = (("crunch", "chew", "eat"), ("munch", "chew", "eat"))
SHARED_PAIRS = path_pairs(SHARED_PATHS)  # chew -> eat once
SHARED_RULES = {("crunch", "chew"): 0.8, ("munch", "chew"): 0.6, ("chew", "eat"): 0.7}
SHARED_ARG_RULES = {("apple", "food"): 0.75, ("nut", "food"): 0.25}


def _per_pair_reference(index, pairs, rule_scores, store, rule_by_pair, tau_a, tau_e):
    """The stage computed pair by pair, each pair's right table built
    afresh, then one expansion over the union of the pairs' endpoints:
    merged edges, the summed pair checks and the expansion's checks of
    the distinct nodes."""
    edges, checks = {}, 0
    for pair in pairs:
        pair_edges, c = infer(index, pair, rule_scores, store, tau_a, tau_e)
        edges.update(pair_edges)
        checks += c
    nodes = {node for key in edges for node in key}
    local_edges, exp_checks = expand(index, nodes, rule_by_pair, tau_e)
    merged = {**edges, **local_edges}
    return tuple(merged[k] for k in sorted(merged)), checks, exp_checks


def test_run_global_stage_computes_each_pair_and_chain_node_once(tmp_path, monkeypatch):
    # chew is the right predicate of two pairs and the left of one; boy
    # chew apple is an endpoint of edges on both sides of chew.
    index = index_from(SHARED_CORPUS)
    store = taxonomy_from(["food\tapple\t3", "food\tnut\t1"], tmp_path)
    inferred, expanded = [], []

    def count_infer(index, path, *args):
        inferred.append(path)
        return infer_path_edges(index, path, *args)

    def count_expand(index, chain_node_ids, *args):
        expanded.extend(chain_node_ids)
        return expand_with_argument_rules(index, chain_node_ids, *args)

    monkeypatch.setattr(gi, "infer_path_edges", count_infer)
    monkeypatch.setattr(gi, "expand_with_argument_rules", count_expand)
    edges, _, _ = global_stage(
        index, SHARED_PAIRS, SHARED_RULES, store, SHARED_ARG_RULES, 0.3, 0.2
    )
    # Each distinct pair exactly once.
    assert sorted(inferred) == [("chew", "eat"), ("crunch", "chew"), ("munch", "chew")]
    assert len(expanded) == len(set(expanded))
    endpoints = {
        node
        for edge in edges
        if edge.provenance == "global"
        for node in (edge.from_id, edge.to_id)
    }
    assert {index.ids[node] for node in expanded} == endpoints
    assert "s-v-o:boy|chew|apple" in endpoints


def test_global_stage_holds_one_posting_table_at_a_time(tmp_path, monkeypatch):
    # chew is the right predicate of two pairs and eat of one: each gets
    # one table, built after the last one is gone, and none is left by
    # the time expansion runs.
    index = index_from(SHARED_CORPUS)
    store = taxonomy_from(["food\tapple\t3", "food\tnut\t1"], tmp_path)
    built = []

    class Table(dict):
        pass

    def table(index, pid):
        assert all(ref() is None for _, ref in built)
        held = Table(posting_table(index, pid))
        built.append((list(index.predicate_ids)[pid], weakref.ref(held)))
        return held

    def count_expand(*args):
        assert all(ref() is None for _, ref in built)
        return expand_with_argument_rules(*args)

    monkeypatch.setattr(gi, "posting_table", table)
    monkeypatch.setattr(gi, "expand_with_argument_rules", count_expand)
    global_stage(index, SHARED_PAIRS, SHARED_RULES, store, SHARED_ARG_RULES, 0.3, 0.2)
    assert [pred for pred, _ in built] == ["chew", "eat"]


def test_global_stage_passes_over_a_predicate_without_rows(tmp_path):
    # ghost and spirit have no corpus rows: the pairs naming them, on
    # either side, add no edge and no check, and building spirit's
    # (empty) posting table raises nothing.
    index = index_from(SHARED_CORPUS)
    store = taxonomy_from(["food\tapple\t3", "food\tnut\t1"], tmp_path)
    assert "ghost" not in index.predicate_ids and "spirit" not in index.predicate_ids
    stage = [SHARED_RULES, store, SHARED_ARG_RULES, 0.3, 0.2]
    pairs = SHARED_PAIRS + [("ghost", "eat"), ("eat", "spirit"), ("ghost", "spirit")]
    with_absent = global_stage(index, pairs, *stage)
    assert with_absent == global_stage(index, SHARED_PAIRS, *stage)
    assert with_absent[0] and with_absent[1] and with_absent[2]


def test_global_stage_skips_patterns_absent_from_the_postings(tmp_path, monkeypatch):
    # An s-v-o corpus holds none of s-v-o's other counterparts (s-v-p-o as
    # a hypothesis; s-v-p-o and s-v-o-p-o as premises), so only s-v-o is
    # probed: in path inference, one table lookup per slot of each left
    # eventuality and per concept of its term; in expansion, once per
    # chain node that holds an argument rule's target term (food).
    index = index_from(SHARED_CORPUS)
    store = taxonomy_from(["food\tapple\t3", "food\tnut\t1"], tmp_path)
    term_probs = probs(index, store)
    svo = PATTERN_CODE["s-v-o"]
    lookups, probes = [], []
    monkeypatch.setattr(gi, "posting_probe", counted_probe(probes, lookups))
    nodes = set()
    for pair in (("chew", "eat"), ("crunch", "chew"), ("munch", "chew")):
        lookups.clear()
        edges, _ = infer(index, pair, SHARED_RULES, store, 0.3, 0.2)
        slot_terms = [
            (slot, index.args[row * MAX_ARITY + slot])
            for row in index.by_predicate[pair[0]] for slot in (0, 1)
        ]
        base = posting_base(index, index.predicate_ids[pair[1]], svo)
        assert lookups == [
            base + slot * len(index.terms) + probe
            for slot, term in slot_terms
            for probe in (term, *term_probs.get(term, ()))
        ]
        nodes |= {node for key in edges for node in key}
    probes.clear()
    edges, _ = expand(index, nodes, SHARED_ARG_RULES, 0.2)
    assert nodes and edges
    assert len(probes) == len([node for node in nodes if node.endswith("|food")]) < len(nodes)
    assert {probe[2] for probe in probes} == {svo}
    # girl chew nut is a chain node with no rule-target term and no
    # sibling, and no other chew node has its subject: it is not probed
    # for its own pattern.
    assert "s-v-o:girl|chew|nut" in nodes
    girl = row_of(index, "s-v-o:girl|chew|nut")
    node_args = index.args[girl * MAX_ARITY:(girl + 1) * MAX_ARITY]
    chew = index.predicate_ids["chew"]
    assert not [p for p in probes if p[1:3] == (chew, svo) and p[3] == node_args]


def test_run_global_stage_counts_are_dense_per_pair_sums(tmp_path):
    index = index_from(SHARED_CORPUS)
    store = taxonomy_from(["food\tapple\t3", "food\tnut\t1"], tmp_path)
    result = global_stage(
        index, SHARED_PAIRS, SHARED_RULES, store, SHARED_ARG_RULES, 0.3, 0.2
    )
    edges, checks, exp_checks = _per_pair_reference(
        index, SHARED_PAIRS, SHARED_RULES, store, SHARED_ARG_RULES, 0.3, 0.2
    )
    # 2x3 for each of crunch and munch -> chew, 3x3 once for the shared chew -> eat
    assert result[1] == checks == 2 * 3 + 2 * 3 + 3 * 3
    assert result[2] == exp_checks
    assert result[0] == edges


# --- posting-list candidates vs dense references (properties) ----------------

NOUNS = ("boy", "girl", "apple", "food", "nut")
# Taxonomy concepts include terms that never occur in a corpus.
CONCEPTS = NOUNS + ("at-food", "thing", "entity")
INSTANCES = NOUNS + ("at-apple", "at-food", "on-nut", "at-the-food")
THRESHOLDS = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


# Pattern -> the two roles whose tokens decomposition joins with "-".
FOLDED = {"s-v-p-o": ("v1", "p1"), "s-v-o-p-o": ("p1", "n3"), "s-be-a-p-o": ("p1", "n2")}


@st.composite
def corpora(draw):
    """Small mixed-pattern corpora over few tokens, so that predicates,
    terms and display texts collide often.  Hyphenated tokens make
    compound siblings, and a record of a folding pattern may bring one
    along: `at|the-food` and `at-the|food` give one prep-object term, and
    `eat|at-the` and `eat-at|the` one predicate, which an s-v-o row with
    the verb `eat-at` shares too."""
    merged = {}
    for _ in range(draw(st.integers(1, 16))):
        pattern = draw(st.sampled_from(PATTERNS))
        tokens = {
            "n1": draw(st.sampled_from(NOUNS)),
            "n2": draw(st.sampled_from(NOUNS + ("the-food",))),
            "n3": draw(st.sampled_from(NOUNS + ("the-food",))),
            "v1": draw(st.sampled_from(("chew", "eat", "eat-at"))),
            "a1": draw(st.sampled_from(("ripe", "red"))),
            "p1": draw(st.sampled_from(("at", "on", "at-the", "the"))),
        }
        records = [{r: tokens[r] for r in PATTERN_ROLES[pattern]}]
        if pattern in FOLDED and draw(st.booleans()):
            # The joined surface split at another hyphen, if it has one.
            a, b = FOLDED[pattern]
            words = f"{records[0][a]}-{records[0][b]}".split("-")
            cut = draw(st.integers(1, len(words) - 1))
            records.append({**records[0], a: "-".join(words[:cut]), b: "-".join(words[cut:])})
        for roles in records:
            ev = Eventuality.create(pattern, roles, draw(st.integers(1, 5)))
            prev = merged.get(ev.id)
            if prev is not None:
                ev = Eventuality(ev.pattern, ev.tokens, prev.frequency + ev.frequency)
            merged[ev.id] = ev
    return CorpusIndex.build({e.id: e.frequency for e in merged.values()})


taxonomies = st.lists(
    st.tuples(st.sampled_from(CONCEPTS), st.sampled_from(INSTANCES), st.integers(1, 4)),
    max_size=12,
).map(lambda rows: store_from([f"{c}\t{i}\t{f}" for c, i, f in rows]))


@given(corpora(), taxonomies, st.data(), THRESHOLDS, THRESHOLDS)
def test_indexed_path_inference_equals_brute_force(index, store, data, tau_a, tau_e):
    path = tuple(data.draw(st.permutations(sorted(index.by_predicate))))
    rule_scores = {
        pair: data.draw(st.floats(0.0, 1.0)) for pair in zip(path, path[1:])
    }
    edges, checks = infer(index, path, rule_scores, store, tau_a, tau_e)
    assert edges == brute_force_accepted(index, path, rule_scores, store, tau_a, tau_e)
    assert checks == sum(
        len(index.by_predicate[a]) * len(index.by_predicate[b])
        for a, b in zip(path, path[1:])
    )


def dense_expansion(index, chain_node_ids, rule_by_pair, tau_e):
    """Every other eventuality of the node's predicate, checked with the
    stricter rule: each aligned slot identical or ruled (score > 0)."""
    expected = {}
    checks = 0
    row, by_pred = rows(index), by_predicate(index)
    for node in chain_node_ids:
        node_pat = row[node].pattern
        node_args = row[node].args
        for cand in by_pred[row[node].predicate]:
            if cand == node:
                continue
            checks += 1
            cand_pat = row[cand].pattern
            slots = aligned_slots(cand_pat, node_pat)
            if slots is None:
                continue
            cand_args = row[cand].args
            pairs = [(cand_args[i], node_args[j]) for i, j in slots]
            if not all(a == b or rule_by_pair.get((a, b), 0.0) > 0.0 for a, b in pairs):
                continue
            miss = 1.0
            for a, b in pairs:
                miss *= 0.0 if a == b else 1.0 - rule_by_pair[(a, b)]
            pen = min(1.0, row[cand].cond_prob / row[node].cond_prob)
            score = math.sqrt(1.0 * pen * (1.0 - miss))
            if score > tau_e:
                expected[(cand, node)] = ScoredEdge(
                    cand, node, 1.0 - miss, 1.0, pen, score, "local",
                    type_label(cand_pat, node_pat),
                )
    return expected, checks


@given(corpora(), st.data(), THRESHOLDS)
def test_indexed_expansion_equals_dense_reference(index, data, tau_e):
    terms = sorted(index.terms)
    rule_by_pair = data.draw(
        st.dictionaries(
            st.tuples(st.sampled_from(terms), st.sampled_from(terms)),
            st.sampled_from([0.0]) | st.floats(0.01, 1.0),
            max_size=10,
        )
    )
    nodes = data.draw(st.sets(st.sampled_from(index.ids)))
    assert expand(index, nodes, rule_by_pair, tau_e) == dense_expansion(
        index, nodes, rule_by_pair, tau_e
    )


@given(corpora(), taxonomies, st.data())
def test_posting_table_lookups_equal_bisection(index, store, data):
    # Path inference looks each key up in the right predicate's table;
    # expansion and BInc augmentation bisect.  Both find the same rows in
    # the same order.
    pid = data.draw(st.integers(0, len(index.predicate_ids) - 1))
    pattern = data.draw(st.integers(0, len(PATTERNS) - 1))
    slot = st.integers(0, MAX_ARITY - 1)
    terms = data.draw(st.lists(st.integers(0, len(index.terms) - 1), min_size=MAX_ARITY, max_size=MAX_ARITY))
    slots = data.draw(st.lists(st.tuples(slot, slot), max_size=4))
    related = probs(index, store)
    table = posting_table(index, pid)
    hashed = posting_probe(index, pid, pattern, slots, related, table)
    assert list(hashed(terms)) == list(posting_probe(index, pid, pattern, slots, related)(terms))
    assert all(rows == sorted(rows) for rows in table.values())
    lo, hi = index.posting_start[pid], index.posting_start[pid + 1]
    assert sum(map(len, table.values())) == hi - lo


@given(corpora(), taxonomies, st.data())
def test_global_stage_equals_per_pair_reference(index, store, data):
    # Short paths over few predicates, so that paths share edges and nodes.
    preds = sorted(index.by_predicate)
    path = st.lists(st.sampled_from(preds), max_size=4, unique=True)
    paths = tuple(
        sorted({tuple(p) for p in data.draw(st.lists(path, max_size=4)) if len(p) >= 2})
    )
    pairs = path_pairs(paths)
    rule_scores = {pair: data.draw(st.floats(0.0, 1.0)) for pair in pairs}
    terms = sorted(index.terms)
    rule_by_pair = {
        (a, b): data.draw(st.floats(0.01, 1.0))
        for a, b in data.draw(
            st.lists(st.tuples(st.sampled_from(terms), st.sampled_from(terms)), max_size=6)
        )
    }
    result = global_stage(index, pairs, rule_scores, store, rule_by_pair, 0.3, 0.2)
    assert result == _per_pair_reference(
        index, pairs, rule_scores, store, rule_by_pair, 0.3, 0.2
    )
