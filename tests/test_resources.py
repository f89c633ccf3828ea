"""Taxonomy and verb-hierarchy store tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evgraph.corpus import parse_corpus_line
from evgraph.local import argument_score
from evgraph.model import Eventuality
from evgraph.rules import ArgumentRule, build_argument_rules
from evgraph.resources import (
    DEFAULT_LIGHT_VERBS,
    ResourceError,
    load_light_verbs,
    load_taxonomy,
    load_verb_hierarchy,
)


def _taxonomy(lines, tmp_path):
    path = tmp_path / "taxonomy.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return load_taxonomy(path)


def _hierarchy(lines, tmp_path, light=None):
    path = tmp_path / "hierarchy.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    light_path = None
    if light is not None:
        light_path = tmp_path / "light.txt"
        light_path.write_text("".join(v + "\n" for v in light), encoding="utf-8")
    return load_verb_hierarchy(path, light_path)


APPLE_LINES = ["fruit\tapple\t3", "company\tapple\t1"]


def test_totals_sum_entry_frequencies(tmp_path):
    store = _taxonomy(APPLE_LINES + ["food\tapple\t4"], tmp_path)
    # Each probability is its frequency over the instance's total of 8,
    # listed by descending frequency.
    assert list(store["apple"].items()) == [
        ("food", 0.5),
        ("fruit", 0.375),
        ("company", 0.125),
    ]


def test_duplicate_pairs_sum(tmp_path):
    store = _taxonomy(["fruit\tapple\t3", "fruit\tapple\t2", "company\tapple\t5"], tmp_path)
    # The summed tie orders by concept.
    assert list(store["apple"].items()) == [("company", 0.5), ("fruit", 0.5)]


def test_empty_taxonomy(tmp_path):
    store = _taxonomy([], tmp_path)
    assert store == {}
    assert build_argument_rules(store, {"anything"}, 5, 0.0) == ()


@pytest.mark.parametrize(
    "line,match",
    [
        ("fruit\tapple\t0", "non-positive"),
        ("fruit\tapple\t-2", "non-positive"),
        ("fruit\tapple", "3 fields|expected"),
        ("fruit\tapple\tthree", "bad frequency"),
        ("\tapple\t3", "empty"),
    ],
)
def test_taxonomy_load_errors_carry_line_number(line, match, tmp_path):
    with pytest.raises(ResourceError, match=match) as err:
        _taxonomy(["fruit\tpear\t1", line], tmp_path)
    assert "line 2" in str(err.value)


def test_lone_carriage_return_stays_inside_a_taxonomy_line(tmp_path):
    path = tmp_path / "taxonomy.tsv"
    path.write_bytes(b"fruit\tapple\t3\ncompany\tapp\rle\t1\n")
    store = load_taxonomy(path)
    # Only "\n" ends a line; the "\r" is whitespace inside the instance,
    # normalized as in a corpus token.
    instance = Eventuality.from_id(*parse_corpus_line("s-v\tn1=app\rle;v1=grow\t1", 1)).tokens[0]
    assert instance == "app le"
    assert store == {"apple": {"fruit": 1.0}, instance: {"company": 1.0}}


def test_byte_order_mark_is_dropped_from_a_taxonomy(tmp_path):
    path = tmp_path / "taxonomy.tsv"
    path.write_bytes(b"\xef\xbb\xbffood\tapple\t3\nfood\tnut\t1\n")
    assert load_taxonomy(path) == {"apple": {"food": 1.0}, "nut": {"food": 1.0}}
    # Only a mark that opens the file is dropped: a later one is text.
    path.write_bytes(b"food\tapple\t3\n\xef\xbb\xbffood\tnut\t1\n")
    assert load_taxonomy(path) == {"apple": {"food": 1.0}, "nut": {"\ufefffood": 1.0}}


@pytest.mark.parametrize(
    "load,line",
    [
        (load_taxonomy, b"fruit\tapple\t3\n"),
        (load_verb_hierarchy, b"sniff\tsmell\thypernym\n"),
        (load_light_verbs, b"make\n"),
    ],
)
def test_resource_not_utf8_names_its_line(load, line, tmp_path):
    path = tmp_path / "resource.tsv"
    path.write_bytes(line + line[:2] + b"\xff" + line[2:])
    with pytest.raises(
        ResourceError, match=r"^line 2: not UTF-8: invalid start byte at byte 2$"
    ):
        load(path)


def test_conceptualize_orders_by_probability(tmp_path):
    # A term's concepts come in probability order, so its top k are the
    # first k: the argument rules take them so.
    store = _taxonomy(APPLE_LINES, tmp_path)
    assert list(store["apple"].items()) == [("fruit", 0.75), ("company", 0.25)]
    terms = {"apple", "fruit", "company"}
    assert build_argument_rules(store, terms, 1, 0.0) == (ArgumentRule("apple", "fruit", 0.75),)


def test_conceptualize_five_concept_list(tmp_path):
    store = _taxonomy(
        [
            "fruit\tapple\t10",
            "company\tapple\t8",
            "food\tapple\t6",
            "brand\tapple\t4",
            "fresh fruit\tapple\t2",
            "pie filling\tapple\t1",
        ],
        tmp_path,
    )
    top = list(store["apple"].items())[:5]
    assert [c for c, _ in top] == ["fruit", "company", "food", "brand", "fresh fruit"]
    assert [p for _, p in top] == [
        pytest.approx(x / 31) for x in (10, 8, 6, 4, 2)
    ]


def test_conceptualize_tie_breaks_lexicographically(tmp_path):
    store = _taxonomy(["zebra\tthing\t2", "alpha\tthing\t2"], tmp_path)
    assert list(store["thing"].items()) == [("alpha", 0.5), ("zebra", 0.5)]


def test_conceptualize_k_zero_and_unknown(tmp_path):
    store = _taxonomy(APPLE_LINES, tmp_path)
    terms = {"apple", "pear", "fruit", "company"}
    assert build_argument_rules(store, terms, 0, 0.0) == ()
    assert build_argument_rules(store, terms - {"apple"}, 5, 0.0) == ()
    with pytest.raises(ValueError):
        build_argument_rules(store, terms, -1, 0.0)


def test_conceptualize_probabilities_sum_to_one_when_k_covers_all(tmp_path):
    store = _taxonomy(APPLE_LINES + ["food\tapple\t2"], tmp_path)
    probs = store["apple"].values()
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def term_entailment_prob(store, term_i, term_j):
    """P(term_i entails term_j) as the argument score of one aligned slot."""
    return argument_score((term_i,), (term_j,), ((0, 0),), store)[1]


def test_term_entailment_prob(tmp_path):
    store = _taxonomy(APPLE_LINES, tmp_path)
    assert term_entailment_prob(store, "apple", "apple") == 1.0
    assert term_entailment_prob(store, "apple", "fruit") == 0.75
    assert term_entailment_prob(store, "apple", "spaceship") == 0.0
    # identity holds for terms absent from the store too
    assert term_entailment_prob(store, "quark", "quark") == 1.0


@given(st.sampled_from(["apple", "fruit", "company", "unknown term"]))
def test_term_entailment_prob_identity(term):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        store = _taxonomy(APPLE_LINES, Path(tmp))
        assert term_entailment_prob(store, term, term) == 1.0


def test_term_entailment_prob_in_unit_interval(tmp_path):
    store = _taxonomy(APPLE_LINES + ["food\tapple\t2", "fruit\tpear\t1"], tmp_path)
    for t_i in ("apple", "pear", "fruit", "nope"):
        for t_j in ("apple", "pear", "fruit", "company", "nope"):
            assert 0.0 <= term_entailment_prob(store, t_i, t_j) <= 1.0


def test_hierarchy_edges(tmp_path):
    store = _hierarchy(["sniff\tsmell\thypernym", "know\tremember\tentail"], tmp_path)
    assert store.edges_from == {"know": ("remember",), "sniff": ("smell",)}


def test_hierarchy_rejects_self_loop(tmp_path):
    with pytest.raises(ResourceError, match="self-loop") as err:
        _hierarchy(["run\trun\thypernym"], tmp_path)
    assert "line 1" in str(err.value)


def test_hierarchy_rejects_unknown_kind(tmp_path):
    with pytest.raises(ResourceError, match="kind"):
        _hierarchy(["sniff\tsmell\tsynonym"], tmp_path)


def test_empty_hierarchy(tmp_path):
    store = _hierarchy([], tmp_path)
    assert store.edges_from == {}


def test_default_light_verbs(tmp_path):
    store = _hierarchy([], tmp_path)
    assert store.light_verbs >= {"do", "give", "have", "make", "take"}
    assert store.light_verbs == DEFAULT_LIGHT_VERBS


def test_custom_light_verb_file(tmp_path):
    store = _hierarchy([], tmp_path, light=["Get", "do", ""])
    assert store.light_verbs == frozenset({"get", "do"})
    path = tmp_path / "light.txt"
    assert load_light_verbs(path) == frozenset({"get", "do"})
