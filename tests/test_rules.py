"""Argument and predicate rule extraction."""

import pytest

from evgraph.config import ConfigError, PipelineConfig
from evgraph.rules import (
    PredicateRule,
    build_argument_rules,
    build_predicate_rules,
    collect_vocabulary,
    write_rules,
)
from inputs import hierarchy_from, index_from, taxonomy_from


def test_collect_vocabulary_single_record():
    index = index_from(["s-v-o-p-o\tn1=he;v1=post;n2=it;p1=on;n3=youtube\t1"])
    assert collect_vocabulary(index) == {"he": 0, "it": 1, "on-youtube": 2}
    assert index.predicate_freq == {"post": 1}


def test_collect_vocabulary_empty():
    index = index_from([])
    assert collect_vocabulary(index) == {} and index.predicate_freq == {}


def test_collect_vocabulary_sums_shared_predicate():
    index = index_from(["s-v-o\tn1=boy;v1=eat;n2=apple\t3", "s-v-o\tn1=girl;v1=eat;n2=bread\t4"])
    assert index.predicate_freq["eat"] == 7


def test_argument_rules_filter_concepts_outside_vocabulary(tmp_path):
    store = taxonomy_from(["fruit\tapple\t3", "company\tapple\t1"], tmp_path)
    rules = build_argument_rules(store, frozenset({"apple", "fruit"}), k=5, tau=0.1)
    assert [(r.from_term, r.to_term, r.score) for r in rules] == [("apple", "fruit", 0.75)]


def test_argument_rules_threshold_excludes(tmp_path):
    store = taxonomy_from(["fruit\tapple\t3", "company\tapple\t1"], tmp_path)
    assert build_argument_rules(store, frozenset({"apple", "fruit"}), 5, 0.8) == ()


def test_argument_rules_hit_multiple_concepts(tmp_path):
    store = taxonomy_from(
        ["fruit\tapple\t5", "company\tapple\t3", "food\tapple\t2"], tmp_path
    )
    terms = frozenset({"apple", "fruit", "company", "food"})
    rules = build_argument_rules(store, terms, k=5, tau=0.05)
    assert {(r.from_term, r.to_term) for r in rules} == {
        ("apple", "fruit"),
        ("apple", "company"),
        ("apple", "food"),
    }


def test_argument_rules_top_k_applies_before_vocabulary_filter(tmp_path):
    # company outranks food; with k=2 food never reaches the vocabulary check
    store = taxonomy_from(
        ["fruit\tapple\t5", "company\tapple\t3", "food\tapple\t2"], tmp_path
    )
    rules = build_argument_rules(store, frozenset({"apple", "fruit", "food"}), 2, 0.05)
    assert {(r.from_term, r.to_term) for r in rules} == {("apple", "fruit")}


def test_argument_rules_irreflexive_and_reproducible(tmp_path):
    store = taxonomy_from(
        ["fruit\tapple\t3", "apple\tapple\t9", "fruit\tpear\t1"], tmp_path
    )
    rules = build_argument_rules(store, frozenset({"apple", "fruit", "pear"}), 5, 0.0)
    for r in rules:
        assert r.from_term != r.to_term
        assert r.score == store[r.from_term][r.to_term]


def test_predicate_rules_basic(tmp_path):
    hier = hierarchy_from(["know\tremember\tentail"], tmp_path)
    rules = build_predicate_rules(
        hier, {"know": 9, "remember": 6}, {"know": "verb", "remember": "verb"}, 5
    )
    assert rules == (("know", "remember"),)


def test_predicate_rules_exclude_light_verbs(tmp_path):
    hier = hierarchy_from(["take\tacquire\thypernym", "grab\ttake\thypernym"], tmp_path)
    freq = {"take": 100, "acquire": 50, "grab": 50}
    kinds = dict.fromkeys(freq, "verb")
    assert build_predicate_rules(hier, freq, kinds, 5) == ()


def test_predicate_rules_frequency_filter(tmp_path):
    hier = hierarchy_from(["chew\teat\thypernym"], tmp_path)
    kinds = {"chew": "verb", "eat": "verb"}
    assert build_predicate_rules(hier, {"chew": 3, "eat": 9}, kinds, 5) == ()
    assert build_predicate_rules(hier, {"chew": 3, "eat": 9}, kinds, 1) != ()


def test_predicate_rules_compound_falls_back_to_base_verb(tmp_path):
    hier = hierarchy_from(["take\tacquire\thypernym"], tmp_path)
    freq = {"take-over": 10, "acquire": 10}
    kinds = {"take-over": "verb-prep", "acquire": "verb"}
    rules = build_predicate_rules(hier, freq, kinds, 5)
    assert rules == (("take-over", "acquire"),)


def test_predicate_rules_compound_entry_preferred_over_base(tmp_path):
    hier = hierarchy_from(
        ["take-over\tacquire\tentail", "take\tsteal\thypernym"], tmp_path
    )
    freq = {"take-over": 10, "acquire": 10, "steal": 10}
    kinds = {"take-over": "verb-prep", "acquire": "verb", "steal": "verb"}
    rules = build_predicate_rules(hier, freq, kinds, 5)
    assert rules == (("take-over", "acquire"),)


def test_predicate_rules_no_self_loops(tmp_path):
    hier = hierarchy_from(["run\tmove\thypernym"], tmp_path)
    rules = build_predicate_rules(
        hier, {"run": 10, "move": 10}, {"run": "verb", "move": "verb"}, 5
    )
    assert all(specific != general for specific, general in rules)


def read_predicate_rules(path):
    rules = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            from_pred, to_pred, score = line.rstrip("\n").split("\t")
            rules.append(PredicateRule(from_pred, to_pred, float(score)))
    return tuple(rules)


def test_predicate_rule_file_round_trip(tmp_path):
    hier = hierarchy_from(["chew\teat\thypernym", "crunch\tchew\tentail"], tmp_path)
    freq = {"chew": 9, "eat": 9, "crunch": 9}
    pairs = build_predicate_rules(hier, freq, dict.fromkeys(freq, "verb"), 5)
    scored = tuple(PredicateRule(a, b, 0.5) for a, b in pairs)
    path = tmp_path / "pr.tsv"
    write_rules(scored, path)
    assert read_predicate_rules(path) == scored


def test_min_pred_freq_validation(tmp_path):
    # min_pred_freq's and tau's bounds are the configuration's one check.
    with pytest.raises(ConfigError, match=r"^min_pred_freq must be >= 1, got 0$"):
        PipelineConfig(output_dir=str(tmp_path), min_pred_freq=0)
    with pytest.raises(ConfigError, match=r"^tau must be in \[0,1\), got 1.0$"):
        PipelineConfig(output_dir=str(tmp_path), tau=1.0)
