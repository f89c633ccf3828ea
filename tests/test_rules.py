"""Argument and predicate rule extraction."""

from dataclasses import replace

import pytest

from evgraph.config import ConfigError, PipelineConfig
from evgraph.corpus import CorpusIndex, parse_corpus_line
from evgraph.resources import load_taxonomy, load_verb_hierarchy
from evgraph.rules import (
    PredicateRule,
    build_argument_rules,
    build_predicate_rules,
    collect_vocabulary,
    write_predicate_rules,
)


def _index(lines):
    return CorpusIndex.build(
        dict(parse_corpus_line(line, i + 1) for i, line in enumerate(lines))
    )


def _taxonomy(lines, tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return load_taxonomy(path)


def _hierarchy(lines, tmp_path):
    path = tmp_path / "h.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return load_verb_hierarchy(path)


def test_collect_vocabulary_single_record():
    terms, preds = collect_vocabulary(
        _index(["s-v-o-p-o\tn1=he;v1=post;n2=it;p1=on;n3=youtube\t1"])
    )
    assert terms == {"he": 0, "it": 1, "on-youtube": 2}
    assert preds == {"post": 1}


def test_collect_vocabulary_empty():
    terms, preds = collect_vocabulary(_index([]))
    assert terms == {} and preds == {}


def test_collect_vocabulary_sums_shared_predicate():
    terms, preds = collect_vocabulary(
        _index(["s-v-o\tn1=boy;v1=eat;n2=apple\t3", "s-v-o\tn1=girl;v1=eat;n2=bread\t4"])
    )
    assert preds["eat"] == 7


def test_argument_rules_filter_concepts_outside_vocabulary(tmp_path):
    store = _taxonomy(["fruit\tapple\t3", "company\tapple\t1"], tmp_path)
    rules = build_argument_rules(store, frozenset({"apple", "fruit"}), k=5, tau=0.1)
    assert [(r.from_term, r.to_term, r.score) for r in rules] == [("apple", "fruit", 0.75)]


def test_argument_rules_threshold_excludes(tmp_path):
    store = _taxonomy(["fruit\tapple\t3", "company\tapple\t1"], tmp_path)
    assert build_argument_rules(store, frozenset({"apple", "fruit"}), 5, 0.8) == ()


def test_argument_rules_hit_multiple_concepts(tmp_path):
    store = _taxonomy(
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
    store = _taxonomy(
        ["fruit\tapple\t5", "company\tapple\t3", "food\tapple\t2"], tmp_path
    )
    rules = build_argument_rules(store, frozenset({"apple", "fruit", "food"}), 2, 0.05)
    assert {(r.from_term, r.to_term) for r in rules} == {("apple", "fruit")}


def test_argument_rules_irreflexive_and_reproducible(tmp_path):
    store = _taxonomy(
        ["fruit\tapple\t3", "apple\tapple\t9", "fruit\tpear\t1"], tmp_path
    )
    rules = build_argument_rules(store, frozenset({"apple", "fruit", "pear"}), 5, 0.0)
    for r in rules:
        assert r.from_term != r.to_term
        assert r.score == store.probs[r.from_term][r.to_term]


def test_predicate_rules_basic(tmp_path):
    hier = _hierarchy(["know\tremember\tentail"], tmp_path)
    rules = build_predicate_rules(
        hier, {"know": 9, "remember": 6}, {"know": "verb", "remember": "verb"}, 5
    )
    assert [(r.from_pred, r.to_pred, r.score) for r in rules] == [
        ("know", "remember", None)
    ]


def test_predicate_rules_exclude_light_verbs(tmp_path):
    hier = _hierarchy(["take\tacquire\thypernym", "grab\ttake\thypernym"], tmp_path)
    freq = {"take": 100, "acquire": 50, "grab": 50}
    kinds = dict.fromkeys(freq, "verb")
    assert build_predicate_rules(hier, freq, kinds, 5) == ()


def test_predicate_rules_frequency_filter(tmp_path):
    hier = _hierarchy(["chew\teat\thypernym"], tmp_path)
    kinds = {"chew": "verb", "eat": "verb"}
    assert build_predicate_rules(hier, {"chew": 3, "eat": 9}, kinds, 5) == ()
    assert build_predicate_rules(hier, {"chew": 3, "eat": 9}, kinds, 1) != ()


def test_predicate_rules_compound_falls_back_to_base_verb(tmp_path):
    hier = _hierarchy(["take\tacquire\thypernym"], tmp_path)
    freq = {"take-over": 10, "acquire": 10}
    kinds = {"take-over": "verb-prep", "acquire": "verb"}
    rules = build_predicate_rules(hier, freq, kinds, 5)
    assert [(r.from_pred, r.to_pred) for r in rules] == [("take-over", "acquire")]


def test_predicate_rules_compound_entry_preferred_over_base(tmp_path):
    hier = _hierarchy(
        ["take-over\tacquire\tentail", "take\tsteal\thypernym"], tmp_path
    )
    freq = {"take-over": 10, "acquire": 10, "steal": 10}
    kinds = {"take-over": "verb-prep", "acquire": "verb", "steal": "verb"}
    rules = build_predicate_rules(hier, freq, kinds, 5)
    assert [(r.from_pred, r.to_pred) for r in rules] == [("take-over", "acquire")]


def test_predicate_rules_no_self_loops(tmp_path):
    hier = _hierarchy(["run\tmove\thypernym"], tmp_path)
    rules = build_predicate_rules(
        hier, {"run": 10, "move": 10}, {"run": "verb", "move": "verb"}, 5
    )
    assert all(r.from_pred != r.to_pred for r in rules)


def read_predicate_rules(path):
    rules = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            from_pred, to_pred, score = line.rstrip("\n").split("\t")
            rules.append(PredicateRule(from_pred, to_pred, float(score) if score else None))
    return tuple(rules)


def test_predicate_rule_file_round_trip(tmp_path):
    hier = _hierarchy(["chew\teat\thypernym", "crunch\tchew\tentail"], tmp_path)
    freq = {"chew": 9, "eat": 9, "crunch": 9}
    rules = build_predicate_rules(hier, freq, dict.fromkeys(freq, "verb"), 5)
    scored = tuple(replace(r, score=0.5) for r in rules)
    path = tmp_path / "pr.tsv"
    write_predicate_rules(scored, path)
    assert read_predicate_rules(path) == scored


def test_min_pred_freq_validation(tmp_path):
    hier = _hierarchy([], tmp_path)
    with pytest.raises(ValueError):
        build_predicate_rules(hier, {}, {}, 0)
    # tau's bound is the configuration's one check.
    with pytest.raises(ConfigError, match=r"^tau must be in \[0,1\), got 1.0$"):
        PipelineConfig(output_dir=str(tmp_path), tau=1.0)
