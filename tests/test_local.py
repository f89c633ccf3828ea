"""Scoring-formula tests: the argument-score noisy-OR against Bernoulli
enumeration, PMI, BInc, and the edge composer's frequency penalty and
composed score."""

import math
import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from columns import probs, rows, text_keyed
from evgraph.corpus import CorpusIndex
from evgraph.local import (
    argument_score,
    binc,
    build_feature_vector,
    compose_edge,
    pmi_weight,
    predicate_score,
    score_predicate_rules,
    signature_counts,
)
from evgraph.model import (
    HYPOTHESES,
    PATTERN_CODE,
    PATTERN_ROLES,
    PATTERNS,
    TYPE_LABELS,
    Eventuality,
    aligned_slots,
    decompose_surfaces,
)
from evgraph.rules import PredicateRule
from inputs import index_from, store_from, taxonomy_from


def bernoulli_or(probs):
    """Brute-force P(at least one success) over independent indicators."""
    total = 0.0
    for outcome in product((0, 1), repeat=len(probs)):
        if not any(outcome):
            continue
        weight = 1.0
        for hit, p in zip(outcome, probs):
            weight *= p if hit else 1.0 - p
        total += weight
    return total


# --- argument set score (noisy-OR) ---------------------------------------------


def noisy_or(probs):
    """argument_score over distinct terms a<k> -> b<k> with P = probs[k]."""
    slots = tuple((k, k) for k in range(len(probs)))
    term_probs = {f"a{k}": {f"b{k}": p} for k, p in enumerate(probs)}
    args_from = tuple(f"a{k}" for k in range(len(probs)))
    args_to = tuple(f"b{k}" for k in range(len(probs)))
    identical, score = argument_score(args_from, args_to, slots, term_probs)
    assert not identical
    return score


def test_noisy_or_matches_bernoulli_enumeration():
    rng = random.Random(11)
    for _ in range(300):
        probs = [rng.random() for _ in range(rng.randint(1, 3))]
        assert abs(noisy_or(probs) - bernoulli_or(probs)) <= 1e-12


def test_argument_set_score_examples(tmp_path):
    store = taxonomy_from(["fruit\tapple\t3", "company\tapple\t1"], tmp_path)
    both = ((0, 0), (1, 1))
    # identical pair forces 1.0
    assert argument_score(("boy", "apple"), ("boy", "apple"), both, store) == (
        True,
        1.0,
    )
    # (0.75, 0) -> 0.75
    identical, score = argument_score(("apple", "dog"), ("fruit", "cat"), both, store)
    assert not identical and score == pytest.approx(0.75, abs=1e-12)
    # all-zero pairs -> 0
    assert argument_score(("apple",), ("rock",), ((0, 0),), store) == (False, 0.0)
    # only the aligned slots count: the premise's second term is dropped
    assert argument_score(("apple", "x"), ("fruit",), ((0, 0),), store) == (
        False,
        0.75,
    )


@given(
    st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2),
    st.floats(min_value=0, max_value=0.2),
)
def test_noisy_or_monotone_in_each_pair(probs, which, bump):
    which %= len(probs)
    bumped = list(probs)
    bumped[which] = min(1.0, bumped[which] + bump)
    assert noisy_or(bumped) >= noisy_or(probs) - 1e-12


# --- PMI -----------------------------------------------------------------------


def test_pmi_examples():
    assert pmi_weight(100, 100, 100, 100) == 0.0  # log(1)
    assert pmi_weight(100, 10, 20, 10) == pytest.approx(math.log(5), abs=1e-12)
    assert pmi_weight(100, 0, 20, 10) == 0.0
    # negative PMI clips to zero
    assert pmi_weight(100, 1, 50, 50) == 0.0


def test_pmi_scale_invariance():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(10, 10_000)
        c_pair = rng.randint(1, n)
        c_pred = rng.randint(c_pair, n)
        c_sig = rng.randint(c_pair, n)
        scale = rng.randint(2, 1000)
        assert pmi_weight(n, c_pair, c_pred, c_sig) == pmi_weight(
            n * scale, c_pair * scale, c_pred * scale, c_sig * scale
        )


def test_pmi_over_corpus_counts():
    index = index_from(
        ["s-v-o\tn1=boy;v1=eat;n2=apple\t2", "s-v-o\tn1=boy;v1=see;n2=apple\t2"]
    )
    # N=4, c(eat, boy|apple)=2, c(eat)=2, c(boy|apple)=4 -> log(4*2/8)=0
    counts = (
        index.total_mass, signature_counts(index, "eat")[0], index.predicate_freq["eat"],
        index.signature_freq[0],
    )
    assert counts == (4, 2, 2, 4)
    assert pmi_weight(*counts) == 0.0


# --- feature vectors -----------------------------------------------------------

CHEW_EAT_CORPUS = [
    "s-v-o\tn1=boy;v1=chew;n2=apple\t4",
    "s-v-o\tn1=boy;v1=chew;n2=food\t2",
    "s-v-o\tn1=boy;v1=eat;n2=apple\t2",
    "s-v-o\tn1=boy;v1=eat;n2=food\t4",
    "s-v-o\tn1=girl;v1=eat;n2=bread\t6",
    "s-v-o\tn1=girl;v1=see;n2=bread\t6",
]


def _vector(index, predicate, other, aug_lambda, store):
    """build_feature_vector, its weights keyed by signature text."""
    counts, other_counts = signature_counts(index, predicate), signature_counts(index, other)
    vec = build_feature_vector(index, predicate, counts, other_counts, aug_lambda, probs(index, store))
    return text_keyed(index, vec)


def test_shared_signature_becomes_base_feature(tmp_path):
    index = index_from(CHEW_EAT_CORPUS)
    store = taxonomy_from([], tmp_path)
    vec = _vector(index, "chew", "eat", 0.5, store)
    assert "boy|apple" in vec and "boy|food" in vec


def test_augmentation_adds_entailed_signature(tmp_path):
    index = index_from(
        [
            "s-v-o\tn1=boy;v1=chew;n2=apple\t1",
            "s-v-o\tn1=boy;v1=chew;n2=food\t8",
            "s-v-o\tn1=boy;v1=eat;n2=apple\t1",
            "s-v-o\tn1=girl;v1=eat;n2=bread\t1",
            "s-v-o\tn1=sun;v1=shine;n2=sky\t8",
        ]
    )
    store = taxonomy_from(["food\tapple\t3", "company\tapple\t1"], tmp_path)
    vec = _vector(index, "chew", "eat", 0.5, store)
    # base: boy|apple (the only shared signature); (boy,apple) entails
    # (boy,food) with probability above lambda, so boy|food is augmented in.
    assert "boy|apple" in vec
    assert "boy|food" in vec


def test_disjoint_contexts_give_empty_vector(tmp_path):
    index = index_from(
        ["s-v-o\tn1=boy;v1=chew;n2=apple\t1", "s-v-o\tn1=sun;v1=eat;n2=sky\t1"]
    )
    store = taxonomy_from([], tmp_path)
    vec = _vector(index, "chew", "eat", 1.0, store)
    assert vec == {}


def test_zero_pmi_features_dropped(tmp_path):
    index = index_from(
        ["s-v-o\tn1=boy;v1=eat;n2=apple\t2", "s-v-o\tn1=boy;v1=see;n2=apple\t2"]
    )
    store = taxonomy_from([], tmp_path)
    vec = _vector(index, "eat", "see", 0.5, store)
    assert vec == {}


def dense_feature_vector(index, predicate, other, aug_lambda, store):
    """The augmentation as a dense scan: every (base signature, signature)
    pair of the predicate, under the best admissible pattern pairing,
    with every count taken afresh from the eventualities."""
    freqs = dict(zip(index.ids, index.frequency))
    sig_freq, pred_freq, pred_sigs, patterns = {}, {}, {}, {}
    for eid, freq in freqs.items():
        e = Eventuality.from_id(eid, freq)
        pred, _, args = decompose_surfaces(e.pattern, e.tokens)
        sig = "|".join(args)
        sig_freq[sig] = sig_freq.get(sig, 0) + freq
        pred_freq[pred] = pred_freq.get(pred, 0) + freq
        sigs = pred_sigs.setdefault(pred, {})
        sigs[sig] = sigs.get(sig, 0) + freq
        if pred == predicate:
            patterns.setdefault(sig, set()).add(e.pattern)
    sigs = pred_sigs.get(predicate, {})
    base = sorted(set(sigs) & set(pred_sigs.get(other, {})))
    features = set(base)
    for sig_base in base:
        for sig_k in sorted(sigs):
            if sig_k in features:
                continue
            best = 0.0
            for pat_from in sorted(patterns[sig_base]):
                for pat_to in sorted(patterns[sig_k]):
                    slots = aligned_slots(pat_from, pat_to)
                    if slots is not None:
                        _, score = argument_score(
                            sig_base.split("|"), sig_k.split("|"), slots, store
                        )
                        best = max(best, score)
            if best > aug_lambda:
                features.add(sig_k)
    total = sum(freqs.values())
    weights = {
        sig: pmi_weight(total, sigs[sig], pred_freq[predicate], sig_freq[sig])
        for sig in sorted(features)
    }
    return {sig: w for sig, w in weights.items() if w > 0.0}


# Adjectives that are also nouns, and verbs that spell a compound
# predicate, put one signature under two patterns of one predicate:
# "boy eat apple" is boy|apple under s-v-o and s-v-a, "boy eat-at apple"
# (s-v-o) shares eat-at with "boy eat at apple" (s-v-p-o), and "boy
# be-ripe food" (s-v-a) shares be-ripe with "boy be ripe" (s-be-a).
FV_TOKENS = {
    "n1": ("boy", "girl"),
    "n2": ("apple", "food"),
    "n3": ("apple", "food"),
    "v1": ("eat", "eat-at", "be-ripe"),
    "a1": ("ripe", "apple", "food"),
    "p1": ("at",),
}


@st.composite
def mixed_corpora(draw):
    merged = {}
    for _ in range(draw(st.integers(1, 24))):
        pattern = draw(st.sampled_from(PATTERNS))
        roles = {r: draw(st.sampled_from(FV_TOKENS[r])) for r in PATTERN_ROLES[pattern]}
        ev = Eventuality.create(pattern, roles, draw(st.integers(1, 5)))
        prev = merged.get(ev.id)
        if prev is not None:
            ev = Eventuality(ev.pattern, ev.tokens, prev.frequency + ev.frequency)
        merged[ev.id] = ev
    return CorpusIndex.build({e.id: e.frequency for e in merged.values()})


# Concepts include a term no corpus holds ("thing").
fv_taxonomies = st.lists(
    st.tuples(
        st.sampled_from(("food", "apple", "girl", "thing", "at-food")),
        st.sampled_from(("apple", "food", "boy", "ripe", "at-apple")),
        st.integers(1, 4),
    ),
    max_size=12,
).map(lambda rows: store_from([f"{c}\t{i}\t{f}" for c, i, f in rows]))


@given(mixed_corpora(), fv_taxonomies, st.floats(0.0, 1.0))
def test_feature_vector_equals_dense_reference(index, store, drawn_lambda):
    # Every ordered pair, so pairs without a shared signature occur too.
    preds = sorted(index.by_predicate) + ["unseen"]
    for aug_lambda in (0.0, 0.5, 1.0, drawn_lambda):
        for predicate in preds:
            for other in preds:
                # Equal in weights and in their order, which sums follow.
                got = _vector(index, predicate, other, aug_lambda, store)
                want = dense_feature_vector(index, predicate, other, aug_lambda, store)
                assert list(got.items()) == list(want.items())


# --- BInc ----------------------------------------------------------------------


def test_binc_identity_is_one():
    u = {"f1": 0.3, "f2": 1.7}
    assert binc(u, u) == pytest.approx(1.0, abs=1e-12)


def test_binc_disjoint_is_zero():
    assert binc({"a": 1.0}, {"b": 1.0}) == 0.0


def test_binc_empty_is_zero():
    assert binc({}, {"a": 1.0}) == 0.0
    assert binc({"a": 1.0}, {}) == 0.0


def test_binc_worked_example():
    u = {"f1": 1.0, "f2": 1.0}
    v = {"f1": 1.0}
    # Lin = (1+1)/(2+1) = 2/3, Cover = 1/2 -> sqrt(1/3)
    assert binc(u, v) == pytest.approx(math.sqrt(1 / 3), abs=1e-9)
    # the reverse direction covers all of v: sqrt(2/3)
    assert binc(v, u) == pytest.approx(math.sqrt(2 / 3), abs=1e-9)
    assert binc(u, v) != binc(v, u)


# --- predicate score -----------------------------------------------------------


def test_predicate_score_identity(tmp_path):
    index = index_from(CHEW_EAT_CORPUS)
    store = taxonomy_from([], tmp_path)
    assert predicate_score(index, "eat", "eat", 0.5, probs(index, store)) == 1.0


def test_predicate_score_matches_hand_built_vectors(tmp_path):
    index = index_from(CHEW_EAT_CORPUS)
    store = taxonomy_from([], tmp_path)
    # Independent construction: N=24, c(chew)=6, c(eat)=12,
    # c(boy|apple)=6, c(boy|food)=6, c(girl|bread)=12.
    w_chew = {
        "boy|apple": math.log(24 * 4 / (6 * 6)),
        "boy|food": math.log(24 * 2 / (6 * 6)),
    }
    # eat's boy|apple weight clips negative (24*2/(12*6) < 1) and drops out
    w_eat = {"boy|food": math.log(24 * 4 / (12 * 6))}
    su = sum(w_chew.values())
    sv = sum(w_eat.values())
    lin = (w_chew["boy|food"] + w_eat["boy|food"]) / (su + sv)
    expected_fwd = math.sqrt(lin * (w_chew["boy|food"] / su))
    expected_rev = math.sqrt(lin * (w_eat["boy|food"] / sv))
    table = probs(index, store)
    assert predicate_score(index, "chew", "eat", 0.5, table) == pytest.approx(
        expected_fwd, abs=1e-12
    )
    assert predicate_score(index, "eat", "chew", 0.5, table) == pytest.approx(
        expected_rev, abs=1e-12
    )
    assert expected_fwd != expected_rev  # asymmetry carries through


def test_predicate_score_zero_without_shared_context(tmp_path):
    index = index_from(
        ["s-v-o\tn1=boy;v1=chew;n2=apple\t1", "s-v-o\tn1=sun;v1=eat;n2=sky\t1"]
    )
    store = taxonomy_from([], tmp_path)
    assert predicate_score(index, "chew", "eat", 1.0, probs(index, store)) == 0.0


def test_score_predicate_rules_fills_each_rule_score(tmp_path):
    index = index_from(CHEW_EAT_CORPUS)
    store = taxonomy_from([], tmp_path)
    pairs = (("see", "eat"), ("chew", "eat"))
    table = probs(index, store)
    serial = score_predicate_rules(index, pairs, 0.5, table)
    assert serial == tuple(
        PredicateRule(a, b, predicate_score(index, a, b, 0.5, table)) for a, b in pairs
    )


# --- penalty (edge composer) ---------------------------------------------------

SEE_THINK_CORPUS = [
    "s-v-o\tn1=she;v1=see;n2=towel\t26",
    "s-v-o\tn1=he;v1=see;n2=it\t74",
    "s-v-o\tn1=she;v1=think;n2=towel\t4",
    "s-v-o\tn1=he;v1=think;n2=it\t96",
]


def _penalty(index, id_from, id_to):
    """The penalty compose_edge derives for two corpus eventualities."""
    row = rows(index)
    pen, _ = compose_edge(1.0, row[id_from].cond_prob, row[id_to].cond_prob, 1.0)
    return pen


def test_penalty_worked_example():
    index = index_from(SEE_THINK_CORPUS)
    see = "s-v-o:she|see|towel"
    think = "s-v-o:she|think|towel"
    # raw = (26/100)/(4/100) = 6.5, clamped
    row = rows(index)
    assert row[see].cond_prob / row[think].cond_prob == pytest.approx(6.5, rel=1e-12)
    assert _penalty(index, see, think) == 1.0
    assert _penalty(index, think, see) == pytest.approx(0.04 / 0.26, rel=1e-12)


def test_penalty_equal_conditionals():
    index = index_from(
        ["s-v-o\tn1=a;v1=p;n2=x\t3", "s-v-o\tn1=a;v1=q;n2=x\t3"]
    )
    assert _penalty(index, "s-v-o:a|p|x", "s-v-o:a|q|x") == 1.0


def test_penalty_ratio_example():
    index = index_from(
        [
            "s-v-o\tn1=a;v1=p;n2=x\t1",
            "s-v-o\tn1=b;v1=p;n2=y\t9",
            "s-v-o\tn1=a;v1=q;n2=x\t5",
            "s-v-o\tn1=b;v1=q;n2=y\t5",
        ]
    )
    # (1/10) / (5/10) = 0.2
    assert _penalty(index, "s-v-o:a|p|x", "s-v-o:a|q|x") == pytest.approx(0.2, rel=1e-12)


def test_penalty_reciprocal_before_clamping():
    index = index_from(SEE_THINK_CORPUS)
    a, b = "s-v-o:she|see|towel", "s-v-o:she|think|towel"
    # the clamped direction is exactly the reciprocal of the unclamped one
    assert _penalty(index, a, b) == 1.0
    raw_ab = rows(index)[a].cond_prob / rows(index)[b].cond_prob
    assert _penalty(index, b, a) * raw_ab == pytest.approx(1.0, rel=1e-12)


# --- composed score ------------------------------------------------------------


def local_score(pred, pen, arg):
    """compose_edge with c_to = 1, so its penalty is exactly c_from = pen."""
    penalty, score = compose_edge(pred, pen, 1.0, arg)
    # The type an s-v -> s-v edge carries comes from the counterpart table.
    [(_, _, code)] = HYPOTHESES[PATTERN_CODE["s-v"]]
    assert penalty == pen and TYPE_LABELS[code] == "s-v ⊨ s-v"
    return score


def test_local_score_examples():
    assert local_score(0.64, 1.0, 0.25) == pytest.approx(0.4, abs=1e-12)
    assert local_score(0.0, 0.9, 0.9) == 0.0
    assert local_score(1.0, 1.0, 1.0) == 1.0


@given(
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
)
def test_local_score_squares_to_product(p, f, a):
    assert abs(local_score(p, f, a) ** 2 - p * f * a) <= 1e-12


@given(
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=0.3),
)
def test_local_score_monotone(p, f, a, bump):
    base = local_score(p, f, a)
    assert local_score(min(1.0, p + bump), f, a) >= base - 1e-12
    assert local_score(p, min(1.0, f + bump), a) >= base - 1e-12
    assert local_score(p, f, min(1.0, a + bump)) >= base - 1e-12
