"""Local compositional scoring.

The composed entailment score of an eventuality pair is the geometric
mean of three factors:

    L_e = sqrt(L_p * f * L_a)

where L_a is the noisy-OR over aligned argument-term probabilities,
L_p is the Balanced-Inclusion similarity of the two predicates'
PMI-weighted context vectors (1.0 for identical predicates), and f is
the extraction-frequency penalty min(1, P(a_i|p_i) / P(a_j|p_j)).

`argument_score` is the one noisy-OR over term probabilities (path
inference and BInc's signature augmentation call it), and `compose_edge`
the one penalty and geometric mean (path inference and expansion call
it).  Expansion's stricter argument-rule check has its own slot loop.

Signature augmentation looks its candidates up in the same
(pattern, slot, term) posting lists as the global stage.  Rules are
scored one after another in this process.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .corpus import CorpusIndex, probe_postings, slot_postings
from .model import HYPOTHESES, ScoredEdge, type_label
from .resources import TaxonomyStore
from .rules import PredicateRule, with_scores


def argument_score(
    args_from: Sequence[str],
    args_to: Sequence[str],
    slots: tuple[tuple[int, int], ...],
    term_probs: dict[str, dict[str, float]],
) -> tuple[bool, float]:
    """(identical, L_a) for two argument tuples over their aligned slots.

    L_a is the noisy-OR 1 - prod(1 - L_t).  An identical term pair has
    probability 1, so one identical slot saturates L_a; any other pair
    reads term_probs[a][b], and a missing entry counts as 0.
    """
    identical = True
    miss = 1.0
    for i, j in slots:
        t_from = args_from[i]
        t_to = args_to[j]
        if t_from == t_to:
            miss = 0.0
            continue
        identical = False
        entry = term_probs.get(t_from)
        miss *= 1.0 - (entry.get(t_to, 0.0) if entry else 0.0)
    if identical:
        return True, 1.0
    return False, 1.0 - miss


def compose_edge(
    from_id: str,
    to_id: str,
    pattern_from: str,
    pattern_to: str,
    pred_score: float,
    cond_from: float,
    cond_to: float,
    arg_score: float,
    provenance: str,
) -> ScoredEdge:
    """The scored edge from_id -> to_id: penalty min(1, c_from / c_to) and
    composed score sqrt(pred * penalty * arg)."""
    pen = min(1.0, cond_from / cond_to)
    return ScoredEdge(
        from_id=from_id,
        to_id=to_id,
        arg_score=arg_score,
        pred_score=pred_score,
        penalty=pen,
        local_score=math.sqrt(pred_score * pen * arg_score),
        provenance=provenance,
        type_label=type_label(pattern_from, pattern_to),
    )


def pmi_weight(total_mass: int, pair_count: int, pred_count: int, sig_count: int) -> float:
    """Positive PMI: max(0, ln(N * c(p,a) / (c(p) * c(a)))), 0 on no co-occurrence."""
    if pair_count <= 0 or pred_count <= 0 or sig_count <= 0 or total_mass <= 0:
        return 0.0
    return max(0.0, math.log(total_mass * pair_count / (pred_count * sig_count)))


def pmi(index: CorpusIndex, predicate: str, signature: str) -> float:
    return pmi_weight(
        index.total_mass,
        index.pred_signatures.get(predicate, {}).get(signature, 0),
        index.predicate_freq.get(predicate, 0),
        index.signature_freq.get(signature, 0),
    )


@dataclass(frozen=True)
class FeatureVector:
    """Sparse argument-signature context vector with positive PMI weights."""

    weights: dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.weights.values())


def _entailed_signatures(
    index: CorpusIndex,
    predicate: str,
    base: set[str],
    aug_lambda: float,
    probs: dict[str, dict[str, float]],
) -> set[str]:
    """The signatures of `predicate` outside `base` that some base
    signature entails with probability > lambda, the best admissible
    pattern pairing of the two counting.

    Since lambda >= 0, an entailed signature has an aligned slot whose
    terms are identical or have a nonzero taxonomy probability.  So only
    the eventualities found under a base eventuality's aligned term, or
    one of its taxonomy concepts, in the posting lists of the
    predicate's other signatures are scored.
    """
    rows = index.rows
    ids = index.by_predicate.get(predicate, ())
    signature = {eid: "|".join(rows[eid].args) for eid in ids}
    postings = slot_postings(index, (eid for eid in ids if signature[eid] not in base))
    entailed: set[str] = set()
    for bid in ids:
        if signature[bid] not in base:
            continue
        pattern_b, _, args_b, _ = rows[bid]
        for pattern, slots in HYPOTHESES.get(pattern_b, ()):
            if pattern not in postings:
                continue
            hits = probe_postings(postings[pattern], [(j, args_b[i]) for i, j in slots], probs)
            for eid in hits:
                if signature[eid] in entailed:
                    continue
                _, score = argument_score(args_b, rows[eid].args, slots, probs)
                if score > aug_lambda:
                    entailed.add(signature[eid])
    return entailed


def build_feature_vector(
    index: CorpusIndex,
    predicate: str,
    other: str,
    aug_lambda: float,
    store: TaxonomyStore,
) -> FeatureVector:
    """Context vector for `predicate` scored against `other`.

    Base features are the argument signatures the two predicates share
    exactly; one augmentation pass then adds every signature of
    `predicate` entailed by a base signature with probability > lambda.
    Weights are positive PMI; zero-weight features are dropped.
    """
    sigs = index.pred_signatures.get(predicate, {})
    features = set(sigs) & set(index.pred_signatures.get(other, {}))
    if features and len(features) < len(sigs):
        features |= _entailed_signatures(index, predicate, features, aug_lambda, store.probs)
    weights = {}
    for sig in sorted(features):
        w = pmi(index, predicate, sig)
        if w > 0.0:
            weights[sig] = w
    return FeatureVector(weights)


def binc(u: FeatureVector, v: FeatureVector) -> float:
    """Balanced Inclusion: sqrt(Lin(u,v) * Cover(u->v)).

    Lin is the symmetric weight share of the common features; Cover is
    the share of u's weight mass they carry.  Empty vectors score 0.
    """
    total_u = u.total
    total_v = v.total
    if total_u <= 0.0 or total_v <= 0.0:
        return 0.0
    shared = u.weights.keys() & v.weights.keys()
    if not shared:
        return 0.0
    lin = sum(u.weights[f] + v.weights[f] for f in sorted(shared)) / (total_u + total_v)
    cover = sum(u.weights[f] for f in sorted(shared)) / total_u
    # Mathematically <= 1; the clamp guards last-ulp float drift.
    return min(1.0, math.sqrt(lin * cover))


def predicate_score(
    index: CorpusIndex,
    pred_i: str,
    pred_j: str,
    aug_lambda: float,
    store: TaxonomyStore,
) -> float:
    """BInc over the pair-contextual feature vectors; identity scores 1.0."""
    if pred_i == pred_j:
        return 1.0
    u = build_feature_vector(index, pred_i, pred_j, aug_lambda, store)
    v = build_feature_vector(index, pred_j, pred_i, aug_lambda, store)
    return binc(u, v)


def score_predicate_rules(
    index: CorpusIndex,
    rules: tuple[PredicateRule, ...],
    aug_lambda: float,
    store: TaxonomyStore,
) -> tuple[PredicateRule, ...]:
    """Fill every rule's score; pairs are independent, so order never matters."""
    return with_scores(
        rules,
        {
            (r.from_pred, r.to_pred): predicate_score(
                index, r.from_pred, r.to_pred, aug_lambda, store
            )
            for r in rules
        },
    )
