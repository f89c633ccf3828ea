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

The scorers read the corpus index's rows and term ids; term
probabilities come keyed by term id (`rules.term_probabilities`).
Each `PredicateRule` is made with its `predicate_score`, which counts
each predicate's signatures once per (specific, general) pair and builds
both feature vectors from those counts.  Signature augmentation probes
the same postings as the global stage, each search bound once per
predicate and pattern (`corpus.posting_probe`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .corpus import MAX_ARITY, CorpusIndex, posting_probe
from .model import HYPOTHESES
from .rules import PredicateRule

# term id -> {related term id: probability}, as `rules.term_probabilities` gives.
TermProbs = dict[int, dict[int, float]]


def argument_score(
    args_from: Sequence, args_to: Sequence, slots: tuple[tuple[int, int], ...], term_probs: dict
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


def compose_edge(pred_score: float, cond_from: float, cond_to: float, arg_score: float):
    """(penalty, composed score) of an edge: penalty min(1, c_from / c_to)
    and composed score sqrt(pred * penalty * arg)."""
    pen = min(1.0, cond_from / cond_to)
    return pen, math.sqrt(pred_score * pen * arg_score)


def pmi_weight(total_mass: int, pair_count: int, pred_count: int, sig_count: int) -> float:
    """Positive PMI: max(0, ln(N * c(p,a) / (c(p) * c(a)))), 0 on no co-occurrence."""
    if pair_count <= 0 or pred_count <= 0 or sig_count <= 0 or total_mass <= 0:
        return 0.0
    return max(0.0, math.log(total_mass * pair_count / (pred_count * sig_count)))


def signature_counts(index: CorpusIndex, predicate: str) -> dict[int, int]:
    """Signature id -> its summed frequency under the predicate."""
    counts: dict[int, int] = {}
    signature, frequency = index.signature, index.frequency
    for row in index.by_predicate.get(predicate, ()):
        sig = signature[row]
        counts[sig] = counts.get(sig, 0) + frequency[row]
    return counts


def _entailed_signatures(
    index: CorpusIndex, predicate: str, base: set[int], aug_lambda: float, probs: TermProbs
) -> set[int]:
    """The signatures of `predicate` outside `base` that some base
    signature entails with probability > lambda, under the best
    admissible pattern pairing.  Such a signature has an aligned slot with
    identical or taxonomy-related terms, so only posting hits are scored.
    """
    pid = index.predicate_ids[predicate]
    signature, pattern, args = index.signature, index.pattern, index.args
    rows = index.by_predicate[predicate]
    held = set(map(pattern.__getitem__, rows))  # the patterns the predicate has rows of
    # Pattern -> a probe of each counterpart the predicate has rows of.
    probes = {
        pat: [(posting_probe(index, pid, other, slots, probs), slots)
              for other, slots, _ in HYPOTHESES[pat] if other in held]
        for pat in held
    }
    entailed: set[int] = set()
    for bid in rows:
        if signature[bid] not in base:
            continue
        args_b = args[bid * MAX_ARITY:(bid + 1) * MAX_ARITY]
        for probe, slots in probes[pattern[bid]]:
            for eid in probe(args_b):
                sig = signature[eid]
                if sig in base or sig in entailed:
                    continue
                args_e = args[eid * MAX_ARITY:(eid + 1) * MAX_ARITY]
                _, score = argument_score(args_b, args_e, slots, probs)
                if score > aug_lambda:
                    entailed.add(sig)
    return entailed


def build_feature_vector(
    index: CorpusIndex, predicate: str, counts: dict[int, int], other_counts: dict[int, int],
    aug_lambda: float, probs: TermProbs,
) -> dict[int, float]:
    """Context vector for `predicate` scored against another predicate,
    given both predicates' `signature_counts`: a sparse map of signature
    id (ids follow signature-text order) to positive PMI weight.

    Base features are the argument signatures the two predicates share
    exactly; one augmentation pass then adds every signature of
    `predicate` entailed by a base signature with probability > lambda.
    Weights are positive PMI; zero-weight features are dropped.
    """
    features = counts.keys() & other_counts.keys()
    if features and len(features) < len(counts):
        features |= _entailed_signatures(index, predicate, features, aug_lambda, probs)
    pred_count = index.predicate_freq.get(predicate, 0)
    weights = {}
    for sig in sorted(features):
        w = pmi_weight(index.total_mass, counts[sig], pred_count, index.signature_freq[sig])
        if w > 0.0:
            weights[sig] = w
    return weights


def binc(u: dict, v: dict) -> float:
    """Balanced Inclusion of two feature -> weight maps:
    sqrt(Lin(u,v) * Cover(u->v)).

    Lin is the symmetric weight share of the common features; Cover is
    the share of u's weight mass they carry.  Empty vectors score 0.
    """
    total_u = sum(u.values())
    total_v = sum(v.values())
    if total_u <= 0.0 or total_v <= 0.0:
        return 0.0
    shared = u.keys() & v.keys()
    if not shared:
        return 0.0
    lin = sum(u[f] + v[f] for f in sorted(shared)) / (total_u + total_v)
    cover = sum(u[f] for f in sorted(shared)) / total_u
    # Mathematically <= 1; the clamp guards last-ulp float drift.
    return min(1.0, math.sqrt(lin * cover))


def predicate_score(
    index: CorpusIndex, pred_i: str, pred_j: str, aug_lambda: float, probs: TermProbs
) -> float:
    """BInc over the pair-contextual feature vectors; identity scores 1.0."""
    if pred_i == pred_j:
        return 1.0
    counts_i, counts_j = signature_counts(index, pred_i), signature_counts(index, pred_j)
    u = build_feature_vector(index, pred_i, counts_i, counts_j, aug_lambda, probs)
    v = build_feature_vector(index, pred_j, counts_j, counts_i, aug_lambda, probs)
    return binc(u, v)


def score_predicate_rules(
    index: CorpusIndex, pairs: Sequence[tuple[str, str]], aug_lambda: float, probs: TermProbs
) -> tuple[PredicateRule, ...]:
    """One scored rule per (specific, general) pair, in pair order."""
    return tuple(
        PredicateRule(a, b, predicate_score(index, a, b, aug_lambda, probs)) for a, b in pairs
    )
