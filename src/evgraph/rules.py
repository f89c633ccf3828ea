"""Entailment rule extraction: argument term rules from the taxonomy and
(specific, general) predicate pairs from the verb hierarchy.

Rule files are tab-separated from/to/score lines in canonical sort order.
The scoring stages read the taxonomy and the argument rules as lookup
tables keyed by the corpus index's term ids.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from pathlib import Path

from .corpus import CorpusIndex
from .model import COMPOUND_SEP, VERB_PREP
from .resources import VerbHierarchyStore


@dataclass(frozen=True, slots=True)
class ArgumentRule:
    """Directed term entailment rule (from entails to), score in (tau, 1]."""

    from_term: str
    to_term: str
    score: float


@dataclass(frozen=True, slots=True)
class PredicateRule:
    """Directed predicate entailment rule with its BInc score."""

    from_pred: str
    to_pred: str
    score: float


def collect_vocabulary(index: CorpusIndex) -> dict[str, int]:
    """Every argument term with its term id."""
    return {term: i for i, term in enumerate(index.terms)}


def build_argument_rules(
    probs: Mapping[str, dict[str, float]], terms: Collection[str], k: int, tau: float
) -> tuple[ArgumentRule, ...]:
    """Top-k conceptualizations, from a `load_taxonomy` table, that land
    back in the term vocabulary.

    The terms, corpus surfaces, are normalized, so each is looked up as it
    is.  Scores <= tau are dropped (the configuration keeps tau in [0, 1));
    identity rules are implicit and never stored.
    """
    rules = [
        ArgumentRule(term, concept, prob)
        for term in sorted(terms) if term in probs
        for concept, prob in islice(probs[term].items(), k)
        if concept != term and concept in terms and prob > tau
    ]
    rules.sort(key=lambda r: (r.from_term, r.to_term))
    return tuple(rules)


def build_predicate_rules(
    hierarchy: VerbHierarchyStore,
    predicate_freq: Mapping[str, int],
    predicate_kind: Mapping[str, str],
    min_pred_freq: int = 5,
) -> tuple[tuple[str, str], ...]:
    """Sorted (specific, general) hierarchy edges whose ends pass the frequency filter.

    Light-verb endpoints are excluded.  A v-p compound with no hierarchy
    entry of its own falls back to its base verb's edges, keeping the
    compound on the specific side.
    """
    light = hierarchy.light_verbs
    eligible = {
        p
        for p, f in predicate_freq.items()
        if f >= min_pred_freq and p not in light
    }
    pairs = []
    for pred in sorted(eligible):
        targets = hierarchy.edges_from.get(pred)
        if not targets and predicate_kind.get(pred) == VERB_PREP:
            targets = hierarchy.edges_from.get(pred.split(COMPOUND_SEP, 1)[0])
        for general in targets or ():
            if general == pred or general in light or general not in eligible:
                continue
            pairs.append((pred, general))
    return tuple(sorted(pairs))


def argument_rule_lookup(rules, term_ids: Mapping[str, int]) -> dict[tuple[int, int], float]:
    """(from term id, to term id) -> score of each argument rule."""
    return {(term_ids[r.from_term], term_ids[r.to_term]): r.score for r in rules}


def term_probabilities(
    probs: Mapping[str, dict[str, float]], term_ids: Mapping[str, int]
) -> dict[int, dict[int, float]]:
    """term id -> {concept term id: probability} for the corpus terms a
    `load_taxonomy` table knows, in its order.  A concept outside the
    vocabulary is left out: no aligned term can equal it."""
    known = (
        (term_ids[term], {term_ids[c]: p for c, p in concepts.items() if c in term_ids})
        for term, concepts in probs.items()
        if term in term_ids
    )
    return {tid: related for tid, related in known if related}


def write_rules(rules: Sequence[ArgumentRule] | Sequence[PredicateRule], path: str | Path) -> None:
    """Write rules of one kind as from, to and `repr(score)` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        if rules:
            fields = attrgetter(*type(rules[0]).__slots__)
            fh.writelines("{}\t{}\t{!r}\n".format(*fields(r)) for r in rules)
