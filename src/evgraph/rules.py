"""Entailment rule extraction: argument term rules from the taxonomy and
raw predicate rules from the verb hierarchy.

Rule files are tab-separated from/to/score lines in canonical sort order.
The scoring stages read the taxonomy and the argument rules as lookup
tables keyed by the corpus index's term ids.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass
from pathlib import Path

from .corpus import CorpusIndex
from .model import COMPOUND_SEP, VERB_PREP
from .resources import TaxonomyStore, VerbHierarchyStore, conceptualize


@dataclass(frozen=True, slots=True)
class ArgumentRule:
    """Directed term entailment rule (from entails to), score in (tau, 1]."""

    from_term: str
    to_term: str
    score: float


@dataclass(frozen=True, slots=True)
class PredicateRule:
    """Directed predicate entailment rule; score filled by local inference."""

    from_pred: str
    to_pred: str
    score: float | None = None


def collect_vocabulary(index: CorpusIndex) -> tuple[dict[str, int], dict[str, int]]:
    """Every argument term with its term id, and every predicate with its
    summed corpus frequency."""
    return {term: i for i, term in enumerate(index.terms)}, dict(index.predicate_freq)


def build_argument_rules(
    store: TaxonomyStore, terms: Collection[str], k: int, tau: float
) -> tuple[ArgumentRule, ...]:
    """Top-k conceptualizations that land back in the term vocabulary.

    Scores <= tau are dropped (the configuration keeps tau in [0, 1));
    identity rules are implicit and never stored.
    """
    rules = []
    for term in sorted(terms):
        for concept, prob in conceptualize(store, term, k):
            if concept == term or concept not in terms:
                continue
            if prob > tau:
                rules.append(ArgumentRule(term, concept, prob))
    rules.sort(key=lambda r: (r.from_term, r.to_term))
    return tuple(rules)


def build_predicate_rules(
    hierarchy: VerbHierarchyStore,
    predicate_freq: dict[str, int],
    predicate_kind: dict[str, str],
    min_pred_freq: int = 5,
) -> tuple[PredicateRule, ...]:
    """Hierarchy edges whose endpoints survive the frequency filter.

    Light-verb endpoints are excluded.  A v-p compound with no hierarchy
    entry of its own falls back to its base verb's edges, keeping the
    compound on the specific side.
    """
    if min_pred_freq < 1:
        raise ValueError(f"min_pred_freq must be >= 1, got {min_pred_freq}")
    light = hierarchy.light_verbs
    eligible = {
        p
        for p, f in predicate_freq.items()
        if f >= min_pred_freq and p not in light
    }
    rules = []
    for pred in sorted(eligible):
        targets = hierarchy.edges_from.get(pred)
        if not targets and predicate_kind.get(pred) == VERB_PREP:
            targets = hierarchy.edges_from.get(pred.split(COMPOUND_SEP, 1)[0])
        for general in targets or ():
            if general == pred or general in light or general not in eligible:
                continue
            rules.append(PredicateRule(pred, general))
    rules.sort(key=lambda r: (r.from_pred, r.to_pred))
    return tuple(rules)


def argument_rule_lookup(rules, term_ids: Mapping[str, int]) -> dict[tuple[int, int], float]:
    """(from term id, to term id) -> score of each argument rule."""
    return {(term_ids[r.from_term], term_ids[r.to_term]): r.score for r in rules}


def term_probabilities(
    store: TaxonomyStore, term_ids: Mapping[str, int]
) -> dict[int, dict[int, float]]:
    """term id -> {concept term id: probability} for the corpus terms the
    taxonomy knows, in the taxonomy's order.  A concept outside the
    vocabulary is left out: no aligned term can equal it."""
    known = (
        (term_ids[term], {term_ids[c]: p for c, p in concepts.items() if c in term_ids})
        for term, concepts in store.probs.items()
        if term in term_ids
    )
    return {tid: related for tid, related in known if related}


def write_argument_rules(rules, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in rules:
            fh.write(f"{r.from_term}\t{r.to_term}\t{r.score!r}\n")


def write_predicate_rules(rules, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in rules:
            score = "" if r.score is None else repr(r.score)
            fh.write(f"{r.from_pred}\t{r.to_pred}\t{score}\n")
