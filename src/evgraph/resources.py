"""Immutable lexical resource stores, one representation each: an is-a
taxonomy as per-instance concept probabilities, and a verb hierarchy as
per-verb general verbs with a light-verb list.

Taxonomy file: concept<TAB>instance<TAB>frequency, no header.
Verb hierarchy file: specific<TAB>general<TAB>{entail|hypernym}.
Light-verb file: one lemma per line.

All three are UTF-8 and read by `corpus.decoded_lines`: lines end at a
newline only, blank lines are skipped but counted, and a malformed line
or one that is not UTF-8 raises `ResourceError` naming it.  Concepts,
instances and verbs are normalized as corpus tokens are.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import decoded_lines
from .model import normalize_token

DEFAULT_LIGHT_VERBS = frozenset({"do", "give", "have", "make", "take"})

HIERARCHY_KINDS = ("entail", "hypernym")


class ResourceError(ValueError):
    """Malformed resource input, with the offending line number."""


@dataclass(frozen=True)
class TaxonomyStore:
    """instance -> {concept: co-occurrence probability}, each inner dict in
    (-frequency, concept) order, so its first k items are the top k."""

    probs: dict[str, dict[str, float]]


def _triples(path: str | Path, names: str):
    """(line number, first two fields normalized, third field) of each
    line of a three-field file."""
    for lineno, line in decoded_lines(path, ResourceError):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise ResourceError(f"line {lineno}: expected {names}, got {len(parts)} fields")
        yield lineno, normalize_token(parts[0]), normalize_token(parts[1]), parts[2]


def load_taxonomy(path: str | Path) -> TaxonomyStore:
    """Load a concept/instance/frequency file; duplicate pairs sum."""
    counts: dict[str, dict[str, int]] = {}
    for lineno, concept, instance, field in _triples(path, "concept/instance/frequency"):
        if not concept or not instance:
            raise ResourceError(f"line {lineno}: empty concept or instance")
        try:
            freq = int(field)
        except ValueError:
            raise ResourceError(f"line {lineno}: bad frequency {field!r}") from None
        if freq <= 0:
            raise ResourceError(f"line {lineno}: non-positive frequency {freq}")
        concept_counts = counts.setdefault(instance, {})
        concept_counts[concept] = concept_counts.get(concept, 0) + freq

    probs: dict[str, dict[str, float]] = {}
    for instance, concept_counts in counts.items():
        ordered = sorted(concept_counts.items(), key=lambda cf: (-cf[1], cf[0]))
        total = sum(concept_counts.values())
        probs[instance] = {c: f / total for c, f in ordered}
    return TaxonomyStore(probs=probs)


def conceptualize(store: TaxonomyStore, term: str, k: int) -> list[tuple[str, float]]:
    """Top-k concepts of a term by co-occurrence probability.

    Ties break lexicographically on the concept; unknown terms give [].
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return list(store.probs.get(normalize_token(term), {}).items())[:k]


@dataclass(frozen=True)
class VerbHierarchyStore:
    """specific verb -> its general verbs (sorted), plus the light-verb list."""

    edges_from: dict[str, tuple[str, ...]]
    light_verbs: frozenset[str]


def load_light_verbs(path: str | Path) -> frozenset[str]:
    return frozenset(normalize_token(line) for _, line in decoded_lines(path, ResourceError))


def load_verb_hierarchy(
    path: str | Path, light_verb_path: str | Path | None = None
) -> VerbHierarchyStore:
    """Load specific/general/kind edges; self-loops are rejected."""
    edges: set[tuple[str, str]] = set()
    for lineno, specific, general, kind in _triples(path, "specific/general/kind"):
        kind = kind.strip()
        if kind not in HIERARCHY_KINDS:
            raise ResourceError(f"line {lineno}: unknown edge kind {kind!r}")
        if not specific or not general:
            raise ResourceError(f"line {lineno}: empty verb lemma")
        if specific == general:
            raise ResourceError(f"line {lineno}: self-loop {specific!r} rejected")
        edges.add((specific, general))

    light = DEFAULT_LIGHT_VERBS if light_verb_path is None else load_light_verbs(light_verb_path)
    edges_from: dict[str, list[str]] = {}
    for specific, general in sorted(edges):
        edges_from.setdefault(specific, []).append(general)
    return VerbHierarchyStore({s: tuple(g) for s, g in edges_from.items()}, light)
