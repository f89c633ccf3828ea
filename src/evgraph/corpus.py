"""Corpus ingestion and the frozen statistics the scoring stages read.

Corpus file format (UTF-8, no header), one eventuality per line:

    pattern_code<TAB>role=token;role=token;...<TAB>frequency

Lines with identical pattern and tokens are merged by summing frequencies.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .model import (
    DecomposedEventuality,
    DecompositionError,
    Eventuality,
    decompose,
)


class CorpusError(ValueError):
    """Malformed corpus input, with the offending line number."""


def parse_corpus_line(line: str, lineno: int) -> Eventuality:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 3:
        raise CorpusError(f"line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
    pattern, role_field, freq_field = parts
    role_tokens: dict[str, str] = {}
    for chunk in role_field.split(";"):
        if "=" not in chunk:
            raise CorpusError(f"line {lineno}: bad role=token chunk {chunk!r}")
        role, token = chunk.split("=", 1)
        role = role.strip()
        if role in role_tokens:
            raise CorpusError(f"line {lineno}: duplicate role {role!r}")
        role_tokens[role] = token
    try:
        frequency = int(freq_field)
    except ValueError:
        raise CorpusError(f"line {lineno}: frequency is not an integer: {freq_field!r}") from None
    try:
        return Eventuality.create(pattern, role_tokens, frequency)
    except DecompositionError as exc:
        raise CorpusError(f"line {lineno}: {exc}") from exc


def read_corpus(path: str | Path) -> tuple[Eventuality, ...]:
    """Read and intern a corpus file; duplicates merge with summed frequency."""
    merged: dict[str, Eventuality] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            ev = parse_corpus_line(line, lineno)
            prev = merged.get(ev.id)
            if prev is not None:
                ev = Eventuality(ev.pattern, ev.tokens, prev.frequency + ev.frequency)
            merged[ev.id] = ev
    return tuple(merged[k] for k in sorted(merged))


def corpus_line(e: Eventuality) -> str:
    roles = ";".join(f"{r}={t}" for r, t in e.role_tokens.items())
    return f"{e.pattern}\t{roles}\t{e.frequency}"


def write_corpus(eventualities, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in eventualities:
            fh.write(corpus_line(e) + "\n")


@dataclass(frozen=True)
class CorpusIndex:
    """Immutable decomposition + co-occurrence statistics over one corpus,
    built once and then only read."""

    eventualities: tuple[Eventuality, ...]
    by_id: dict[str, Eventuality]
    decomposed: dict[str, DecomposedEventuality]
    by_predicate: dict[str, tuple[str, ...]]
    predicate_freq: dict[str, int]
    predicate_kind: dict[str, str]
    terms: frozenset[str]
    signature_freq: dict[str, int]
    pair_freq: dict[tuple[str, str], int]
    pred_signatures: dict[str, dict[str, int]]
    arg_surfaces: dict[str, tuple[str, ...]] = field(repr=False, default_factory=dict)
    cond_prob: dict[str, float] = field(repr=False, default_factory=dict)
    total_mass: int = 0

    @classmethod
    def build(cls, eventualities) -> "CorpusIndex":
        eventualities = tuple(sorted(eventualities, key=lambda e: e.id))
        by_id: dict[str, Eventuality] = {}
        decomposed: dict[str, DecomposedEventuality] = {}
        by_predicate: dict[str, list[str]] = {}
        predicate_freq: dict[str, int] = {}
        predicate_kind: dict[str, str] = {}
        terms: set[str] = set()
        signature_freq: dict[str, int] = {}
        pair_freq: dict[tuple[str, str], int] = {}
        pred_signatures: dict[str, dict[str, int]] = {}
        arg_surfaces: dict[str, tuple[str, ...]] = {}
        total = 0

        for ev in eventualities:
            if ev.id in by_id:
                raise CorpusError(f"duplicate eventuality id {ev.id!r}")
            by_id[ev.id] = ev
            d = decompose(ev)
            decomposed[ev.id] = d
            p = d.predicate.surface
            sig = d.signature
            by_predicate.setdefault(p, []).append(ev.id)
            predicate_freq[p] = predicate_freq.get(p, 0) + ev.frequency
            predicate_kind.setdefault(p, d.predicate.kind)
            terms.update(d.args.surfaces)
            signature_freq[sig] = signature_freq.get(sig, 0) + ev.frequency
            pair_freq[(p, sig)] = pair_freq.get((p, sig), 0) + ev.frequency
            pred_signatures.setdefault(p, {})
            pred_signatures[p][sig] = pred_signatures[p].get(sig, 0) + ev.frequency
            arg_surfaces[ev.id] = d.args.surfaces
            total += ev.frequency

        cond_prob = {
            ev.id: ev.frequency / predicate_freq[decomposed[ev.id].predicate.surface]
            for ev in eventualities
        }
        return cls(
            eventualities=eventualities,
            by_id=by_id,
            decomposed=decomposed,
            by_predicate={p: tuple(ids) for p, ids in by_predicate.items()},
            predicate_freq=predicate_freq,
            predicate_kind=predicate_kind,
            terms=frozenset(terms),
            signature_freq=signature_freq,
            pair_freq=pair_freq,
            pred_signatures=pred_signatures,
            arg_surfaces=arg_surfaces,
            cond_prob=cond_prob,
            total_mass=total,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "CorpusIndex":
        return cls.build(read_corpus(path))


Postings = dict[tuple[str, int, str], list[str]]


def slot_postings(index: CorpusIndex, ids: Iterable[str]) -> Postings:
    """(pattern, slot, term) -> the ids holding that term in that slot."""
    postings: Postings = {}
    for eid in ids:
        pattern = index.by_id[eid].pattern
        for slot, term in enumerate(index.arg_surfaces[eid]):
            postings.setdefault((pattern, slot, term), []).append(eid)
    return postings


def probe_postings(
    postings: Postings,
    pattern: str,
    slot_terms: Iterable[tuple[int, str]],
    related: Mapping[str, Iterable[str]],
) -> dict[str, None]:
    """The ids of `pattern` holding, in one of the given slots, the given
    term or one of its related terms, in first-found order."""
    hits: dict[str, None] = {}
    for slot, term in slot_terms:
        for probe in (term, *related.get(term, ())):
            hits.update(dict.fromkeys(postings.get((pattern, slot, probe), ())))
    return hits
