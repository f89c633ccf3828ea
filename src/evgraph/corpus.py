"""Corpus ingestion and the frozen statistics the scoring stages read.

Corpus file format (UTF-8, no header), one eventuality per line:

    pattern_code<TAB>role=token;role=token;...<TAB>frequency

Lines with identical pattern and tokens are merged by summing frequencies.
Every input file (corpus, taxonomy, verb hierarchy, light verbs, config,
graph) is read by `decoded_lines`: lines end at a newline only, blank
lines are skipped but counted, and a line that is not UTF-8 raises the
reader's own error naming it.  A carriage return before the newline is
ignored.
The index keeps one `Row` of strings per eventuality id, taken from
`decompose_surfaces`.  Candidate searches read posting lists keyed by pattern, then by (slot, term).

`parse_corpus_line` first tries one compiled regex per pattern that
accepts only a canonical line: roles in `PATTERN_ROLES` order, tokens
already normalized (lower case, single inner spaces, no reserved
character) and a frequency without sign, leading zero or non-ASCII
digit.  Such a line builds its `Eventuality` directly.  Every other line
takes the general parser, which normalizes the tokens and is the only
source of error messages, so both paths return the same result.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .model import (
    PATTERN_ROLES, RESERVED_CHARS, DecompositionError, Eventuality, decompose_surfaces
)


class CorpusError(ValueError):
    """Malformed corpus input, with the offending line number."""


# A normalized token: words of no whitespace or reserved character, joined
# by single spaces.  Lower case is tested once per line, outside the regex.
_WORD = r"[^\s" + re.escape("".join(RESERVED_CHARS)) + "]+"
_TOKEN = f"{_WORD}(?: {_WORD})*"

# Pattern -> the regex of its canonical lines.  Frequencies of more than 18
# digits take the general path, which owns int()'s digit limit.
_CANONICAL = {
    pattern: re.compile(
        re.escape(pattern)
        + "\t"
        + ";".join(f"{role}=({_TOKEN})" for role in roles)
        + r"\t([1-9][0-9]{0,17})\n?"
    )
    for pattern, roles in PATTERN_ROLES.items()
}


def parse_corpus_line(line: str, lineno: int) -> Eventuality:
    """One corpus line as an Eventuality; CorpusError names the line."""
    pattern = line.partition("\t")[0]
    canonical = _CANONICAL.get(pattern)
    if canonical is not None and line == line.lower():
        match = canonical.fullmatch(line)
        if match is not None:
            groups = match.groups()
            return Eventuality(pattern, groups[:-1], int(groups[-1]))
    return _parse_general(line, lineno)


def _parse_general(line: str, lineno: int) -> Eventuality:
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
    return _merge(decoded_lines(path, CorpusError))


def decoded_lines(path: str | Path, error: Callable[[str], Exception]):
    """(line number, text) of each non-blank line of a UTF-8 file, read in
    binary one line at a time and split at newlines only; blank lines
    still count in the numbering.  A line that is not UTF-8 raises
    `error(message)`, the message naming the line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(
                    f"line {lineno}: not UTF-8: {exc.reason} at byte {exc.start}"
                ) from None
            if not line.isspace():
                yield lineno, line


def _merge(lines) -> tuple[Eventuality, ...]:
    merged: dict[str, Eventuality] = {}
    for lineno, line in lines:
        ev = parse_corpus_line(line, lineno)
        eid = ev.id
        prev = merged.get(eid)
        if prev is not None:
            ev = Eventuality(ev.pattern, ev.tokens, prev.frequency + ev.frequency)
        merged[eid] = ev
    return tuple(merged[k] for k in sorted(merged))


def corpus_line(e: Eventuality) -> str:
    roles = ";".join(f"{r}={t}" for r, t in zip(PATTERN_ROLES[e.pattern], e.tokens))
    return f"{e.pattern}\t{roles}\t{e.frequency}"


class Row(NamedTuple):
    """One eventuality as the scoring stages read it: its pattern, its
    predicate surface, its role-ordered argument surfaces and
    P(eventuality | predicate), its frequency over the predicate's."""

    pattern: str
    predicate: str
    args: tuple[str, ...]
    cond_prob: float


@dataclass(frozen=True)
class CorpusIndex:
    """Co-occurrence statistics over one corpus, built once and then only
    read.  `rows` holds the one record kept per eventuality id; the
    other maps are keyed by predicate or argument signature (the
    role-ordered argument surfaces joined with "|")."""

    eventualities: tuple[Eventuality, ...]
    rows: dict[str, Row]
    by_predicate: dict[str, tuple[str, ...]]
    predicate_freq: dict[str, int]
    predicate_kind: dict[str, str]
    terms: frozenset[str]
    signature_freq: dict[str, int]
    pred_signatures: dict[str, dict[str, int]]
    total_mass: int

    @classmethod
    def build(cls, eventualities) -> "CorpusIndex":
        """Index the eventualities in id order; an id given twice raises
        CorpusError."""
        staged = sorted(
            ((ev.id, ev, *decompose_surfaces(ev)) for ev in eventualities), key=itemgetter(0)
        )
        by_predicate: dict[str, list[str]] = {}
        predicate_freq: dict[str, int] = {}
        predicate_kind: dict[str, str] = {}
        terms: set[str] = set()
        signature_freq: dict[str, int] = {}
        pred_signatures: dict[str, dict[str, int]] = {}
        total = 0

        prev = None
        for eid, ev, p, kind, args in staged:
            if eid == prev:
                raise CorpusError(f"duplicate eventuality id {eid!r}")
            prev = eid
            sig = "|".join(args)
            freq = ev.frequency
            by_predicate.setdefault(p, []).append(eid)
            predicate_freq[p] = predicate_freq.get(p, 0) + freq
            predicate_kind.setdefault(p, kind)
            terms.update(args)
            signature_freq[sig] = signature_freq.get(sig, 0) + freq
            sigs = pred_signatures.setdefault(p, {})
            sigs[sig] = sigs.get(sig, 0) + freq
            total += freq

        return cls(
            eventualities=tuple(ev for _, ev, *_ in staged),
            rows={
                eid: Row(ev.pattern, p, args, ev.frequency / predicate_freq[p])
                for eid, ev, p, _, args in staged
            },
            by_predicate={p: tuple(ids) for p, ids in by_predicate.items()},
            predicate_freq=predicate_freq,
            predicate_kind=predicate_kind,
            terms=frozenset(terms),
            signature_freq=signature_freq,
            pred_signatures=pred_signatures,
            total_mass=total,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "CorpusIndex":
        return cls.build(read_corpus(path))


Postings = dict[str, dict[tuple[int, str], list[str]]]


def slot_postings(index: CorpusIndex, ids: Iterable[str]) -> Postings:
    """pattern -> (slot, term) -> the ids of that pattern holding that
    term in that slot.  A pattern none of the ids has is absent, so a
    search skips it before it builds a probe."""
    postings: Postings = {}
    rows = index.rows
    for eid in ids:
        pattern, _, args, _ = rows[eid]
        by_slot = postings.setdefault(pattern, {})
        for slot, term in enumerate(args):
            by_slot.setdefault((slot, term), []).append(eid)
    return postings


def probe_postings(
    by_slot: dict[tuple[int, str], list[str]],
    slot_terms: Iterable[tuple[int, str]],
    related: Mapping[str, Iterable[str]],
) -> dict[str, None]:
    """The ids in one pattern's postings holding, in one of the given
    slots, the given term or one of its related terms, in first-found
    order."""
    hits: dict[str, None] = {}
    for slot, term in slot_terms:
        for probe in (term, *related.get(term, ())):
            hits.update(dict.fromkeys(by_slot.get((slot, probe), ())))
    return hits
