"""Corpus ingestion and the frozen, columnar statistics the scoring
stages read.

Corpus file format (UTF-8, no header), one eventuality per line:

    pattern_code<TAB>role=token;role=token;...<TAB>frequency

Lines with identical pattern and tokens are merged by summing frequencies.
Every input file is read by `decoded_lines`: lines end at a newline only
(a carriage return before it is ignored), blank lines are skipped but
counted, a byte-order mark before the first line is dropped, and a line
that is not UTF-8 raises the reader's own error naming it.

`read_corpus` keeps one id string and summed frequency per eventuality.
`CorpusIndex.build` reads them in sorted id order, so row order is id
order, and interns predicates and argument terms to ints: a row is a
pattern code, a predicate id, up to three term ids, a signature id, a
frequency and P(eventuality | predicate), each in an `array` column.
Candidate searches probe one posting index over all rows, built one
predicate's block at a time.  Its key layout stays in this module: a
search of one predicate and one pattern over fixed slot pairs is bound
once (`posting_probe`) and then takes a row's terms; it looks its keys
up in the predicate's block hashed (`posting_table`), or bisects the
(predicate, pattern) block, whose bounds are found when it is bound.
`global_inference` says which search does which.

`parse_corpus_line` tries two regexes of a line's pattern, each taking
only lines with normalized tokens, a plain frequency and a "\n" or
"\r\n" ending: first that of the last role order other than
`PATTERN_ROLES` a line of the pattern had, compiled when that order
changes (80% of `forest-wide` lines write `v1` last; no `chains-100k`
line does), then that of the canonical order.  Every other line takes
the general parser, which normalizes the tokens and is the only source
of error messages, so every path returns the same result.

Not kept, measured on a 2-vCPU box with the same results: reading the
corpus in 16 KiB chunks of whole lines, as `read_graph` does, with the
same per-line parse.  `read_corpus` of `chains-100k` took 0.218 s
against 0.242 s (medians of 15 in-process rounds): the parse, not the
decoding, is most of the read, and chunks would need their own
byte-order mark, blank-line and UTF-8 error handling.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import floordiv, itemgetter, mod
from pathlib import Path

from .model import (
    ARGUMENT_SLOTS, PATTERN_CODE, PATTERN_ROLES, PATTERNS, RESERVED_CHARS, DecompositionError,
    Eventuality, decompose_surfaces, split_id,
)


class CorpusError(ValueError):
    """Malformed corpus input, with the offending line number."""


# A normalized token: words of no whitespace or reserved character, joined
# by single spaces.  Lower case is tested once per line, outside the regex.
_WORD = r"[^\s" + re.escape("".join(RESERVED_CHARS)) + "]+"
_TOKEN = f"{_WORD}(?: {_WORD})*"


def _line_regex(pattern: str, order) -> tuple[re.Pattern, Callable]:
    """The regex of `pattern`'s lines with roles in `order`, and the
    getter of their tokens in `PATTERN_ROLES` order from its groups.
    Frequencies of over 18 digits go to the general parser."""
    chunks = ";".join(f"{role}=({_TOKEN})" for role in order)
    regex = re.compile(f"{re.escape(pattern)}\t{chunks}\t([1-9][0-9]{{0,17}})\r?\n?")
    return regex, itemgetter(*map(order.index, PATTERN_ROLES[pattern]))


# Pattern -> `_line_regex` of its canonical lines: roles in `PATTERN_ROLES`
# order, tokens normalized, a plain frequency and a "\n" or "\r\n" ending.
_CANONICAL = {pattern: _line_regex(pattern, roles) for pattern, roles in PATTERN_ROLES.items()}
# Pattern -> `_line_regex` of the last role order of a line of it that was
# not canonical, tried first; the canonical one until there is one.
_REORDERED = dict(_CANONICAL)


def parse_corpus_line(line: str, lineno: int) -> tuple[str, int]:
    """One corpus line as (eventuality id, frequency); CorpusError names
    the line."""
    pattern = line.partition("\t")[0]
    if pattern in _CANONICAL and line == line.lower():
        regex, tokens = _REORDERED[pattern]
        match = regex.fullmatch(line)
        if match is None:
            regex, tokens = _CANONICAL[pattern]
            match = regex.fullmatch(line)
        if match is None and (order := _role_order(pattern, line)):
            regex, tokens = _REORDERED[pattern] = _line_regex(pattern, order)
            match = regex.fullmatch(line)
        if match is not None:
            groups = match.groups()
            return f"{pattern}:{'|'.join(tokens(groups))}", int(groups[-1])
    return _parse_general(line, lineno)


def _role_order(pattern: str, line: str) -> tuple[str, ...] | None:
    """The roles of a line in the order it gives them, if they are its
    pattern's in another order; None otherwise."""
    fields = line.split("\t")
    chunks = fields[1].split(";") if len(fields) == 3 else ()
    order = tuple(chunk.partition("=")[0] for chunk in chunks)
    roles = PATTERN_ROLES[pattern]
    return order if order != roles and sorted(order) == sorted(roles) else None


def _parse_general(line: str, lineno: int) -> tuple[str, int]:
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
        ev = Eventuality.create(pattern, role_tokens, frequency)
    except DecompositionError as exc:
        raise CorpusError(f"line {lineno}: {exc}") from exc
    return ev.id, ev.frequency


def read_corpus(path: str | Path) -> dict[str, int]:
    """Eventuality id -> frequency of a corpus file, duplicates summed.  The
    line whose frequency takes the file's total past 2**63 - 1 raises
    CorpusError: that total bounds every sum `CorpusIndex` keeps as 'q'."""
    merged: dict[str, int] = {}
    total = 0
    for lineno, line in decoded_lines(path, CorpusError):
        eid, frequency = parse_corpus_line(line, lineno)
        merged[eid] = merged.get(eid, 0) + frequency
        total += frequency
        if total >= 2**63:
            raise CorpusError(f"line {lineno}: the corpus frequencies sum past 2**63 - 1")
    return merged


def decoded_lines(path: str | Path, error: Callable[[str], Exception]):
    """(line number, text) of each non-blank line of a UTF-8 file, read in
    binary one line at a time and split at newlines only; blank lines
    still count in the numbering, and a byte-order mark at the start of
    the first line is dropped.  A line that is not UTF-8 raises
    `error(message)`, the message naming the line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(
                    f"line {lineno}: not UTF-8: {exc.reason} at byte {exc.start}"
                ) from None
            if lineno == 1 and line.startswith("\ufeff"):
                line = line[1:]
            if not line.isspace():
                yield lineno, line


# Argument slots per pattern code, and the most any pattern has.
ARITY = tuple(len(ARGUMENT_SLOTS[p]) for p in PATTERNS)
MAX_ARITY = max(ARITY)


@dataclass(frozen=True)
class CorpusIndex:
    """Co-occurrence statistics over one corpus, built once and then only
    read.  Row r is the eventuality `ids[r]`, ids ascending; `args` holds
    MAX_ARITY term ids per row, 0 past the pattern's arity.  A row's
    signature is its argument surfaces joined with "|"; signature ids
    follow the order of those texts.  The posting index holds one key per
    (row, argument slot), ascending, with its row: a key orders
    (predicate, pattern, slot, term), so predicate p's postings are
    positions posting_start[p] up to posting_start[p + 1]."""

    ids: list[str]
    pattern: array  # 'B': code in PATTERNS
    predicate: array  # 'I': id in `predicate_ids`
    args: array  # 'I'
    signature: array  # 'I'
    frequency: array  # 'q'
    cond_prob: array  # 'd': frequency over the predicate's
    terms: list[str]  # term id -> surface, in first-row order
    predicate_ids: dict[str, int]  # surface -> predicate id, in first-row order
    by_predicate: dict[str, array]  # 'I': the predicate's rows, in predicate id order
    predicate_freq: dict[str, int]
    predicate_kind: dict[str, str]
    signature_freq: array  # 'q'
    total_mass: int
    posting_keys: array  # 'Q'
    posting_rows: array  # 'I'
    posting_start: array  # 'I'

    @classmethod
    def build(cls, records: Mapping[str, int]) -> "CorpusIndex":
        """Index an eventuality id -> frequency mapping in id order."""
        ids = sorted(records)
        frequency = array("q", map(records.__getitem__, ids))
        pattern, predicate, args, signature = array("B"), array("I"), array("I"), array("I")
        pred_ids: dict[str, int] = {}
        term_ids: dict[str, int] = {}
        sig_ids: dict[str, int] = {}
        kinds: dict[str, str] = {}
        pad = (0,) * MAX_ARITY
        for eid in ids:
            pat, tokens = split_id(eid)
            try:
                p, kind, surfaces = decompose_surfaces(pat, tokens)
            except DecompositionError as exc:
                raise CorpusError(f"eventuality {eid!r}: {exc}") from None
            pattern.append(PATTERN_CODE[pat])
            predicate.append(pred_ids.setdefault(p, len(pred_ids)))
            kinds.setdefault(p, kind)
            args.extend([term_ids.setdefault(t, len(term_ids)) for t in surfaces])
            args.extend(pad[len(surfaces):])
            signature.append(sig_ids.setdefault("|".join(surfaces), len(sig_ids)))
        # Renumber the signatures in text order.
        rank = array("I", bytes(4 * len(sig_ids)))
        for new, text in enumerate(sorted(sig_ids)):
            rank[sig_ids[text]] = new
        del sig_ids
        signature = array("I", map(rank.__getitem__, signature))
        sig_freq = array("q", bytes(8 * len(rank)))
        pred_total = [0] * len(pred_ids)
        by_pred = [array("I") for _ in pred_ids]
        for row, (sig, pid, freq) in enumerate(zip(signature, predicate, frequency)):
            sig_freq[sig] += freq
            pred_total[pid] += freq
            by_pred[pid].append(row)
        terms = list(term_ids)
        cond_prob = array("d", (f / pred_total[pid] for f, pid in zip(frequency, predicate)))
        return cls(  # the fields in order
            ids, pattern, predicate, args, signature, frequency, cond_prob, terms,
            pred_ids, dict(zip(pred_ids, by_pred)), dict(zip(pred_ids, pred_total)), kinds,
            sig_freq, sum(pred_total), *_postings(by_pred, pattern, args, len(terms)),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "CorpusIndex":
        return cls.build(read_corpus(path))


def _postings(by_pred, pattern, args, n_terms: int):
    """The posting index of the given row columns, as (keys, rows,
    start), built one predicate's block at a time.  Row r's slot s has
    key ((predicate * len(PATTERNS) + pattern) * MAX_ARITY + s) * n_terms
    + term."""
    n_rows = max(1, len(pattern))
    keys, rows, start = array("Q"), array("I"), array("I")
    for pid, block_rows in enumerate(by_pred):
        start.append(len(keys))
        base = pid * len(PATTERNS)
        # key * n_rows + row, so the rows of one key stay ascending
        block = sorted(
            (((base + pattern[r]) * MAX_ARITY + slot) * n_terms + args[r * MAX_ARITY + slot])
            * n_rows + r
            for r in block_rows for slot in range(ARITY[pattern[r]])
        )
        keys.extend(map(floordiv, block, repeat(n_rows)))
        rows.extend(map(mod, block, repeat(n_rows)))
    start.append(len(keys))
    return keys, rows, start


def posting_base(index: CorpusIndex, pid: int, pattern: int) -> int:
    """The posting key of predicate `pid`, `pattern`, slot 0 and term 0:
    slot s and term t add s * len(index.terms) + t to it."""
    return (pid * len(PATTERNS) + pattern) * MAX_ARITY * len(index.terms)


def posting_table(index: CorpusIndex, pid: int) -> dict[int, list[int]]:
    """Predicate `pid`'s block of the posting index as a hash table: each
    key the block holds -> the key's rows, ascending."""
    keys, rows = index.posting_keys, index.posting_rows
    table: dict[int, list[int]] = {}
    # By position: a slice of each block would be a transient per block.
    for i in range(index.posting_start[pid], index.posting_start[pid + 1]):
        table.setdefault(keys[i], []).append(rows[i])
    return table


def posting_probe(
    index: CorpusIndex, pid: int, pattern: int, slots: Iterable[tuple[int, int]],
    related: Mapping[int, Iterable[int]], table: dict[int, list[int]] | None = None,
) -> Callable[[Sequence[int]], dict[int, None]]:
    """A search of predicate `pid`'s postings of one pattern, bound once:
    given a row's `terms`, the rows that hold, in slot j of a slot pair
    (i, j), `terms[i]` or a term related to it, in first-found order.
    Each posting key is looked up in `table`, `pid`'s `posting_table`,
    or else bisected in the block of `pid` and `pattern`."""
    n_terms = len(index.terms)
    base = posting_base(index, pid, pattern)
    bases = [(i, base + j * n_terms) for i, j in slots]
    if table is not None:
        lookup = table.get
    else:
        keys, rows, start = index.posting_keys, index.posting_rows, index.posting_start
        lo = bisect_left(keys, base, start[pid], start[pid + 1])
        hi = bisect_left(keys, base + MAX_ARITY * n_terms, lo, start[pid + 1])

        def lookup(key: int) -> array:
            first = bisect_left(keys, key, lo, hi)
            return rows[first:bisect_left(keys, key + 1, first, hi)]

    def probe(terms: Sequence[int]) -> dict[int, None]:
        hits: dict[int, None] = {}
        for i, slot_base in bases:
            term = terms[i]
            for key in (term, *related.get(term, ())):
                found = lookup(slot_base + key)
                if found:
                    hits.update(dict.fromkeys(found))
        return hits

    return probe
