"""Core domain model: eventuality patterns, decomposition, and argument alignment.

An eventuality is a pattern-coded record (e.g. ``s-v-o`` with tokens
"boy eat apple").  Decomposition splits it into a predicate surface and
role-ordered argument surfaces; alignment pairs the argument slots of
two patterns role by role so that set-level entailment can be scored.

The seven pattern rules live in one table, read by `decompose_surfaces`
alone.  A `ScoredEdge` is a named tuple whose constructor checks every
edge; `EdgeColumns` holds many edges as parallel arrays, with eventuality
rows for endpoints and codes for type and provenance, and `check` runs
the same checks over them, screening each edge with `plausible`.
`EdgeColumns.sort` is the one place edges are put in key order, always
by counting sorts: the global stage sorts what it accepted, and the
seal only checks that order.

Not kept, measured on a 2-vCPU box: gathering each column in the sort
through `operator.itemgetter(*order)`.  On the 132,000 `chains-100k`
edges in isolation it took 0.06 s against 0.13 s, but it boxes the
order and a whole column at once, at the global sort, which sets the
build's peak: 9.6 MB traced against 1.1 MB.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from itertools import accumulate
from operator import eq
from typing import NamedTuple

ENTAILS = "⊨"

SUBJECT = "subject"
OBJECT = "object"
PREP_OBJECT = "prep-object"
ADJECTIVE = "adjective"

VERB = "verb"
VERB_PREP = "verb-prep"
BE_ADJ = "be-adj"

COMPOUND_SEP = "-"

# Role slots each pattern must populate, in canonical order.
PATTERN_ROLES: dict[str, tuple[str, ...]] = {
    "s-v": ("n1", "v1"),
    "s-v-o": ("n1", "v1", "n2"),
    "s-v-p-o": ("n1", "v1", "p1", "n2"),
    "s-v-o-p-o": ("n1", "v1", "n2", "p1", "n3"),
    "s-v-a": ("n1", "v1", "a1"),
    "s-be-a": ("n1", "a1"),
    "s-be-a-p-o": ("n1", "a1", "p1", "n2"),
}
PATTERNS: tuple[str, ...] = tuple(PATTERN_ROLES)
# Pattern -> its code, the index in PATTERNS that the corpus columns hold.
PATTERN_CODE = {pattern: code for code, pattern in enumerate(PATTERNS)}

# Roles of the decomposed argument slots, in canonical order
# (subject, then object, then prep-object/adjective).  The second slot of
# s-v-p-o is an object: the preposition folds into the predicate, which is
# what lets s-v-p-o align with s-v-o in both directions.
ARGUMENT_SLOTS: dict[str, tuple[str, ...]] = {
    "s-v": (SUBJECT,),
    "s-v-o": (SUBJECT, OBJECT),
    "s-v-p-o": (SUBJECT, OBJECT),
    "s-v-o-p-o": (SUBJECT, OBJECT, PREP_OBJECT),
    "s-v-a": (SUBJECT, ADJECTIVE),
    "s-be-a": (SUBJECT,),
    "s-be-a-p-o": (SUBJECT, PREP_OBJECT),
}

# The ten admissible entailment type pairs (premise pattern, hypothesis
# pattern), in the canonical reporting order.
ADMISSIBLE_TYPE_PAIRS: tuple[tuple[str, str], ...] = (
    ("s-v", "s-v"),
    ("s-v-o", "s-v-o"),
    ("s-v-p-o", "s-v-p-o"),
    ("s-v-o-p-o", "s-v-o"),
    ("s-v-p-o", "s-v-o"),
    ("s-v-o", "s-v-p-o"),
    ("s-v-o-p-o", "s-v-o-p-o"),
    ("s-v-a", "s-be-a"),
    ("s-be-a-p-o", "s-be-a"),
    ("s-be-a-p-o", "s-be-a-p-o"),
)

_ADMISSIBLE_SET = frozenset(ADMISSIBLE_TYPE_PAIRS)

TYPE_LABELS: tuple[str, ...] = tuple(f"{a} {ENTAILS} {b}" for a, b in ADMISSIBLE_TYPE_PAIRS)
_TYPE_LABEL_SET = frozenset(TYPE_LABELS)

# Characters that would collide with the corpus/rule/graph file formats or
# with feature-signature separators; rejected at ingestion.
RESERVED_CHARS = ("\t", ";", "=", "|", "\n")
_RESERVED = re.compile("[" + re.escape("".join(RESERVED_CHARS)) + "]")

# Provenance codes are indexes into this tuple.
PROVENANCES = ("local", "global")
LOCAL, GLOBAL = 0, 1

SCORE_IDENTITY_TOL = 1e-12


class DecompositionError(ValueError):
    """Raised for an eventuality whose role set does not match its pattern."""


def split_id(eid: str) -> tuple[str, list[str]]:
    """(pattern, tokens) of an eventuality id: a token holds no "|"."""
    pattern, _, tokens = eid.partition(":")
    return pattern, tokens.split("|")


def display_text(pattern: str, tokens) -> str:
    """Tokens in role order; the be-patterns read "be" after the subject."""
    if pattern.startswith("s-be-"):
        return " ".join((tokens[0], "be", *tokens[1:]))
    return " ".join(tokens)


def normalize_token(token: str) -> str:
    """Lowercase, trim, and collapse internal whitespace to single spaces."""
    return " ".join(token.lower().split())


@dataclass(frozen=True, slots=True)
class Eventuality:
    """A pattern-coded record with tokens in the pattern's canonical role order."""

    pattern: str
    tokens: tuple[str, ...]
    frequency: int

    @classmethod
    def create(cls, pattern: str, role_tokens: dict[str, str], frequency: int) -> "Eventuality":
        """Validate and normalize raw role=token input into an Eventuality."""
        roles = PATTERN_ROLES.get(pattern)
        if roles is None:
            raise DecompositionError(f"unknown pattern {pattern!r}")
        missing = [r for r in roles if r not in role_tokens]
        if missing or len(role_tokens) != len(roles):
            extra = [r for r in sorted(role_tokens) if r not in roles]
            raise DecompositionError(
                f"pattern {pattern}: missing roles {missing or 'none'}, "
                f"extra roles {extra or 'none'}"
            )
        if not isinstance(frequency, int) or not 1 <= frequency < 2**63:
            raise DecompositionError(f"frequency must be in [1, 2**63), got {frequency!r}")
        tokens = tuple(normalize_token(role_tokens[role]) for role in roles)
        for role, tok in zip(roles, tokens):
            if not tok:
                raise DecompositionError(f"pattern {pattern}: empty token for role {role}")
            if _RESERVED.search(tok):
                raise DecompositionError(
                    f"pattern {pattern}: token for role {role} contains a reserved "
                    f"character ({tok!r})"
                )
        return cls(pattern=pattern, tokens=tokens, frequency=frequency)

    @classmethod
    def from_id(cls, eid: str, frequency: int) -> "Eventuality":
        pattern, tokens = split_id(eid)
        return cls(pattern, tuple(tokens), frequency)

    @property
    def text(self) -> str:
        return display_text(self.pattern, self.tokens)

    @property
    def id(self) -> str:
        # Pipe-joined tokens keep the id unambiguous for multi-word terms.
        return f"{self.pattern}:{'|'.join(self.tokens)}"


# Pattern -> the function of its token tuple (in `PATTERN_ROLES` order)
# that gives (predicate surface, predicate kind, argument surfaces); the
# argument surfaces are in `ARGUMENT_SLOTS` order.  Compounds are joined
# with "-": v-p and be-a predicates, p-n prepositional argument terms.
_SURFACES = {
    "s-v": lambda t: (t[1], VERB, (t[0],)),
    "s-v-o": lambda t: (t[1], VERB, (t[0], t[2])),
    "s-v-p-o": lambda t: (f"{t[1]}{COMPOUND_SEP}{t[2]}", VERB_PREP, (t[0], t[3])),
    "s-v-o-p-o": lambda t: (t[1], VERB, (t[0], t[2], f"{t[3]}{COMPOUND_SEP}{t[4]}")),
    "s-v-a": lambda t: (t[1], VERB, (t[0], t[2])),
    "s-be-a": lambda t: (f"be{COMPOUND_SEP}{t[1]}", BE_ADJ, (t[0],)),
    "s-be-a-p-o": lambda t: (
        f"be{COMPOUND_SEP}{t[1]}", BE_ADJ, (t[0], f"{t[2]}{COMPOUND_SEP}{t[3]}")
    ),
}


def decompose_surfaces(pattern: str, tokens) -> tuple[str, str, tuple[str, ...]]:
    """(predicate surface, predicate kind, role-ordered argument surfaces)
    of a pattern's tokens: the one place the seven pattern rules live."""
    roles = PATTERN_ROLES.get(pattern)
    if roles is None:
        raise DecompositionError(f"unknown pattern {pattern!r}")
    if len(tokens) != len(roles):
        raise DecompositionError(
            f"pattern {pattern} requires roles {list(roles)}, got {len(tokens)} tokens"
        )
    return _SURFACES[pattern](tokens)


def aligned_slots(
    premise_pattern: str, hypothesis_pattern: str
) -> tuple[tuple[int, int], ...] | None:
    """Slot-index pairs (premise_idx, hypothesis_idx) matched by role.

    Returns None for pattern pairs outside the ten admissible types.
    Premise-side slots whose role has no hypothesis counterpart are
    dropped (the p-o term of s-v-o-p-o/s-be-a-p-o and the adjective of
    s-v-a against their shorter hypotheses).
    """
    if (premise_pattern, hypothesis_pattern) not in _ADMISSIBLE_SET:
        return None
    premise_roles = ARGUMENT_SLOTS[premise_pattern]
    return tuple(
        (premise_roles.index(role), j) for j, role in enumerate(ARGUMENT_SLOTS[hypothesis_pattern])
    )


def _counterparts():
    """Per pattern code, its admissible hypotheses and its admissible
    premises, as (other pattern code, aligned slots, type code) tuples;
    the type code is the pair's index in TYPE_LABELS."""
    hypotheses: list[list] = [[] for _ in PATTERNS]
    premises: list[list] = [[] for _ in PATTERNS]
    for code, (premise, hypothesis) in enumerate(ADMISSIBLE_TYPE_PAIRS):
        slots = aligned_slots(premise, hypothesis)
        p, h = PATTERN_CODE[premise], PATTERN_CODE[hypothesis]
        hypotheses[p].append((h, slots, code))
        premises[h].append((p, slots, code))
    return tuple(map(tuple, hypotheses)), tuple(map(tuple, premises))


# The one table of admissible pattern counterparts, read by every
# candidate search: HYPOTHESES[premise code] and PREMISES[hypothesis code].
HYPOTHESES, PREMISES = _counterparts()


class _EdgeFields(NamedTuple):
    from_id: str
    to_id: str
    arg_score: float
    pred_score: float
    penalty: float
    local_score: float
    provenance: str
    type_label: str


def plausible(arg: float, pred: float, pen: float, local: float) -> bool:
    """Whether four scores pass the ScoredEdge checks: each in [0, 1], and
    local_score their geometric mean."""
    return (
        0.0 <= arg <= 1.0 and 0.0 <= pred <= 1.0 and 0.0 <= pen <= 1.0 and 0.0 <= local <= 1.0
        and abs(local * local - pred * pen * arg) <= SCORE_IDENTITY_TOL
    )


class ScoredEdge(_EdgeFields):
    """Directed eventuality entailment edge with its component scores: an
    immutable named tuple whose constructor checks every edge."""

    __slots__ = ()

    def __new__(
        cls, from_id, to_id, arg_score, pred_score, penalty, local_score, provenance, type_label
    ) -> "ScoredEdge":
        if from_id == to_id:
            raise ValueError(f"self-entailment edge rejected: {from_id}")
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        if type_label not in _TYPE_LABEL_SET:
            raise ValueError(f"unknown type label {type_label!r}")
        arg, pred, pen, local = arg_score, pred_score, penalty, local_score
        if not plausible(arg, pred, pen, local):
            for name, value in (
                ("arg_score", arg), ("pred_score", pred), ("penalty", pen), ("local_score", local)
            ):
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"{name} out of [0,1]: {value!r}")
            raise ValueError(
                "local_score does not satisfy the geometric-mean identity: "
                f"{local}^2 != {pred * pen * arg}"
            )
        return tuple.__new__(cls, (from_id, to_id, arg, pred, pen, local, provenance, type_label))

    # `_replace` builds through `_make`; both go through the checks.
    _make = classmethod(lambda cls, iterable: cls(*iterable))


class EdgeColumns:
    """Edges as parallel arrays: from row and to row (eventuality rows),
    the four scores, and the type and provenance codes (indexes into
    TYPE_LABELS and PROVENANCES)."""

    __slots__ = ("src", "dst", "arg", "pred", "pen", "local", "type", "prov")

    def __init__(self, rows=()) -> None:
        """The edges of (src, dst, arg, pred, pen, local, type, prov) rows."""
        self.src, self.dst = array("I"), array("I")
        self.arg, self.pred, self.pen, self.local = (array("d") for _ in range(4))
        self.type, self.prov = array("B"), array("B")
        for column, values in zip(self.columns(), zip(*rows)):
            column.extend(values)

    def columns(self) -> tuple[array, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def append(self, src, dst, arg, pred, pen, local, type_code, prov_code) -> None:
        self.src.append(src)
        self.dst.append(dst)
        self.arg.append(arg)
        self.pred.append(pred)
        self.pen.append(pen)
        self.local.append(local)
        self.type.append(type_code)
        self.prov.append(prov_code)

    def extend(self, other: "EdgeColumns") -> None:
        for column, more in zip(self.columns(), other.columns()):
            column.extend(more)

    def __len__(self) -> int:
        return len(self.src)

    def sort(self, n: int) -> None:
        """Put the edges in (from row, to row) order, endpoints being rows
        below n, by stable counting sorts on the to row, then the from
        row; each column in turn is replaced by its reordered copy, and a
        pair given twice ends up in two neighbouring positions."""
        order = _placed(self.dst, range(len(self)), _starts(self.dst, n))
        order = _placed(self.src, order, _starts(self.src, n))
        for name in self.__slots__:
            column = getattr(self, name)
            setattr(self, name, array(column.typecode, map(column.__getitem__, order)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColumns):
            return NotImplemented
        return self.columns() == other.columns()

    def edge(self, i: int, ids) -> ScoredEdge:
        """Edge i as a ScoredEdge, its endpoints named by `ids`, built
        without the checks: the columns were checked when sealed."""
        values = (self.arg[i], self.pred[i], self.pen[i], self.local[i])
        labels = (PROVENANCES[self.prov[i]], TYPE_LABELS[self.type[i]])
        return tuple.__new__(ScoredEdge, (ids[self.src[i]], ids[self.dst[i]], *values, *labels))

    def check(self, ids) -> None:
        """Run the ScoredEdge constructor's checks over every edge: a
        self-loop or scores that are not `plausible` stop the screen, and
        the first edge so stopped is built through the constructor, which
        raises its ValueError."""
        codes = ((self.prov, PROVENANCES), (self.type, TYPE_LABELS))
        if any(max(column, default=0) >= len(names) for column, names in codes):
            raise ValueError("unknown provenance or type code")
        scores = (self.arg, self.pred, self.pen, self.local)
        if any(map(eq, self.src, self.dst)) or not all(map(plausible, *scores)):
            for i, (src, dst, *values) in enumerate(zip(self.src, self.dst, *scores)):
                if src == dst or not plausible(*values):
                    ScoredEdge(*self.edge(i, ids))


def _starts(rows: array, n: int) -> array:
    """The n + 1 offsets of `rows` (each below n) counting-sorted."""
    counts = [0] * n
    for r in rows:
        counts[r] += 1
    return array("I", accumulate(counts, initial=0))


def _placed(rows: array, positions, starts) -> array:
    """`positions` stably ordered by `rows[position]`, into `starts`."""
    cursor = array("I", starts)
    order = array("I", bytes(4 * len(positions)))
    for i, r in zip(positions, map(rows.__getitem__, positions)):
        p = cursor[r]
        order[p] = i
        cursor[r] = p + 1
    return order
