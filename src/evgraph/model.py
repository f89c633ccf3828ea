"""Core domain model: eventuality patterns, decomposition, and argument alignment.

An eventuality is a pattern-coded record (e.g. ``s-v-o`` with tokens
"boy eat apple").  Decomposition splits it into a predicate surface and
role-ordered argument surfaces; alignment pairs the argument slots of
two patterns role by role so that set-level entailment can be scored.

The seven pattern rules live in one table, read by `decompose_surfaces`
alone.  A `ScoredEdge` is a named tuple whose constructor checks every
edge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
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

PATTERNS: tuple[str, ...] = (
    "s-v",
    "s-v-o",
    "s-v-p-o",
    "s-v-o-p-o",
    "s-v-a",
    "s-be-a",
    "s-be-a-p-o",
)

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

TYPE_LABELS: tuple[str, ...] = tuple(
    f"{a} {ENTAILS} {b}" for a, b in ADMISSIBLE_TYPE_PAIRS
)
_TYPE_LABEL_SET = frozenset(TYPE_LABELS)

# Characters that would collide with the corpus/rule/graph file formats or
# with feature-signature separators; rejected at ingestion.
RESERVED_CHARS = ("\t", ";", "=", "|", "\n")
_RESERVED = re.compile("[" + re.escape("".join(RESERVED_CHARS)) + "]")

PROVENANCE_LOCAL = "local"
PROVENANCE_GLOBAL = "global"
_PROVENANCES = frozenset((PROVENANCE_LOCAL, PROVENANCE_GLOBAL))

SCORE_IDENTITY_TOL = 1e-12


class DecompositionError(ValueError):
    """Raised for an eventuality whose role set does not match its pattern."""


def normalize_token(token: str) -> str:
    """Lowercase, trim, and collapse internal whitespace to single spaces."""
    return " ".join(token.lower().split())


def type_label(premise_pattern: str, hypothesis_pattern: str) -> str:
    return f"{premise_pattern} {ENTAILS} {hypothesis_pattern}"


@dataclass(frozen=True, slots=True)
class Eventuality:
    """A pattern-coded record with tokens in the pattern's canonical role order."""

    pattern: str
    tokens: tuple[str, ...]
    frequency: int

    @classmethod
    def create(
        cls, pattern: str, role_tokens: dict[str, str], frequency: int
    ) -> "Eventuality":
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
        if not isinstance(frequency, int) or frequency < 1:
            raise DecompositionError(f"frequency must be a positive int, got {frequency!r}")
        tokens = tuple(normalize_token(role_tokens[role]) for role in roles)
        # One test for the whole record; only a failing record is walked
        # role by role, to name its first bad token.
        if not all(tokens) or _RESERVED.search("".join(tokens)):
            for role, tok in zip(roles, tokens):
                if not tok:
                    raise DecompositionError(f"pattern {pattern}: empty token for role {role}")
                if _RESERVED.search(tok):
                    raise DecompositionError(
                        f"pattern {pattern}: token for role {role} contains a reserved "
                        f"character ({tok!r})"
                    )
        return cls(pattern=pattern, tokens=tokens, frequency=frequency)

    @property
    def text(self) -> str:
        """Tokens in role order; the be-patterns read "be" after the subject."""
        if self.pattern.startswith("s-be-"):
            return " ".join((self.tokens[0], "be", *self.tokens[1:]))
        return " ".join(self.tokens)

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
        f"be{COMPOUND_SEP}{t[1]}",
        BE_ADJ,
        (t[0], f"{t[2]}{COMPOUND_SEP}{t[3]}"),
    ),
}


def decompose_surfaces(e: Eventuality) -> tuple[str, str, tuple[str, ...]]:
    """(predicate surface, predicate kind, role-ordered argument surfaces)
    of an eventuality: the one place the seven pattern rules live."""
    roles = PATTERN_ROLES.get(e.pattern)
    if roles is None:
        raise DecompositionError(f"unknown pattern {e.pattern!r}")
    if len(e.tokens) != len(roles):
        raise DecompositionError(
            f"pattern {e.pattern} requires roles {list(roles)}, got {len(e.tokens)} tokens"
        )
    return _SURFACES[e.pattern](e.tokens)


@lru_cache(maxsize=None)
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
    pairs = []
    for j, role in enumerate(ARGUMENT_SLOTS[hypothesis_pattern]):
        pairs.append((premise_roles.index(role), j))
    return tuple(pairs)


def _counterparts():
    """Each pattern's admissible hypotheses, and each pattern's admissible
    premises, as (other pattern, aligned slots) tuples."""
    hypotheses: dict[str, list] = {}
    premises: dict[str, list] = {}
    for premise, hypothesis in ADMISSIBLE_TYPE_PAIRS:
        slots = aligned_slots(premise, hypothesis)
        hypotheses.setdefault(premise, []).append((hypothesis, slots))
        premises.setdefault(hypothesis, []).append((premise, slots))
    return hypotheses, premises


# The one table of admissible pattern counterparts, read by every
# candidate search: HYPOTHESES[premise] and PREMISES[hypothesis].
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


class ScoredEdge(_EdgeFields):
    """Directed eventuality entailment edge with its component scores: an
    immutable named tuple whose constructor checks every edge."""

    __slots__ = ()

    def __new__(
        cls, from_id, to_id, arg_score, pred_score, penalty, local_score, provenance, type_label
    ) -> "ScoredEdge":
        if from_id == to_id:
            raise ValueError(f"self-entailment edge rejected: {from_id}")
        if provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        if type_label not in _TYPE_LABEL_SET:
            raise ValueError(f"unknown type label {type_label!r}")
        arg, pred, pen, local = arg_score, pred_score, penalty, local_score
        if not (
            0.0 <= arg <= 1.0 and 0.0 <= pred <= 1.0 and 0.0 <= pen <= 1.0 and 0.0 <= local <= 1.0
        ):
            for name, value in (
                ("arg_score", arg),
                ("pred_score", pred),
                ("penalty", pen),
                ("local_score", local),
            ):
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"{name} out of [0,1]: {value!r}")
        product = pred * pen * arg
        if abs(local * local - product) > SCORE_IDENTITY_TOL:
            raise ValueError(
                "local_score does not satisfy the geometric-mean identity: "
                f"{local}^2 != {product}"
            )
        return tuple.__new__(cls, (from_id, to_id, arg, pred, pen, local, provenance, type_label))

    # `_replace` builds through `_make`; both go through the checks.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @property
    def key(self) -> tuple[str, str]:
        return (self.from_id, self.to_id)
