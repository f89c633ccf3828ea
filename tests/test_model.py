"""Decomposition, alignment, and edge-invariant tests for the core model."""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from columns import rows, type_label
from evgraph.corpus import CorpusIndex
from evgraph.local import signature_counts
from evgraph.model import (
    ADJECTIVE,
    ADMISSIBLE_TYPE_PAIRS,
    ARGUMENT_SLOTS,
    BE_ADJ,
    COMPOUND_SEP,
    OBJECT,
    PATTERNS,
    PREP_OBJECT,
    SUBJECT,
    TYPE_LABELS,
    VERB,
    VERB_PREP,
    PROVENANCES,
    DecompositionError,
    EdgeColumns,
    Eventuality,
    ScoredEdge,
    aligned_slots,
    decompose_surfaces,
    display_text,
    normalize_token,
)


def ev(pattern, frequency=1, **roles):
    return Eventuality.create(pattern, roles, frequency)


def decompose(e):
    return decompose_surfaces(e.pattern, e.tokens)


# --- decomposition: one case per pattern row ---------------------------------
# `decompose_surfaces` gives (predicate surface, kind, argument surfaces);
# the argument slots' roles are `ARGUMENT_SLOTS[pattern]`.


def test_decompose_s_v():
    assert decompose(ev("s-v", n1="dog", v1="bark")) == ("bark", VERB, ("dog",))
    assert ARGUMENT_SLOTS["s-v"] == (SUBJECT,)


def test_decompose_s_v_o():
    d = decompose(ev("s-v-o", n1="boy", v1="eat", n2="apple"))
    assert d == ("eat", VERB, ("boy", "apple"))
    assert ARGUMENT_SLOTS["s-v-o"] == (SUBJECT, OBJECT)


def test_decompose_s_v_p_o_compounds_predicate():
    d = decompose(ev("s-v-p-o", n1="he", v1="take", p1="over", n2="company"))
    assert d == ("take-over", VERB_PREP, ("he", "company"))
    assert ARGUMENT_SLOTS["s-v-p-o"] == (SUBJECT, OBJECT)


def test_decompose_s_v_o_p_o_compounds_prep_argument():
    d = decompose(ev("s-v-o-p-o", n1="he", v1="post", n2="it", p1="on", n3="youtube"))
    assert d == ("post", VERB, ("he", "it", "on-youtube"))
    assert ARGUMENT_SLOTS["s-v-o-p-o"] == (SUBJECT, OBJECT, PREP_OBJECT)


def test_decompose_s_v_a():
    d = decompose(ev("s-v-a", n1="it", v1="smell", a1="nice"))
    assert d == ("smell", VERB, ("it", "nice"))
    assert ARGUMENT_SLOTS["s-v-a"] == (SUBJECT, ADJECTIVE)


def test_decompose_s_be_a():
    d = decompose(ev("s-be-a", n1="sun", a1="red"))
    assert d == ("be-red", BE_ADJ, ("sun",))
    assert ARGUMENT_SLOTS["s-be-a"] == (SUBJECT,)


def test_decompose_s_be_a_p_o():
    d = decompose(ev("s-be-a-p-o", n1="he", a1="mad", p1="at", n2="dog"))
    assert d == ("be-mad", BE_ADJ, ("he", "at-dog"))
    assert ARGUMENT_SLOTS["s-be-a-p-o"] == (SUBJECT, PREP_OBJECT)


def test_decompose_is_deterministic():
    e = ev("s-v-o-p-o", n1="he", v1="post", n2="it", p1="on", n3="youtube")
    assert decompose(e) == decompose(e)


def test_decompose_surfaces_checks_pattern_and_arity():
    # Records built without `Eventuality.create` (the corpus fast path)
    # still meet these checks.
    with pytest.raises(DecompositionError, match="unknown pattern"):
        decompose(Eventuality("s-v-v", ("a", "b"), 1))
    with pytest.raises(DecompositionError, match="requires roles"):
        decompose(Eventuality("s-v-o", ("boy", "eat"), 1))


def test_signature_joins_surfaces():
    e = ev("s-v-o-p-o", frequency=3, n1="he", v1="post", n2="it", p1="on", n3="youtube")
    index = CorpusIndex.build({e.id: e.frequency})
    assert rows(index)[e.id].args == ("he", "it", "on-youtube")
    assert list(index.signature) == [0] and list(index.signature_freq) == [3]
    assert signature_counts(index, "post") == {0: 3}


# --- creation / validation ----------------------------------------------------


def test_unknown_pattern_rejected():
    with pytest.raises(DecompositionError, match="unknown pattern"):
        ev("s-v-v", n1="a", v1="b")


def test_missing_role_named_in_error():
    with pytest.raises(DecompositionError, match="n2"):
        ev("s-v-o", n1="boy", v1="eat")


def test_extra_role_named_in_error():
    with pytest.raises(DecompositionError, match="a1"):
        ev("s-v", n1="dog", v1="bark", a1="loud")


def test_empty_token_rejected():
    with pytest.raises(DecompositionError, match="empty token"):
        ev("s-v", n1="  ", v1="bark")


def test_reserved_characters_rejected():
    with pytest.raises(DecompositionError, match="reserved"):
        ev("s-v", n1="a|b", v1="bark")


def test_nonpositive_frequency_rejected():
    with pytest.raises(DecompositionError, match="frequency"):
        ev("s-v", frequency=0, n1="dog", v1="bark")


def test_normalization_lowercases_and_collapses():
    assert normalize_token("  Fresh   FRUIT ") == "fresh fruit"
    e = ev("s-v-o", n1="The  Boy", v1="Eat", n2="fresh  fruit")
    assert e.tokens == ("the boy", "eat", "fresh fruit")


def test_text_and_id():
    e = ev("s-be-a", n1="sun", a1="red")
    assert display_text(e.pattern, e.tokens) == "sun be red"
    assert e.id == "s-be-a:sun|red"


@pytest.mark.parametrize(
    "pattern, roles, text",
    [
        ("s-v", dict(n1="dog", v1="bark"), "dog bark"),
        ("s-v-o", dict(n1="boy", v1="eat", n2="apple"), "boy eat apple"),
        ("s-v-p-o", dict(n1="he", v1="live", p1="in", n2="city"), "he live in city"),
        (
            "s-v-o-p-o",
            dict(n1="he", v1="post", n2="it", p1="on", n3="youtube"),
            "he post it on youtube",
        ),
        ("s-v-a", dict(n1="it", v1="look", a1="nice"), "it look nice"),
        ("s-be-a", dict(n1="sun", a1="red"), "sun be red"),
        ("s-be-a-p-o", dict(n1="he", a1="mad", p1="at", n2="dog"), "he be mad at dog"),
    ],
)
def test_text_reads_each_pattern_in_natural_order(pattern, roles, text):
    e = ev(pattern, **roles)
    assert display_text(e.pattern, e.tokens) == text


# --- round trip ---------------------------------------------------------------

_lemma = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)
_noun = st.text(alphabet="abcdefghijklmnopqrstuvwxyz -", min_size=1, max_size=12).filter(
    lambda s: s.strip(" -")
)


@st.composite
def eventualities(draw):
    pattern = draw(st.sampled_from(PATTERNS))
    roles = {}
    for role in ("n1", "n2", "n3"):
        roles[role] = draw(_noun)
    roles["v1"] = draw(_lemma)
    roles["p1"] = draw(_lemma)
    roles["a1"] = draw(_noun)
    from evgraph.model import PATTERN_ROLES

    wanted = {r: roles[r] for r in PATTERN_ROLES[pattern]}
    freq = draw(st.integers(min_value=1, max_value=1000))
    return Eventuality.create(pattern, wanted, freq)


def recompose(pattern, surface, args, frequency) -> Eventuality:
    """Inverse of decompose_surfaces.  Compounds split once from the left,
    which is exact as long as verb/preposition lemmas carry no hyphen
    themselves."""
    if pattern == "s-v":
        roles = {"n1": args[0], "v1": surface}
    elif pattern == "s-v-o":
        roles = {"n1": args[0], "v1": surface, "n2": args[1]}
    elif pattern == "s-v-p-o":
        v, p = surface.split(COMPOUND_SEP, 1)
        roles = {"n1": args[0], "v1": v, "p1": p, "n2": args[1]}
    elif pattern == "s-v-o-p-o":
        p, n3 = args[2].split(COMPOUND_SEP, 1)
        roles = {"n1": args[0], "v1": surface, "n2": args[1], "p1": p, "n3": n3}
    elif pattern == "s-v-a":
        roles = {"n1": args[0], "v1": surface, "a1": args[1]}
    elif pattern == "s-be-a":
        _, a = surface.split(COMPOUND_SEP, 1)
        roles = {"n1": args[0], "a1": a}
    elif pattern == "s-be-a-p-o":
        _, a = surface.split(COMPOUND_SEP, 1)
        p, n2 = args[1].split(COMPOUND_SEP, 1)
        roles = {"n1": args[0], "a1": a, "p1": p, "n2": n2}
    else:
        raise DecompositionError(f"unknown pattern {pattern!r}")
    return Eventuality.create(pattern, roles, frequency)


@given(eventualities())
def test_decompose_recompose_round_trip(e):
    surface, _, args = decompose(e)
    assert recompose(e.pattern, surface, args, e.frequency) == e


@given(eventualities())
def test_decompose_recompose_is_fixed_point(e):
    d = decompose(e)
    surface, _, args = d
    assert decompose(recompose(e.pattern, surface, args, e.frequency)) == d


# --- alignment ----------------------------------------------------------------
# `aligned_slots` gives (premise slot, hypothesis slot) index pairs into the
# argument surfaces, or None for a pattern pair outside the ten types.


def test_align_identity_same_pattern():
    assert aligned_slots("s-v-o", "s-v-o") == ((0, 0), (1, 1))


def test_align_drops_premise_prep_object():
    # he post it on-youtube -> he share it: the p-o term has no counterpart.
    assert aligned_slots("s-v-o-p-o", "s-v-o") == ((0, 0), (1, 1))


def test_align_s_v_p_o_object_matches_s_v_o_object():
    # he take-over company <-> he acquire company, in both directions.
    assert aligned_slots("s-v-p-o", "s-v-o") == ((0, 0), (1, 1))
    assert aligned_slots("s-v-o", "s-v-p-o") == ((0, 0), (1, 1))


def test_align_drops_premise_adjective_against_be_pattern():
    # it smell nice -> it be-nice: only the subject aligns.
    assert aligned_slots("s-v-a", "s-be-a") == ((0, 0),)


def test_align_rejects_inadmissible_pair():
    assert aligned_slots("s-v-o", "s-v") is None
    assert aligned_slots("s-be-a", "s-v-a") is None


@pytest.mark.parametrize("premise,hypothesis", ADMISSIBLE_TYPE_PAIRS)
def test_aligned_slots_cover_all_admissible_pairs(premise, hypothesis):
    slots = aligned_slots(premise, hypothesis)
    assert slots is not None and len(slots) >= 1
    # subject always aligns with subject, and every pair matches by role
    assert slots[0] == (0, 0)
    assert all(ARGUMENT_SLOTS[premise][i] == ARGUMENT_SLOTS[hypothesis][j] for i, j in slots)
    # every hypothesis slot is covered once
    assert [j for _, j in slots] == list(range(len(ARGUMENT_SLOTS[hypothesis])))


def test_same_pattern_alignment_is_positional():
    for pattern in PATTERNS:
        slots = aligned_slots(pattern, pattern)
        if (pattern, pattern) not in ADMISSIBLE_TYPE_PAIRS:
            # only s-v-a and s-be-a lack an identity entailment type
            assert pattern in ("s-v-a", "s-be-a") and slots is None
            continue
        assert slots == tuple((i, i) for i in range(len(slots)))


def test_ten_type_labels():
    assert len(TYPE_LABELS) == 10
    assert type_label("s-v-o-p-o", "s-v-o") in TYPE_LABELS
    assert type_label("s-v", "s-v-o") not in TYPE_LABELS


# --- scored edges --------------------------------------------------------------


def _edge(arg, pred, pen, **kw):
    defaults = dict(
        from_id="s-v:a|b",
        to_id="s-v:c|d",
        arg_score=arg,
        pred_score=pred,
        penalty=pen,
        local_score=math.sqrt(arg * pred * pen),
        provenance="local",
        type_label=type_label("s-v", "s-v"),
    )
    defaults.update(kw)
    return ScoredEdge(**defaults)


def test_edge_identity_enforced():
    e = _edge(0.25, 0.64, 1.0)
    assert e.local_score == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(ValueError, match="geometric-mean"):
        _edge(0.25, 0.64, 1.0, local_score=0.5)


def test_edge_rejects_self_loop():
    with pytest.raises(ValueError, match="self-entailment"):
        _edge(1.0, 1.0, 1.0, to_id="s-v:a|b")


def test_edge_rejects_out_of_range_scores():
    with pytest.raises(ValueError, match="out of"):
        _edge(1.5, 1.0, 1.0, local_score=math.sqrt(1.5))


def test_edge_rejects_unknown_provenance_and_label():
    with pytest.raises(ValueError, match="provenance"):
        _edge(1.0, 1.0, 1.0, provenance="guess")
    with pytest.raises(ValueError, match="type label"):
        _edge(1.0, 1.0, 1.0, type_label="s-v => s-v")


@pytest.mark.parametrize("column,names", [("prov", PROVENANCES), ("type", TYPE_LABELS)])
def test_edge_columns_reject_a_code_past_its_names(column, names):
    edges = EdgeColumns()
    edges.append(0, 1, 0.25, 1.0, 1.0, 0.5, 0, 0)
    getattr(edges, column)[0] = len(names) - 1
    edges.check(["s-v:a|b", "s-v:c|d"])
    getattr(edges, column)[0] = len(names)
    with pytest.raises(ValueError, match="^unknown provenance or type code$"):
        edges.check(["s-v:a|b", "s-v:c|d"])


_IDS = ["s-v:a|b", "s-v:c|d", "s-v:e|f", "s-v:g|h"]
_UNIT = st.floats(min_value=0, max_value=1)
_VALID_EDGES = st.lists(
    st.tuples(
        st.lists(st.integers(0, len(_IDS) - 1), min_size=2, max_size=2, unique=True),
        _UNIT, _UNIT, _UNIT,
        st.integers(0, len(TYPE_LABELS) - 1),
        st.integers(0, len(PROVENANCES) - 1),
    ),
    min_size=1, max_size=12,
)
_OUT_OF_UNIT = st.floats(max_value=-1e-9) | st.floats(min_value=1 + 1e-9)


@given(_VALID_EDGES, st.data())
def test_edge_columns_check_raises_the_first_faulty_edges_message(edges, data):
    # Valid edges, then up to three faulty ones at random positions.
    fields = [
        [src, dst, arg, pred, pen, math.sqrt(pred * pen * arg), code, prov]
        for (src, dst), arg, pred, pen, code, prov in edges
    ]
    faulty = data.draw(st.lists(st.integers(0, len(fields) - 1), max_size=3, unique=True))
    for i in faulty:
        edge = fields[i]
        fault = data.draw(st.sampled_from(("out of range", "nan", "drift", "self-loop")))
        if fault == "self-loop":
            edge[1] = edge[0]
        elif fault == "drift":  # local_score stays in [0, 1], its square moves >= 1/16
            edge[5] += -0.25 if edge[5] >= 0.5 else 0.25
        else:
            value = math.nan if fault == "nan" else data.draw(_OUT_OF_UNIT)
            edge[data.draw(st.integers(2, 5))] = value
    columns = EdgeColumns()
    for edge in fields:
        columns.append(*edge)
    if not faulty:
        columns.check(_IDS)
        return
    src, dst, *scores, code, prov = fields[min(faulty)]
    with pytest.raises(ValueError) as first:
        ScoredEdge(_IDS[src], _IDS[dst], *scores, PROVENANCES[prov], TYPE_LABELS[code])
    with pytest.raises(ValueError, match=f"^{re.escape(str(first.value))}$"):
        columns.check(_IDS)


def test_edge_fields_cannot_be_assigned():
    e = _edge(0.25, 0.64, 1.0)
    with pytest.raises(AttributeError):
        e.arg_score = 1.0
    with pytest.raises(AttributeError):
        e.note = "extra"


def test_edge_keyword_and_positional_construction_agree():
    e = _edge(0.25, 0.64, 1.0)
    positional = ScoredEdge(
        "s-v:a|b", "s-v:c|d", 0.25, 0.64, 1.0, e.local_score, "local", type_label("s-v", "s-v")
    )
    assert positional == e and hash(positional) == hash(e)
    assert (positional.from_id, positional.to_id) == ("s-v:a|b", "s-v:c|d")
    assert (e.from_id, e.to_id) == ("s-v:a|b", "s-v:c|d")
    # Tuple behaviour is part of the API: an edge equals the plain tuple
    # of its fields and orders by them, from_id first.
    assert e == tuple(e) and len(e) == 8 and hash(e) == hash(tuple(e))
    assert e < e._replace(from_id="s-v:b|b") and e._replace(provenance="global") < e


def test_edge_repr_names_its_fields():
    assert repr(_edge(0.25, 0.64, 1.0)).startswith("ScoredEdge(from_id=")


def test_edge_replace_runs_the_checks():
    e = _edge(0.25, 0.64, 1.0)
    assert e._replace(provenance="global").provenance == "global"
    with pytest.raises(ValueError, match="geometric-mean"):
        e._replace(local_score=0.5)


@given(
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
)
def test_edge_identity_holds_for_derived_scores(a, p, f):
    e = _edge(a, p, f)
    assert abs(e.local_score**2 - a * p * f) <= 1e-12
