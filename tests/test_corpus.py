"""Corpus parsing and index statistics."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evgraph.corpus import CorpusError, CorpusIndex, Row, corpus_line, parse_corpus_line, read_corpus
from evgraph.model import Eventuality
from randomtoy import eventualities


def write_corpus(eventualities, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in eventualities:
            fh.write(corpus_line(e) + "\n")


def _index(lines, tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return CorpusIndex.from_file(path)


def test_parse_line():
    e = parse_corpus_line("s-v-o\tn1=boy;v1=eat;n2=apple\t3", 1)
    assert e.pattern == "s-v-o" and e.frequency == 3
    assert e.tokens == ("boy", "eat", "apple")


@pytest.mark.parametrize(
    "line,match",
    [
        ("s-v-o\tn1=boy;v1=eat;n2=apple", "3 tab-separated"),
        ("s-v-o\tn1=boy;v1=eat;n2=apple\tmany", "not an integer"),
        ("s-v-o\tn1=boy;v1eat;n2=apple\t3", "role=token"),
        ("s-v-o\tn1=boy;n1=cat;v1=eat;n2=apple\t3", "duplicate role"),
        ("s-v-o\tn1=boy;v1=eat\t3", "missing roles"),
    ],
)
def test_parse_errors_carry_line_number(line, match):
    with pytest.raises(ValueError, match=match) as err:
        parse_corpus_line(line, 7)
    assert "line 7" in str(err.value)


def test_read_merges_duplicate_records(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text(
        "s-v\tn1=dog;v1=bark\t2\n"
        "s-v\tn1=dog;v1=bark\t5\n"
        "s-v\tn1=cat;v1=meow\t1\n",
        encoding="utf-8",
    )
    evs = read_corpus(path)
    assert len(evs) == 2
    by_id = {e.id: e for e in evs}
    assert by_id["s-v:dog|bark"].frequency == 7


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("s-v-o-p-o\tn1=he;v1=post;n2=it;p1=on;n3=youtube\t4\n", encoding="utf-8")
    first = read_corpus(path)
    out = tmp_path / "copy.tsv"
    write_corpus(first, out)
    assert read_corpus(out) == first


def test_index_vocabulary_single_record(tmp_path):
    index = _index(["s-v-o-p-o\tn1=he;v1=post;n2=it;p1=on;n3=youtube\t1"], tmp_path)
    assert index.terms == frozenset({"he", "it", "on-youtube"})
    assert set(index.predicate_freq) == {"post"}
    assert index.rows == {
        "s-v-o-p-o:he|post|it|on|youtube": Row("s-v-o-p-o", "post", ("he", "it", "on-youtube"), 1.0)
    }
    assert index.predicate_kind == {"post": "verb"}


def test_index_sums_predicate_frequency(tmp_path):
    index = _index(
        ["s-v-o\tn1=boy;v1=eat;n2=apple\t3", "s-v-o\tn1=girl;v1=eat;n2=bread\t4"],
        tmp_path,
    )
    assert index.predicate_freq["eat"] == 7
    assert index.total_mass == 7
    assert index.signature_freq == {"boy|apple": 3, "girl|bread": 4}
    assert index.pred_signatures == {"eat": {"boy|apple": 3, "girl|bread": 4}}
    assert index.pred_signatures["eat"]["boy|apple"] == 3


def test_index_empty_corpus(tmp_path):
    index = _index([], tmp_path)
    assert index.eventualities == ()
    assert index.rows == {}
    assert index.terms == frozenset()
    assert index.total_mass == 0


def test_index_conditional_probability(tmp_path):
    index = _index(
        ["s-v-o\tn1=boy;v1=eat;n2=apple\t1", "s-v-o\tn1=boy;v1=eat;n2=food\t3"],
        tmp_path,
    )
    assert index.rows["s-v-o:boy|eat|apple"].cond_prob == 0.25
    assert index.rows["s-v-o:boy|eat|food"].cond_prob == 0.75


def test_index_groups_by_predicate_sorted(tmp_path):
    index = _index(
        [
            "s-v-o\tn1=boy;v1=eat;n2=food\t1",
            "s-v-o\tn1=boy;v1=eat;n2=apple\t1",
            "s-v\tn1=dog;v1=bark\t1",
        ],
        tmp_path,
    )
    assert index.by_predicate["eat"] == ("s-v-o:boy|eat|apple", "s-v-o:boy|eat|food")


def test_index_rows_of_compound_patterns():
    evs = [
        Eventuality.create("s-be-a-p-o", {"n1": "it", "a1": "red", "p1": "in", "n2": "sun"}, 2),
        Eventuality.create("s-v-p-o", {"n1": "boy", "v1": "look", "p1": "at", "n2": "sky"}, 3),
        Eventuality.create("s-be-a", {"n1": "it", "a1": "red"}, 6),
    ]
    index = CorpusIndex.build(evs)
    assert list(index.rows) == sorted(e.id for e in evs)
    assert index.eventualities == tuple(sorted(evs, key=lambda e: e.id))
    assert index.rows == {
        "s-be-a-p-o:it|red|in|sun": Row("s-be-a-p-o", "be-red", ("it", "in-sun"), 0.25),
        "s-be-a:it|red": Row("s-be-a", "be-red", ("it",), 0.75),
        "s-v-p-o:boy|look|at|sky": Row("s-v-p-o", "look-at", ("boy", "sky"), 1.0),
    }
    assert index.by_predicate == {
        "be-red": ("s-be-a-p-o:it|red|in|sun", "s-be-a:it|red"),
        "look-at": ("s-v-p-o:boy|look|at|sky",),
    }
    assert index.predicate_kind == {"be-red": "be-adj", "look-at": "verb-prep"}


def test_index_rejects_duplicate_id():
    ev = Eventuality.create("s-v", {"n1": "dog", "v1": "bark"}, 1)
    with pytest.raises(CorpusError, match=re.escape("duplicate eventuality id 's-v:dog|bark'")):
        CorpusIndex.build([ev, Eventuality(ev.pattern, ev.tokens, 2)])


@st.composite
def shuffled_records(draw):
    """Distinct eventualities over a few shared words, and a reordering."""
    drawn = draw(st.lists(eventualities(("it", "be", "red", "at"), st.integers(1, 9)), max_size=15))
    records = list({e.id: e for e in drawn}.values())
    return records, draw(st.permutations(records))


@given(shuffled_records())
def test_index_ignores_input_order(records):
    # repr shows every map in its insertion order, which output order follows.
    first, second = records
    assert repr(CorpusIndex.build(second)) == repr(CorpusIndex.build(first))
