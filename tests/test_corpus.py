"""Corpus parsing and index statistics."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evgraph import corpus
from columns import Row, by_predicate, rows
from evgraph.corpus import CorpusError, CorpusIndex, parse_corpus_line, read_corpus
from evgraph.local import signature_counts
from evgraph.model import PATTERN_ROLES, PATTERNS, Eventuality
from inputs import index_from
from randomtoy import corpus_line, eventualities


def write_corpus(frequencies, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for eid, frequency in frequencies.items():
            e = Eventuality.from_id(eid, frequency)
            fh.write(corpus_line(e.pattern, e.tokens, e.frequency) + "\n")


def test_parse_line():
    assert parse_corpus_line("s-v-o\tn1=boy;v1=eat;n2=apple\t3", 1) == ("s-v-o:boy|eat|apple", 3)
    e = Eventuality.from_id("s-v-o:boy|eat|apple", 3)
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


def _outcome(parse, line):
    try:
        return "ok", parse(line, 7)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


# Canonical words (lower case, including a final sigma and the two-char
# lower case of "İ"), and the defects a canonical line may not have:
# upper case (also with a context-dependent or longer lower case),
# leading, trailing, doubled or Unicode whitespace, reserved characters,
# an empty token, a frequency that is not [1-9][0-9]*, a role order other
# than PATTERN_ROLES', a missing role and a "\r\n" ending.
WORDS = ("boy", "eat", "crème", "ας", "i̇")
INSERTS = {
    "upper": ("B", "É", "İ", "Σ"),
    "space": (" ", "  ", "\u00a0", "\u2003", "\x1c"),
    "reserved": (";", "=", "|", "\t"),
}
BAD_FREQUENCIES = ("0", "05", "+5", " 5", "5 ", "1_0", "٣", "x", "")
DEFECTS = (*INSERTS, "order", "empty", "missing", "ending")


@st.composite
def corpus_lines(draw):
    """Canonical corpus lines with up to two defects each, besides a
    frequency that is not canonical in about half of them."""
    pattern = draw(st.sampled_from(PATTERNS))
    roles = list(PATTERN_ROLES[pattern])
    words = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
    tokens = [draw(words) for _ in roles]
    frequency = draw(st.sampled_from(("1", "3", "42")) | st.sampled_from(BAD_FREQUENCIES))
    ending = "\n"
    for defect in draw(st.lists(st.sampled_from(DEFECTS), max_size=2, unique=True)):
        if defect == "order":
            order = draw(st.permutations(range(len(roles))))
            roles = [roles[i] for i in order]
            tokens = [tokens[i] for i in order]
        elif defect in INSERTS:
            i = draw(st.integers(0, len(tokens) - 1))
            at = draw(st.integers(0, len(tokens[i])))
            tokens[i] = tokens[i][:at] + draw(st.sampled_from(INSERTS[defect])) + tokens[i][at:]
        elif defect == "empty":
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(("", " ", "\u2003")))
        elif defect == "missing":
            roles, tokens = roles[:-1], tokens[:-1]
        else:
            ending = draw(st.sampled_from(("", "\r\n")))
    chunks = ";".join(f"{role}={token}" for role, token in zip(roles, tokens))
    return f"{pattern}\t{chunks}\t{frequency}{ending}"


@settings(max_examples=1000)
@given(corpus_lines())
def test_fast_path_equals_general_parser(line):
    assert _outcome(parse_corpus_line, line) == _outcome(corpus._parse_general, line)


# A canonical line, and the line with each defect alone.
CANONICAL = "s-v-o-p-o\tn1=ice cream;v1=melt;n2=crème brûlée;p1=in;n3=σας\t12\n"
ONE_DEFECT = [
    *(
        CANONICAL.replace(word, edit(piece), 1)
        for pieces in INSERTS.values()
        for piece in pieces
        for word, edit in (
            ("=crème", lambda piece: "=" + piece + "crème"),
            ("crème ", lambda piece: "crème" + piece + " "),
            ("brûlée", lambda piece: "brûlée" + piece),
        )
    ),
    *(CANONICAL.replace("\t12\n", f"\t{f}\n") for f in BAD_FREQUENCIES),
    CANONICAL.replace("\n", "\r\n"),
    CANONICAL.rstrip("\n"),
    CANONICAL.replace("n1=ice cream;v1=melt", "v1=melt;n1=ice cream"),
    CANONICAL.replace(";p1=in", ""),
    CANONICAL.replace("melt", ""),
    CANONICAL.replace("s-v-o-p-o", "s-v-o"),
]


def test_fast_path_equals_general_parser_on_each_defect():
    for line in ONE_DEFECT:
        assert _outcome(parse_corpus_line, line) == _outcome(corpus._parse_general, line), line


def test_canonical_line_skips_general_parser(monkeypatch):
    def general(line, lineno):
        raise AssertionError(f"general parser called on {line!r}")

    monkeypatch.setattr(corpus, "_parse_general", general)
    assert parse_corpus_line(CANONICAL, 1) == (
        Eventuality("s-v-o-p-o", ("ice cream", "melt", "crème brûlée", "in", "σας"), 12).id, 12
    )


@pytest.mark.parametrize(
    "line",
    [
        CANONICAL.replace("n1=ice cream;v1=melt", "v1=melt;n1=ice cream"),
        "s-v-o-p-o\tn3=σας;p1=in;n2=crème brûlée;v1=melt;n1=ice cream\t12",
    ],
)
def test_reordered_line_skips_general_parser(monkeypatch, line):
    def general(line, lineno):
        raise AssertionError(f"general parser called on {line!r}")

    monkeypatch.setattr(corpus, "_parse_general", general)
    assert parse_corpus_line(line, 1) == parse_corpus_line(CANONICAL, 1)


@st.composite
def reordered_lines(draw):
    """Corpus lines of all seven patterns, each with its roles in one of up
    to three orders drawn for its pattern, so that the order of a
    pattern's lines changes mid-file.  About one line in five has a defect
    the general parser rejects (a frequency that is 0 or no number, or an
    empty token) and the role order of the pattern's line before it."""
    orders = {
        pattern: draw(st.lists(st.permutations(roles), min_size=1, max_size=3))
        for pattern, roles in PATTERN_ROLES.items()
    }
    words = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
    last, lines, defective = {}, [], []
    for lineno in range(1, draw(st.integers(1, 40)) + 1):
        pattern = draw(st.sampled_from(PATTERNS))
        defect = draw(st.sampled_from((None, None, None, None, "frequency", "empty")))
        order = last.get(pattern) if defect else None
        order = last[pattern] = order or draw(st.sampled_from(orders[pattern]))
        tokens = [draw(words) for _ in order]
        frequency = draw(st.sampled_from(("1", "3", "42")))
        if defect == "frequency":
            frequency = draw(st.sampled_from(("0", "x")))
        elif defect == "empty":
            tokens[draw(st.integers(0, len(tokens) - 1))] = ""
        if defect:
            defective.append(lineno)
        chunks = ";".join(f"{role}={token}" for role, token in zip(order, tokens))
        lines.append(f"{pattern}\t{chunks}\t{frequency}\n")
    return lines, defective


def _numbered_outcome(parse, line, lineno):
    try:
        return "ok", parse(line, lineno)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


@given(reordered_lines())
def test_remembered_role_orders_parse_as_the_general_parser(drawn):
    # Only the defective lines reach the general parser, and every line
    # parses to its (id, frequency) or raises its error naming the line.
    lines, defective = drawn
    general, called = corpus._parse_general, []

    def counted(line, lineno):
        called.append(lineno)
        return general(line, lineno)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_parse_general", counted)
        outcomes = [_numbered_outcome(parse_corpus_line, line, n) for n, line in enumerate(lines, 1)]
    assert called == defective
    assert outcomes == [_numbered_outcome(general, line, n) for n, line in enumerate(lines, 1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        if defective:
            with pytest.raises(CorpusError) as err:
                read_corpus(path)
            assert str(err.value) == outcomes[defective[0] - 1][1]
        else:
            merged = {}
            for _, (eid, frequency) in outcomes:
                merged[eid] = merged.get(eid, 0) + frequency
            assert read_corpus(path) == merged


def test_read_merges_duplicate_records(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text(
        "s-v\tn1=dog;v1=bark\t2\n"
        "s-v\tn1=dog;v1=bark\t5\n"
        "s-v\tn1=cat;v1=meow\t1\n",
        encoding="utf-8",
    )
    assert read_corpus(path) == {"s-v:dog|bark": 7, "s-v:cat|meow": 1}


HALF = 2**62  # two records of it sum to 2**63, one past a 'q' column's reach


@pytest.mark.parametrize(
    "lines",
    [
        # two duplicate records whose merged frequency passes the limit
        [f"s-v\tn1=dog;v1=bark\t{HALF}", f"s-v\tn1=dog;v1=bark\t{HALF}", "s-v\tn1=cat;v1=meow\t1"],
        # one signature under two predicates: its signature_freq would pass it
        [f"s-v\tn1=dog;v1=bark\t{HALF}", f"s-v\tn1=dog;v1=run\t{HALF}", "s-v\tn1=cat;v1=meow\t1"],
    ],
    ids=["duplicates", "one signature"],
)
def test_read_names_the_line_whose_frequency_sums_past_the_limit(tmp_path, lines):
    path = tmp_path / "c.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(CorpusError, match=r"^line 2: the corpus frequencies sum past 2\*\*63 - 1$"):
        read_corpus(path)


def test_corpus_frequencies_summing_to_the_limit_index(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text(f"s-v\tn1=dog;v1=bark\t{HALF}\ns-v\tn1=dog;v1=run\t{HALF - 1}\n", "utf-8")
    index = CorpusIndex.from_file(path)
    assert list(index.signature_freq) == [2**63 - 1]
    assert index.total_mass == 2**63 - 1


def test_read_reports_the_first_bad_line_of_a_file_not_utf8(tmp_path):
    path = tmp_path / "c.tsv"
    good = b"s-v\tn1=dog;v1=bark\t2\n"
    path.write_bytes(good + b"s-v\tn1=d\xffg;v1=bark\t2\n")
    with pytest.raises(CorpusError, match=r"^line 2: not UTF-8: invalid start byte at byte 8$"):
        read_corpus(path)
    # A malformed line before the undecodable one is reported first.
    path.write_bytes(b"s-v\tn1=dog\t2\n\n" + good + b"s-v\tn1=\xff;v1=bark\t2\n")
    with pytest.raises(CorpusError, match=r"^line 1: pattern s-v: missing roles \['v1'\]"):
        read_corpus(path)


def test_read_counts_lines_at_newline_only(tmp_path):
    path = tmp_path / "c.tsv"
    lines = [b"s-v\tn1=dog;v1=bark\t2", b"s-v\tn1=cat;v1=meow\t1"]
    path.write_bytes(b"\n".join(lines) + b"\n")
    plain = read_corpus(path)
    path.write_bytes(b"\r\n".join(lines) + b"\r\n")
    assert read_corpus(path) == plain
    # A lone "\r" does not end a line, so the error names the same line
    # number as the undecodable-byte check would.
    path.write_bytes(lines[0] + b"\n" + lines[1] + b"\r" + lines[0] + b"\n")
    with pytest.raises(CorpusError, match=r"^line 2: "):
        read_corpus(path)


def test_byte_order_mark_is_dropped_from_a_corpus(tmp_path):
    path = tmp_path / "c.tsv"
    lines = b"s-v\tn1=dog;v1=bark\t2\n\ns-v\tn1=cat;v1=meow\t1\n"
    path.write_bytes(lines)
    plain = read_corpus(path)
    path.write_bytes(b"\xef\xbb\xbf" + lines)
    assert read_corpus(path) == plain == {"s-v:dog|bark": 2, "s-v:cat|meow": 1}
    # A blank first line keeps its number, mark or not.
    path.write_bytes(b"\xef\xbb\xbf\n" + lines.replace(b"=dog", b"=d\xffg"))
    with pytest.raises(CorpusError, match=r"^line 2: not UTF-8"):
        read_corpus(path)


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("s-v-o-p-o\tn1=he;v1=post;n2=it;p1=on;n3=youtube\t4\n", encoding="utf-8")
    first = read_corpus(path)
    out = tmp_path / "copy.tsv"
    write_corpus(first, out)
    assert read_corpus(out) == first


def test_index_vocabulary_single_record():
    index = index_from(["s-v-o-p-o\tn1=he;v1=post;n2=it;p1=on;n3=youtube\t1"])
    assert index.terms == ["he", "it", "on-youtube"]
    assert set(index.predicate_freq) == {"post"}
    assert list(index.args) == [0, 1, 2]
    assert rows(index) == {
        "s-v-o-p-o:he|post|it|on|youtube": Row("s-v-o-p-o", "post", ("he", "it", "on-youtube"), 1.0)
    }
    assert index.predicate_kind == {"post": "verb"}


def test_index_sums_predicate_frequency():
    index = index_from(
        ["s-v-o\tn1=boy;v1=eat;n2=apple\t3", "s-v-o\tn1=girl;v1=eat;n2=bread\t4"],
    )
    assert index.predicate_freq["eat"] == 7
    assert index.total_mass == 7
    # Signature ids follow the text order: boy|apple, girl|bread.
    assert list(index.signature) == [0, 1]
    assert list(index.signature_freq) == [3, 4]
    assert signature_counts(index, "eat") == {0: 3, 1: 4}


def test_index_empty_corpus():
    index = index_from([])
    assert index.ids == []
    assert rows(index) == {}
    assert index.terms == []
    assert index.total_mass == 0
    assert list(index.posting_keys) == [] and list(index.posting_start) == [0]


def test_index_conditional_probability():
    index = index_from(
        ["s-v-o\tn1=boy;v1=eat;n2=apple\t1", "s-v-o\tn1=boy;v1=eat;n2=food\t3"],
    )
    assert rows(index)["s-v-o:boy|eat|apple"].cond_prob == 0.25
    assert rows(index)["s-v-o:boy|eat|food"].cond_prob == 0.75
    assert list(index.cond_prob) == [0.25, 0.75]


def test_index_groups_by_predicate_sorted():
    index = index_from(
        [
            "s-v-o\tn1=boy;v1=eat;n2=food\t1",
            "s-v-o\tn1=boy;v1=eat;n2=apple\t1",
            "s-v\tn1=dog;v1=bark\t1",
        ],
    )
    assert by_predicate(index)["eat"] == ("s-v-o:boy|eat|apple", "s-v-o:boy|eat|food")
    assert list(index.by_predicate["eat"]) == [0, 1]  # "s-v-o:" sorts before "s-v:"


def test_index_rows_of_compound_patterns():
    evs = [
        Eventuality.create("s-be-a-p-o", {"n1": "it", "a1": "red", "p1": "in", "n2": "sun"}, 2),
        Eventuality.create("s-v-p-o", {"n1": "boy", "v1": "look", "p1": "at", "n2": "sky"}, 3),
        Eventuality.create("s-be-a", {"n1": "it", "a1": "red"}, 6),
    ]
    index = CorpusIndex.build({e.id: e.frequency for e in evs})
    assert index.ids == sorted(e.id for e in evs)
    assert list(index.frequency) == [e.frequency for e in sorted(evs, key=lambda e: e.id)]
    assert rows(index) == {
        "s-be-a-p-o:it|red|in|sun": Row("s-be-a-p-o", "be-red", ("it", "in-sun"), 0.25),
        "s-be-a:it|red": Row("s-be-a", "be-red", ("it",), 0.75),
        "s-v-p-o:boy|look|at|sky": Row("s-v-p-o", "look-at", ("boy", "sky"), 1.0),
    }
    assert by_predicate(index) == {
        "be-red": ("s-be-a-p-o:it|red|in|sun", "s-be-a:it|red"),
        "look-at": ("s-v-p-o:boy|look|at|sky",),
    }
    assert index.predicate_kind == {"be-red": "be-adj", "look-at": "verb-prep"}


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
    build = lambda evs: CorpusIndex.build({e.id: e.frequency for e in evs})  # noqa: E731
    assert repr(build(second)) == repr(build(first))
