"""The build's outputs against their golden digests (tests/golden.json),
and two rewrites of the inputs that must leave them unchanged: lines in
another order, and a corpus record split in two.  After a declared
output change, `python3 scripts/golden.py` rewrites the golden file."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digests import GOLDEN, INPUTS, digests_of, first_difference, output_texts

# The inputs with a record of frequency 2 or more: the ladders have none.
REWRITABLE = [name for name in INPUTS if not name.startswith("ladder-")]


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_outputs_match_golden_digests(tmp_path):
    golden = _golden()
    assert golden.keys() == INPUTS.keys()
    faults = []
    for name, config in INPUTS.items():
        texts = output_texts(config(tmp_path / name))
        assert texts.keys() == golden[name].keys(), name
        for file, text in texts.items():
            fault = first_difference(golden[name][file], text)
            if fault is not None:
                faults.append(f"{name} {file}: {fault}")
    assert not faults, "digests moved; first differing lines:\n" + "\n".join(faults)


def _shuffle(cfg, data) -> None:
    """Every input file's lines in a drawn order."""
    rng = data.draw(st.randoms(use_true_random=False))
    for path in (cfg.corpus, cfg.taxonomy, cfg.verb_hierarchy):
        lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
        rng.shuffle(lines)
        Path(path).write_text("".join(lines), encoding="utf-8")


def _split(cfg, data) -> None:
    """One corpus record of frequency f >= 2 as two lines, of frequency a
    and f - a, the second moved to the end."""
    path = Path(cfg.corpus)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    splittable = [i for i, line in enumerate(lines) if int(line.rsplit("\t", 1)[1]) >= 2]
    i = data.draw(st.sampled_from(splittable))
    head, freq = lines[i].rsplit("\t", 1)
    a = data.draw(st.integers(1, int(freq) - 1))
    lines[i] = f"{head}\t{a}\n"
    lines.append(f"{head}\t{int(freq) - a}\n")
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("rewrite", [_shuffle, _split])
@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(REWRITABLE), data=st.data())
def test_input_rewrites_leave_the_digests(rewrite, name, data):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = INPUTS[name](Path(tmp) / "in")
        rewrite(cfg, data)
        got = {file: d["sha256"] for file, d in digests_of(cfg).items()}
    assert got == {file: d["sha256"] for file, d in _golden()[name].items()}
