"""Golden digests of the build's outputs over a fixed set of small inputs.

`tests/golden.json` holds, per input, each output file's sha256 and, for
a text file, a four-hex-digit mark per line, so that a moved digest can
be traced to its first differing line.  The column file is binary and
digested as bytes, with no marks; its bytes follow the machine's byte
order and array item sizes.  `report.json` is digested without the
input and output paths its config echoes.  `scripts/golden.py` rewrites the
file from the build in the checkout; `test_golden.py` compares against it.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from evgraph.config import PATH_FIELDS, PipelineConfig
from evgraph.pipeline import OUTPUT_FILES, REPORT_FILE, run_build
from evgraph.store import COLUMN_FILE
from evgraph.synth import write_layered_inputs
from randomtoy import write_random_toy

GOLDEN = Path(__file__).with_name("golden.json")


def diamond_ladder(directory: Path, d: int) -> PipelineConfig:
    """d diamonds x_i -> a_i, b_i -> x_{i+1}: 3d + 1 predicates of three
    s-v-o rows each, all with the same subject-object pairs, and 2**d
    maximal chains."""
    directory.mkdir()
    preds = [f"x{i}" for i in range(d + 1)] + [f"{s}{i}" for i in range(d) for s in "ab"]
    corpus = [f"s-v-o\tn1=s{k};v1={pred};n2=o{k}\t1" for pred in preds for k in range(3)]
    hierarchy = [
        line for i in range(d) for mid in (f"a{i}", f"b{i}")
        for line in (f"x{i}\t{mid}\thypernym", f"{mid}\tx{i + 1}\thypernym")
    ]
    for name, lines in (("c.tsv", corpus), ("t.tsv", ["thing\ts0\t1"]), ("h.tsv", hierarchy)):
        (directory / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return PipelineConfig(
        corpus=str(directory / "c.tsv"),
        taxonomy=str(directory / "t.tsv"),
        verb_hierarchy=str(directory / "h.tsv"),
        output_dir=str(directory / "out"),
        min_pred_freq=1,
    )


def _config(files: dict[str, Path], directory: Path, **settings) -> PipelineConfig:
    return PipelineConfig(
        corpus=str(files["corpus"]),
        taxonomy=str(files["taxonomy"]),
        verb_hierarchy=str(files["verb_hierarchy"]),
        output_dir=str(directory / "out"),
        **settings,
    )


def _layered(directory: Path, **shape) -> PipelineConfig:
    return _config(write_layered_inputs(directory, **shape), directory, min_pred_freq=1)


def _random_toy(seed: int):
    def config(directory: Path) -> PipelineConfig:
        files = write_random_toy(directory, seed)
        return _config(files, directory, min_pred_freq=1, tau=0.01)

    return config


# Input name -> the config of a build of it, its inputs written into the
# directory it is given.
INPUTS = {
    # The corpus of acceptance criterion 7.
    "criterion-7": lambda d: _layered(d, n_paths=8, per_predicate=12, seed=3),
    **{f"random-toy-{seed}": _random_toy(seed) for seed in range(1, 11)},
    "ladder-12": lambda d: diamond_ladder(d, 12),
    "ladder-12-roots-x3-a7": lambda d: replace(diamond_ladder(d, 12), general_roots=("x3", "a7")),
    "layered-small": lambda d: _layered(d, n_paths=3, path_len=4, per_predicate=10, seed=5),
}


def output_texts(cfg: PipelineConfig) -> dict[str, str | bytes]:
    """Output file -> its text after `run_build(cfg)`, the column file's
    bytes, and `report.json` rewritten without its echoed paths."""
    run_build(cfg)
    out = Path(cfg.output_dir)
    texts = {
        name: (out / name).read_bytes() if name == COLUMN_FILE
        else (out / name).read_text(encoding="utf-8")
        for name in OUTPUT_FILES
    }
    report = json.loads(texts[REPORT_FILE])
    for key in PATH_FIELDS:
        del report["config"][key]
    texts[REPORT_FILE] = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return texts


def _sha256(text: str | bytes) -> str:
    return hashlib.sha256(text if isinstance(text, bytes) else text.encode("utf-8")).hexdigest()


def digest(text: str | bytes) -> dict[str, str]:
    """A file's sha256 and, for a text, the first four hex digits of each
    line's."""
    if isinstance(text, bytes):
        return {"sha256": _sha256(text)}
    marks = "".join(_sha256(line)[:4] for line in text.splitlines())
    return {"sha256": _sha256(text), "lines": marks}


def digests_of(cfg: PipelineConfig) -> dict[str, dict[str, str]]:
    return {name: digest(text) for name, text in output_texts(cfg).items()}


def all_digests(directory: Path) -> dict[str, dict[str, dict[str, str]]]:
    """Input -> output file -> `digest`, every input built under `directory`."""
    return {name: digests_of(config(directory / name)) for name, config in INPUTS.items()}


def first_difference(want: dict[str, str], text: str | bytes) -> str | None:
    """Where `text` first departs from a golden `digest`: the line number
    and the line as it now reads, or only that the bytes differ for a
    binary file; None if the sha256 matches."""
    if _sha256(text) == want["sha256"]:
        return None
    if isinstance(text, bytes):
        return "the bytes differ"
    marks = want["lines"]
    lines = text.splitlines()
    for n, line in enumerate(lines):
        if _sha256(line)[:4] != marks[4 * n:4 * n + 4]:
            return f"line {n + 1} now reads {line!r}"
    if 4 * len(lines) < len(marks):
        return f"line {len(lines) + 1} is gone: the file had {len(marks) // 4} lines"
    return "the lines match by their marks, the bytes do not (a line ending?)"
