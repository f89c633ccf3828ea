"""Checks that share no code with the build: the benchmark's independent
checker (perfbench/checker.py, which recomputes every edge with its own
parsers and imports nothing from evgraph) over random toy builds, and
builds under several hash seeds against their golden digests."""

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from digests import GOLDEN
from evgraph.config import PipelineConfig
from evgraph.pipeline import run_build
from randomtoy import write_random_toy

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
SRC = TESTS.parent / "src"


def test_independent_checker_passes_random_toy_builds(tmp_path, monkeypatch):
    # Every path pair and chain node is sampled, so each build's global
    # and expansion edges are all recomputed.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checker = importlib.import_module("checker")
    settings = importlib.import_module("harness").SETTINGS
    tally = checker.Tally()
    for seed in range(1, 31):
        files = write_random_toy(tmp_path / f"in-{seed}", seed)
        out = tmp_path / f"out-{seed}"
        paths = {key: str(path) for key, path in files.items()}
        run_build(PipelineConfig(**paths, output_dir=str(out), min_pred_freq=1, **settings))
        model = checker.load_model(files, out, settings["k"], settings["tau"])
        check = checker.Checker(model, settings["tau_a"], settings["tau_e"])
        everything = len(model.path_pairs) + len(model.nodes)
        checker.check_build(check, tally, random.Random(seed), everything, everything)
    assert tally.failed == 0, tally.messages
    assert tally.attempted > 0


# Builds the criterion-7 corpus and prints its output digests.
_BUILD_AND_DIGEST = """
import json, sys
from pathlib import Path
from digests import INPUTS, digests_of
print(json.dumps(digests_of(INPUTS["criterion-7"](Path(sys.argv[1])))))
"""


def test_builds_under_other_hash_seeds_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["criterion-7"]
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
        proc = subprocess.run(
            [sys.executable, "-c", _BUILD_AND_DIGEST, str(tmp_path / seed)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == golden, f"PYTHONHASHSEED={seed}"
