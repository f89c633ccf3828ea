#!/usr/bin/env python3
"""Self-test of the independent checker: it must pass a real build and
fail on two corrupted copies of it.

    python3 perfbench/selftest.py --workload chains-100k --seed 1

One copy has the composed score of one accepted edge perturbed by one
part in a million; the other has one accepted edge removed. Both edges
come from path predicate pairs the checker samples for this seed, so
the recomputation itself must notice them. Exits 0 only when the clean
build passes and both copies fail.
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
from pathlib import Path

from checker import Checker, Tally, check_build, load_model
from harness import SETTINGS, build_config, make_work_dir, require_source, run_phase
from workloads import WORKLOADS


def check(wl, files, out_dir: Path, seed: int) -> tuple[Tally, Checker, list]:
    checker = Checker(load_model(files, out_dir, SETTINGS["k"], SETTINGS["tau"]),
                      SETTINGS["tau_a"], SETTINGS["tau_e"])
    tally = Tally()
    pairs, _ = check_build(checker, tally, random.Random(seed), wl.check_pairs, wl.check_nodes)
    return tally, checker, pairs


def corrupt(src: Path, dst: Path, key: tuple[str, str], perturb: bool) -> None:
    """Copy a built output, then perturb or drop the edges.tsv line of `key`."""
    shutil.copytree(src, dst)
    lines = (src / "edges.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    out = []
    for line in lines:
        fields = line.rstrip("\n").split("\t")
        if (fields[0], fields[1]) == key:
            if not perturb:
                continue
            fields[7] = repr(float(fields[7]) * (1 + 1e-6))
            line = "\t".join(fields) + "\n"
        out.append(line)
    (dst / "edges.tsv").write_text("".join(out), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    require_source()
    wl = WORKLOADS[args.workload]
    work = make_work_dir(f"selftest-{wl.name}", args.seed)
    try:
        files = wl.generate(work / "inputs", args.seed)
        out = work / "out"
        run_phase("build", {"config": build_config(wl, files, out, wl.workers)})
        clean, checker, pairs = check(wl, files, out, args.seed)
        print(f"clean build: {clean.attempted} checks, {clean.failed} failed")
        ok = clean.failed == 0
        # Two accepted edges from different sampled path pairs.
        first = sorted(checker.by_pred_pair[pairs[0]])[0]
        last = sorted(checker.by_pred_pair[pairs[-1]])[-1]
        for label, key, perturb in (("perturbed score", first, True), ("removed edge", last, False)):
            copy = work / label.replace(" ", "-")
            corrupt(out, copy, key, perturb)
            tally, _, _ = check(wl, files, copy, args.seed)
            print(f"{label} {key}: {tally.attempted} checks, {tally.failed} failed")
            for message in tally.messages:
                print(f"  {message}")
            ok = ok and tally.failed > 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
