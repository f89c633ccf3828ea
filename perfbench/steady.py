#!/usr/bin/env python3
"""Run one workload repeatedly, each run with another seed, and print
each end-to-end metric's spread against its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload chains-100k --runs 10
    python3 perfbench/steady.py --workload chains-100k --runs 10 \
        --against perfbench/results/steady-chains-100k-<stamp>.json

The spread is the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. A metric is
marked steady when its spread is below a third of its bound (setup_s
has no spread limit). With --against, each median is also compared to
the median of an earlier set: a metric worse by more than its bound is
marked. Raw runs go to perfbench/results/steady-<workload>-<stamp>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import RESULTS_DIR, ROOT


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], spec: dict, against: list[dict] | None) -> bool:
    ok = True
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"runs {len(runs)}, failed shares {sorted(shares)}, all correct "
          f"{all(r['correct'] for r in runs)}")
    if len(shares) != 1 or not all(r["correct"] for r in runs):
        ok = False
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  verdict")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        verdict = "steady" if spread < bound / 3 else "WIDE"
        if name == "setup_s":
            verdict = "n/a"
        elif spread >= bound / 3:
            ok = False
        if against is not None:
            before = statistics.median(r["metrics"][name]["value"] for r in against)
            change = med / before - 1 if m["better"] == "lower" else before / med - 1
            verdict += f", {change:+.3f} vs earlier set" + (" WORSE" if change > bound else "")
            ok = ok and change <= bound
        print(f"{name:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.4f}{bound:>7}  {verdict}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        runs.append(run_once(args.workload, seed, spec["run_seconds"]))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / f"steady-{args.workload}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps({"workload": args.workload, "runs": runs}) + "\n", encoding="utf-8")
    print(f"raw runs: {out.relative_to(ROOT)}")
    against = None
    if args.against:
        against = json.loads(args.against.read_text(encoding="utf-8"))["runs"]
    return 0 if summarize(runs, spec, against) else 1


if __name__ == "__main__":
    raise SystemExit(main())
