#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload chains-100k --seed 1 --seconds 8 --trace 0

--trace 0 measures the end-to-end metrics: input generation (set-up),
then a few rounds of one run_build in a fresh process followed by, in
another fresh process, read_graph plus a fixed query mix, repeated for
a slice of --seconds (the slices add up to --seconds).
--trace 1 instead runs the build in this process with one worker,
times the public functions of each evgraph module, and prints the
per-layer metrics (also written with every span to perfbench/results/).

Both modes check the outputs with the independent checker in
checker.py; every check is one attempted operation. The last line of
stdout is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import sys

from checker import Checker, Tally, check_build, load_model
from harness import (
    SETTINGS,
    build_config,
    make_work_dir,
    metric,
    require_source,
    run_phase,
    timed_median,
)
from workloads import WORKLOADS

# Inputs are generated at least this many times, for at least this many
# seconds in all, per run; setup_s is the median.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0


def check_outputs(wl, files, out_dir, seed: int, tally: Tally):
    """Run every output check of one build; returns the checker and the
    query mix chosen for this seed."""
    checker = Checker(load_model(files, out_dir, SETTINGS["k"], SETTINGS["tau"]),
                      SETTINGS["tau_a"], SETTINGS["tau_e"])
    rng = random.Random(seed)
    check_build(checker, tally, rng, wl.check_pairs, wl.check_nodes)
    return checker, checker.choose_queries(rng, wl.queries_per_kind)


def run_end_to_end(wl, seed: int, seconds: int, work) -> tuple[Tally, dict]:
    """Set-up, then `wl.builds` rounds of one build followed by a slice of
    read rounds, so that build and read samples both spread over the
    whole run. The checks run once, after the first build."""
    files = {}

    def generate():
        files.update(wl.generate(work / "inputs", seed))

    setup_s = timed_median(generate, SETUP_REPEATS, SETUP_SECONDS)
    out_dir = work / "out"
    config = build_config(wl, files, out_dir, wl.workers)
    tally = Tally()
    builds, reads = [], []
    for i in range(wl.builds):
        # raises if the build fails
        builds.append(run_phase("build", {"config": config}, sample_memory=True))
        if i == 0:
            checker, queries = check_outputs(wl, files, out_dir, seed, tally)
        reads.append(
            run_phase(
                "read",
                {
                    "output_dir": str(out_dir),
                    "queries": [[q.src_text, q.dst_text] for q in queries],
                    "seconds": seconds / wl.builds,
                },
            )
        )
    digest = builds[0]["digest"]
    for b in builds:
        tally.record(b["digest"] == digest, "a rebuild differs from the first build")
    for r in reads:
        tally.record(r["digest"] == digest, "read_graph differs from the built graph")
        for i, (kind, trail) in enumerate(r["answers"]):
            checker.check_answer(tally, queries[i % len(queries)], kind, trail)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        **{
            name: metric(statistics.median(b[key] for b in builds), unit)
            for name, key, unit in (
                ("build_s", "build_s", "s"),
                ("build_cpu_s", "build_cpu_s", "s"),
                ("build_rss_mb", "tree_peak_mb", "MB"),
            )
        },
        "load_s": metric(statistics.median(x for r in reads for x in r["load_s"]), "s"),
        "load_rss_mb": metric(statistics.median(r["load_rss_mb"] for r in reads), "MB"),
        "query_ms": metric(statistics.median(x for r in reads for x in r["query_ms"]), "ms"),
    }
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()

    wl = WORKLOADS[args.workload]
    work = make_work_dir(wl.name, args.seed)
    try:
        if args.trace:
            from trace_run import run_traced

            tally, metrics = run_traced(wl, args.seed, work, check_outputs)
        else:
            tally, metrics = run_end_to_end(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in tally.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
