#!/usr/bin/env python3
"""Build a synthetic corpus at scale and report wall time, peak memory,
edge count and the dense check counts as JSON on stdout.

`candidate_checks` and `expansion_checks` are the pairs an exhaustive
global stage would check (|left| x |right| per path edge, the rest of
the predicate per chain node, summed over paths), not the pairs scored:
the build only scores candidates found in its posting lists, so its
time follows the edges it accepts rather than these counts.

`stage_seconds` splits `build_seconds` by pipeline stage, from ingest
through the graph seal and report (`seal`) to writing the outputs
(`persist`); the stages account for the whole build.

Run in a fresh process so ru_maxrss reflects this build alone: the
build forks nothing, so `max_rss_mb`, this process's peak RSS, is the
build's whole peak.
"""

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

from evgraph.config import PipelineConfig
from evgraph.pipeline import run_build
from evgraph.synth import write_layered_inputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eventualities", type=int, default=100_000)
    parser.add_argument("--paths", type=int, default=1000)
    parser.add_argument("--path-len", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", type=Path, default=None, help="work dir (default: temp)")
    args = parser.parse_args()

    per_predicate = max(1, args.eventualities // (args.paths * args.path_len))
    work = args.dir or Path(tempfile.mkdtemp(prefix="evgraph-scale-"))
    t0 = time.perf_counter()
    files = write_layered_inputs(
        work / "inputs",
        n_paths=args.paths,
        path_len=args.path_len,
        per_predicate=per_predicate,
        seed=args.seed,
    )
    gen_seconds = time.perf_counter() - t0
    n_records = sum(1 for _ in open(files["corpus"], encoding="utf-8"))

    cfg = PipelineConfig(
        corpus=str(files["corpus"]),
        taxonomy=str(files["taxonomy"]),
        verb_hierarchy=str(files["verb_hierarchy"]),
        output_dir=str(work / "out"),
        min_pred_freq=1,
    )
    t0 = time.perf_counter()
    result = run_build(cfg)
    build_seconds = time.perf_counter() - t0

    counts = result.report["counts"]
    json.dump(
        {
            "corpus_records": n_records,
            "eventualities": counts["eventualities"],
            "paths": counts["paths"],
            "edges_total": counts["edges_total"],
            "candidate_checks": counts["candidate_checks"],
            "expansion_checks": counts["expansion_checks"],
            "gen_seconds": round(gen_seconds, 3),
            "build_seconds": round(build_seconds, 3),
            "stage_seconds": {
                stage: round(seconds, 3) for stage, seconds in result.stage_seconds.items()
            },
            "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_dir": str(work),
        },
        sys.stdout,
        indent=2,
    )
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
