#!/usr/bin/env python3
"""Build a synthetic corpus at scale and report wall time, peak memory,
edge count and the dense check counts as JSON on stdout.

`candidate_checks` and `expansion_checks` are the pairs an exhaustive
global stage would check (|left| x |right| per distinct predicate pair,
the rest of the predicate per distinct chain node), not the pairs scored:
the build only scores candidates found in its posting lists, so its
time follows the edges it accepts rather than these counts.

`stage_seconds` splits `build_seconds` by pipeline stage, from ingest
through the graph seal and report (`seal`) to writing the outputs
(`persist`); the stages account for the whole build.  `stage_peak_mb`
is the build's peak resident memory (VmHWM) after each stage, so the
first stage whose value reaches `max_rss_mb` is the one that set it.

The inputs are generated in this process, and the build runs in a fresh
child process (this script with `--build-from`).  `max_rss_mb` is the
build's own peak resident memory: the child's high-water mark (VmHWM)
of the memory it maps after it starts, so the generation's peak, which
Linux carries into a child's `ru_maxrss`, is not part of it.  The
build forks nothing.  `gen_max_rss_mb` is the generating process's peak.
`read_seconds` and `read_max_rss_mb` are the time and the peak resident
memory (VmHWM) of one `read_graph` of the build's outputs, the read path
`stats`, `sample` and `query` pay on every call; it runs in another
fresh child process (`--read-from`), so its peak is the read's own.
That read takes the column file beside the TSVs.  `tsv_read_seconds` and
`tsv_read_max_rss_mb` are the same for a third child, run after the probe
has removed the column file, so that it times the line reader, which a
graph without one pays.
The inputs and outputs go to a temp directory that is removed after the
run, or to `--dir`, which keeps them, less the column file, and is
reported as `work_dir`.
"""

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from evgraph.config import PipelineConfig
from evgraph.pipeline import peak_rss_mb, run_build
from evgraph.store import COLUMN_FILE, read_graph
from evgraph.synth import write_layered_inputs


def build(work: Path) -> dict:
    """Build the inputs under `work` and report the build's own costs."""
    cfg = PipelineConfig(
        corpus=str(work / "inputs" / "corpus.tsv"),
        taxonomy=str(work / "inputs" / "taxonomy.tsv"),
        verb_hierarchy=str(work / "inputs" / "hierarchy.tsv"),
        output_dir=str(work / "out"),
        min_pred_freq=1,
    )
    t0 = time.perf_counter()
    result = run_build(cfg)
    build_seconds = time.perf_counter() - t0
    counts = result.report["counts"]
    return {
        "eventualities": counts["eventualities"],
        "paths": counts["paths"],
        "edges_total": counts["edges_total"],
        "candidate_checks": counts["candidate_checks"],
        "expansion_checks": counts["expansion_checks"],
        "build_seconds": round(build_seconds, 3),
        "stage_seconds": {
            stage: round(seconds, 3) for stage, seconds in result.stage_seconds.items()
        },
        "stage_peak_mb": result.stage_peak_mb,
        "max_rss_mb": peak_rss_mb(),
    }


def read(out: Path) -> dict:
    """Read the graph written under `out` once and report the read's own
    costs."""
    t0 = time.perf_counter()
    read_graph(out)
    return {"read_seconds": round(time.perf_counter() - t0, 3), "read_max_rss_mb": peak_rss_mb()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eventualities", type=int, default=100_000)
    parser.add_argument("--paths", type=int, default=1000)
    parser.add_argument("--path-len", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--dir", type=Path, default=None,
        help="work dir to keep (default: a temp dir, removed after the run)",
    )
    parser.add_argument("--build-from", type=Path, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--read-from", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.build_from is not None:
        json.dump(build(args.build_from), sys.stdout)
        return 0
    if args.read_from is not None:
        json.dump(read(args.read_from), sys.stdout)
        return 0

    if args.dir is not None:
        return probe(args, args.dir)
    with tempfile.TemporaryDirectory(prefix="evgraph-scale-") as work:
        return probe(args, Path(work))


def probe(args: argparse.Namespace, work: Path) -> int:
    """Generate the inputs under `work`, build and read them in child
    processes, with the column file and then without it, and print the
    report; `work_dir` is named only when `--dir` keeps it."""
    per_predicate = max(1, args.eventualities // (args.paths * args.path_len))
    t0 = time.perf_counter()
    files = write_layered_inputs(
        work / "inputs",
        n_paths=args.paths,
        path_len=args.path_len,
        per_predicate=per_predicate,
        seed=args.seed,
    )
    gen_seconds = time.perf_counter() - t0
    with open(files["corpus"], encoding="utf-8") as fh:
        n_records = sum(1 for _ in fh)
    report = {"corpus_records": n_records}
    out = work / "out"
    for flag, path, prefix in (
        ("--build-from", work, ""), ("--read-from", out, ""), ("--read-from", out, "tsv_")
    ):
        if prefix:
            (out / COLUMN_FILE).unlink()
        child = subprocess.run(
            [sys.executable, __file__, flag, str(path)], capture_output=True, text=True
        )
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        report.update((prefix + key, value) for key, value in json.loads(child.stdout).items())
    report.update(gen_seconds=round(gen_seconds, 3), gen_max_rss_mb=peak_rss_mb())
    if args.dir is not None:
        report["work_dir"] = str(work)
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
