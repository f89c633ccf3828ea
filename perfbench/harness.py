"""Shared plumbing: where things live, the build settings, and running a
measured phase in a fresh interpreter."""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "work"
RESULTS_DIR = BENCH_DIR / "results"
PHASES = BENCH_DIR / "phases.py"

# Scoring settings shared by the build and the independent checker
# (the evgraph defaults, spelled out so the checker uses the same ones).
SETTINGS = {"k": 5, "tau": 0.05, "tau_a": 0.3, "tau_e": 0.2}

PHASE_TIMEOUT_S = 170


def require_source() -> None:
    """Put the program's source on the import path, or exit non-zero when
    it is not beside the benchmark."""
    if not (SRC / "evgraph" / "__init__.py").is_file():
        print(f"error: no evgraph source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def make_work_dir(workload: str, seed: int) -> Path:
    work = WORK_DIR / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def build_config(wl: Workload, files: dict[str, Path], out_dir: Path, workers: int) -> dict:
    return {
        "corpus": str(files["corpus"]),
        "taxonomy": str(files["taxonomy"]),
        "verb_hierarchy": str(files["verb_hierarchy"]),
        "output_dir": str(out_dir),
        "workers": workers,
        **SETTINGS,
    }


# How often the memory of a phase's process tree is sampled, and every how
# many samples the tree is looked up again (forked workers come and go).
MEMORY_SAMPLE_S = 0.05
TREE_RESCAN_EVERY = 4


def _rollup_kb(pid: int, fields: tuple[str, ...]) -> dict[str, int]:
    """The named kB fields of /proc/<pid>/smaps_rollup (empty once the
    process is gone)."""
    out = {}
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
            for line in fh:
                key, _, rest = line.partition(":")
                if key in fields:
                    out[key] = int(rest.split()[0])
    except (OSError, ValueError):
        return {}
    return out


def _status_rss_kb(pid: int) -> int:
    """VmRSS of /proc/<pid>/status (0 once the process is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _process_tree(root: int) -> list[int]:
    """root and every live descendant, found through the parent pid in
    /proc/<pid>/stat."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                ppid = int(fh.read().rpartition(")")[2].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


class TreeMemoryPeak:
    """Samples, in a thread of this process, the resident memory of a
    process and its descendants, and keeps the largest sum.

    A sample is the anonymous memory of every process in the tree, as
    Pss_Anon, so a page that a forked worker still shares with its
    parent counts once, plus the root's file-backed resident pages
    (Rss minus Anonymous; the workers map the same files). It only reads
    /proc, and its CPU time is not part of the phase's processes."""

    def __init__(self, root: int) -> None:
        self.root = root
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self, tree: list[int]) -> int:
        if len(tree) == 1:
            # No workers: nothing is shared, so the root's RSS counter
            # holds the same sum without a page-table walk.
            return _status_rss_kb(self.root)
        root = _rollup_kb(self.root, ("Rss", "Anonymous", "Pss_Anon"))
        if not root:
            return 0
        total = root["Rss"] - root["Anonymous"] + root["Pss_Anon"]
        for pid in tree[1:]:
            total += _rollup_kb(pid, ("Pss_Anon",)).get("Pss_Anon", 0)
        return total

    def _run(self) -> None:
        n = 0
        tree = [self.root]
        while not self._stop.is_set():
            if n % TREE_RESCAN_EVERY == 0:
                tree = _process_tree(self.root)
            n += 1
            self.peak_kb = max(self.peak_kb, self._sample(tree))
            self._stop.wait(MEMORY_SAMPLE_S)

    def __enter__(self) -> "TreeMemoryPeak":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def run_phase(name: str, request: dict, sample_memory: bool = False) -> dict:
    """Run perfbench/phases.py <name> in a fresh interpreter and return
    its result object. With sample_memory, the result also holds
    `tree_peak_mb`, the largest memory of the phase's process tree seen
    by TreeMemoryPeak."""
    proc = subprocess.Popen(
        [sys.executable, str(PHASES), name],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    peak = TreeMemoryPeak(proc.pid) if sample_memory else None
    with peak or contextlib.nullcontext():
        try:
            stdout, stderr = proc.communicate(json.dumps(request), timeout=PHASE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{name} phase failed ({proc.returncode}):\n{stderr[-2000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    if peak:
        result["tree_peak_mb"] = peak.peak_kb / 1024.0
    return result


def timed_median(fn, min_repeats: int, min_seconds: float) -> float:
    """Median wall time of fn over at least min_repeats calls that
    together take at least min_seconds."""
    times: list[float] = []
    while len(times) < min_repeats or sum(times) < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
