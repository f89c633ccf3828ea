"""Measured phases, each run in a fresh interpreter so that its memory
belongs to that phase alone and forked workers are counted.

    python3 perfbench/phases.py build < request.json
    python3 perfbench/phases.py read  < request.json

The request is one JSON object on stdin; the result is one JSON object
on the last line of stdout. src/ must be on PYTHONPATH.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time


def graph_digest(graph) -> str:
    """SHA-256 over a canonical text of every node and edge, with scores
    in shortest round-trip form, so two graphs digest alike exactly when
    they hold the same nodes and edges."""
    h = hashlib.sha256()
    for node_id in sorted(graph.nodes):
        n = graph.nodes[node_id]
        h.update(f"{node_id}\t{n.pattern}\t{'|'.join(n.tokens)}\t{n.frequency}\n".encode())
    for key in sorted(graph.edges):
        e = graph.edges[key]
        h.update(
            f"{e.from_id}\t{e.to_id}\t{e.type_label}\t{e.provenance}\t{e.arg_score!r}\t"
            f"{e.pred_score!r}\t{e.penalty!r}\t{e.local_score!r}\n".encode()
        )
    return h.hexdigest()


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def _cpu_s(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def build_phase(req: dict) -> dict:
    """One run_build. Wall and CPU time cover the call only; CPU adds the
    forked workers (RUSAGE_CHILDREN). The build's memory is sampled from
    outside, by harness.TreeMemoryPeak."""
    from evgraph.config import PipelineConfig
    from evgraph.pipeline import run_build

    cfg = PipelineConfig(**req["config"])
    gc.collect()
    cpu0 = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    result = run_build(cfg)
    wall = time.perf_counter() - t0
    cpu = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN) - cpu0
    return {"build_s": wall, "build_cpu_s": cpu, "digest": graph_digest(result.graph)}


def read_phase(req: dict) -> dict:
    """Rounds of (read_graph, then every query with text endpoints) until
    `seconds` have passed; at least one round. Garbage is collected
    before each timed call; the loaded graph is frozen out of the
    collector while queries run, so those collections stay cheap."""
    from evgraph.store import query_entails, read_graph

    out_dir = req["output_dir"]
    queries = req["queries"]
    deadline = time.perf_counter() + req["seconds"]
    load_s: list[float] = []
    query_ms: list[float] = []
    answers: list[list] = []
    load_rss_mb = None
    graph = None
    while True:
        graph = None
        gc.collect()
        t0 = time.perf_counter()
        graph = read_graph(out_dir)
        load_s.append(time.perf_counter() - t0)
        if load_rss_mb is None:
            load_rss_mb = _rss_mb(resource.RUSAGE_SELF)
        gc.collect()
        gc.freeze()
        for src, dst in queries:
            gc.collect()
            t0 = time.perf_counter()
            res = query_entails(graph, src, dst)
            query_ms.append((time.perf_counter() - t0) * 1e3)
            answers.append(
                [res.kind, [[e.from_id, e.to_id, e.local_score] for e in res.trail]]
            )
        gc.unfreeze()
        if time.perf_counter() >= deadline:
            break
    return {
        "load_s": load_s,
        "query_ms": query_ms,
        "load_rss_mb": load_rss_mb,
        "answers": answers,
        "digest": graph_digest(graph),
    }


PHASES = {"build": build_phase, "read": read_phase}

if __name__ == "__main__":
    request = json.load(sys.stdin)
    print(json.dumps(PHASES[sys.argv[1]](request)))
