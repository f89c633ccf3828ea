"""The traced run: per-layer metrics from spans recorded around evgraph's
public functions.

The build runs in this process with one worker. For the duration of a
`Tracer.patched` block, module attributes (and two classmethods) are
replaced by timing wrappers; evgraph looks these names up at call time,
so the pipeline's own calls are recorded, each span with its parent.
The program's code is not changed. Spans are kept in memory and written,
with the metrics, to perfbench/results/trace-<workload>-s<seed>.json.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from checker import Tally
from harness import (
    PHASE_TIMEOUT_S,
    RESULTS_DIR,
    build_config,
    child_env,
    metric,
)

import evgraph.corpus as corpus_mod
import evgraph.global_inference as gi
import evgraph.local as local
import evgraph.pipeline as pipeline
import evgraph.rules as rules
import evgraph.store as store
from evgraph.config import PipelineConfig
from evgraph.corpus import CorpusIndex
from evgraph.store import EntailmentGraph

# How many times the query mix runs with id endpoints for store.path_query_us.
ID_QUERY_ROUNDS = 50
SAMPLE_PER_TYPE = 100


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.calls: dict[str, list[tuple[tuple, dict, object]]] = {}

    def wrap(self, name: str, fn, keep_calls: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx] = Span(name, start, time.perf_counter(), parent)
                self._stack.pop()
            if keep_calls:
                self.calls.setdefault(name, []).append((args, kwargs, result))
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """targets: (owner, attribute, span name, keep call args/results)."""
        saved = []
        try:
            for owner, attr, name, keep in targets:
                orig = owner.__dict__[attr]
                if isinstance(orig, classmethod):
                    new = classmethod(self.wrap(name, orig.__func__, keep))
                else:
                    new = self.wrap(name, orig, keep)
                saved.append((owner, attr, orig))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def total(self, name: str, parent: str | None | bool = False) -> float:
        """Summed seconds of spans called `name`; parent=False takes every
        such span, else only those directly under a span of that name
        (None: top-level spans)."""
        out = 0.0
        for s in self.spans:
            if s is None or s.name != name:
                continue
            if parent is not False:
                p = None if s.parent is None else self.spans[s.parent].name
                if p != parent:
                    continue
            out += s.seconds
        return out

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s is not None and s.name == name]


BUILD_TARGETS = [
    (pipeline, "build", "pipeline.build", False),
    (pipeline, "write_outputs", "pipeline.write_outputs", False),
    (corpus_mod, "read_corpus", "corpus.read_corpus", False),
    (CorpusIndex, "build", "corpus.CorpusIndex.build", False),
    (pipeline, "load_taxonomy", "resources.load_taxonomy", False),
    (pipeline, "load_verb_hierarchy", "resources.load_verb_hierarchy", False),
    (rules, "collect_vocabulary", "rules.collect_vocabulary", False),
    (rules, "build_argument_rules", "rules.build_argument_rules", False),
    (rules, "build_predicate_rules", "rules.build_predicate_rules", False),
    (local, "score_predicate_rules", "local.score_predicate_rules", True),
    (gi, "build_forest", "global_inference.build_forest", False),
    (gi, "extract_paths", "global_inference.extract_paths", False),
    (gi, "run_global_stage", "global_inference.run_global_stage", True),
    (gi, "infer_path_edges", "global_inference.infer_path_edges", True),
    (gi, "expand_with_argument_rules", "global_inference.expand_with_argument_rules", True),
    (EntailmentGraph, "from_parts", "store.EntailmentGraph.from_parts", False),
]

READ_TARGETS = [
    (store, "read_graph", "store.read_graph", False),
    (EntailmentGraph, "from_parts", "store.EntailmentGraph.from_parts", False),
    (store, "resolve_node", "store.resolve_node", False),
    (store, "stats", "store.stats", False),
    (store, "sample_for_annotation", "store.sample_for_annotation", False),
]


def _speedup(fn, call, workers: int, tally: Tally, what: str) -> float:
    """Median untraced wall time of fn on the traced call's arguments at
    one worker over the median at `workers`. The reruns go in the order
    1, n, n, 1, so a steady drift of the machine's speed over the reruns
    weighs on both sides alike. Each rerun's result is checked against
    the traced one, so it cannot depend on the worker count."""
    args, kwargs, traced_result = call
    bound = inspect.signature(fn).bind(*args, **kwargs)
    # The two sides stay apart even when `workers` is 1.
    one, many = [], []
    for n, side in ((1, one), (workers, many), (workers, many), (1, one)):
        bound.arguments["workers"] = n
        gc.collect()
        t0 = time.perf_counter()
        result = fn(*bound.args, **bound.kwargs)
        side.append(time.perf_counter() - t0)
        tally.record(result == traced_result, f"{what} at {n} workers differs from the traced call")
        del result
    return statistics.median(one) / statistics.median(many)


def _cli(*args: str) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "evgraph.cli", *args],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=PHASE_TIMEOUT_S,
    )
    return time.perf_counter() - t0, proc


def run_traced(wl, seed: int, work: Path, check_outputs) -> tuple[Tally, dict]:
    files = wl.generate(work / "inputs", seed)
    out_dir = work / "out"
    cfg = PipelineConfig(**build_config(wl, files, out_dir, workers=1))
    tally = Tally()
    tracer = Tracer()

    gc.collect()
    with tracer.patched(BUILD_TARGETS):
        result = pipeline.run_build(cfg)
    tally.record(True)  # the build itself; a failed build aborts the run
    counts = result.report["counts"]

    # Fan-out: untraced reruns of both parallel stages at one worker and at
    # the workload's worker count.
    local_call = tracer.calls.pop("local.score_predicate_rules")[0]
    global_call = tracer.calls.pop("global_inference.run_global_stage")[0]
    local_speedup = _speedup(local.score_predicate_rules, local_call, wl.workers, tally, "BInc scoring")
    global_speedup = _speedup(gi.run_global_stage, global_call, wl.workers, tally, "global stage")
    del local_call, global_call

    infer_calls = tracer.calls.pop("global_inference.infer_path_edges")
    expand_calls = tracer.calls.pop("global_inference.expand_with_argument_rules")
    accepted = sum(len(res[0]) for _, _, res in infer_calls)
    expanded = sum(len(res[0]) for _, _, res in expand_calls)
    path_edges = [pair for args, _, _ in infer_calls for pair in zip(args[1], args[1][1:])]
    chain_nodes = [set(args[1]) for args, _, _ in expand_calls]
    del infer_calls, expand_calls
    n_chain_nodes = sum(len(n) for n in chain_nodes)
    distinct_chain_nodes = len(set().union(*chain_nodes))
    del chain_nodes

    with tracer.patched(READ_TARGETS):
        graph = store.read_graph(out_dir)
    tally.record(graph == result.graph, "read_graph differs from the built graph")
    rules_positive = sum(1 for r in result.predicate_rules if r.score > 0.0)
    del result
    gc.collect()

    checker, queries = check_outputs(wl, files, out_dir, seed, tally)

    with tracer.patched(READ_TARGETS):
        for q in queries:
            res = store.query_entails(graph, q.src_text, q.dst_text)
            trail = [[e.from_id, e.to_id, e.local_score] for e in res.trail]
            checker.check_answer(tally, q, res.kind, trail)
        rows = store.stats(graph)
        tally.record(
            rows[-1].n_er_global == len(checker.m.edges), "stats Overall differs from edges.tsv"
        )
        store.sample_for_annotation(graph, SAMPLE_PER_TYPE, seed)

    id_query_s = []
    for _ in range(ID_QUERY_ROUNDS):
        for q in queries:
            t0 = time.perf_counter()
            store.query_entails(graph, q.src, q.dst)
            id_query_s.append(time.perf_counter() - t0)
    del graph
    gc.collect()

    stats_s, proc = _cli("stats", "--output_dir", str(out_dir))
    overall = proc.stdout.strip().splitlines()[-1].split("\t") if proc.returncode == 0 else []
    tally.record(
        overall[:1] == ["Overall"] and overall[-1] == str(len(checker.m.edges)),
        f"evgraph stats: exit {proc.returncode}, last line {overall}",
    )
    chain_q = next(q for q in queries if q.kind == "chain")
    query_s, proc = _cli("query", "--output_dir", str(out_dir), chain_q.src_text, chain_q.dst_text)
    first = proc.stdout.splitlines()[:1]
    tally.record(
        proc.returncode == 0 and first == [chain_q.kind],
        f"evgraph query: exit {proc.returncode}, answered {first}",
    )

    t = tracer.total
    global_s = t("global_inference.run_global_stage")
    path_infer_s = t("global_inference.infer_path_edges")
    expand_s = t("global_inference.expand_with_argument_rules")
    local_s = t("local.score_predicate_rules")
    by_prov = counts["edges_by_provenance"]
    with open(files["corpus"], encoding="utf-8") as fh:
        records = sum(1 for line in fh if line.strip())
    values = {
        "corpus.read_s": (t("corpus.read_corpus"), "s"),
        "corpus.index_s": (t("corpus.CorpusIndex.build"), "s"),
        "corpus.records": (records, "count"),
        "corpus.eventualities": (counts["eventualities"], "count"),
        "resources.load_s": (
            t("resources.load_taxonomy") + t("resources.load_verb_hierarchy"), "s"
        ),
        "rules.build_s": (
            t("rules.collect_vocabulary")
            + t("rules.build_argument_rules")
            + t("rules.build_predicate_rules"),
            "s",
        ),
        "rules.argument_rules": (counts["argument_rules"], "count"),
        "rules.predicate_rules": (counts["predicate_rules"], "count"),
        "local.score_s": (local_s, "s"),
        "local.rules_positive": (rules_positive / max(1, counts["predicate_rules"]), "share"),
        "global_inference.forest_s": (
            t("global_inference.build_forest") + t("global_inference.extract_paths"), "s"
        ),
        "global_inference.path_infer_s": (path_infer_s, "s"),
        "global_inference.expand_s": (expand_s, "s"),
        "global_inference.merge_s": (global_s - path_infer_s - expand_s, "s"),
        "global_inference.candidate_checks": (counts["candidate_checks"], "count"),
        "global_inference.expansion_checks": (counts["expansion_checks"], "count"),
        "global_inference.edges_global": (by_prov.get("global", 0), "count"),
        "global_inference.edges_local": (by_prov.get("local", 0), "count"),
        "global_inference.accepted_per_check": (
            accepted / max(1, counts["candidate_checks"]), "share"
        ),
        "global_inference.expansion_accepted_per_check": (
            expanded / max(1, counts["expansion_checks"]), "share"
        ),
        "global_inference.path_edges": (len(path_edges), "count"),
        "global_inference.distinct_path_edges": (len(set(path_edges)), "count"),
        "global_inference.chain_nodes": (n_chain_nodes, "count"),
        "global_inference.distinct_chain_nodes": (distinct_chain_nodes, "count"),
        "parallel.local_speedup": (local_speedup, "ratio"),
        "parallel.global_speedup": (global_speedup, "ratio"),
        "store.seal_s": (t("store.EntailmentGraph.from_parts", "pipeline.build"), "s"),
        "store.read_parse_s": (
            t("store.read_graph") - t("store.EntailmentGraph.from_parts", "store.read_graph"),
            "s",
        ),
        "store.read_seal_s": (t("store.EntailmentGraph.from_parts", "store.read_graph"), "s"),
        "store.resolve_ms": (statistics.median(tracer.durations("store.resolve_node")) * 1e3, "ms"),
        "store.path_query_us": (statistics.median(id_query_s) * 1e6, "us"),
        "store.stats_s": (t("store.stats", None), "s"),
        "store.sample_s": (t("store.sample_for_annotation"), "s"),
        "store.nodes_bytes": ((out_dir / store.NODE_FILE).stat().st_size, "bytes"),
        "store.edges_bytes": ((out_dir / store.EDGE_FILE).stat().st_size, "bytes"),
        "pipeline.build_s": (t("pipeline.build"), "s"),
        "pipeline.write_s": (t("pipeline.write_outputs"), "s"),
        "cli.stats_s": (stats_s, "s"),
        "cli.query_s": (query_s, "s"),
    }
    metrics = {name: metric(v, unit) for name, (v, unit) in values.items()}

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    trace_file = RESULTS_DIR / f"trace-{wl.name}-s{seed}.json"
    trace_file.write_text(
        json.dumps(
            {
                "workload": wl.name,
                "seed": seed,
                "workers": {"traced": 1, "parallel_reruns": [1, wl.workers]},
                "metrics": metrics,
                "spans": [[s.name, s.start, s.end, s.parent] for s in tracer.spans],
            }
        )
        + "\n",
        encoding="utf-8",
    )
    return tally, metrics
