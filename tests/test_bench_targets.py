"""The benchmark's traced run (perfbench/trace_run.py) wraps evgraph
functions by name; every name it patches must still exist where it looks,
and each call must hold what the trace reads at the positions it reads.
Its build settings (perfbench/harness.py) must still make a config, and
its graph digest (perfbench/phases.py) must still read a graph."""

import importlib
from pathlib import Path

import pytest

from evgraph import global_inference as gi
from evgraph import pipeline
from evgraph.config import PipelineConfig
from evgraph.model import EdgeColumns
from evgraph.store import read_graph
from evgraph.synth import write_layered_inputs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def trace_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("trace_run")


@pytest.fixture
def layered(tmp_path):
    """The config of a small layered build."""
    files = write_layered_inputs(tmp_path / "inputs", n_paths=4, per_predicate=6, seed=1)
    return PipelineConfig(
        corpus=str(files["corpus"]),
        taxonomy=str(files["taxonomy"]),
        verb_hierarchy=str(files["verb_hierarchy"]),
        output_dir=str(tmp_path / "out"),
        min_pred_freq=1,
    )


def test_traced_names_exist(trace_run):
    targets = trace_run.BUILD_TARGETS + trace_run.READ_TARGETS
    assert targets
    for owner, attr, name, _ in targets:
        # Tracer.patched reads owner.__dict__[attr]
        assert attr in owner.__dict__, name


@pytest.mark.parametrize("workload", ["chains-100k", "forest-wide"])
def test_bench_build_config_constructs(monkeypatch, tmp_path, workload):
    # The benchmark hands every key of its build config to PipelineConfig.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = importlib.import_module("harness")
    wl = importlib.import_module("workloads").WORKLOADS[workload]
    files = {name: tmp_path / name for name in ("corpus", "taxonomy", "verb_hierarchy")}
    cfg = PipelineConfig(**harness.build_config(wl, files, tmp_path / "out", wl.workers))
    assert cfg.workers == wl.workers


def test_traced_calls_hold_what_the_trace_reads(trace_run, layered):
    # The traced run reads each infer_path_edges call's args[1] as a path
    # edge and res[0] as its edges, and each expand_with_argument_rules
    # call's args[1] as chain-node rows: a signature that moved them
    # would corrupt path_edges and chain_nodes without an error.
    tracer = trace_run.Tracer()
    with tracer.patched(trace_run.BUILD_TARGETS):
        result = pipeline.build(layered)
    path_edges = set(gi.forest_pairs(result.forest, layered.general_roots))
    infer_calls = tracer.calls["global_inference.infer_path_edges"]
    assert path_edges and infer_calls
    for args, _, res in infer_calls:
        assert isinstance(args[1], tuple) and len(args[1]) == 2 and args[1] in path_edges
        assert isinstance(res[0], EdgeColumns)
    assert sum(len(res[0]) for _, _, res in infer_calls) > 0
    expand_calls = tracer.calls["global_inference.expand_with_argument_rules"]
    assert expand_calls
    for args, _, res in expand_calls:
        rows = list(args[1])
        assert rows and all(0 <= row < len(args[0].ids) for row in rows)
        assert isinstance(res[0], EdgeColumns)


def test_traced_global_stage_reruns_to_the_same_result(trace_run, layered):
    # The traced run calls run_global_stage again on the traced call's own
    # arguments and compares the results: an argument the first call
    # used up, such as a generator of pairs, would make them differ.
    tracer = trace_run.Tracer()
    with tracer.patched(trace_run.BUILD_TARGETS):
        pipeline.build(layered)
    [(args, kwargs, traced)] = tracer.calls["global_inference.run_global_stage"]
    assert len(traced.edges) > 0
    assert gi.run_global_stage(*args, **kwargs) == traced


def test_graph_digest_reads_a_built_graph_as_its_read_copy(monkeypatch, layered):
    # graph_digest reads the graph through its `nodes` and `edges` views,
    # which no evgraph caller reads: they stay for it alone.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    phases = importlib.import_module("phases")
    built = pipeline.run_build(layered).graph
    assert len(built.columns) > 0
    assert phases.graph_digest(built) == phases.graph_digest(read_graph(layered.output_dir))
