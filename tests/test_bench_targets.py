"""The benchmark's traced run (perfbench/trace_run.py) wraps evgraph
functions by name; every name it patches must still exist where it looks.
Its build settings (perfbench/harness.py) must still make a config."""

import importlib
from pathlib import Path

import pytest

from evgraph.config import PipelineConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def trace_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("trace_run")


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
