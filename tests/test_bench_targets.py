"""The benchmark's traced run (perfbench/trace_run.py) wraps evgraph
functions by name; every name it patches must still exist where it looks."""

import importlib
from pathlib import Path

import pytest

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
