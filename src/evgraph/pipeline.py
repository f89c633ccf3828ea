"""End-to-end build orchestration: ingest -> rule extraction -> local
scoring -> global inference -> seal -> persistence.

The seal stage seals the accepted edge columns and the index's ids
through `EntailmentGraph.from_parts`, the graph's one validator, and
assembles the run report, whose path count is the number of lines that
persist streams into `paths.tsv`, counted without a walk (`gi.count_paths`).
Every stage is deterministic and runs in this process, so two builds
from the same inputs are byte-identical.  `BuildResult.stage_seconds`
times each stage and `stage_peak_mb` holds the process's peak memory
after each, and a stage's failure is a `StageError` tagged with its
name.  `build` pauses the cyclic garbage collector from ingest through
the seal, which make next to no reference cycles; persist runs with the
collector as the caller left it.  Nothing is moved into the output
directory until the whole build has succeeded; then the seven files
move in one `replace` each, so a crash between two leaves two builds'
files side by side.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import astuple, dataclass, field
from pathlib import Path

from . import global_inference as gi
from . import local, rules, store
from .config import PipelineConfig, config_report
from .corpus import CorpusIndex
from .model import PROVENANCES
from .resources import VerbHierarchyStore, load_taxonomy, load_verb_hierarchy

REPORT_FILE = "report.json"
PATHS_FILE = "paths.tsv"
ARGUMENT_RULES_FILE = "argument_rules.tsv"
PREDICATE_RULES_FILE = "predicate_rules.tsv"

OUTPUT_FILES = (
    store.NODE_FILE,
    store.EDGE_FILE,
    store.COLUMN_FILE,
    ARGUMENT_RULES_FILE,
    PREDICATE_RULES_FILE,
    PATHS_FILE,
    REPORT_FILE,
)

STAGES = ("config", "ingest", "resources", "rules", "local", "global", "seal", "persist")


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str) -> None:
        super().__init__(message)
        self.stage = stage


@dataclass(frozen=True)
class BuildResult:
    graph: store.EntailmentGraph
    argument_rules: tuple[rules.ArgumentRule, ...]
    predicate_rules: tuple[rules.PredicateRule, ...]
    forest: gi.PredicateForest  # walked again at persist for `paths.tsv`
    general_roots: tuple[str, ...]
    report: dict
    # Wall seconds, and peak resident MB after it (None without /proc), per
    # stage; in no output file, so builds stay byte-identical.
    stage_seconds: dict[str, float] = field(default_factory=dict, compare=False)
    stage_peak_mb: dict[str, float | None] = field(default_factory=dict, compare=False)


def peak_rss_mb() -> float | None:
    """This process's resident high-water mark (VmHWM) in MB, or None
    where /proc/self/status does not exist."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) / 1024 for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return None


def _staged(meters: tuple[dict, dict], stage: str, fn, *args, **kwargs):
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, str(exc)) from exc
    finally:
        seconds, peaks = meters
        seconds[stage] = seconds.get(stage, 0.0) + time.perf_counter() - start
        peaks[stage] = peak_rss_mb()


def pin_mmap_threshold() -> bool:
    """Hold glibc's mmap threshold (mallopt -3) at its starting 128 KiB;
    False where the C library is not glibc.  Left to slide, it rises to
    each large block freed, blocks below it then come from a heap that
    fragments by allocation order, and one build's peak moved by 2-4 MB
    between identical runs."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, OSError, ValueError):
        return False
    return bool(glibc) and ctypes.CDLL(None).mallopt(-3, 128 * 1024) == 1


def build(cfg: PipelineConfig) -> BuildResult:
    """Run the full pipeline in memory and assemble the run report, with
    the collector paused and then left as the caller had it.  Nothing
    allocates after it is turned back on, so its first pass runs at the
    caller's next allocation.  It pins the process's mmap threshold
    (`pin_mmap_threshold`), which stays pinned."""
    pin_mmap_threshold()
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _build(cfg)
    finally:
        if collecting:
            gc.enable()


def _build(cfg: PipelineConfig) -> BuildResult:
    for key in ("corpus", "taxonomy", "verb_hierarchy"):
        if not getattr(cfg, key):
            raise StageError("config", f"no {key} path configured")
    meters: tuple[dict, dict] = ({}, {})
    index: CorpusIndex = _staged(meters, "ingest", CorpusIndex.from_file, cfg.corpus)
    taxonomy = _staged(meters, "resources", load_taxonomy, cfg.taxonomy)
    hierarchy: VerbHierarchyStore = _staged(
        meters, "resources", load_verb_hierarchy, cfg.verb_hierarchy, cfg.light_verbs
    )

    def _rules_stage():
        term_ids = rules.collect_vocabulary(index)
        tr = rules.build_argument_rules(taxonomy, term_ids, cfg.k, cfg.tau)
        pairs = rules.build_predicate_rules(
            hierarchy, index.predicate_freq, index.predicate_kind, cfg.min_pred_freq
        )
        return (
            tr, pairs, rules.term_probabilities(taxonomy, term_ids),
            rules.argument_rule_lookup(tr, term_ids),
        )

    tr, pairs, probs, rule_by_pair = _staged(meters, "rules", _rules_stage)

    pr = _staged(meters, "local", local.score_predicate_rules, index, pairs, cfg.lambda_, probs)

    def _global_stage():
        forest = gi.build_forest(pr)
        return forest, gi.run_global_stage(
            index, gi.forest_pairs(forest, cfg.general_roots), forest.scores, probs,
            rule_by_pair, cfg.tau_a, cfg.tau_e,
        )

    forest, result = _staged(meters, "global", _global_stage)

    def _seal_stage():
        graph = store.EntailmentGraph.from_parts(index.ids, index.frequency, result.edges)
        by_prov = {PROVENANCES[code]: k for code, k in Counter(graph.columns.prov).items()}
        report = {
            "config": config_report(cfg),
            "counts": {
                "eventualities": len(index.ids),
                "terms": len(index.terms),
                "predicates": len(index.predicate_freq),
                "predicates_by_kind": dict(Counter(index.predicate_kind.values())),
                "argument_rules": len(tr),
                "predicate_rules": len(pr),
                "trees": forest.n_trees,
                "dropped_forest_edges": len(forest.dropped_edges),
                "paths": gi.count_paths(forest, cfg.general_roots),
                "edges_total": len(graph.columns),
                "edges_by_provenance": dict(sorted(by_prov.items())),
                "candidate_checks": result.candidate_checks,
                "expansion_checks": result.expansion_checks,
            },
            "per_type": [
                dict(zip(store.STATS_COLUMNS, astuple(row))) for row in store.stats(graph)
            ],
        }
        return graph, report

    graph, report = _staged(meters, "seal", _seal_stage)
    return BuildResult(graph, tr, pr, forest, cfg.general_roots, report, *meters)


def write_outputs(result: BuildResult, output_dir: str | Path) -> None:
    """Write all artifacts into a temp directory, then move them in place."""
    output_dir = Path(output_dir)
    output_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".build-", dir=output_dir.parent))
    try:
        store.write_graph(result.graph, staging)
        rules.write_rules(result.argument_rules, staging / ARGUMENT_RULES_FILE)
        rules.write_rules(result.predicate_rules, staging / PREDICATE_RULES_FILE)
        with open(staging / PATHS_FILE, "w", encoding="utf-8") as fh:
            fh.writelines(gi.extract_paths(result.forest, result.general_roots))
        with open(staging / REPORT_FILE, "w", encoding="utf-8") as fh:
            json.dump(result.report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        output_dir.mkdir(parents=True, exist_ok=True)
        for name in OUTPUT_FILES:
            (staging / name).replace(output_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def run_build(cfg: PipelineConfig) -> BuildResult:
    """`build`, then `write_outputs` as the persist stage.  It calls
    `build` by its module name, which perfbench's trace wraps to time the
    in-memory build."""
    result = build(cfg)
    meters = (result.stage_seconds, result.stage_peak_mb)
    _staged(meters, "persist", write_outputs, result, cfg.output_dir)
    return result

