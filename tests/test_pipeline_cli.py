"""Configuration handling, staged builds, and the command-line surface."""

import gc
import json
import os
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evgraph import pipeline
from evgraph.cli import _effective_config, build_parser, main
from evgraph.config import (
    DEFAULT_GENERAL_ROOTS,
    INT_FIELDS,
    PATH_FIELDS,
    UNIT_FIELDS,
    ConfigError,
    PipelineConfig,
    config_keys,
    external_key,
    make_config,
    parse_config_file,
)
from evgraph.corpus import CorpusIndex
from evgraph.model import ScoredEdge
from evgraph.pipeline import OUTPUT_FILES, STAGES, StageError, build, run_build
from evgraph.store import read_graph, stats
from evgraph.synth import write_config_file, write_layered_inputs, write_toy_inputs
from randomtoy import write_random_toy


@pytest.fixture
def toy(tmp_path):
    files = write_toy_inputs(tmp_path / "inputs")
    out = tmp_path / "out"
    cfg = PipelineConfig(
        corpus=str(files["corpus"]),
        taxonomy=str(files["taxonomy"]),
        verb_hierarchy=str(files["verb_hierarchy"]),
        output_dir=str(out),
    )
    return files, cfg, out


# --- config --------------------------------------------------------------------


def test_parse_config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "# comment\n\ncorpus=c.tsv\ntau_e = 0.4\nlambda=0.6\n", encoding="utf-8"
    )
    raw = parse_config_file(path)
    assert raw == {"corpus": "c.tsv", "tau_e": "0.4", "lambda": "0.6"}


def test_every_config_field_has_one_kind():
    # make_config coerces a field by its kind; a field of no kind would
    # have no coercion at all.
    kinds = (set(INT_FIELDS), set(UNIT_FIELDS), set(PATH_FIELDS), {"general_roots"})
    names = {f.name for f in fields(PipelineConfig)}
    for name in names:
        assert sum(name in kind for kind in kinds) == 1, name
    assert set().union(*kinds) == names


def test_make_config_resolves_relative_paths(tmp_path):
    raw = {
        "corpus": "c.tsv",
        "taxonomy": "t.tsv",
        "verb_hierarchy": "h.tsv",
        "output_dir": "out",
    }
    cfg = make_config(raw, tmp_path)
    assert cfg.corpus == str((tmp_path / "c.tsv").resolve())


def test_make_config_types_and_defaults(tmp_path):
    raw = {
        "corpus": "c",
        "taxonomy": "t",
        "verb_hierarchy": "h",
        "output_dir": "o",
        "k": "7",
        "lambda": "0.25",
        "general_roots": "act, move ,change",
    }
    cfg = make_config(raw, tmp_path)
    assert cfg.k == 7 and cfg.lambda_ == 0.25
    assert cfg.general_roots == ("act", "move", "change")
    assert cfg.tau == 0.05 and cfg.tau_a == 0.3 and cfg.tau_e == 0.2
    assert cfg.min_pred_freq == 5 and cfg.workers == 1


@pytest.mark.parametrize(
    "override,match",
    [
        ({"tau": "1.5"}, "tau"),
        ({"tau_a": "-0.1"}, "tau_a"),
        ({"k": "-1"}, "k"),
        ({"min_pred_freq": "0"}, "min_pred_freq"),
        ({"workers": "0"}, "workers"),
        ({"k": "five"}, "integer"),
        ({"mystery": "1"}, "unknown config key"),
    ],
)
def test_make_config_validation(tmp_path, override, match):
    raw = {"corpus": "c", "taxonomy": "t", "verb_hierarchy": "h", "output_dir": "o"}
    raw.update(override)
    with pytest.raises(ConfigError, match=match):
        make_config(raw, tmp_path)


def test_make_config_missing_required(tmp_path):
    with pytest.raises(ConfigError, match="corpus"):
        make_config({"taxonomy": "t", "verb_hierarchy": "h", "output_dir": "o"}, tmp_path)


def test_config_keys_include_lambda_alias():
    keys = config_keys()
    assert "lambda" in keys and "lambda_" not in keys


def test_read_only_commands_need_only_output_dir(tmp_path):
    cfg = make_config({"output_dir": "out"}, tmp_path, require_inputs=False)
    assert cfg.output_dir == str((tmp_path / "out").resolve())
    with pytest.raises(ConfigError, match="corpus"):
        make_config({"output_dir": "out"}, tmp_path, require_inputs=True)


def test_cli_stats_with_output_dir_flag_only(tmp_path, capsys):
    cfg_file = _toy_config_file(tmp_path)
    assert main(["build", "--config", str(cfg_file)]) == 0
    capsys.readouterr()
    assert main(["stats", "--output_dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("type\t")


# --- pipeline ------------------------------------------------------------------


def test_build_toy_report_counts(toy):
    _, cfg, out = toy
    result = run_build(cfg)
    counts = result.report["counts"]
    assert counts["eventualities"] == 11
    assert counts["predicates"] == 4
    assert counts["terms"] == 6
    assert counts["argument_rules"] == 2
    assert counts["predicate_rules"] == 2
    assert counts["paths"] == 1
    assert counts["edges_total"] == 24
    assert counts["edges_by_provenance"] == {"global": 18, "local": 6}
    for name in OUTPUT_FILES:
        assert (out / name).exists()


def test_report_counts_match_persisted_files(toy):
    _, cfg, out = toy
    result = run_build(cfg)
    counts = result.report["counts"]
    edge_lines = (out / "edges.tsv").read_text(encoding="utf-8").splitlines()
    node_lines = (out / "nodes.tsv").read_text(encoding="utf-8").splitlines()
    tr_lines = (out / "argument_rules.tsv").read_text(encoding="utf-8").splitlines()
    path_lines = (out / "paths.tsv").read_text(encoding="utf-8").splitlines()
    assert len(edge_lines) == counts["edges_total"]
    assert len(node_lines) == counts["eventualities"]
    assert len(tr_lines) == counts["argument_rules"]
    assert len(path_lines) == counts["paths"]
    graph = read_graph(out)
    recomputed = [
        {
            "type": r.label,
            "n_eventualities": r.n_eventualities,
            "n_er_local": r.n_er_local,
            "n_er_global": r.n_er_global,
        }
        for r in stats(graph)
    ]
    assert recomputed == result.report["per_type"]


def test_empty_corpus_builds_empty_graph(tmp_path):
    (tmp_path / "c.tsv").write_text("", encoding="utf-8")
    (tmp_path / "t.tsv").write_text("", encoding="utf-8")
    (tmp_path / "h.tsv").write_text("", encoding="utf-8")
    cfg = PipelineConfig(
        corpus=str(tmp_path / "c.tsv"),
        taxonomy=str(tmp_path / "t.tsv"),
        verb_hierarchy=str(tmp_path / "h.tsv"),
        output_dir=str(tmp_path / "out"),
    )
    result = run_build(cfg)
    counts = result.report["counts"]
    assert counts["eventualities"] == 0
    assert counts["edges_total"] == 0
    assert counts["paths"] == 0
    assert read_graph(tmp_path / "out").edges == {}


def test_build_times_each_stage_outside_the_outputs(toy):
    _, cfg, out = toy
    result = run_build(cfg)
    assert list(result.stage_seconds) == [
        "ingest", "resources", "rules", "local", "global", "seal", "persist"
    ]
    assert all(seconds >= 0.0 for seconds in result.stage_seconds.values())
    assert replace(result, stage_seconds={}) == result
    assert "stage_seconds" not in (out / "report.json").read_text(encoding="utf-8")


def test_build_records_each_stage_peak_outside_the_outputs(toy, monkeypatch):
    _, cfg, out = toy
    result = run_build(cfg)
    peaks = result.stage_peak_mb
    assert list(peaks) == list(result.stage_seconds)
    if Path("/proc/self/status").exists():
        # A high-water mark never falls.
        assert all(mb > 0.0 for mb in peaks.values())
        assert list(peaks.values()) == sorted(peaks.values())
    else:
        assert set(peaks.values()) == {None}
    assert replace(result, stage_peak_mb={}) == result
    assert "stage_peak" not in (out / "report.json").read_text(encoding="utf-8")

    def no_proc(*args, **kwargs):
        raise FileNotFoundError(args[0])

    monkeypatch.setattr(pipeline, "open", no_proc, raising=False)
    assert pipeline.peak_rss_mb() is None


def test_every_timed_stage_is_declared(toy):
    # STAGES names every tag a StageError can carry, in build order.
    _, cfg, _ = toy
    timed = list(run_build(cfg).stage_seconds)
    assert set(timed) <= set(STAGES)
    assert timed == sorted(timed, key=STAGES.index)


@pytest.mark.parametrize("enabled", [True, False])
def test_build_pauses_and_restores_the_collector(toy, tmp_path, monkeypatch, enabled):
    _, cfg, _ = toy
    broken = replace(cfg, corpus=str(tmp_path / "nope.tsv"))
    seen = []
    score = pipeline.local.score_predicate_rules

    def score_and_see(*args, **kwargs):
        seen.append(gc.isenabled())
        return score(*args, **kwargs)

    monkeypatch.setattr(pipeline.local, "score_predicate_rules", score_and_see)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        run_build(cfg)
        assert gc.isenabled() is enabled
        build(cfg)
        assert gc.isenabled() is enabled
        with pytest.raises(StageError):
            run_build(broken)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert seen == [False, False]


@pytest.mark.parametrize("enabled", [True, False])
def test_persist_leaves_the_collector_as_the_caller_left_it(toy, monkeypatch, enabled):
    _, cfg, _ = toy
    seen = []
    write = pipeline.store.write_graph

    def write_and_see(*args, **kwargs):
        seen.append(gc.isenabled())
        return write(*args, **kwargs)

    # write_outputs, the persist stage, writes the graph first.
    monkeypatch.setattr(pipeline.store, "write_graph", write_and_see)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        run_build(cfg)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert seen == [enabled]


def test_build_pins_the_mmap_threshold_first(toy, monkeypatch):
    _, cfg, _ = toy
    seen = []
    monkeypatch.setattr(pipeline, "pin_mmap_threshold", lambda: seen.append("pin"))
    ingest = pipeline.CorpusIndex.from_file
    monkeypatch.setattr(
        pipeline.CorpusIndex, "from_file", lambda *a: seen.append("ingest") or ingest(*a)
    )
    build(cfg)
    assert seen == ["pin", "ingest"]


def test_pin_mmap_threshold_takes_on_glibc():
    try:
        glibc = bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        glibc = False
    assert pipeline.pin_mmap_threshold() is glibc


def test_seal_failure_is_stage_tagged(tmp_path, capsys, monkeypatch):
    # The stage's first edge given again: next to itself it is a repeat,
    # after the last edge it is out of key order.
    stage = pipeline.gi.run_global_stage
    named = []

    def stage_with_a_copy_at(at):
        def run(index, *args, **kwargs):
            result = stage(index, *args, **kwargs)
            edges = result.edges
            named.append(f"{index.ids[edges.src[0]]} -> {index.ids[edges.dst[0]]}")
            for column in edges.columns():
                column.insert(len(column) if at is None else at, column[0])
            return result

        return run

    cfg_file = _toy_config_file(tmp_path)
    for at, fault in ((1, "duplicate edge {}"), (None, "edge {} out of key order")):
        monkeypatch.setattr(pipeline.gi, "run_global_stage", stage_with_a_copy_at(at))
        assert main(["build", "--config", str(cfg_file)]) == 1
        assert capsys.readouterr().err == f"error[seal]: {fault.format(named[-1])}\n"
        assert not (tmp_path / "out").exists()


def test_missing_corpus_is_stage_tagged(toy, tmp_path):
    files, cfg, out = toy
    broken = PipelineConfig(
        corpus=str(tmp_path / "nope.tsv"),
        taxonomy=cfg.taxonomy,
        verb_hierarchy=cfg.verb_hierarchy,
        output_dir=cfg.output_dir,
    )
    with pytest.raises(StageError) as err:
        run_build(broken)
    assert err.value.stage == "ingest"
    assert not out.exists()  # no partial outputs


def test_malformed_taxonomy_is_stage_tagged(toy, tmp_path):
    files, cfg, out = toy
    bad = tmp_path / "bad.tsv"
    bad.write_text("fruit\tapple\t0\n", encoding="utf-8")
    broken = PipelineConfig(
        corpus=cfg.corpus,
        taxonomy=str(bad),
        verb_hierarchy=cfg.verb_hierarchy,
        output_dir=cfg.output_dir,
    )
    with pytest.raises(StageError) as err:
        run_build(broken)
    assert err.value.stage == "resources"
    assert not out.exists()


def test_failed_build_leaves_no_partial_outputs(toy, tmp_path):
    files, cfg, out = toy
    run_build(cfg)
    first = {name: (out / name).read_bytes() for name in OUTPUT_FILES}
    broken = PipelineConfig(
        corpus=str(tmp_path / "gone.tsv"),
        taxonomy=cfg.taxonomy,
        verb_hierarchy=cfg.verb_hierarchy,
        output_dir=cfg.output_dir,
    )
    with pytest.raises(StageError):
        run_build(broken)
    # previous outputs untouched
    assert {name: (out / name).read_bytes() for name in OUTPUT_FILES} == first


def test_build_is_pure_of_worker_count(toy):
    _, cfg, _ = toy
    one = build(cfg)
    two = build(
        PipelineConfig(**{**cfg.__dict__, "workers": 2})
    )
    assert one.graph == two.graph
    assert one.forest == two.forest


def test_states_patterns_build_end_to_end(tmp_path):
    corpus = tmp_path / "c.tsv"
    corpus.write_text(
        "s-v-a\tn1=it;v1=smell;a1=nice\t4\n"
        "s-be-a\tn1=it;a1=nice\t4\n"
        "s-be-a-p-o\tn1=he;a1=mad;p1=at;n2=dog\t4\n"
        "s-be-a\tn1=he;a1=angry\t4\n"
        "s-be-a-p-o\tn1=he;a1=angry;p1=at;n2=dog\t4\n",
        encoding="utf-8",
    )
    (tmp_path / "t.tsv").write_text("", encoding="utf-8")
    (tmp_path / "h.tsv").write_text(
        "smell\tbe-nice\tentail\nbe-mad\tbe-angry\tentail\n", encoding="utf-8"
    )
    cfg = PipelineConfig(
        corpus=str(corpus),
        taxonomy=str(tmp_path / "t.tsv"),
        verb_hierarchy=str(tmp_path / "h.tsv"),
        output_dir=str(tmp_path / "out"),
        min_pred_freq=1,
    )
    graph = run_build(cfg).graph
    # linking verb entails the be-compound along the (smell, be-nice) path
    e = graph.edges.get(("s-v-a:it|smell|nice", "s-be-a:it|nice"))
    assert e is not None and e.provenance == "global"
    assert e.type_label == "s-v-a ⊨ s-be-a"
    # prep-object variant expands into the chain node with the p-o term dropped
    e = graph.edges.get(("s-be-a-p-o:he|angry|at|dog", "s-be-a:he|angry"))
    assert e is not None and e.provenance == "local"
    assert e.type_label == "s-be-a-p-o ⊨ s-be-a"
    by_label = {r.label: r for r in stats(graph)}
    assert by_label["s-v-a ⊨ s-be-a"].n_er_global == 1
    assert by_label["s-be-a-p-o ⊨ s-be-a"].n_er_local == 1
    assert by_label["s-be-a-p-o ⊨ s-be-a-p-o"].n_er_global == 1


# --- CLI -----------------------------------------------------------------------


def _toy_config_file(tmp_path, **overrides):
    files = write_toy_inputs(tmp_path / "inputs")
    settings = {
        "corpus": files["corpus"],
        "taxonomy": files["taxonomy"],
        "verb_hierarchy": files["verb_hierarchy"],
        "output_dir": tmp_path / "out",
    }
    settings.update(overrides)
    return write_config_file(tmp_path / "config.txt", settings)


def test_cli_build_stats_sample_query(tmp_path, capsys):
    cfg_file = _toy_config_file(tmp_path)
    assert main(["build", "--config", str(cfg_file)]) == 0
    out = capsys.readouterr().out
    assert "built 24 edges" in out

    assert main(["stats", "--config", str(cfg_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("type\t")
    assert "s-v-o ⊨ s-v-o\t9\t6\t24" in out

    sample_path = tmp_path / "sample.tsv"
    assert main(["sample", "--config", str(cfg_file), "--n", "3", "--out", str(sample_path)]) == 0
    lines = sample_path.read_text(encoding="utf-8").splitlines()
    assert len([line for line in lines if not line.startswith("#")]) == 3

    assert main(["query", "--config", str(cfg_file), "boy crunch food", "boy eat food"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "chain"


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg_file = _toy_config_file(tmp_path)
    assert main(["build", "--config", str(cfg_file), "--tau_e", "1.0", "--tau_a", "1.0"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["config"]["tau_e"] == 1.0
    # strict thresholds keep only identical-argument pairs: 6 per consecutive
    # predicate pair (3 objects x 2 pairs... all argument sets shared), no locals
    assert report["counts"]["edges_by_provenance"].get("local", 0) == 0


@pytest.mark.parametrize(
    "field, value", [(f, "7") for f in INT_FIELDS] + [(f, "0.75") for f in UNIT_FIELDS]
)
def test_cli_flag_and_config_line_give_the_same_config(tmp_path, field, value):
    key = external_key(field)
    base = _toy_config_file(tmp_path)
    with_line = tmp_path / "with_line.txt"
    with_line.write_text(f"{base.read_text(encoding='utf-8')}{key}={value}\n", encoding="utf-8")

    def effective(*argv):
        return _effective_config(build_parser().parse_args(["build", *argv]))

    from_flag = effective("--config", str(base), f"--{key}", value)
    assert getattr(from_flag, field) != getattr(PipelineConfig(output_dir="o"), field)
    assert from_flag == effective("--config", str(with_line))


def test_cli_stage_tagged_error_and_exit_code(tmp_path, capsys):
    cfg_file = _toy_config_file(tmp_path, corpus=tmp_path / "missing.tsv")
    assert main(["build", "--config", str(cfg_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[ingest]:")


def test_cli_query_unknown_eventuality(tmp_path, capsys):
    cfg_file = _toy_config_file(tmp_path)
    main(["build", "--config", str(cfg_file)])
    capsys.readouterr()
    assert main(["query", "--config", str(cfg_file), "boy crunch food", "martian food"]) == 1
    assert "error[query]" in capsys.readouterr().err


def test_cli_stats_without_build(tmp_path, capsys):
    cfg_file = _toy_config_file(tmp_path)
    assert main(["stats", "--config", str(cfg_file)]) == 1
    assert "error[graph]" in capsys.readouterr().err


def test_cli_graph_file_that_is_a_directory_is_a_graph_error(tmp_path, capsys):
    cfg_file = _toy_config_file(tmp_path)
    assert main(["build", "--config", str(cfg_file)]) == 0
    nodes = tmp_path / "out" / "nodes.tsv"
    nodes.unlink()
    nodes.mkdir()
    capsys.readouterr()
    assert main(["stats", "--config", str(cfg_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error[graph]: [Errno 21] Is a directory: ")
    assert captured.out == ""


def test_cli_sample_out_not_written_is_a_sample_error(tmp_path, capsys):
    cfg_file = _toy_config_file(tmp_path)
    assert main(["build", "--config", str(cfg_file)]) == 0
    capsys.readouterr()
    out_path = tmp_path / "missing" / "sample.tsv"
    assert main(["sample", "--config", str(cfg_file), "--n", "1", "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error[sample]: [Errno 2] No such file or directory: ")
    assert captured.out == ""


@pytest.mark.parametrize("name", ["nodes.tsv", "edges.tsv"])
@pytest.mark.parametrize(
    "command", [["stats"], ["sample", "--n", "1"], ["query", "boy crunch food", "boy eat food"]]
)
def test_cli_graph_file_not_utf8(tmp_path, capsys, name, command):
    cfg_file = _toy_config_file(tmp_path)
    assert main(["build", "--config", str(cfg_file)]) == 0
    path = tmp_path / "out" / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b"\t", b"\t\xff", 1)
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main([command[0], "--config", str(cfg_file), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error[graph]: {name} line 3: not UTF-8: ")
    assert captured.out == ""


def test_cli_corpus_not_utf8_names_its_line(tmp_path, capsys):
    cfg_file = _toy_config_file(tmp_path)
    path = tmp_path / "inputs" / "corpus.tsv"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b"\t", b"\t\xff", 1)
    path.write_bytes(b"".join(lines))
    assert main(["build", "--config", str(cfg_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error[ingest]: line 2: not UTF-8: ")
    assert not (tmp_path / "out").exists()


def test_cli_sample_rejects_negative_n(tmp_path, capsys):
    cfg_file = _toy_config_file(tmp_path)
    assert main(["build", "--config", str(cfg_file)]) == 0
    capsys.readouterr()
    out_path = tmp_path / "sample.tsv"
    assert main(["sample", "--config", str(cfg_file), "--n", "-1", "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error[sample]: --n must be >= 0, got -1\n"
    assert captured.out == ""
    assert not out_path.exists()


def test_cli_bad_config_value(tmp_path, capsys):
    cfg_file = _toy_config_file(tmp_path, tau="2.0")
    assert main(["build", "--config", str(cfg_file)]) == 1
    assert "error[config]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("k", "1.5", "k must be an integer, got '1.5'"),
        ("tau_e", "abc", "tau_e must be a number, got 'abc'"),
    ],
)
def test_cli_bad_flag_value_reports_as_the_config_line(tmp_path, capsys, key, value, message):
    # A flag's value is typed by make_config, as the same config line is.
    assert main(["build", "--config", str(_toy_config_file(tmp_path)), f"--{key}", value]) == 1
    assert capsys.readouterr().err == f"error[config]: {message}\n"
    assert main(["build", "--config", str(_toy_config_file(tmp_path, **{key: value}))]) == 1
    assert capsys.readouterr().err == f"error[config]: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_corpus_summing_past_the_limit_names_its_line(tmp_path, capsys):
    corpus = tmp_path / "big.tsv"
    corpus.write_text(f"s-v\tn1=dog;v1=bark\t9\ns-v\tn1=dog;v1=run\t{2**63 - 9}\n", encoding="utf-8")
    assert main(["build", "--config", str(_toy_config_file(tmp_path, corpus=corpus))]) == 1
    err = capsys.readouterr().err
    assert err == "error[ingest]: line 2: the corpus frequencies sum past 2**63 - 1\n"
    assert not (tmp_path / "out").exists()


def test_cli_config_not_utf8_names_its_line(tmp_path, capsys):
    cfg_file = _toy_config_file(tmp_path)
    lines = cfg_file.read_bytes().splitlines(keepends=True)
    lines[1] = b"\xff" + lines[1]
    cfg_file.write_bytes(b"".join(lines))
    assert main(["build", "--config", str(cfg_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error[config]: line 2: not UTF-8: invalid start byte at byte 0\n"
    assert not (tmp_path / "out").exists()


def test_cli_lambda_flag(tmp_path):
    cfg_file = _toy_config_file(tmp_path)
    assert main(["build", "--config", str(cfg_file), "--lambda", "0.9"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["config"]["lambda"] == 0.9


# --- input-order independence ------------------------------------------------


@st.composite
def rewritten_corpus(draw, lines):
    """The same records with each line's roles reordered, a record split
    into up to three lines of the same summed frequency, and every line
    moved."""
    out = []
    for line in lines:
        pattern, roles, freq = line.split("\t")
        freq = int(freq)
        cuts = sorted(draw(st.sets(st.integers(1, freq - 1), max_size=2))) if freq > 1 else []
        for lo, hi in zip([0, *cuts], [*cuts, freq]):
            chunks = draw(st.permutations(roles.split(";")))
            out.append(f"{pattern}\t{';'.join(chunks)}\t{hi - lo}")
    return draw(st.permutations(out))


def _build_outputs(files, corpus, out):
    """The five TSVs' and the column file's bytes, and the report, less
    its echoed paths."""
    run_build(
        PipelineConfig(
            corpus=str(corpus),
            taxonomy=str(files["taxonomy"]),
            verb_hierarchy=str(files["verb_hierarchy"]),
            output_dir=str(out),
            min_pred_freq=1,
            tau=0.01,
        )
    )
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    del report["config"]["corpus"], report["config"]["output_dir"]
    tsvs = {name: (out / name).read_bytes() for name in OUTPUT_FILES if name != "report.json"}
    return tsvs, report


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_build_ignores_line_order_and_record_splitting(seed, data):
    with tempfile.TemporaryDirectory() as tmp:
        files = write_random_toy(Path(tmp) / "inputs", seed)
        lines = files["corpus"].read_text(encoding="utf-8").splitlines()
        variant = Path(tmp) / "variant.tsv"
        rewritten = data.draw(rewritten_corpus(lines))
        variant.write_text("".join(line + "\n" for line in rewritten), encoding="utf-8")
        reference = _build_outputs(files, files["corpus"], Path(tmp) / "ref")
        assert len(reference[0]) == 6
        assert _build_outputs(files, variant, Path(tmp) / "var") == reference


def _crlf_copy(src: Path, dst: Path) -> Path:
    dst.write_bytes(src.read_bytes().replace(b"\n", b"\r\n"))
    return dst


def test_build_from_crlf_inputs_matches_lf(tmp_path):
    """CRLF copies of all five inputs (corpus, taxonomy, hierarchy, light
    verbs, config) build the same outputs as the LF originals."""
    lf = tmp_path / "lf"
    files = write_toy_inputs(lf)
    (lf / "light.txt").write_text("make\ncrunch\n", encoding="utf-8")
    settings = {
        "corpus": files["corpus"].name,
        "taxonomy": files["taxonomy"].name,
        "verb_hierarchy": files["verb_hierarchy"].name,
        "light_verbs": "light.txt",
        "output_dir": "out",
    }
    write_config_file(lf / "config.txt", settings)
    crlf = tmp_path / "crlf"
    crlf.mkdir()
    for name in (*settings.values(), "config.txt"):
        if name != "out":
            assert b"\r" not in (lf / name).read_bytes()
            _crlf_copy(lf / name, crlf / name)

    outputs = []
    for directory in (lf, crlf):
        assert main(["build", "--config", str(directory / "config.txt")]) == 0
        out = directory / "out"
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        for name in PATH_FIELDS:
            assert report["config"].pop(external_key(name)).startswith(str(directory.resolve()))
        tsvs = {name: (out / name).read_bytes() for name in OUTPUT_FILES if name != "report.json"}
        outputs.append((tsvs, report))
    assert outputs[0] == outputs[1]
    # The light-verb file was read: crunch, now a light verb, has no rule.
    rules = outputs[0][0]["predicate_rules.tsv"]
    assert b"chew" in rules and b"crunch" not in rules


def test_cli_config_with_byte_order_mark_builds(tmp_path, capsys):
    cfg_file = _toy_config_file(tmp_path)
    plain = tmp_path / "plain.txt"
    plain.write_bytes(cfg_file.read_bytes())
    cfg_file.write_bytes(b"\xef\xbb\xbf" + cfg_file.read_bytes())
    assert main(["build", "--config", str(cfg_file)]) == 0
    assert capsys.readouterr().err == ""
    args = build_parser().parse_args(["build", "--config", str(cfg_file)])
    again = build_parser().parse_args(["build", "--config", str(plain)])
    assert _effective_config(args) == _effective_config(again)


def test_general_roots_are_normalized(tmp_path, capsys):
    raw = {"corpus": "c", "taxonomy": "t", "verb_hierarchy": "h", "output_dir": "o"}
    cfg = make_config({**raw, "general_roots": " Eat ,MOVE,,  act  now "}, tmp_path)
    assert cfg.general_roots == ("eat", "move", "act now")
    # On the demo, a capitalized root cuts the chain as the lower-case one does.
    built = []
    for root in ("eat", "Eat"):
        cfg_file = _toy_config_file(tmp_path / root, general_roots=root)
        assert main(["build", "--config", str(cfg_file)]) == 0
        built.append(capsys.readouterr().out.split(" edges ")[0])
    assert built == ["built 13", "built 13"]


@pytest.mark.parametrize("value", ["", ",", " , "])
def test_empty_general_roots_in_a_config_file_list_none(tmp_path, capsys, value):
    raw = {"corpus": "c", "taxonomy": "t", "verb_hierarchy": "h", "output_dir": "o"}
    assert make_config({**raw, "general_roots": value}, tmp_path).general_roots == ()
    assert make_config(raw, tmp_path).general_roots == DEFAULT_GENERAL_ROOTS
    cfg_file = _toy_config_file(tmp_path, general_roots=value)
    assert "general_roots=" in cfg_file.read_text(encoding="utf-8")
    assert main(["build", "--config", str(cfg_file)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["config"]["general_roots"] == []


def test_empty_general_roots_flag_lists_none(tmp_path, capsys):
    # The file's root cuts the demo chain; an empty flag puts it back.
    cfg_file = _toy_config_file(tmp_path, general_roots="eat")
    paths = tmp_path / "out" / "paths.tsv"
    assert main(["build", "--config", str(cfg_file)]) == 0
    assert paths.read_text(encoding="utf-8") == "crunch\tchew\n"
    assert main(["build", "--config", str(cfg_file), "--general_roots", ""]) == 0
    capsys.readouterr()
    assert paths.read_text(encoding="utf-8") == "crunch\tchew\teat\n"
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["config"]["general_roots"] == []
    assert report["counts"]["paths"] == 1


def test_cli_tau_of_one_is_a_config_error(tmp_path, capsys):
    cfg_file = _toy_config_file(tmp_path)
    assert main(["build", "--config", str(cfg_file), "--tau", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error[config]: tau must be in [0,1), got 1.0\n"
    assert not (tmp_path / "out").exists()
    # Just below the bound builds.
    assert main(["build", "--config", str(cfg_file), "--tau", "0.999"]) == 0


@pytest.mark.parametrize(
    "column,edit,message",
    [
        ("arg", lambda edges, v: 1.5, "arg_score out of [0,1]: 1.5"),
        ("pen", lambda edges, v: -0.25, "penalty out of [0,1]: -0.25"),
        ("local", lambda edges, v: float("nan"), "local_score out of [0,1]: nan"),
        ("local", lambda edges, v: v * 0.5, "local_score does not satisfy the geometric-mean"),
        ("dst", lambda edges, v: edges.src[0], "self-entailment edge rejected: s-v-o:"),
    ],
)
def test_seal_checks_every_built_edge(toy, monkeypatch, column, edit, message):
    # A fault injected into one accepted edge fails the seal with the
    # message the ScoredEdge constructor gives for that edge.
    files, cfg, out = toy
    stage = pipeline.gi.run_global_stage
    faulty = []

    def stage_with_a_fault(*args, **kwargs):
        result = stage(*args, **kwargs)
        edges = result.edges
        getattr(edges, column)[0] = edit(edges, getattr(edges, column)[0])
        faulty.append(edges)
        return result

    monkeypatch.setattr(pipeline.gi, "run_global_stage", stage_with_a_fault)
    with pytest.raises(StageError) as err:
        build(cfg)
    assert err.value.stage == "seal"
    assert str(err.value).startswith(message)
    [edges] = faulty
    with pytest.raises(ValueError) as direct:
        ScoredEdge(*edges.edge(0, CorpusIndex.from_file(cfg.corpus).ids))
    assert str(err.value) == str(direct.value)


def test_build_memory_per_eventuality_is_bounded(tmp_path):
    # Traced peak of a small build, per eventuality: about 0.4 kB when no
    # stage holds a second copy of a column, 0.6 kB when the seal and
    # ingest did, 1.7 kB with one object per row and per edge.
    files = write_layered_inputs(tmp_path / "in", n_paths=20, path_len=3, per_predicate=30)
    cfg = PipelineConfig(
        corpus=str(files["corpus"]),
        taxonomy=str(files["taxonomy"]),
        verb_hierarchy=str(files["verb_hierarchy"]),
        output_dir=str(tmp_path / "out"),
        min_pred_freq=1,
    )
    tracemalloc.start()
    try:
        result = build(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = result.report["counts"]["eventualities"]
    assert n == 1800 and result.report["counts"]["edges_total"] == 3500
    assert peak / n < 460
