"""Acceptance suite.  Each test is one exit criterion; the terminal
summary (conftest) prints one PASS/FAIL line per criterion."""

import json
import math
import os
import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

from chains import iter_chains
from columns import graph_from, type_label
from evgraph.cli import main as cli_main
from evgraph.config import PipelineConfig
from evgraph.corpus import CorpusIndex
from evgraph.local import argument_score, binc, compose_edge
from evgraph.model import Eventuality, ScoredEdge, decompose_surfaces
from evgraph.pipeline import OUTPUT_FILES, build, run_build
from evgraph.resources import load_taxonomy
from evgraph.store import (
    query_entails,
    read_graph,
    stats,
    write_graph,
)
from evgraph.synth import write_config_file, write_layered_inputs, write_toy_inputs
from randomtoy import write_random_toy

REPO_ROOT = Path(__file__).resolve().parent.parent


# --- criterion 1: noisy-OR vs Bernoulli enumeration ---------------------------


def _bernoulli_or(probs):
    total = 0.0
    for outcome in product((0, 1), repeat=len(probs)):
        if not any(outcome):
            continue
        weight = 1.0
        for hit, p in zip(outcome, probs):
            weight *= p if hit else 1.0 - p
        total += weight
    return total


def test_criterion_01_noisy_or_matches_bernoulli_oracle(tmp_path):
    rng = random.Random(20_240)
    lines = []
    cases = []
    for k in range(1000):
        size = rng.randint(1, 3)
        args_from = []
        args_to = []
        probs = []
        for slot in range(size):
            mode = rng.randrange(3)
            if mode == 0:  # identical terms, probability 1
                term = f"same{k}x{slot}"
                args_from.append(term)
                args_to.append(term)
                probs.append(1.0)
            elif mode == 1:  # unrelated terms, probability 0
                args_from.append(f"a{k}x{slot}")
                args_to.append(f"b{k}x{slot}")
                probs.append(0.0)
            else:  # taxonomy-backed rational probability
                hits = rng.randint(1, 99)
                misses = rng.randint(1, 99)
                inst, conc = f"i{k}x{slot}", f"c{k}x{slot}"
                lines.append(f"{conc}\t{inst}\t{hits}")
                lines.append(f"zfiller\t{inst}\t{misses}")
                args_from.append(inst)
                args_to.append(conc)
                probs.append(hits / (hits + misses))
        slots = tuple((slot, slot) for slot in range(size))
        cases.append((tuple(args_from), tuple(args_to), slots, probs))

    tax_path = tmp_path / "t.tsv"
    tax_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    store = load_taxonomy(tax_path)

    started = time.perf_counter()
    for args_from, args_to, slots, probs in cases:
        identical, score = argument_score(args_from, args_to, slots, store)
        assert identical == (args_from == args_to)
        assert abs(score - _bernoulli_or(probs)) <= 1e-12
    assert time.perf_counter() - started < 1.0


# --- criterion 2: geometric-mean identity and monotonicity --------------------


def _composed(p, f, a):
    """compose_edge's score with c_to = 1, so its penalty is exactly f."""
    pen, score = compose_edge(p, f, 1.0, a)
    edge = ScoredEdge("s-v:a|p", "s-v:b|q", a, p, pen, score, "global", "s-v ⊨ s-v")
    assert (edge.pred_score, edge.penalty, edge.arg_score) == (p, f, a)
    return edge.local_score


def test_criterion_02_composed_score_identity_and_monotonicity():
    rng = random.Random(20_241)
    for _ in range(1000):
        p, f, a = rng.random(), rng.random(), rng.random()
        score = _composed(p, f, a)
        assert abs(score * score - p * f * a) <= 1e-12
        bump = rng.random() * (1.0 - p)
        assert _composed(p + bump, f, a) >= score
        bump = rng.random() * (1.0 - f)
        assert _composed(p, f + bump, a) >= score
        bump = rng.random() * (1.0 - a)
        assert _composed(p, f, a + bump) >= score


# --- criterion 3: BInc suite ---------------------------------------------------


def test_criterion_03_binc_suite():
    u = {"f1": 1.0, "f2": 1.0}
    v = {"f1": 1.0}
    w = {"x": 0.25, "y": 2.5}
    assert binc(w, w) == pytest.approx(1.0, abs=1e-12)
    assert binc(u, {"zzz": 1.0}) == 0.0
    assert binc(u, v) == pytest.approx(math.sqrt(1 / 3), abs=1e-9)
    assert binc(u, v) != binc(v, u)  # asymmetry witnessed


# --- criterion 4: the seven decomposition rows --------------------------------


def test_criterion_04_decomposition_rows():
    rows = [
        ("s-v", {"n1": "dog", "v1": "bark"}, "bark", "verb", ("dog",)),
        ("s-v-o", {"n1": "boy", "v1": "eat", "n2": "apple"}, "eat", "verb", ("boy", "apple")),
        (
            "s-v-p-o",
            {"n1": "he", "v1": "take", "p1": "over", "n2": "company"},
            "take-over",
            "verb-prep",
            ("he", "company"),
        ),
        (
            "s-v-o-p-o",
            {"n1": "he", "v1": "post", "n2": "it", "p1": "on", "n3": "youtube"},
            "post",
            "verb",
            ("he", "it", "on-youtube"),
        ),
        ("s-v-a", {"n1": "it", "v1": "smell", "a1": "nice"}, "smell", "verb", ("it", "nice")),
        ("s-be-a", {"n1": "sun", "a1": "red"}, "be-red", "be-adj", ("sun",)),
        (
            "s-be-a-p-o",
            {"n1": "he", "a1": "mad", "p1": "at", "n2": "dog"},
            "be-mad",
            "be-adj",
            ("he", "at-dog"),
        ),
    ]
    for pattern, roles, predicate, kind, args in rows:
        e = Eventuality.create(pattern, roles, 1)
        assert decompose_surfaces(e.pattern, e.tokens) == (predicate, kind, args), pattern


# --- criterion 5: demo corpus end to end ---------------------------------------


def test_criterion_05_demo_corpus_end_to_end(tmp_path):
    files = write_toy_inputs(tmp_path / "inputs")
    out = tmp_path / "out"
    cfg_file = write_config_file(
        tmp_path / "config.txt",
        {
            "corpus": files["corpus"],
            "taxonomy": files["taxonomy"],
            "verb_hierarchy": files["verb_hierarchy"],
            "output_dir": out,
        },
    )
    started = time.perf_counter()
    assert cli_main(["build", "--config", str(cfg_file)]) == 0
    assert time.perf_counter() - started < 5.0

    graph = read_graph(out)
    ids = {n.text: n.id for n in graph.nodes.values()}

    chain_edges = [
        (ids["boy crunch food"], ids["boy chew food"]),
        (ids["boy chew food"], ids["boy eat food"]),
    ]
    for key in chain_edges:
        assert key in graph.edges and graph.edges[key].provenance == "global"
    global_keys = tuple(k for k in sorted(graph.edges) if graph.edges[k].provenance == "global")
    chain = (ids["boy crunch food"], ids["boy chew food"], ids["boy eat food"])
    assert chain in set(iter_chains(global_keys))
    assert query_entails(graph, "boy crunch food", "boy eat food").kind == "chain"

    for premise, hypothesis in [
        ("boy crunch nut", "boy crunch food"),
        ("boy chew apple", "boy chew food"),
    ]:
        edge = graph.edges.get((ids[premise], ids[hypothesis]))
        assert edge is not None and edge.provenance == "local"


# --- criterion 6: exhaustive oracle over random toys ---------------------------

# Independent alignment tables (redeclared here on purpose).
_ORACLE_ROLES = {
    "s-v": ("n1", "v1"),
    "s-v-o": ("n1", "v1", "n2"),
    "s-v-p-o": ("n1", "v1", "p1", "n2"),
    "s-v-o-p-o": ("n1", "v1", "n2", "p1", "n3"),
    "s-v-a": ("n1", "v1", "a1"),
    "s-be-a": ("n1", "a1"),
    "s-be-a-p-o": ("n1", "a1", "p1", "n2"),
}
_ORACLE_SLOTS = {
    "s-v": ("subj",),
    "s-v-o": ("subj", "obj"),
    "s-v-p-o": ("subj", "obj"),
    "s-v-o-p-o": ("subj", "obj", "po"),
    "s-v-a": ("subj", "adj"),
    "s-be-a": ("subj",),
    "s-be-a-p-o": ("subj", "po"),
}
_ORACLE_TYPES = {
    ("s-v", "s-v"),
    ("s-v-o", "s-v-o"),
    ("s-v-p-o", "s-v-p-o"),
    ("s-v-o-p-o", "s-v-o"),
    ("s-v-p-o", "s-v-o"),
    ("s-v-o", "s-v-p-o"),
    ("s-v-o-p-o", "s-v-o-p-o"),
    ("s-v-a", "s-be-a"),
    ("s-be-a-p-o", "s-be-a"),
    ("s-be-a-p-o", "s-be-a-p-o"),
}


def _oracle_decompose(pattern, tokens):
    roles = dict(zip(_ORACLE_ROLES[pattern], tokens))
    if pattern in ("s-v", "s-v-o", "s-v-o-p-o", "s-v-a"):
        pred = roles["v1"]
    elif pattern == "s-v-p-o":
        pred = f"{roles['v1']}-{roles['p1']}"
    else:
        pred = f"be-{roles['a1']}"
    args = [roles["n1"]]
    if pattern in ("s-v-o", "s-v-p-o", "s-v-o-p-o"):
        args.append(roles["n2"])
    if pattern == "s-v-o-p-o":
        args.append(f"{roles['p1']}-{roles['n3']}")
    if pattern == "s-v-a":
        args.append(roles["a1"])
    if pattern == "s-be-a-p-o":
        args.append(f"{roles['p1']}-{roles['n2']}")
    return pred, tuple(args)


def _read_merged_corpus(path):
    merged = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        pattern, role_field, freq = raw.split("\t")
        tokens = tuple(chunk.split("=", 1)[1] for chunk in role_field.split(";"))
        key = (pattern, tokens)
        merged[key] = merged.get(key, 0) + int(freq)
    return merged


def _oracle_global_edges(files, result, out_dir, tau_a, tau_e):
    merged = _read_merged_corpus(files["corpus"])
    probs = {}
    totals = {}
    for raw in Path(files["taxonomy"]).read_text(encoding="utf-8").splitlines():
        concept, instance, freq = raw.split("\t")
        probs.setdefault(instance, {})
        probs[instance][concept] = probs[instance].get(concept, 0) + int(freq)
        totals[instance] = totals.get(instance, 0) + int(freq)
    for instance in probs:
        probs[instance] = {c: f / totals[instance] for c, f in probs[instance].items()}

    evs = []
    pred_freq = {}
    for (pattern, tokens), freq in merged.items():
        pred, args = _oracle_decompose(pattern, tokens)
        ev_id = f"{pattern}:{'|'.join(tokens)}"
        evs.append((ev_id, pattern, pred, args, freq))
        pred_freq[pred] = pred_freq.get(pred, 0) + freq

    def term_prob(a, b):
        if a == b:
            return 1.0
        return probs.get(a, {}).get(b, 0.0)

    rule_scores = {(r.from_pred, r.to_pred): r.score for r in result.predicate_rules}
    expected = set()
    for line in (out_dir / "paths.tsv").read_text(encoding="utf-8").splitlines():
        path = line.split("\t")
        for p_l, p_r in zip(path, path[1:]):
            lefts = [e for e in evs if e[2] == p_l]
            rights = [e for e in evs if e[2] == p_r]
            for lid, pat_l, _, args_l, freq_l in lefts:
                for rid, pat_r, _, args_r, freq_r in rights:
                    if (pat_l, pat_r) not in _ORACLE_TYPES:
                        continue
                    kinds_r = _ORACLE_SLOTS[pat_r]
                    kinds_l = _ORACLE_SLOTS[pat_l]
                    pairs = [
                        (args_l[kinds_l.index(kind)], args_r[j])
                        for j, kind in enumerate(kinds_r)
                    ]
                    identical = all(a == b for a, b in pairs)
                    miss = 1.0
                    for a, b in pairs:
                        miss *= 1.0 - term_prob(a, b)
                    l_a = 1.0 - miss
                    cond_l = freq_l / pred_freq[p_l]
                    cond_r = freq_r / pred_freq[p_r]
                    pen = min(1.0, cond_l / cond_r)
                    l_e = math.sqrt(rule_scores[(p_l, p_r)] * pen * l_a)
                    if identical or (l_a > tau_a and l_e > tau_e):
                        expected.add((lid, rid))
    return expected


def test_criterion_06_global_edges_equal_exhaustive_oracle(tmp_path):
    verb_patterns = ("s-v", "s-v-o", "s-v-o-p-o", "s-v-a")
    nonempty = 0
    for case in range(20):
        rng = random.Random(9_000 + case)
        tau_a = rng.choice([0.117, 0.293, 0.411, 0.557])
        tau_e = rng.choice([0.071, 0.199, 0.313, 0.523])
        files = write_random_toy(tmp_path / f"case{case}", 9_000 + case, verb_patterns)
        cfg = PipelineConfig(
            corpus=str(files["corpus"]),
            taxonomy=str(files["taxonomy"]),
            verb_hierarchy=str(files["verb_hierarchy"]),
            output_dir=str(tmp_path / f"case{case}" / "out"),
            min_pred_freq=1,
            tau=0.01,
            tau_a=tau_a,
            tau_e=tau_e,
        )
        result = run_build(cfg)
        index = CorpusIndex.from_file(files["corpus"])
        assert len(index.ids) <= 50
        got = {key for key, e in result.graph.edges.items() if e.provenance == "global"}
        expected = _oracle_global_edges(files, result, Path(cfg.output_dir), tau_a, tau_e)
        assert got == expected, f"case {case}"
        nonempty += bool(expected)
    assert nonempty >= 8  # the comparison must not be vacuous


# --- criterion 7: determinism ---------------------------------------------------


def _build_via_cli(tmp_path, tag, workers, files):
    out = tmp_path / f"out-{tag}"
    cfg_file = write_config_file(
        tmp_path / f"config-{tag}.txt",
        {
            "corpus": files["corpus"],
            "taxonomy": files["taxonomy"],
            "verb_hierarchy": files["verb_hierarchy"],
            "output_dir": out,
            "min_pred_freq": 1,
            "workers": workers,
        },
    )
    assert cli_main(["build", "--config", str(cfg_file)]) == 0
    return out


def test_criterion_07_builds_are_byte_identical(tmp_path):
    files = write_layered_inputs(tmp_path / "inputs", n_paths=8, per_predicate=12, seed=3)

    def snapshot(out):
        return {name: (out / name).read_bytes() for name in OUTPUT_FILES}

    out_a = _build_via_cli(tmp_path, "a", 2, files)
    first = snapshot(out_a)
    assert cli_main(["build", "--config", str(tmp_path / "config-a.txt")]) == 0
    assert snapshot(out_a) == first  # identical config, identical bytes

    out_b = _build_via_cli(tmp_path, "b", 1, files)
    second = snapshot(out_b)
    data_files = [n for n in OUTPUT_FILES if n != "report.json"]
    for name in data_files:
        assert first[name] == second[name]  # worker count never changes the data
    report_a = json.loads(first["report.json"])
    report_b = json.loads(second["report.json"])
    assert report_a["counts"] == report_b["counts"]
    assert report_a["per_type"] == report_b["per_type"]


# --- criterion 8: scale and quadratic candidate growth -------------------------


def _run_probe(*args, tmpdir=None):
    """scale_probe.py's JSON report; `tmpdir` is its TMPDIR."""
    # The probe imports evgraph from this checkout, installed or not.
    pythonpath = [str(REPO_ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    if tmpdir is not None:
        env["TMPDIR"] = str(tmpdir)
    run = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "scale_probe.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
        env=env,
    )
    return json.loads(run.stdout)


def _probe(tmp_path, tag, eventualities, paths):
    return _run_probe(
        "--eventualities", str(eventualities), "--paths", str(paths), "--dir", str(tmp_path / tag)
    )


def test_scale_probe_keeps_its_work_dir_only_under_dir(tmp_path):
    # Without --dir the probe works in a temp dir and removes it; with
    # --dir it keeps the inputs and the built outputs there.
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    size = ("--eventualities", "300", "--paths", "10")
    report = _run_probe(*size, tmpdir=tmp)
    assert report["edges_total"] > 0 and "work_dir" not in report
    assert report["read_seconds"] >= 0 and report["read_max_rss_mb"] > 0
    assert list(tmp.iterdir()) == []
    kept = tmp_path / "kept"
    report = _run_probe(*size, "--dir", str(kept), tmpdir=tmp)
    assert report["work_dir"] == str(kept)
    assert list(tmp.iterdir()) == []
    inputs = sorted(path.name for path in (kept / "inputs").iterdir())
    assert inputs == ["corpus.tsv", "hierarchy.tsv", "taxonomy.tsv"]
    assert sorted(path.name for path in (kept / "out").iterdir()) == sorted(OUTPUT_FILES)


def test_criterion_08_scale_and_quadratic_growth(tmp_path):
    report = _probe(tmp_path, "full", 100_000, 1000)
    assert report["eventualities"] >= 100_000
    assert report["paths"] == 1000
    assert report["build_seconds"] < 60.0
    assert report["max_rss_mb"] < 2048.0

    small = _probe(tmp_path, "small", 20 * 3 * 21, 20)
    double = _probe(tmp_path, "double", 20 * 3 * 42, 20)
    per_pred_small = small["eventualities"] / (20 * 3)
    per_pred_double = double["eventualities"] / (20 * 3)
    assert per_pred_double / per_pred_small == pytest.approx(2.0, rel=0.1)
    ratio = double["candidate_checks"] / small["candidate_checks"]
    assert ratio <= 4.05  # doubling n at most ~quadruples candidate checks


# --- criterion 9: stats surface -------------------------------------------------

_EXPECTED_ROWS = [
    "s-v ⊨ s-v",
    "s-v-o ⊨ s-v-o",
    "s-v-p-o ⊨ s-v-p-o",
    "s-v-o-p-o ⊨ s-v-o",
    "s-v-p-o ⊨ s-v-o",
    "s-v-o ⊨ s-v-p-o",
    "s-v-o-p-o ⊨ s-v-o-p-o",
    "s-v-a ⊨ s-be-a",
    "s-be-a-p-o ⊨ s-be-a",
    "s-be-a-p-o ⊨ s-be-a-p-o",
    "Overall",
]


def test_criterion_09_stats_rows_and_global_dominance(tmp_path):
    graphs = []
    layered = write_layered_inputs(tmp_path / "layered", n_paths=6, per_predicate=12, seed=1)
    cfg = PipelineConfig(
        corpus=str(layered["corpus"]),
        taxonomy=str(layered["taxonomy"]),
        verb_hierarchy=str(layered["verb_hierarchy"]),
        output_dir=str(tmp_path / "layered-out"),
        min_pred_freq=1,
    )
    graphs.append(build(cfg).graph)
    for case in range(3):
        files = write_random_toy(tmp_path / f"rand{case}", 31_000 + case)
        cfg = PipelineConfig(
            corpus=str(files["corpus"]),
            taxonomy=str(files["taxonomy"]),
            verb_hierarchy=str(files["verb_hierarchy"]),
            output_dir=str(tmp_path / f"rand{case}-out"),
            min_pred_freq=1,
            tau=0.01,
        )
        graphs.append(build(cfg).graph)

    saw_edges = False
    for graph in graphs:
        rows = stats(graph)
        assert [r.label for r in rows] == _EXPECTED_ROWS
        for row in rows:
            assert row.n_er_global >= row.n_er_local
        saw_edges = saw_edges or rows[-1].n_er_global > 0
    assert saw_edges


# --- criterion 10: large round trip ---------------------------------------------


def test_criterion_10_round_trip_large_graph(tmp_path):
    rng = random.Random(77)
    nodes = [
        Eventuality.create("s-v-o", {"n1": f"s{i}", "v1": "link", "n2": f"o{i}"}, 1 + i % 9)
        for i in range(2000)
    ]
    label = type_label("s-v-o", "s-v-o")
    edges = []
    for step in range(1, 51):
        for i in range(2000):
            a, p, f = rng.random(), rng.random(), rng.random()
            edges.append(
                ScoredEdge(
                    from_id=nodes[i].id,
                    to_id=nodes[(i + step) % 2000].id,
                    arg_score=a,
                    pred_score=p,
                    penalty=f,
                    local_score=math.sqrt(a * p * f),
                    provenance="global" if i % 3 else "local",
                    type_label=label,
                )
            )
    graph = graph_from(nodes, edges)
    assert len(graph.edges) == 100_000

    write_graph(graph, tmp_path / "one")
    again = read_graph(tmp_path / "one")
    assert len(again.edges) == 100_000
    assert again == graph
    write_graph(again, tmp_path / "two")
    for name in ("nodes.tsv", "edges.tsv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
