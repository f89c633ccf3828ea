"""Independent correctness check of a built graph.

Nothing here calls evgraph. The checker re-reads the generated inputs
and the build's output files with its own parsers, and recomputes what
the paper's scoring says the output must hold:

* the accepted edge set of a sample of path predicate pairs (noisy-OR
  over aligned argument terms, frequency penalty, geometric mean with
  the rule score from predicate_rules.tsv, then the acceptance rule);
* the incoming expansion edges of a sample of chain nodes;
* per-edge properties over every edge (admissible type pair, provenance
  consistent with the predicates, score identity);
* the answers of entailment queries, against its own BFS over edges.tsv.

Every check is one operation; a check that does not hold is a failed
operation, with a message saying what differed.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

TOL = 1e-12
ENTAILS = "⊨"

# Role order of each pattern in the corpus and node files.
PATTERN_ROLES = {
    "s-v": ("n1", "v1"),
    "s-v-o": ("n1", "v1", "n2"),
    "s-v-p-o": ("n1", "v1", "p1", "n2"),
    "s-v-o-p-o": ("n1", "v1", "n2", "p1", "n3"),
    "s-v-a": ("n1", "v1", "a1"),
    "s-be-a": ("n1", "a1"),
    "s-be-a-p-o": ("n1", "a1", "p1", "n2"),
}

# Argument slot roles after decomposition (S subject, O object,
# P prepositional object, A adjective).
SLOT_ROLES = {
    "s-v": "S",
    "s-v-o": "SO",
    "s-v-p-o": "SO",
    "s-v-o-p-o": "SOP",
    "s-v-a": "SA",
    "s-be-a": "S",
    "s-be-a-p-o": "SP",
}

ADMISSIBLE = frozenset(
    {
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
)


def aligned(premise: str, hypothesis: str) -> tuple[tuple[int, int], ...] | None:
    """Slot pairs matched by role, or None for an inadmissible pattern pair."""
    if (premise, hypothesis) not in ADMISSIBLE:
        return None
    roles = SLOT_ROLES[premise]
    return tuple((roles.index(role), j) for j, role in enumerate(SLOT_ROLES[hypothesis]))


def normalize(token: str) -> str:
    return " ".join(token.lower().split())


@dataclass(frozen=True)
class Event:
    pattern: str
    tokens: tuple[str, ...]
    freq: int

    @property
    def id(self) -> str:
        return f"{self.pattern}:{'|'.join(self.tokens)}"

    def decomposed(self) -> tuple[str, tuple[str, ...]]:
        """(predicate, argument terms) in slot order."""
        t = dict(zip(PATTERN_ROLES[self.pattern], self.tokens))
        p = self.pattern
        if p == "s-v":
            return t["v1"], (t["n1"],)
        if p == "s-v-o":
            return t["v1"], (t["n1"], t["n2"])
        if p == "s-v-p-o":
            return f"{t['v1']}-{t['p1']}", (t["n1"], t["n2"])
        if p == "s-v-o-p-o":
            return t["v1"], (t["n1"], t["n2"], f"{t['p1']}-{t['n3']}")
        if p == "s-v-a":
            return t["v1"], (t["n1"], t["a1"])
        if p == "s-be-a":
            return f"be-{t['a1']}", (t["n1"],)
        return f"be-{t['a1']}", (t["n1"], f"{t['p1']}-{t['n2']}")

    @property
    def text(self) -> str:
        t = dict(zip(PATTERN_ROLES[self.pattern], self.tokens))
        order = {
            "s-v": ("n1", "v1"),
            "s-v-o": ("n1", "v1", "n2"),
            "s-v-p-o": ("n1", "v1", "p1", "n2"),
            "s-v-o-p-o": ("n1", "v1", "n2", "p1", "n3"),
            "s-v-a": ("n1", "v1", "a1"),
            "s-be-a": ("n1", "be", "a1"),
            "s-be-a-p-o": ("n1", "be", "a1", "p1", "n2"),
        }[self.pattern]
        return " ".join(t.get(r, r) for r in order)


def _parse_event(pattern: str, role_field: str, freq: str) -> Event:
    roles = dict(chunk.split("=", 1) for chunk in role_field.split(";"))
    tokens = tuple(normalize(roles[r]) for r in PATTERN_ROLES[pattern])
    return Event(pattern, tokens, int(freq))


@dataclass(frozen=True)
class Edge:
    type_label: str
    provenance: str
    arg: float
    pred: float
    pen: float
    score: float


@dataclass
class Model:
    """Everything the checker recomputes from, read with its own parsers."""

    events: dict[str, Event]
    pred_of: dict[str, str]
    args_of: dict[str, tuple[str, ...]]
    by_pred: dict[str, list[str]]
    cond: dict[str, float]
    term_probs: dict[str, dict[str, float]]
    arg_rules: dict[tuple[str, str], float]
    nodes: dict[str, Event]
    edges: dict[tuple[str, str], Edge]
    path_pairs: list[tuple[str, str]]
    rule_scores: dict[tuple[str, str], float]
    arg_rules_file: dict[tuple[str, str], float]


def _tsv(path: Path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield line.rstrip("\n").split("\t")


def load_model(inputs: dict[str, Path], out_dir: Path, k: int = 5, tau: float = 0.05) -> Model:
    events: dict[str, Event] = {}
    for pattern, roles, freq in _tsv(inputs["corpus"]):
        ev = _parse_event(pattern, roles, freq)
        prev = events.get(ev.id)
        if prev is not None:
            ev = Event(ev.pattern, ev.tokens, prev.freq + ev.freq)
        events[ev.id] = ev
    pred_of, args_of, by_pred = {}, {}, {}
    pred_freq: dict[str, int] = {}
    for eid in sorted(events):
        pred, args = events[eid].decomposed()
        pred_of[eid] = pred
        args_of[eid] = args
        by_pred.setdefault(pred, []).append(eid)
        pred_freq[pred] = pred_freq.get(pred, 0) + events[eid].freq
    cond = {eid: events[eid].freq / pred_freq[pred_of[eid]] for eid in events}

    counts: dict[str, dict[str, int]] = {}
    for concept, instance, freq in _tsv(inputs["taxonomy"]):
        per = counts.setdefault(normalize(instance), {})
        per[normalize(concept)] = per.get(normalize(concept), 0) + int(freq)
    term_probs = {}
    arg_rules = {}
    vocab = {term for args in args_of.values() for term in args}
    for instance, per in counts.items():
        total = sum(per.values())
        term_probs[instance] = {c: f / total for c, f in per.items()}
        if instance not in vocab:
            continue
        top = sorted(per.items(), key=lambda cf: (-cf[1], cf[0]))[:k]
        for concept, freq in top:
            if concept != instance and concept in vocab and freq / total > tau:
                arg_rules[(instance, concept)] = freq / total

    nodes = {}
    for node_id, pattern, roles, freq in _tsv(out_dir / "nodes.tsv"):
        nodes[node_id] = _parse_event(pattern, roles, freq)
    edges = {}
    for f, t, label, prov, arg, pred, pen, score in _tsv(out_dir / "edges.tsv"):
        edges[(f, t)] = Edge(label, prov, float(arg), float(pred), float(pen), float(score))
    pairs = set()
    for path in _tsv(out_dir / "paths.tsv"):
        pairs.update(zip(path, path[1:]))
    rule_scores = {
        (f, t): float(s) for f, t, s in _tsv(out_dir / "predicate_rules.tsv")
    }
    arg_rules_file = {
        (f, t): float(s) for f, t, s in _tsv(out_dir / "argument_rules.tsv")
    }
    return Model(
        events, pred_of, args_of, by_pred, cond, term_probs, arg_rules,
        nodes, edges, sorted(pairs), rule_scores, arg_rules_file,
    )


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def _same_edges(expected: dict, actual: dict[tuple[str, str], Edge], prov: str) -> str:
    """Empty when the two edge maps agree, else what differs first."""
    missing = sorted(set(expected) - set(actual))
    extra = sorted(set(actual) - set(expected))
    if missing or extra:
        return f"{len(missing)} missing (first {missing[:1]}), {len(extra)} extra (first {extra[:1]})"
    for key in sorted(expected):
        arg, pred, pen, score = expected[key]
        e = actual[key]
        if e.provenance != prov:
            return f"{key}: provenance {e.provenance}, expected {prov}"
        for name, want, got in (("arg", arg, e.arg), ("pred", pred, e.pred),
                                ("penalty", pen, e.pen), ("score", score, e.score)):
            if not _close(want, got):
                return f"{key}: {name} {got!r}, recomputed {want!r}"
    return ""


class Checker:
    def __init__(self, model: Model, tau_a: float = 0.3, tau_e: float = 0.2) -> None:
        self.m = model
        self.tau_a = tau_a
        self.tau_e = tau_e
        self.by_pred_pair: dict[tuple[str, str], dict] = {}
        self.out_adj: dict[str, list[str]] = {}
        for key, edge in model.edges.items():
            f, t = key
            pf = model.pred_of.get(f)
            pt = model.pred_of.get(t)
            self.by_pred_pair.setdefault((pf, pt), {})[key] = edge
            self.out_adj.setdefault(f, []).append(t)
        self.chain_nodes = {
            n for key, e in model.edges.items() if e.provenance == "global" for n in key
        }

    # -- whole-graph checks -------------------------------------------------

    def check_nodes(self, tally: Tally) -> None:
        m = self.m
        ok = m.nodes.keys() == m.events.keys() and all(
            m.nodes[i] == m.events[i] for i in m.events
        )
        tally.record(ok, "nodes.tsv differs from the merged corpus")

    def check_argument_rules(self, tally: Tally) -> None:
        m = self.m
        ok = m.arg_rules.keys() == m.arg_rules_file.keys() and all(
            _close(m.arg_rules[k], m.arg_rules_file[k]) for k in m.arg_rules
        )
        tally.record(ok, "argument_rules.tsv differs from the recomputed top-k rules")

    def check_edge_properties(self, tally: Tally) -> None:
        m = self.m
        pair_set = set(m.path_pairs)
        for key in sorted(m.edges):
            e = m.edges[key]
            f, t = key
            problem = ""
            if f not in m.nodes or t not in m.nodes or f == t:
                problem = "endpoint not a node, or a self-loop"
            else:
                pat_f, pat_t = m.nodes[f].pattern, m.nodes[t].pattern
                pf, pt = m.pred_of[f], m.pred_of[t]
                if (pat_f, pat_t) not in ADMISSIBLE or e.type_label != f"{pat_f} {ENTAILS} {pat_t}":
                    problem = f"type {e.type_label!r} for {pat_f} -> {pat_t}"
                elif not all(0.0 <= v <= 1.0 for v in (e.arg, e.pred, e.pen, e.score)):
                    problem = "score outside [0, 1]"
                elif abs(e.score * e.score - e.pred * e.pen * e.arg) > TOL:
                    problem = "score^2 != pred * penalty * arg"
                elif not _close(e.pen, min(1.0, m.cond[f] / m.cond[t])):
                    problem = "penalty differs from the corpus frequencies"
                elif e.provenance == "global":
                    if pf == pt or (pf, pt) not in pair_set:
                        problem = f"global edge between {pf} and {pt}, not a path pair"
                    elif e.pred != m.rule_scores.get((pf, pt)):
                        problem = "global pred score differs from predicate_rules.tsv"
                elif e.provenance == "local":
                    if pf != pt or e.pred != 1.0:
                        problem = "local edge across predicates or with pred score != 1"
                    elif t not in self.chain_nodes:
                        problem = "local edge into a node on no accepted path edge"
                else:
                    problem = f"unknown provenance {e.provenance!r}"
            tally.record(not problem, f"edge {key}: {problem}")

    # -- recomputation of samples -------------------------------------------

    def expected_path_edges(self, pred_l: str, pred_r: str) -> dict:
        m = self.m
        rule = m.rule_scores.get((pred_l, pred_r), 0.0)
        probs = m.term_probs
        out = {}
        for lid in m.by_pred.get(pred_l, ()):
            pat_l = m.events[lid].pattern
            args_l = m.args_of[lid]
            cond_l = m.cond[lid]
            for rid in m.by_pred.get(pred_r, ()):
                slots = aligned(pat_l, m.events[rid].pattern)
                if slots is None:
                    continue
                args_r = m.args_of[rid]
                identical = True
                miss = 1.0
                for i, j in slots:
                    if args_l[i] == args_r[j]:
                        miss = 0.0  # an identical term has probability 1
                    else:
                        identical = False
                        miss *= 1.0 - probs.get(args_l[i], {}).get(args_r[j], 0.0)
                arg = 1.0 if identical else 1.0 - miss
                pen = min(1.0, cond_l / m.cond[rid])
                score = math.sqrt(rule * pen * arg)
                if identical or (arg > self.tau_a and score > self.tau_e):
                    out[(lid, rid)] = (arg, rule, pen, score)
        return out

    def expected_expansion(self, node: str) -> dict:
        m = self.m
        pat_n = m.events[node].pattern
        args_n = m.args_of[node]
        out = {}
        for cid in m.by_pred[m.pred_of[node]]:
            if cid == node:
                continue
            slots = aligned(m.events[cid].pattern, pat_n)
            if slots is None:
                continue
            args_c = m.args_of[cid]
            miss = 1.0
            for i, j in slots:
                if args_c[i] == args_n[j]:
                    miss = 0.0
                    continue
                rule = m.arg_rules.get((args_c[i], args_n[j]), 0.0)
                if rule <= 0.0:
                    break
                miss *= 1.0 - rule
            else:
                arg = 1.0 - miss
                pen = min(1.0, m.cond[cid] / m.cond[node])
                score = math.sqrt(pen * arg)
                if score > self.tau_e:
                    out[(cid, node)] = (arg, 1.0, pen, score)
        return out

    def sample_pairs(self, rng: random.Random, n: int) -> list[tuple[str, str]]:
        pairs = self.m.path_pairs
        return sorted(rng.sample(pairs, min(n, len(pairs))))

    def check_path_pairs(self, tally: Tally, pairs) -> None:
        for pl, pr in pairs:
            diff = _same_edges(
                self.expected_path_edges(pl, pr), self.by_pred_pair.get((pl, pr), {}), "global"
            )
            tally.record(not diff, f"path pair {pl} -> {pr}: {diff}")

    def sample_chain_nodes(self, rng: random.Random, pairs, n: int) -> list[str]:
        nodes = sorted(
            {x for pair in pairs for key in self.by_pred_pair.get(pair, {}) for x in key}
        )
        return sorted(rng.sample(nodes, min(n, len(nodes))))

    def check_chain_nodes(self, tally: Tally, nodes) -> None:
        m = self.m
        for node in nodes:
            pred = m.pred_of[node]
            actual = {
                key: e
                for key, e in self.by_pred_pair.get((pred, pred), {}).items()
                if key[1] == node
            }
            diff = _same_edges(self.expected_expansion(node), actual, "local")
            tally.record(not diff, f"expansion of {node}: {diff}")

    # -- queries ----------------------------------------------------------

    def distances(self, src: str) -> dict[str, int]:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            for nxt in self.out_adj.get(cur, ()):
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        return dist

    def choose_queries(self, rng: random.Random, per_kind: int) -> list["Query"]:
        """A fixed mix: per_kind pairs each answered direct, chain and none.

        Endpoints are given as display text, so only nodes whose text is
        unique in the graph are used.
        """
        m = self.m
        seen: dict[str, int] = {}
        for ev in m.nodes.values():
            seen[ev.text] = seen.get(ev.text, 0) + 1
        usable = sorted(n for n, ev in m.nodes.items() if seen[ev.text] == 1)
        sources = sorted(n for n in self.out_adj if seen[m.nodes[n].text] == 1)
        chosen: dict[str, list[tuple[str, str, int]]] = {"direct": [], "chain": [], "none": []}
        for src in rng.sample(sources, len(sources)):
            if all(len(v) >= per_kind for v in chosen.values()):
                break
            dist = self.distances(src)
            near = sorted(n for n, d in dist.items() if d == 1 and seen[m.nodes[n].text] == 1)
            far = sorted(n for n, d in dist.items() if d >= 2 and seen[m.nodes[n].text] == 1)
            if near and len(chosen["direct"]) < per_kind:
                chosen["direct"].append((src, rng.choice(near), 1))
            elif far and len(chosen["chain"]) < per_kind:
                dst = rng.choice(far)
                chosen["chain"].append((src, dst, dist[dst]))
            elif len(chosen["none"]) < per_kind:
                dst = rng.choice(usable)
                if dst not in dist:
                    chosen["none"].append((src, dst, 0))
        queries = []
        for kind in ("direct", "chain", "none"):
            if len(chosen[kind]) < per_kind:
                raise RuntimeError(f"workload has too few {kind!r} query pairs")
            for src, dst, d in chosen[kind]:
                queries.append(Query(src, dst, m.nodes[src].text, m.nodes[dst].text, kind, d))
        return queries

    def check_answer(self, tally: Tally, q: "Query", kind: str, trail) -> None:
        """trail: [(from_id, to_id, score), ...] as the program answered."""
        problem = ""
        if kind != q.kind:
            problem = f"answered {kind}, expected {q.kind}"
        elif q.kind == "none":
            problem = "trail on a none answer" if trail else ""
        elif len(trail) != q.distance:
            problem = f"trail of {len(trail)} edges, shortest is {q.distance}"
        else:
            at = q.src
            for f, t, score in trail:
                e = self.m.edges.get((f, t))
                if f != at or e is None or e.score != score:
                    problem = f"trail step {f} -> {t} is not a stored edge from {at}"
                    break
                at = t
            if not problem and at != q.dst:
                problem = "trail does not end at the hypothesis"
        tally.record(not problem, f"query {q.src_text!r} -> {q.dst_text!r}: {problem}")


@dataclass(frozen=True)
class Query:
    src: str
    dst: str
    src_text: str
    dst_text: str
    kind: str
    distance: int


def check_build(checker: Checker, tally: Tally, rng: random.Random, n_pairs: int, n_nodes: int):
    """All output checks of one build: nodes, argument rules, every edge's
    properties, and the recomputed samples. Returns the sampled pairs and
    chain nodes."""
    checker.check_nodes(tally)
    checker.check_argument_rules(tally)
    checker.check_edge_properties(tally)
    pairs = checker.sample_pairs(rng, n_pairs)
    checker.check_path_pairs(tally, pairs)
    nodes = checker.sample_chain_nodes(rng, pairs, n_nodes)
    checker.check_chain_nodes(tally, nodes)
    return pairs, nodes
