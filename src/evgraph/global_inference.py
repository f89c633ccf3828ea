"""Transitive inference along predicate entailment paths.

The scored predicate rules are organized into a forest (specific ->
general, cycles broken on the weakest edge), maximal root-to-leaf
chains become predicate paths, and each consecutive path edge checks
every eventuality pair of its two predicates: pairs whose arguments pass
the argument filter are composed into scored edges, and those that clear
the acceptance test become global edges.  Chain nodes are then expanded
with same-predicate argument-generalization edges, which stay local.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ._parallel import indexed_map
from .corpus import CorpusIndex
from .local import argument_score, compose_edge
from .model import PROVENANCE_GLOBAL, PROVENANCE_LOCAL, ScoredEdge, aligned_slots
from .resources import TaxonomyStore
from .rules import PredicateRule


@dataclass(frozen=True)
class PredicateForest:
    """Acyclic specific->general predicate graph plus its roots."""

    edges: dict[tuple[str, str], float]
    children: dict[str, tuple[str, ...]]  # general -> more-specific predicates
    parents: dict[str, tuple[str, ...]]  # specific -> more-general predicates
    roots: tuple[str, ...]  # no outgoing edge (most general)
    n_trees: int
    dropped_edges: tuple[tuple[str, str], ...]


def _find_cycle(parents: dict[str, list[str]]) -> list[str] | None:
    """First cycle under sorted DFS order, as a node list, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = {}
    stack_pos: dict[str, int] = {}

    def visit(start: str) -> list[str] | None:
        stack: list[tuple[str, Iterator[str]]] = [(start, iter(parents.get(start, ())))]
        color[start] = GRAY
        stack_pos[start] = 0
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                state = color.get(nxt, WHITE)
                if state == GRAY:
                    cycle = [frame[0] for frame in stack[stack_pos[nxt]:]]
                    return cycle
                if state == WHITE:
                    color[nxt] = GRAY
                    stack_pos[nxt] = len(stack)
                    stack.append((nxt, iter(parents.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack_pos.pop(node, None)
                stack.pop()
        return None

    for node in sorted(parents):
        if color.get(node, WHITE) == WHITE:
            cycle = visit(node)
            if cycle is not None:
                return cycle
    return None


def build_forest(rules: tuple[PredicateRule, ...]) -> PredicateForest:
    """Orient scored rules specific->general and break every cycle by
    dropping its lowest-scored edge (ties: lexicographically smallest)."""
    edges: dict[tuple[str, str], float] = {}
    for r in rules:
        if r.score is None:
            raise ValueError(f"rule {r.from_pred}->{r.to_pred} is unscored")
        edges[(r.from_pred, r.to_pred)] = r.score

    parents: dict[str, list[str]] = {}
    for s, g in sorted(edges):
        parents.setdefault(s, []).append(g)

    dropped = []
    while True:
        cycle = _find_cycle(parents)
        if cycle is None:
            break
        cycle_edges = [
            (cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
        ]
        victim = min(cycle_edges, key=lambda e: (edges[e], e))
        dropped.append(victim)
        del edges[victim]
        parents[victim[0]].remove(victim[1])

    children: dict[str, list[str]] = {}
    nodes = set()
    for s, g in edges:
        nodes.add(s)
        nodes.add(g)
        children.setdefault(g, []).append(s)
    roots = tuple(sorted(n for n in nodes if not parents.get(n)))

    # Count weakly connected components (the "trees" of the forest).
    component: dict[str, int] = {}
    n_trees = 0
    neighbors: dict[str, set[str]] = {n: set() for n in nodes}
    for s, g in edges:
        neighbors[s].add(g)
        neighbors[g].add(s)
    for node in sorted(nodes):
        if node in component:
            continue
        n_trees += 1
        frontier = [node]
        component[node] = n_trees
        while frontier:
            cur = frontier.pop()
            for nxt in neighbors[cur]:
                if nxt not in component:
                    component[nxt] = n_trees
                    frontier.append(nxt)

    return PredicateForest(
        edges=edges,
        children={g: tuple(sorted(c)) for g, c in children.items()},
        parents={s: tuple(sorted(p)) for s, p in parents.items() if p},
        roots=roots,
        n_trees=n_trees,
        dropped_edges=tuple(sorted(dropped)),
    )


def extract_paths(
    forest: PredicateForest, general_roots: tuple[str, ...] = ()
) -> tuple[tuple[str, ...], ...]:
    """Maximal specific-first predicate chains, with edges touching the
    listed overly-general roots removed before emission."""
    removed = set(general_roots)
    sources = sorted(
        s for s in forest.parents if s not in forest.children
    )
    chains: list[tuple[str, ...]] = []

    def walk(node: str, trail: list[str]) -> None:
        trail.append(node)
        nexts = forest.parents.get(node, ())
        if not nexts:
            chains.append(tuple(trail))
        else:
            for nxt in nexts:
                walk(nxt, trail)
        trail.pop()

    for source in sources:
        walk(source, [])

    paths: set[tuple[str, ...]] = set()
    for chain in chains:
        segment: list[str] = []
        for pred in chain:
            if pred in removed:
                if len(segment) >= 2:
                    paths.add(tuple(segment))
                segment = []
            else:
                segment.append(pred)
        if len(segment) >= 2:
            paths.add(tuple(segment))
    return tuple(sorted(paths))


def infer_path_edges(
    index: CorpusIndex,
    path: tuple[str, ...],
    rule_scores: dict[tuple[str, str], float],
    store: TaxonomyStore,
    tau_a: float,
    tau_e: float,
) -> tuple[dict[tuple[str, str], ScoredEdge], int]:
    """Accepted global edges for one predicate path, plus the number of
    candidate pairs checked.

    A pair passes the argument filter when its aligned arguments are
    identical or its argument score exceeds tau_a; it is accepted when it
    is identical or its composed score also exceeds tau_e.
    """
    edges: dict[tuple[str, str], ScoredEdge] = {}
    checks = 0
    probs = store.probs
    for pred_l, pred_r in zip(path, path[1:]):
        rule_score = rule_scores.get((pred_l, pred_r), 0.0)
        left = index.by_predicate.get(pred_l, ())
        right = [
            (
                rid,
                index.by_id[rid].pattern,
                index.arg_surfaces[rid],
                index.cond_prob[rid],
            )
            for rid in index.by_predicate.get(pred_r, ())
        ]
        checks += len(left) * len(right)
        for lid in left:
            pat_l = index.by_id[lid].pattern
            args_l = index.arg_surfaces[lid]
            cond_l = index.cond_prob[lid]
            for rid, pat_r, args_r, cond_r in right:
                slots = aligned_slots(pat_l, pat_r)
                if slots is None:
                    continue
                identical, arg_score = argument_score(args_l, args_r, slots, probs)
                if not identical and arg_score <= tau_a:
                    continue
                edge = compose_edge(
                    lid,
                    rid,
                    pat_l,
                    pat_r,
                    rule_score,
                    cond_l,
                    cond_r,
                    arg_score,
                    PROVENANCE_GLOBAL,
                )
                if identical or edge.local_score > tau_e:
                    edges[(lid, rid)] = edge
    return edges, checks


def expand_with_argument_rules(
    index: CorpusIndex,
    chain_node_ids,
    rule_by_pair: dict[tuple[str, str], float],
    store: TaxonomyStore,
    tau_e: float,
) -> tuple[dict[tuple[str, str], ScoredEdge], int]:
    """Attach incoming same-predicate edges to chain nodes.

    A candidate premise must share the node's predicate and relate every
    aligned term either identically or through an argument rule; the
    composed score (with identity predicate score) must clear tau_e.
    That rule is stricter than `argument_score`, where one identical slot
    saturates the noisy-OR whatever the other slots hold, so expansion
    keeps its own slot loop and stops at the first slot without a rule.
    """
    edges: dict[tuple[str, str], ScoredEdge] = {}
    checks = 0
    for node_id in sorted(chain_node_ids):
        node_pat = index.by_id[node_id].pattern
        node_args = index.arg_surfaces[node_id]
        pred = index.decomposed[node_id].predicate.surface
        cond_node = index.cond_prob[node_id]
        for cand_id in index.by_predicate.get(pred, ()):
            if cand_id == node_id:
                continue
            checks += 1
            cand_pat = index.by_id[cand_id].pattern
            slots = aligned_slots(cand_pat, node_pat)
            if slots is None:
                continue
            cand_args = index.arg_surfaces[cand_id]
            ok = True
            miss = 1.0
            for i, j in slots:
                t_from = cand_args[i]
                t_to = node_args[j]
                if t_from == t_to:
                    miss = 0.0
                    continue
                score = rule_by_pair.get((t_from, t_to), 0.0)
                if score <= 0.0:
                    ok = False
                    break
                miss *= 1.0 - score
            if not ok:
                continue
            edge = compose_edge(
                cand_id,
                node_id,
                cand_pat,
                node_pat,
                1.0,
                index.cond_prob[cand_id],
                cond_node,
                1.0 - miss,
                PROVENANCE_LOCAL,
            )
            if edge.local_score > tau_e:
                edges[(cand_id, node_id)] = edge
    return edges, checks


@dataclass(frozen=True)
class GlobalResult:
    edges: tuple[ScoredEdge, ...]
    candidate_checks: int
    expansion_checks: int


def run_global_stage(
    index: CorpusIndex,
    paths: tuple[tuple[str, ...], ...],
    rule_scores: dict[tuple[str, str], float],
    store: TaxonomyStore,
    rule_by_pair: dict[tuple[str, str], float],
    tau_a: float,
    tau_e: float,
    workers: int = 1,
) -> GlobalResult:
    """Run path inference plus expansion over every path and merge.

    Paths are independent; merged edges are deduplicated by (from, to).
    Duplicate keys always carry identical scores (pure functions of the
    pair), so the merge is order-independent.
    """

    def run_one(i: int):
        path = paths[i]
        path_edges, checks = infer_path_edges(
            index, path, rule_scores, store, tau_a, tau_e
        )
        node_ids = set()
        for src, dst in path_edges:
            node_ids.add(src)
            node_ids.add(dst)
        local_edges, exp_checks = expand_with_argument_rules(
            index, node_ids, rule_by_pair, store, tau_e
        )
        return path_edges, local_edges, checks, exp_checks

    merged: dict[tuple[str, str], ScoredEdge] = {}
    total_checks = 0
    total_exp = 0
    for path_edges, local_edges, checks, exp_checks in indexed_map(
        run_one, len(paths), workers
    ):
        total_checks += checks
        total_exp += exp_checks
        for key, edge in path_edges.items():
            merged[key] = edge
        for key, edge in local_edges.items():
            merged[key] = edge
    ordered = tuple(merged[k] for k in sorted(merged))
    return GlobalResult(
        edges=ordered, candidate_checks=total_checks, expansion_checks=total_exp
    )
