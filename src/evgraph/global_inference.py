"""Transitive inference along predicate entailment paths.

The scored predicate rules are organized into a forest, kept as parent
and child adjacency (specific -> general, cycles broken on the weakest
edge); maximal root-to-leaf chains become predicate paths, and each
distinct path edge relates the eventualities of its two predicates:
pairs whose arguments pass the argument filter are composed into scored
edges, and those that clear the acceptance test become global edges.
Chain nodes are then expanded with same-predicate
argument-generalization edges, which stay local.

Neither step checks every eventuality pair.  Both look candidates up in
(pattern, slot, term) posting lists of one predicate, probing with a
term and the terms it may entail (its taxonomy concepts for path edges,
the sources of argument rules into it for expansion); only the hits are
scored.  The reported check counts are still the dense pair counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .corpus import CorpusIndex, probe_postings, slot_postings
from .local import argument_score, compose_edge
from .model import HYPOTHESES, PREMISES, PROVENANCE_GLOBAL, PROVENANCE_LOCAL, ScoredEdge
from .resources import TaxonomyStore
from .rules import PredicateRule


@dataclass(frozen=True)
class PredicateForest:
    """Acyclic specific->general predicate graph as adjacency in both
    directions, with its tree count and the edges dropped to break cycles."""

    children: dict[str, tuple[str, ...]]  # general -> more-specific predicates
    parents: dict[str, tuple[str, ...]]  # specific -> more-general predicates
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
        children={g: tuple(sorted(c)) for g, c in children.items()},
        parents={s: tuple(sorted(p)) for s, p in parents.items() if p},
        n_trees=n_trees,
        dropped_edges=tuple(sorted(dropped)),
    )


def extract_paths(
    forest: PredicateForest, general_roots: tuple[str, ...] = ()
) -> tuple[tuple[str, ...], ...]:
    """Maximal specific-first predicate chains, with edges touching the
    listed overly-general roots removed before emission."""
    removed = set(general_roots)
    parents = forest.parents
    sources = sorted(s for s in parents if s not in forest.children)
    # Depth-first over root-ward chains with an explicit stack of partial
    # chains, in the order a recursive walk would emit them.  A recursive
    # closure would hold the forest in a reference cycle past the return.
    chains: list[tuple[str, ...]] = []
    stack = [(source,) for source in reversed(sources)]
    while stack:
        trail = stack.pop()
        nexts = parents.get(trail[-1])
        if nexts:
            stack.extend([trail + (nxt,) for nxt in reversed(nexts)])
        else:
            chains.append(trail)

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
    """Accepted global edges for one predicate path, plus the dense number
    of candidate pairs, |left| x |right| summed over the path edges.

    A pair passes the argument filter when its aligned arguments are
    identical or its argument score exceeds tau_a; it is accepted when it
    is identical or its composed score also exceeds tau_e.  Since tau_a
    >= 0, a passing pair has some aligned slot whose terms are identical
    or have a nonzero taxonomy probability.  So only the right-hand
    eventualities found under a left term, or one of its taxonomy
    concepts, in a (pattern, slot) posting list are scored.
    """
    edges: dict[tuple[str, str], ScoredEdge] = {}
    checks = 0
    probs = store.probs
    rows = index.rows
    for pred_l, pred_r in zip(path, path[1:]):
        rule_score = rule_scores.get((pred_l, pred_r), 0.0)
        left = index.by_predicate.get(pred_l, ())
        right = index.by_predicate.get(pred_r, ())
        checks += len(left) * len(right)
        postings = slot_postings(index, right)
        for lid in left:
            pat_l, _, args_l, cond_l = rows[lid]
            for pat_r, slots in HYPOTHESES.get(pat_l, ()):
                if pat_r not in postings:
                    continue
                hits = probe_postings(postings[pat_r], [(j, args_l[i]) for i, j in slots], probs)
                for rid in hits:
                    _, _, args_r, cond_r = rows[rid]
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
    """Attach incoming same-predicate edges to chain nodes, plus the dense
    number of candidates, the other eventualities of each node's predicate.

    A candidate premise must share the node's predicate and relate every
    aligned term either identically or through an argument rule; the
    composed score (with identity predicate score) must clear tau_e.
    That rule is stricter than `argument_score`, where one identical slot
    saturates the noisy-OR whatever the other slots hold, so expansion
    keeps its own slot loop and stops at the first slot without a rule.
    Only premises whose first aligned term is the node's term, or a
    source of an argument rule into it, are looked at: those are found in
    (pattern, slot) posting lists, built for one predicate at a time.
    """
    rule_sources: dict[str, list[str]] = {}
    for (t_from, t_to), score in rule_by_pair.items():
        if score > 0.0:
            rule_sources.setdefault(t_to, []).append(t_from)
    rows = index.rows
    nodes_by_pred: dict[str, list[str]] = {}
    for node_id in chain_node_ids:
        nodes_by_pred.setdefault(rows[node_id].predicate, []).append(node_id)

    edges: dict[tuple[str, str], ScoredEdge] = {}
    checks = 0
    for pred in sorted(nodes_by_pred):
        same_pred = index.by_predicate[pred]
        postings = slot_postings(index, same_pred)
        for node_id in sorted(nodes_by_pred[pred]):
            checks += len(same_pred) - 1
            node_pat, _, node_args, cond_node = rows[node_id]
            for cand_pat, slots in PREMISES.get(node_pat, ()):
                if cand_pat not in postings:
                    continue
                first_from, first_to = slots[0]
                hits = probe_postings(
                    postings[cand_pat], [(first_from, node_args[first_to])], rule_sources
                )
                hits.pop(node_id, None)
                for cand_id in hits:
                    _, _, cand_args, cond_cand = rows[cand_id]
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
                        cond_cand,
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
) -> GlobalResult:
    """Run path inference plus expansion over every path and merge.

    The edges of a path edge are a pure function of its predicate pair,
    and a chain node's expansion of the node alone, so each distinct pair
    and each distinct chain node is computed once however many paths
    share it.  A path's chain nodes are the endpoints of its pairs' edges.
    The check counts stay the dense per-path sums: |left| x |right| per
    path edge, and the other eventualities of the node's predicate per
    chain node of each path.
    """
    pairs = sorted({pair for path in paths for pair in zip(path, path[1:])})
    merged: dict[tuple[str, str], ScoredEdge] = {}
    pair_checks: dict[tuple[str, str], int] = {}
    pair_nodes: dict[tuple[str, str], set[str]] = {}
    for pair in pairs:
        edges, pair_checks[pair] = infer_path_edges(
            index, pair, rule_scores, store, tau_a, tau_e
        )
        merged.update(edges)
        pair_nodes[pair] = {node for key in edges for node in key}

    total_checks = 0
    total_exp = 0
    chain_nodes: set[str] = set()
    for path in paths:
        nodes: set[str] = set()
        for pair in zip(path, path[1:]):
            total_checks += pair_checks[pair]
            nodes |= pair_nodes[pair]
        chain_nodes |= nodes
        for node in nodes:
            total_exp += len(index.by_predicate[index.rows[node].predicate]) - 1

    local_edges, _ = expand_with_argument_rules(
        index, chain_nodes, rule_by_pair, store, tau_e
    )
    merged.update(local_edges)
    ordered = tuple(merged[k] for k in sorted(merged))
    return GlobalResult(
        edges=ordered, candidate_checks=total_checks, expansion_checks=total_exp
    )
