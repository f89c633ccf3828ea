"""Transitive inference along predicate entailment paths.

The scored predicate rules form a forest (specific -> general, cycles
broken on the weakest edge); its maximal chains become predicate paths,
and each distinct path edge relates the eventualities of its two
predicates: pairs that pass the argument filter and the acceptance test
become global edges.  Chain nodes are then expanded with same-predicate
argument-generalization edges, which stay local.

Neither step checks every eventuality pair: both probe one predicate's
postings with a term and the terms it may entail, and score only the
hits; the reported check counts are still the dense pair counts.
Eventualities are index rows and terms are term ids throughout, and
accepted edges are appended to `EdgeColumns`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, count, groupby

from .corpus import MAX_ARITY, CorpusIndex, probe_postings
from .local import TermProbs, argument_score, compose_edge
from .model import GLOBAL, HYPOTHESES, LOCAL, PREMISES, EdgeColumns
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
    done: set[str] = set()
    for start in sorted(parents):
        # Depth-first with an explicit stack; on_stack maps a node to its frame.
        on_stack = {start: 0}
        stack = [(start, iter(parents.get(start, ())))] if start not in done else []
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                done.add(node)
                del on_stack[node]
                stack.pop()
            elif nxt in on_stack:
                return [frame[0] for frame in stack[on_stack[nxt]:]]
            elif nxt not in done:
                on_stack[nxt] = len(stack)
                stack.append((nxt, iter(parents.get(nxt, ()))))
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
    for s, g in edges:
        children.setdefault(g, []).append(s)

    # Count weakly connected components (the "trees" of the forest) by
    # union-find over the kept edges.
    root: dict[str, str] = {}

    def find(node: str) -> str:
        while root.setdefault(node, node) != node:
            node = root[node]
        return node

    for s, g in edges:
        root[find(s)] = find(g)
    n_trees = sum(1 for node, up in root.items() if node == up)

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

    # Cut each chain at the removed roots; keep the runs of two or more.
    cut = removed.__contains__
    runs = (tuple(run) for chain in chains for gone, run in groupby(chain, cut) if not gone)
    return tuple(sorted({run for run in runs if len(run) >= 2}))


def infer_path_edges(
    index: CorpusIndex, path: tuple[str, ...], rule_scores: dict[tuple[str, str], float],
    probs: TermProbs, tau_a: float, tau_e: float,
) -> tuple[EdgeColumns, int]:
    """Accepted global edges for one predicate path, plus the dense number
    of candidate pairs, |left| x |right| summed over the path edges.

    A pair passes the argument filter when its aligned arguments are
    identical or its argument score exceeds tau_a, and is accepted when
    it is identical or its composed score also exceeds tau_e.  A passing
    pair has an aligned slot with identical or taxonomy-related terms, so
    only the right rows found under a left term or one of its concepts
    are scored.
    """
    edges = EdgeColumns()
    add = edges.append
    checks = 0
    pattern, args, cond = index.pattern, index.args, index.cond_prob
    for pred_l, pred_r in zip(path, path[1:]):
        rule_score = rule_scores.get((pred_l, pred_r), 0.0)
        left = index.by_predicate.get(pred_l, ())
        right = index.by_predicate.get(pred_r, ())
        checks += len(left) * len(right)
        pid_r = index.predicate_ids.get(pred_r)
        held = set(map(pattern.__getitem__, right))  # the patterns pred_r has rows of
        for lid in left:
            args_l = args[lid * MAX_ARITY:(lid + 1) * MAX_ARITY]
            cond_l = cond[lid]
            for pat_r, slots, type_code in HYPOTHESES[pattern[lid]]:
                if pat_r not in held:
                    continue
                probes = [(j, args_l[i]) for i, j in slots]
                hits = probe_postings(index, pid_r, pat_r, probes, probs)
                for rid in hits:
                    args_r = args[rid * MAX_ARITY:(rid + 1) * MAX_ARITY]
                    identical, arg_score = argument_score(args_l, args_r, slots, probs)
                    if not identical and arg_score <= tau_a:
                        continue
                    pen, local = compose_edge(rule_score, cond_l, cond[rid], arg_score)
                    if identical or local > tau_e:
                        add(lid, rid, arg_score, rule_score, pen, local, type_code, GLOBAL)
    return edges, checks


def expand_with_argument_rules(
    index: CorpusIndex, chain_nodes, rule_by_pair: dict[tuple[int, int], float], tau_e: float
) -> tuple[EdgeColumns, int]:
    """Attach incoming same-predicate edges to chain nodes (any iterable
    of index rows), plus the dense number of candidates, the other
    eventualities of each node's predicate.  The nodes are marked over
    the rows and taken predicate by predicate, in row order.

    A candidate premise must relate every aligned term identically or
    through an argument rule, and its composed score (with identity
    predicate score) must clear tau_e.  That is stricter than
    `argument_score`, where one identical slot saturates the noisy-OR, so
    expansion keeps its own slot loop.  Only premises whose first aligned
    term is the node's, or a source of a rule into it, are looked at.
    """
    rule_sources: dict[int, list[int]] = {}
    for (t_from, t_to), score in rule_by_pair.items():
        if score > 0.0:
            rule_sources.setdefault(t_to, []).append(t_from)
    pattern, args, cond = index.pattern, index.args, index.cond_prob
    marked = bytearray(len(index.ids))
    for node in chain_nodes:
        marked[node] = 1

    edges = EdgeColumns()
    add = edges.append
    checks = 0
    for pid, same_pred in enumerate(index.by_predicate.values()):
        if not any(map(marked.__getitem__, same_pred)):
            continue
        held = set(map(pattern.__getitem__, same_pred))
        n_other = len(same_pred) - 1
        for node in compress(same_pred, map(marked.__getitem__, same_pred)):
            checks += n_other
            node_args = args[node * MAX_ARITY:(node + 1) * MAX_ARITY]
            cond_node = cond[node]
            for cand_pat, slots, type_code in PREMISES[pattern[node]]:
                if cand_pat not in held:
                    continue
                first_from, first_to = slots[0]
                hits = probe_postings(
                    index, pid, cand_pat, [(first_from, node_args[first_to])], rule_sources
                )
                hits.pop(node, None)
                for cand in hits:
                    cand_args = args[cand * MAX_ARITY:(cand + 1) * MAX_ARITY]
                    miss = 1.0
                    for i, j in slots:
                        t_from, t_to = cand_args[i], node_args[j]
                        if t_from == t_to:
                            miss = 0.0
                            continue
                        score = rule_by_pair.get((t_from, t_to), 0.0)
                        if score <= 0.0:
                            break
                        miss *= 1.0 - score
                    else:
                        pen, local = compose_edge(1.0, cond[cand], cond_node, 1.0 - miss)
                        if local > tau_e:
                            add(cand, node, 1.0 - miss, 1.0, pen, local, type_code, LOCAL)
    return edges, checks


@dataclass(frozen=True)
class GlobalResult:
    edges: EdgeColumns  # in (from row, to row) order
    candidate_checks: int
    expansion_checks: int


def run_global_stage(
    index: CorpusIndex, paths: tuple[tuple[str, ...], ...],
    rule_scores: dict[tuple[str, str], float], probs: TermProbs,
    rule_by_pair: dict[tuple[int, int], float], tau_a: float, tau_e: float,
) -> GlobalResult:
    """Run path inference plus expansion over every path and merge, in
    the seal's (from row, to row) order, so the seal moves nothing.

    Each distinct predicate pair and each distinct chain node (an
    endpoint of its path's pair edges) is computed once however many
    paths share it; the check counts stay the dense per-path sums.  No
    (from, to) pair is found twice: a path edge's pairs join two
    predicates, expansion's pairs one.
    """
    merged = EdgeColumns()
    pair_checks: dict[tuple[str, str], int] = {}
    pair_nodes: dict[tuple[str, str], array] = {}  # each pair's endpoint rows
    for pair in sorted({pair for path in paths for pair in zip(path, path[1:])}):
        edges, pair_checks[pair] = infer_path_edges(index, pair, rule_scores, probs, tau_a, tau_e)
        merged.extend(edges)
        pair_nodes[pair] = array("I", sorted(set(edges.src).union(edges.dst)))

    total_checks = total_exp = 0
    chain_nodes = bytearray(len(index.ids))  # 1 at each chain node's row
    others = [len(index.by_predicate[p]) - 1 for p in index.predicates]
    for path in paths:
        nodes: set[int] = set()
        for pair in zip(path, path[1:]):
            total_checks += pair_checks[pair]
            nodes.update(pair_nodes[pair])
        for node in nodes:
            chain_nodes[node] = 1
        total_exp += sum(others[index.predicate[node]] for node in nodes)
    del pair_nodes

    rows = array("I", compress(count(), chain_nodes))
    merged.extend(expand_with_argument_rules(index, rows, rule_by_pair, tau_e)[0])
    merged.sort(len(index.ids))
    return GlobalResult(merged, total_checks, total_exp)
