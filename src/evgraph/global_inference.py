"""Transitive inference along predicate entailment paths.

The scored predicate rules form a forest (specific -> general, cycles
broken on the weakest edge).  Each kept forest edge clear of the listed
general roots (`forest_pairs`: the distinct edges of the maximal chains,
which `extract_paths` streams into `paths.tsv` at persist) relates the
eventualities of its two predicates: pairs that pass the argument filter
and the acceptance test become global edges.  Their endpoints, the chain
nodes, are then expanded with same-predicate argument-generalization
edges, which stay local.

Neither step checks every eventuality pair: both look a term and the
terms it may entail up in one predicate's block of the posting index,
and score only the hits; the reported check counts are still the dense
counts of each distinct pair and chain node.  Each search is bound once
per (pair, pattern) or (predicate, pattern) block (`corpus.posting_probe`)
and then takes a row's terms.  Path inference probes every left row
against the right predicate's block, so it hashes the block
(`corpus.posting_table`).  `run_global_stage` owns those tables: it
takes the pairs in right-predicate order, builds each right predicate's
table once, passes it to every pair of the group and drops it before
the next is built.  Expansion, which visits only the chain nodes that
can gain an edge, one (predicate, pattern) block at a time, and BInc
augmentation bisect: a block sees far fewer of their probes than it
holds postings, so a table's build would cost more than it saves.
Eventualities are index rows and terms are term ids throughout.  A
pair's accepted edges are collected as rows and made into
`EdgeColumns` by column; expansion appends each of its edges.

Not kept, each measured on a 2-vCPU box with identical outputs:
- a hash table for every search, the posting index deleted: the
  `chains-100k` build 2.50-2.71 -> 2.80-3.33 s (4 alternating runs),
  the local stage 0.15 -> up to 0.27 s;
- bisect for path inference: 0.46-0.64 s against 0.32-0.45 s hashed,
  the `forest-wide` global-stage median 0.112 -> 0.127 s (3 runs);
- expansion through `argument_score` plus an all-slots rule check: the
  `chains-100k` global stage 0.80-0.83 -> 0.98-1.46 s;
- every row counted in `_reachable_rows`: the same siblings in 37-55 ms
  against 5-10 ms on `chains-100k`.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from graphlib import TopologicalSorter
from itertools import chain, compress, count, groupby, islice
from operator import itemgetter

from .corpus import ARITY, MAX_ARITY, CorpusIndex, posting_probe, posting_table
from .local import TermProbs, argument_score, compose_edge
from .model import (
    GLOBAL, HYPOTHESES, LOCAL, PATTERN_ROLES, PATTERNS, PREMISES, EdgeColumns,
)
from .rules import PredicateRule


@dataclass(frozen=True)
class PredicateForest:
    """Acyclic specific->general predicate graph as each predicate's
    parents, with its tree count and the edges dropped to break cycles."""

    parents: dict[str, tuple[str, ...]]  # specific -> more-general predicates
    scores: dict[tuple[str, str], float]  # (specific, general) kept edge -> rule score
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
    edges = {(r.from_pred, r.to_pred): r.score for r in rules}

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
        parents={s: tuple(sorted(p)) for s, p in parents.items() if p},
        scores=edges,
        n_trees=n_trees,
        dropped_edges=tuple(sorted(dropped)),
    )


def _cut(forest: PredicateForest, general_roots: tuple[str, ...]):
    """The forest less the listed roots: each kept predicate's kept
    parents, the sorted starts of its runs (leaves and parents of a root)
    and their ends (tops and children of a root)."""
    removed = set(general_roots)
    parents = forest.parents
    generals = set().union(*parents.values())
    nodes = generals.union(parents) - removed
    kept = {p: tuple(g for g in parents.get(p, ()) if g not in removed) for p in nodes}
    starts = set(parents).difference(generals).union(*(parents.get(r, ()) for r in removed))
    ends = {p for p, gs in kept.items() if not gs or len(gs) < len(parents[p])}
    return kept, sorted(starts - removed), ends


def extract_paths(forest: PredicateForest, general_roots: tuple[str, ...] = ()):
    """The lines of `paths.tsv`, lazily: each maximal specific-first chain
    cut at the listed roots into runs of two or more, each run once, in
    sorted order.  A run is a walk of the forest less the roots from a
    start to an end (`_cut`), and each such walk is a run, so a pre-order
    walk from the sorted starts over sorted parents yields them in order."""
    kept, starts, ends = _cut(forest, general_roots)
    stack = [(start, start) for start in reversed(starts)]  # (partial line, last predicate)
    while stack:
        line, node = stack.pop()
        if node in ends and "\t" in line:
            yield line + "\n"
        stack.extend((f"{line}\t{g}", g) for g in reversed(kept[node]))


def count_paths(forest: PredicateForest, general_roots: tuple[str, ...] = ()) -> int:
    """The number of lines `extract_paths` yields, counted without its walk."""
    kept, starts, ends = _cut(forest, general_roots)
    runs: dict[str, int] = {}  # p -> the walks from p up to an end, p alone included
    for p in TopologicalSorter(kept).static_order():  # parents first
        runs[p] = (p in ends) + sum(map(runs.__getitem__, kept[p]))
    return sum(runs[g] for start in starts for g in kept[start])


def forest_pairs(forest: PredicateForest, general_roots: tuple[str, ...] = ()) -> list:
    """The kept (specific, general) forest edges that touch no listed
    root (`_cut`): the distinct adjacent pairs of `extract_paths`."""
    kept, _, _ = _cut(forest, general_roots)
    return [(s, g) for s, gs in sorted(kept.items()) for g in gs]


def infer_path_edges(
    index: CorpusIndex, pair: tuple[str, str], rule_scores: dict[tuple[str, str], float],
    probs: TermProbs, tau_a: float, tau_e: float, table: dict[int, list[int]],
) -> tuple[EdgeColumns, int]:
    """Accepted global edges for one predicate path edge (left, right),
    plus the dense number of candidate pairs, |left| x |right|.

    A pair passes the argument filter when its aligned arguments are
    identical or its argument score exceeds tau_a, and is accepted when
    it is identical or its composed score also exceeds tau_e.  A passing
    pair has an aligned slot with identical or taxonomy-related terms, so
    only the right rows found under a left term or one of its concepts
    are scored.  They are looked up in `table`, the right predicate's
    `posting_table`.
    """
    pred_l, pred_r = pair
    left = index.by_predicate.get(pred_l, ())
    right = index.by_predicate.get(pred_r, ())
    rule_score = rule_scores.get(pair, 0.0)
    pid_r = index.predicate_ids.get(pred_r)
    pattern, args, cond = index.pattern, index.args, index.cond_prob
    held = set(map(pattern.__getitem__, right))  # the patterns pred_r has rows of
    # Left pattern -> a probe of each counterpart pred_r has rows of.
    probes = {
        pat_l: [
            (posting_probe(index, pid_r, pat_r, slots, probs, table), slots, type_code)
            for pat_r, slots, type_code in HYPOTHESES[pat_l] if pat_r in held
        ]
        for pat_l in set(map(pattern.__getitem__, left))
    }
    found = []  # an (src, dst, arg, pred, pen, local, type, prov) row per edge
    for lid in left:
        args_l = args[lid * MAX_ARITY:(lid + 1) * MAX_ARITY]
        cond_l = cond[lid]
        for probe, slots, type_code in probes[pattern[lid]]:
            for rid in probe(args_l):
                args_r = args[rid * MAX_ARITY:(rid + 1) * MAX_ARITY]
                identical, arg_score = argument_score(args_l, args_r, slots, probs)
                if not identical and arg_score <= tau_a:
                    continue
                pen, local = compose_edge(rule_score, cond_l, cond[rid], arg_score)
                if identical or local > tau_e:
                    found.append((lid, rid, arg_score, rule_score, pen, local, type_code, GLOBAL))
    return EdgeColumns(found), len(left) * len(right)


def _flags(values) -> int:
    """0/1 values, one per row, as an int whose byte r is row r's value."""
    return int.from_bytes(bytes(values), "little")


def _reachable_rows(index: CorpusIndex, targets) -> int:
    """The rows a premise of their own pattern can reach, as `_flags`:
    those that hold one of the target terms in an argument slot, and
    those that share predicate, pattern and signature with another row
    (compound siblings).  Whole-column passes; no loop over rows."""
    is_target = bytearray(len(index.terms))
    for term in targets:
        is_target[term] = 1
    patterns = index.pattern.tobytes()

    def by_pattern(flags) -> bytes:  # a flag per pattern code, read per row
        return patterns.translate(bytes(flags).ljust(256, b"\0"))

    reach = 0
    for slot in range(MAX_ARITY):
        # Slots past a pattern's arity hold term 0, which is masked off.
        # The terms are streamed: a copied column, freed, would raise
        # glibc's mmap threshold and with it the build's later peaks.
        terms = map(is_target.__getitem__, islice(index.args, slot, None, MAX_ARITY))
        reach |= _flags(by_pattern(arity > slot for arity in ARITY)) & _flags(terms)
    # Siblings arise only where decomposition joins two tokens into one
    # surface: in patterns with more roles than surfaces (the predicate
    # and the arguments), so only their rows are counted.
    folds = by_pattern(len(PATTERN_ROLES[p]) > 1 + arity for p, arity in zip(PATTERNS, ARITY))
    keys = zip(index.predicate, index.pattern, index.signature)
    seen = Counter(compress(keys, folds))
    shared = {key for key, n in seen.items() if n > 1}
    if shared:
        keys = zip(index.predicate, index.pattern, index.signature)
        reach |= _flags(map(shared.__contains__, keys))
    return reach


def expand_with_argument_rules(
    index: CorpusIndex, chain_nodes, rule_by_pair: dict[tuple[int, int], float], tau_e: float
) -> tuple[EdgeColumns, int]:
    """Attach incoming same-predicate edges to chain nodes (any iterable
    of index rows), plus the dense number of candidates, the other
    eventualities of each node's predicate.  The nodes are marked over
    the rows and visited one (predicate, pattern) block at a time, each
    in row order.

    A candidate premise must relate every aligned term identically or
    through an argument rule, and its composed score (with identity
    predicate score) must clear tau_e.  That is stricter than
    `argument_score`, where one identical slot saturates the noisy-OR, so
    expansion keeps its own slot loop.  Only premises whose first aligned
    term is the node's, or a source of a rule into it, are looked at.
    The slot loop breaks at the first slot without a rule, which is
    where it saves over scoring every hit.

    A premise of the node's own pattern aligns every slot, so a node that
    holds no rule's target term can only gain one from a row with its
    predicate, pattern and signature: a compound sibling, as decomposition
    folds `at|the-food` and `at-the|food` into one `at-the-food`.  Such a
    node is probed for its own pattern only if it has a sibling, and it
    is not visited at all unless its predicate also holds a premise of
    another pattern for it.
    """
    rule_sources: dict[int, list[int]] = {}
    for (t_from, t_to), score in rule_by_pair.items():
        if score > 0.0:
            rule_sources.setdefault(t_to, []).append(t_from)
    pattern, predicate, args, cond = index.pattern, index.predicate, index.args, index.cond_prob
    n_rows = len(index.ids)
    marked = bytearray(n_rows)
    for node in chain_nodes:
        marked[node] = 1
    others = [len(rows) - 1 for rows in index.by_predicate.values()]
    checks = sum(map(others.__getitem__, compress(predicate, marked)))

    held = set(zip(predicate, pattern))  # the (predicate, pattern) pairs that have rows
    crossing = {  # those where the predicate holds a premise of another pattern
        (pid, pat) for pid, pat in held
        if any(other != pat and (pid, other) in held for other, _, _ in PREMISES[pat])
    }
    reach = visit = _reachable_rows(index, rule_sources)
    if crossing:
        visit |= _flags(map(crossing.__contains__, zip(predicate, pattern)))
    visit = (visit & _flags(marked)).to_bytes(n_rows, "little")
    reachable = reach.to_bytes(n_rows, "little")

    def block(row: int) -> tuple[int, int]:
        return predicate[row], pattern[row]

    edges = EdgeColumns()
    # The nodes a predicate at a time, each in row order, which is id order,
    # so a (predicate, pattern) block comes in one run: its probes are bound once.
    nodes_by_pred = filter(visit.__getitem__, chain.from_iterable(index.by_predicate.values()))
    for (pid, pat), nodes in groupby(nodes_by_pred, block):
        probes = [
            # The node's term of the first slot pair, in the candidate's slot.
            (posting_probe(index, pid, cand_pat, [slots[0][::-1]], rule_sources), cand_pat, slots,
             type_code)
            for cand_pat, slots, type_code in PREMISES[pat] if (pid, cand_pat) in held
        ]
        for node in nodes:
            node_args = args[node * MAX_ARITY:(node + 1) * MAX_ARITY]
            cond_node = cond[node]
            for probe, cand_pat, slots, type_code in probes:
                if cand_pat == pat and not reachable[node]:
                    continue
                hits = probe(node_args)
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
                            edges.append(cand, node, 1.0 - miss, 1.0, pen, local, type_code, LOCAL)
    return edges, checks


@dataclass(frozen=True)
class GlobalResult:
    edges: EdgeColumns  # in (from row, to row) order
    candidate_checks: int
    expansion_checks: int


def run_global_stage(
    index: CorpusIndex, pairs, rule_scores: dict[tuple[str, str], float],
    probs: TermProbs, rule_by_pair: dict[tuple[int, int], float], tau_a: float, tau_e: float,
) -> GlobalResult:
    """Path inference over each of `pairs`, a collection of distinct
    (left, right) predicate pairs, then expansion over the endpoints of
    their edges, merged in the seal's (from row, to row) order, so the
    seal moves nothing.  The check counts are dense: |left| x |right|
    per pair, and the other rows of each chain node's predicate.  No
    (from, to) pair is found twice: a pair's edges join two predicates,
    expansion's one.
    """
    merged = EdgeColumns()
    checks = 0
    for pred_r, group in groupby(sorted(pairs, key=itemgetter(1, 0)), itemgetter(1)):
        pid_r = index.predicate_ids.get(pred_r)
        table = {} if pid_r is None else posting_table(index, pid_r)
        for pair in group:
            edges, n = infer_path_edges(index, pair, rule_scores, probs, tau_a, tau_e, table)
            merged.extend(edges)
            checks += n
        del table

    chain_nodes = bytearray(len(index.ids))  # 1 at each chain node's row
    for node in chain(merged.src, merged.dst):
        chain_nodes[node] = 1
    rows = array("I", compress(count(), chain_nodes))
    expanded, expansion_checks = expand_with_argument_rules(index, rows, rule_by_pair, tau_e)
    merged.extend(expanded)
    del expanded  # not held through the sort
    merged.sort(len(index.ids))
    return GlobalResult(merged, checks, expansion_checks)
