"""Seeded input generators for the benchmark workloads.

Each generator writes the three evgraph input files (corpus, taxonomy,
verb hierarchy) into a directory and is a pure function of its seed.
The structure of a workload (which signatures each predicate holds,
the frequencies, the taxonomy and the trees) comes from a fixed
structure seed, so every seed makes the same amount of work and the
same number of accepted edges. The run seed renames every token
through a random permutation of its index and shuffles the line order
of each file, so sort orders, hash layouts and the sampled checks and
queries differ from one seed to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CORPUS_FILE = "corpus.tsv"
TAXONOMY_FILE = "taxonomy.tsv"
HIERARCHY_FILE = "hierarchy.tsv"


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


STRUCTURE_SEED = 0


def _permutations(rng: random.Random, sizes: dict[str, int]) -> dict[str, list[int]]:
    """One random relabelling of range(size) per kind of token."""
    return {kind: rng.sample(range(n), n) for kind, n in sizes.items()}


def _write_inputs(
    directory: Path, rng: random.Random, corpus, taxonomy, hierarchy
) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    for lines in (corpus, taxonomy, hierarchy):
        rng.shuffle(lines)
    files = {
        "corpus": directory / CORPUS_FILE,
        "taxonomy": directory / TAXONOMY_FILE,
        "verb_hierarchy": directory / HIERARCHY_FILE,
    }
    _write(files["corpus"], corpus)
    _write(files["taxonomy"], taxonomy)
    _write(files["verb_hierarchy"], hierarchy)
    return files


# chains-100k: N_CHAINS disjoint chains of CHAIN_LEN predicates, each
# predicate holding the BASE (subject, object) signatures of its chain plus
# one concept record for every CONCEPT_EVERY-th of them: 27 + 6 = 33
# eventualities per predicate, 99k in all, the ROADMAP's 100k reference size.
N_CHAINS = 1000
CHAIN_LEN = 3
BASE = 27
CONCEPT_EVERY = 5
# Concepts per chain; a chain's concept records cycle through them.
N_CONCEPTS = 3


def write_chains(directory: Path, seed: int) -> dict[str, Path]:
    """Disjoint predicate chains of s-v-o records.

    Every predicate of a chain holds the same BASE (subject, object)
    signatures, so consecutive predicates share them exactly. Every
    CONCEPT_EVERY-th object also has a taxonomy concept (plus a
    distractor concept outside the vocabulary), and its subject occurs
    once more with that concept as the object, which feeds both
    taxonomy-mediated path edges and argument-rule expansion.
    """
    srng = random.Random(STRUCTURE_SEED)
    rng = random.Random(seed)
    perm = _permutations(rng, {"chain": N_CHAINS, "concept": N_CONCEPTS})
    corpus: list[str] = []
    taxonomy: list[str] = []
    hierarchy: list[str] = []
    for c in range(N_CHAINS):
        chain = perm["chain"][c]
        row = rng.sample(range(BASE), BASE)
        preds = [f"v{chain}x{j}" for j in range(CHAIN_LEN)]
        for left, right in zip(preds, preds[1:]):
            hierarchy.append(f"{left}\t{right}\thypernym")
        concept_of = {}
        for r in range(0, BASE, CONCEPT_EVERY):
            concept = f"g{chain}x{perm['concept'][(r // CONCEPT_EVERY) % N_CONCEPTS]}"
            concept_of[r] = concept
            taxonomy.append(f"{concept}\to{chain}x{row[r]}\t{srng.randint(3, 9)}")
            taxonomy.append(f"thing\to{chain}x{row[r]}\t{srng.randint(1, 3)}")
        for pred in preds:
            for r in range(BASE):
                subj = f"s{chain}x{row[r]}"
                corpus.append(
                    f"s-v-o\tn1={subj};v1={pred};n2=o{chain}x{row[r]}\t{srng.randint(1, 9)}"
                )
                if r in concept_of:
                    corpus.append(
                        f"s-v-o\tn1={subj};v1={pred};n2={concept_of[r]}\t{srng.randint(1, 9)}"
                    )
    return _write_inputs(Path(directory), rng, corpus, taxonomy, hierarchy)


# Verb-rooted patterns drawn by forest-wide; only four of their 25 ordered
# pairs are admissible (s-v-a entails s-be-a only, which never occurs here).
FOREST_PATTERNS = ("s-v", "s-v-o", "s-v-o-p-o", "s-v-a")


def _forest_roles(pattern: str, sig: tuple[str, str, str, str], prep: str) -> str:
    subj, obj, pobj, adj = sig
    if pattern == "s-v":
        return f"n1={subj}"
    if pattern == "s-v-o":
        return f"n1={subj};n2={obj}"
    if pattern == "s-v-o-p-o":
        return f"n1={subj};n2={obj};p1={prep};n3={pobj}"
    if pattern == "s-v-a":
        return f"n1={subj};a1={adj}"
    return f"n1={subj};p1={prep};n2={obj}"  # s-v-p-o


# forest-wide: N_TREES verb trees, each a root with BRANCHING mids and
# BRANCHING leaves under each mid (13 verbs, 9 leaf-to-root paths per tree).
N_TREES = 3
BRANCHING = 3
# Records per verb of each FOREST_PATTERNS pattern, and of s-v-p-o (which
# forms the verb-preposition compound). 60 each makes every predicate wide
# enough that the dense pair enumeration of the global stage dominates.
PER_PATTERN = 60
VP_RECORDS = 60
# Signature tuples per tree, drawn over these vocabularies; a pool this
# small makes the predicates of a tree share signatures, so BInc has
# context to score.
POOL_SIZE = 400
N_SUBJECTS = 120
N_OBJECTS = 120
# Taxonomy concepts per tree, themselves objects.
N_TREE_CONCEPTS = 8


def write_forest(directory: Path, seed: int) -> dict[str, Path]:
    """A few branching verb trees, so every leaf-to-root path shares its
    mid-to-root edge with its siblings.

    Each verb predicate holds PER_PATTERN records of each pattern in
    FOREST_PATTERNS, and VP_RECORDS s-v-p-o records that form its
    verb-preposition compound predicate. Signatures are drawn from a
    per-tree pool of POOL_SIZE (subject, object, prep-object,
    adjective) tuples. Every third object has a taxonomy concept that
    also occurs as an object.
    """
    srng = random.Random(STRUCTURE_SEED)
    rng = random.Random(seed)
    n_verbs = 1 + BRANCHING + BRANCHING * BRANCHING
    corpus: list[str] = []
    taxonomy: list[str] = []
    hierarchy: list[str] = []
    for t, tree in enumerate(rng.sample(range(N_TREES), N_TREES)):
        perm = _permutations(
            rng,
            {"s": N_SUBJECTS, "o": N_OBJECTS + N_TREE_CONCEPTS, "q": N_OBJECTS // 2,
             "a": N_OBJECTS // 4, "w": n_verbs},
        )

        def name(kind: str, i: int) -> str:
            return f"{kind}{tree}x{perm[kind][i]}"

        # Verb k's parent is (k - 1) // BRANCHING: the root, then the mids.
        verbs = [name("w", k) for k in range(n_verbs)]
        for k in range(1, n_verbs):
            hierarchy.append(f"{verbs[k]}\t{verbs[(k - 1) // BRANCHING]}\thypernym")
        for i in range(0, N_OBJECTS, 3):
            concept = name("o", N_OBJECTS + i % N_TREE_CONCEPTS)
            taxonomy.append(f"{concept}\t{name('o', i)}\t{srng.randint(2, 9)}")
            taxonomy.append(f"thing\t{name('o', i)}\t{srng.randint(1, 4)}")
        pool = [
            (
                name("s", srng.randrange(N_SUBJECTS)),
                name("o", srng.randrange(N_OBJECTS + N_TREE_CONCEPTS)),
                name("q", srng.randrange(N_OBJECTS // 2)),
                name("a", srng.randrange(N_OBJECTS // 4)),
            )
            for _ in range(POOL_SIZE)
        ]
        prep = ("on", "in", "at")[t % 3]
        for verb in verbs:
            quota = [(p, PER_PATTERN) for p in FOREST_PATTERNS]
            quota.append(("s-v-p-o", VP_RECORDS))
            for pattern, count in quota:
                seen: set[str] = set()
                while len(seen) < count:
                    roles = _forest_roles(pattern, pool[srng.randrange(POOL_SIZE)], prep)
                    if roles in seen:
                        continue
                    seen.add(roles)
                    corpus.append(f"{pattern}\t{roles};v1={verb}\t{srng.randint(1, 9)}")
    return _write_inputs(Path(directory), rng, corpus, taxonomy, hierarchy)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[Path, int], dict[str, Path]]
    workers: int
    # Build-and-read rounds per end-to-end run; metrics are medians over them.
    builds: int
    # Independent-check sample sizes: path predicate pairs and chain nodes.
    check_pairs: int
    check_nodes: int
    queries_per_kind: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chains-100k", write_chains, workers=1, builds=2,
                 check_pairs=120, check_nodes=300, queries_per_kind=2),
        Workload("forest-wide", write_forest, workers=2, builds=5,
                 check_pairs=8, check_nodes=150, queries_per_kind=8),
    )
}
