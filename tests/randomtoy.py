"""Random inputs shared by the tests: small corpora over a handful of
predicates, for the oracle comparisons of the acceptance suite and the
property tests, a `hypothesis` strategy for eventualities, and the
corpus line of one."""

import random
from pathlib import Path

from hypothesis import strategies as st

from evgraph.model import PATTERN_ROLES, PATTERNS, Eventuality
from evgraph.synth import CORPUS_FILE, HIERARCHY_FILE, TAXONOMY_FILE

PREPOSITIONS = ("on", "in", "at")
ADJECTIVES = ("red", "big", "nice")


def write_random_toy(
    directory: str | Path, seed: int, patterns: tuple[str, ...] = PATTERNS
) -> dict[str, Path]:
    """Small random corpus over a handful of predicates, for
    exhaustive-oracle comparisons.  Restrict `patterns` to verb-rooted
    ones to keep the predicate alphabet at the bare verb list."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    n_preds = rng.randint(2, 5)
    preds = [f"p{i}" for i in range(n_preds)]
    subjects = [f"s{i}" for i in range(4)]
    objects = [f"o{i}" for i in range(6)]
    concepts = [f"c{i}" for i in range(3)]

    hierarchy = []
    for j in range(1, n_preds):
        hierarchy.append(f"{preds[j]}\t{preds[rng.randrange(j)]}\thypernym")

    taxonomy = []
    for term in objects + subjects:
        for concept in rng.sample(concepts, rng.randint(0, 2)):
            taxonomy.append(f"{concept}\t{term}\t{rng.randint(1, 5)}")
    if not taxonomy:
        taxonomy.append(f"{concepts[0]}\t{objects[0]}\t1")

    nouns = objects + concepts
    corpus = []
    for _ in range(rng.randint(10, 50)):
        pattern = rng.choice(patterns)
        roles = {"n1": rng.choice(subjects)}
        if pattern in ("s-be-a", "s-be-a-p-o"):
            roles["a1"] = rng.choice(ADJECTIVES)
        else:
            roles["v1"] = rng.choice(preds)
        if pattern == "s-v-a":
            roles["a1"] = rng.choice(ADJECTIVES)
        if pattern in ("s-v-o", "s-v-o-p-o"):
            roles["n2"] = rng.choice(nouns)
        if pattern in ("s-v-p-o", "s-be-a-p-o"):
            roles["p1"] = rng.choice(PREPOSITIONS)
            roles["n2"] = rng.choice(nouns)
        if pattern == "s-v-o-p-o":
            roles["p1"] = rng.choice(PREPOSITIONS)
            roles["n3"] = rng.choice(nouns)
        chunk = ";".join(f"{r}={t}" for r, t in roles.items())
        corpus.append(f"{pattern}\t{chunk}\t{rng.randint(1, 9)}")

    paths = {
        "corpus": directory / CORPUS_FILE,
        "taxonomy": directory / TAXONOMY_FILE,
        "verb_hierarchy": directory / HIERARCHY_FILE,
    }
    for key, lines in (("corpus", corpus), ("taxonomy", taxonomy), ("verb_hierarchy", hierarchy)):
        paths[key].write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return paths


def eventualities(words, frequencies=st.just(1)):
    """Eventualities of all seven patterns with tokens drawn from `words`."""
    return st.builds(
        lambda pattern, tokens, freq: Eventuality.create(
            pattern, dict(zip(PATTERN_ROLES[pattern], tokens)), freq
        ),
        st.sampled_from(PATTERNS),
        st.lists(st.sampled_from(words), min_size=5, max_size=5),
        frequencies,
    )


def corpus_line(pattern: str, tokens, frequency: int) -> str:
    """The corpus line of an eventuality, roles in canonical order."""
    roles = ";".join(f"{role}={token}" for role, token in zip(PATTERN_ROLES[pattern], tokens))
    return f"{pattern}\t{roles}\t{frequency}"
