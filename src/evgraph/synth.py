"""Input generators: a hand-built demo corpus and synthetic corpora for
stress and oracle testing.  All generators are pure functions of their
seeds and write the standard corpus/taxonomy/hierarchy file formats.
"""

from __future__ import annotations

import random
from pathlib import Path

CORPUS_FILE = "corpus.tsv"
TAXONOMY_FILE = "taxonomy.tsv"
HIERARCHY_FILE = "hierarchy.tsv"


def _write(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _write_inputs(directory: str | Path, corpus, taxonomy, hierarchy) -> dict[str, Path]:
    """Write the three input files into `directory`, made if missing, and
    return their paths by config key."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": directory / CORPUS_FILE,
        "taxonomy": directory / TAXONOMY_FILE,
        "verb_hierarchy": directory / HIERARCHY_FILE,
    }
    for path, lines in zip(paths.values(), (corpus, taxonomy, hierarchy)):
        _write(path, lines)
    return paths


def write_toy_inputs(directory: str | Path) -> dict[str, Path]:
    """The crunch/chew/eat demo corpus.

    Nine s-v-o eventualities over one subject and three food objects,
    plus a drink block that keeps the predicate/argument co-occurrence
    contrasts informative, a two-rule taxonomy (apple/nut are food) and
    the crunch -> chew -> eat verb chain.
    """
    corpus = []
    for verb in ("crunch", "chew", "eat"):
        for obj in ("apple", "food", "nut"):
            corpus.append(f"s-v-o\tn1=boy;v1={verb};n2={obj}\t4")
    corpus.append("s-v-o\tn1=boy;v1=drink;n2=water\t12")
    corpus.append("s-v-o\tn1=boy;v1=drink;n2=milk\t12")
    taxonomy = ["food\tapple\t3", "company\tapple\t1", "food\tnut\t1"]
    hierarchy = ["crunch\tchew\thypernym", "chew\teat\thypernym"]
    return _write_inputs(directory, corpus, taxonomy, hierarchy)


def write_layered_inputs(
    directory: str | Path,
    n_paths: int,
    path_len: int = 3,
    per_predicate: int = 30,
    concept_every: int = 5,
    seed: int = 0,
) -> dict[str, Path]:
    """Layered synthetic corpus: n_paths disjoint predicate chains whose
    layers share argument signatures, so consecutive layers produce both
    identical-argument and taxonomy-mediated candidates.

    Every concept_every-th record also occurs with its concept as the
    object, which feeds the argument-rule expansion stage.
    """
    rng = random.Random(seed)
    corpus: list[str] = []
    taxonomy: list[str] = []
    hierarchy: list[str] = []
    base = max(1, round(per_predicate * concept_every / (concept_every + 1)))
    for c in range(n_paths):
        preds = [f"v{c}x{j}" for j in range(path_len)]
        for left, right in zip(preds, preds[1:]):
            hierarchy.append(f"{left}\t{right}\thypernym")
        n_concepts = max(1, base // concept_every)
        for r in range(base):
            if r % concept_every == 0:
                taxonomy.append(f"g{c}x{r % n_concepts}\to{c}x{r}\t{1 + r % 3}")
        for pred in preds:
            for r in range(base):
                subj, obj = f"s{c}x{r}", f"o{c}x{r}"
                freq = rng.randint(1, 9)
                corpus.append(f"s-v-o\tn1={subj};v1={pred};n2={obj}\t{freq}")
                if r % concept_every == 0:
                    concept = f"g{c}x{r % n_concepts}"
                    corpus.append(
                        f"s-v-o\tn1={subj};v1={pred};n2={concept}\t{rng.randint(1, 9)}"
                    )
    return _write_inputs(directory, corpus, taxonomy, hierarchy)


def write_config_file(path: str | Path, settings: dict[str, object]) -> Path:
    path = Path(path)
    lines = [f"{key}={value}" for key, value in settings.items()]
    _write(path, lines)
    return path
