"""Test helpers that turn input lines into what the stages read: a corpus
index, a taxonomy table and a verb hierarchy."""

import tempfile
from pathlib import Path

from evgraph.corpus import CorpusIndex, parse_corpus_line
from evgraph.resources import load_taxonomy, load_verb_hierarchy


def _write(path: Path, lines) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def index_from(lines) -> CorpusIndex:
    """The index of corpus lines, each parsed as line i + 1; a repeated
    record keeps its last frequency."""
    return CorpusIndex.build(dict(parse_corpus_line(line, i + 1) for i, line in enumerate(lines)))


def taxonomy_from(lines, tmp_path):
    """`load_taxonomy` of the lines, written as taxonomy.tsv in tmp_path."""
    return load_taxonomy(_write(tmp_path / "taxonomy.tsv", lines))


def store_from(lines):
    """`taxonomy_from` in a temporary directory of its own."""
    with tempfile.TemporaryDirectory() as tmp:
        return taxonomy_from(lines, Path(tmp))


def hierarchy_from(lines, tmp_path, light=None):
    """`load_verb_hierarchy` of the lines, written as hierarchy.tsv in
    tmp_path, with the light verbs, if given, written as light.txt."""
    light_path = None if light is None else _write(tmp_path / "light.txt", light)
    return load_verb_hierarchy(_write(tmp_path / "hierarchy.tsv", lines), light_path)
