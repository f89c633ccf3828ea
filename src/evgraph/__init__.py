"""Eventuality entailment graph construction.

Pipeline: decompose pattern-coded eventualities into predicate and
argument surfaces, mine argument/predicate entailment rules from an
is-a taxonomy and a verb hierarchy, score rule compositions locally,
then populate eventuality edges along predicate entailment paths.
"""

from .config import PipelineConfig
from .corpus import CorpusIndex, read_corpus
from .model import ADMISSIBLE_TYPE_PAIRS, PATTERNS, TYPE_LABELS, Eventuality, ScoredEdge
from .pipeline import BuildResult, build, run_build
from .store import EntailmentGraph, query_entails, read_graph, stats, write_graph

__all__ = [
    "ADMISSIBLE_TYPE_PAIRS",
    "PATTERNS",
    "TYPE_LABELS",
    "BuildResult",
    "CorpusIndex",
    "EntailmentGraph",
    "Eventuality",
    "PipelineConfig",
    "ScoredEdge",
    "build",
    "query_entails",
    "read_corpus",
    "read_graph",
    "run_build",
    "stats",
    "write_graph",
]

__version__ = "0.1.0"
