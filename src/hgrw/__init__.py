"""Homophily-oriented rewiring of heterogeneous graphs.

Pipeline: measure per-meta-path homophily, learn pairwise node similarity
from neighborhood attribute/label distributions, rewire meta-path subgraphs
toward higher homophily, and merge the result back into the graph.
"""

from .diagnostics import ComplexityInputs, complexity_measure, homophily_report, mean_aggregation
from .errors import (
    DataError,
    HgrwError,
    NumericError,
    UndefinedMeasureError,
    UndefinedRatioError,
    UsageError,
)
from .dataio import load_graph, save_graph
from .learner import LearnerConfig, read_checkpoint, train
from .metapath import MetaPath, compose_metapath, enumerate_metapaths
from .rewire import RewireConfig, merge_into_graph, rewire_metapath, score_candidates
from .synth import SynthConfig, synth_generate
from .targets import TargetsConfig, similarity_targets

__all__ = [
    "ComplexityInputs",
    "DataError",
    "HgrwError",
    "LearnerConfig",
    "MetaPath",
    "NumericError",
    "RewireConfig",
    "SynthConfig",
    "TargetsConfig",
    "UndefinedMeasureError",
    "UndefinedRatioError",
    "UsageError",
    "complexity_measure",
    "compose_metapath",
    "enumerate_metapaths",
    "homophily_report",
    "load_graph",
    "mean_aggregation",
    "merge_into_graph",
    "read_checkpoint",
    "rewire_metapath",
    "score_candidates",
    "save_graph",
    "similarity_targets",
    "synth_generate",
    "train",
]

__version__ = "0.1.0"
