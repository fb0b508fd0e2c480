"""Homophily-oriented rewiring of heterogeneous graphs.

Pipeline: measure per-meta-path homophily, learn pairwise node similarity
from neighborhood attribute/label distributions, rewire meta-path subgraphs
toward higher homophily, and merge the result back into the graph.
"""

from .diagnostics import (
    ComplexityInputs,
    HomophilyReport,
    ari,
    complexity_measure,
    homophily_report,
    mean_aggregation,
)
from .errors import (
    DataError,
    HgrwError,
    NumericError,
    UndefinedMeasureError,
    UndefinedRatioError,
    UsageError,
)
from .graph import HeteroGraph, HeteroSchema, NodeType, Relation, validate_graph
from .dataio import load_graph, save_graph
from .learner import LearnerConfig, SimilarityModel, read_checkpoint, save_model, train
from .metapath import (
    MetaPath,
    MetaPathSubgraph,
    compose_metapath,
    enumerate_metapaths,
    homophily_ratio,
    path_label,
)
from .multiobjective import SimplexWeights, min_norm_point
from .rewire import (
    CandidateSet,
    RewireConfig,
    RewirePlan,
    merge_into_graph,
    rewire_metapath,
    score_candidates,
)
from .sparse import CsrMatrix
from .synth import SynthConfig, synth_generate
from .targets import (
    DistributionFeatures,
    SimilarityTargets,
    TargetsConfig,
    neighborhood_distributions,
    similarity_targets,
)

__all__ = [
    "CandidateSet",
    "ComplexityInputs",
    "CsrMatrix",
    "DataError",
    "DistributionFeatures",
    "HeteroGraph",
    "HeteroSchema",
    "HgrwError",
    "HomophilyReport",
    "LearnerConfig",
    "MetaPath",
    "MetaPathSubgraph",
    "NodeType",
    "NumericError",
    "Relation",
    "RewireConfig",
    "RewirePlan",
    "SimilarityModel",
    "SimilarityTargets",
    "SimplexWeights",
    "SynthConfig",
    "TargetsConfig",
    "UndefinedMeasureError",
    "UndefinedRatioError",
    "UsageError",
    "ari",
    "complexity_measure",
    "compose_metapath",
    "enumerate_metapaths",
    "homophily_ratio",
    "homophily_report",
    "load_graph",
    "mean_aggregation",
    "merge_into_graph",
    "min_norm_point",
    "neighborhood_distributions",
    "path_label",
    "read_checkpoint",
    "rewire_metapath",
    "save_graph",
    "save_model",
    "score_candidates",
    "similarity_targets",
    "synth_generate",
    "train",
    "validate_graph",
]

__version__ = "0.1.0"
