"""Ordered-block structure estimation for linear non-Gaussian data.

The library identifies an ordered partition of observed variables such that
no later block influences an earlier one, by recursively finding subsets
that are independent of the regression residuals of the remaining variables.
An exact recursive search handles up to ~15 variables; a covering-based
approximation scales to large graphs.  A benchmark generator and evaluation
metrics round out the toolkit; the ``blockorder`` CLI ties them together.
"""

from .covering import (
    Covering,
    PairOrderList,
    build_block_order,
    extract_pairs,
    fit_large,
    implied_constraints,
    merge_orders,
    random_covering,
)
from .datagen import (
    GenSpec,
    confounded_example_model,
    derive_seed,
    generate_dataset,
    random_chain_graph,
    sample_nongaussian,
)
from .errors import (
    BlockOrderError,
    DegenerateInputError,
    InvalidInputError,
    ModelInvalidError,
    SearchTooLargeError,
    SingularMatrixError,
)
from .evaluate import median_errors, order_error_count, scatter_pairs
from .linalg import DataMatrix, center, covariance, residualize
from .mi import MiConfig, default_k, mutual_information
from .model import (
    BlockOrdering,
    ChainGraphModel,
    check_block_lower_triangular,
    mixing_from_adjacency,
    model_from_dict,
    model_to_dict,
    read_model_json,
    simulate,
    write_model_json,
)
from .search import (
    ScoreRecord,
    SearchConfig,
    enumerate_candidates,
    find_most_exogenous,
    fit,
    group_search,
    independence_score,
)
from .strengths import estimate_strengths

__version__ = "0.1.0"

__all__ = [
    "BlockOrderError",
    "BlockOrdering",
    "ChainGraphModel",
    "Covering",
    "DataMatrix",
    "DegenerateInputError",
    "GenSpec",
    "InvalidInputError",
    "MiConfig",
    "ModelInvalidError",
    "PairOrderList",
    "ScoreRecord",
    "SearchConfig",
    "SearchTooLargeError",
    "SingularMatrixError",
    "build_block_order",
    "center",
    "check_block_lower_triangular",
    "confounded_example_model",
    "covariance",
    "default_k",
    "derive_seed",
    "enumerate_candidates",
    "estimate_strengths",
    "extract_pairs",
    "find_most_exogenous",
    "fit",
    "fit_large",
    "generate_dataset",
    "group_search",
    "implied_constraints",
    "independence_score",
    "median_errors",
    "merge_orders",
    "mixing_from_adjacency",
    "model_from_dict",
    "model_to_dict",
    "mutual_information",
    "order_error_count",
    "random_chain_graph",
    "random_covering",
    "read_model_json",
    "residualize",
    "sample_nongaussian",
    "scatter_pairs",
    "simulate",
    "write_model_json",
]
