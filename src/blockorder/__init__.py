"""Ordered-block structure estimation for linear non-Gaussian data.

The library identifies an ordered partition of observed variables such that
no later block influences an earlier one, by recursively finding subsets
that are independent of the regression residuals of the remaining variables.
An exact recursive search handles up to ``search.MAX_EXACT_P`` variables; a
covering-based approximation scales to large graphs.  A benchmark generator
and evaluation metrics round out the toolkit; the ``blockorder`` CLI ties
them together.  The names below are the public API; internals are imported
from their own modules.
"""

from .covering import fit_large
from .datagen import (
    GenSpec,
    confounded_example_model,
    derive_seed,
    generate_dataset,
    random_chain_graph,
)
from .errors import (
    BlockOrderError,
    DegenerateInputError,
    InvalidInputError,
    ModelInvalidError,
    SearchTooLargeError,
    SingularMatrixError,
)
from .evaluate import order_error_count, scatter_pairs
from .linalg import DataMatrix, center
from .model import BlockOrdering, ChainGraphModel, read_model_json, write_model_json
from .search import ScoreRecord, SearchConfig, fit

__version__ = "0.1.0"

__all__ = [
    "BlockOrderError",
    "BlockOrdering",
    "ChainGraphModel",
    "DataMatrix",
    "DegenerateInputError",
    "GenSpec",
    "InvalidInputError",
    "ModelInvalidError",
    "ScoreRecord",
    "SearchConfig",
    "SearchTooLargeError",
    "SingularMatrixError",
    "center",
    "confounded_example_model",
    "derive_seed",
    "fit",
    "fit_large",
    "generate_dataset",
    "order_error_count",
    "random_chain_graph",
    "read_model_json",
    "scatter_pairs",
    "write_model_json",
]
