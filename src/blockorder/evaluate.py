"""Evaluation metrics: order-error counts and coefficient scatter pairs."""

import numpy as np

from .errors import InvalidInputError
from .model import BlockOrdering, ChainGraphModel


def order_error_count(true_model: ChainGraphModel, estimated: BlockOrdering) -> int:
    """True edges pointing from a later estimated block into an earlier one.

    Counts each nonzero true strength b_ij (an edge j -> i) whose target
    lands strictly before its source in the estimated ordering.  Pairs
    inside one estimated block never count.
    """
    violated = estimated.backward_mask(true_model.n_variables)
    return int(np.count_nonzero((true_model.b != 0.0) & violated))


def scatter_pairs(true_model: ChainGraphModel, estimated_model: ChainGraphModel):
    """(true, estimated) strength for every ordered pair (i, j), i != j."""
    if true_model.n_variables != estimated_model.n_variables:
        raise InvalidInputError("models must have the same number of variables")
    off = ~np.eye(true_model.n_variables, dtype=bool)  # row-major (i, j) order
    return list(zip(true_model.b[off].tolist(), estimated_model.b[off].tolist()))
