"""Connection-strength estimation for a given block ordering.

Each variable is regressed by OLS on every variable in strictly earlier
blocks (the ordering carries no sparsity information, so non-parents simply
estimate near zero).  Within-block entries stay exactly zero; what the model
cannot orient is reported instead as the covariance of each block's
variables after the earlier blocks' effects are removed.  Both search modes
turn their ordering into a model through ``assemble_model``.  Degenerate
variables fail in ``regress_on`` and ``DataMatrix.restrict``.
"""

import numpy as np

from .errors import InvalidInputError
from .linalg import DataMatrix, covariance, regress_on
from .model import BlockOrdering, ChainGraphModel


def estimate_strengths(data: DataMatrix, ordering: BlockOrdering):
    """OLS strengths plus per-block residual covariances.

    Returns ``(b, within)`` where ``b`` is p-by-p with ``b[i, j]`` the
    coefficient of variable j in variable i's regression on its
    predecessors, and ``within[a]`` is the residual covariance of block
    ``a``'s variables (ordered as in the block).
    """
    p = data.n_variables
    if set(data.variable_ids) != set(range(p)):
        raise InvalidInputError("strength estimation expects variables numbered 0..p-1")
    if not ordering.is_partition_of(data.variable_ids):
        raise InvalidInputError("ordering must partition the data's variables")

    b = np.zeros((p, p))
    within: list[np.ndarray] = []
    predecessors: list[int] = []
    for block in ordering.blocks:
        members = list(block)
        if predecessors:
            # regress_on orders its coefficient columns by sorted id
            preds = sorted(predecessors)
            coef, resid = regress_on(data.restrict(preds + members), preds)
            b[np.ix_(members, preds)] = coef
            within.append(covariance(resid))
        else:
            within.append(covariance(data.restrict(members)))
        predecessors.extend(members)
    return b, within


def assemble_model(data: DataMatrix, ordering: BlockOrdering) -> ChainGraphModel:
    """The fitted model for an ordering of the data's variables 0..p-1.

    Strengths and per-block residual covariances come from
    ``estimate_strengths``; each variable's noise scale is the square root of
    its own residual variance in its block.
    """
    b, within = estimate_strengths(data, ordering)
    noise_std = np.zeros(data.n_variables)
    for block, cov in zip(ordering.blocks, within):
        noise_std[list(block)] = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return ChainGraphModel(b, ordering, noise_std, tuple(within))
