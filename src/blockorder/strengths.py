"""Connection-strength estimation for a given block ordering.

Each variable is regressed by OLS on every variable in strictly earlier
blocks (the ordering carries no sparsity information, so non-parents simply
estimate near zero).  Within-block entries stay exactly zero; what the model
cannot orient is reported instead as the covariance of each block's
variables after the earlier blocks' effects are removed.  Both come from one
``qr_factor`` of the samples in block order: with L = Rᵀ/√n, block b's
coefficients on its predecessors P are L_bP L_PP⁻¹ and its residual covariance
is L_bb L_bbᵀ.  One ``check_collinear`` call rejects a variable that is a
linear function of the blocks before it (SingularMatrixError before the last
block, DegenerateInputError in it); both search modes use ``assemble_model``.
"""

import numpy as np

from .errors import InvalidInputError
from .linalg import DataMatrix, check_collinear, qr_factor
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

    order = tuple(i for block in ordering.blocks for i in block)
    r = qr_factor(data.restrict(order).values)
    sizes = [len(block) for block in ordering.blocks]
    spans = [(end - size, end) for size, end in zip(sizes, np.cumsum(sizes))]
    # blocks before the last are regressors (a pivot is never larger than the
    # residual on the earlier blocks), the last block's variables responses
    last = spans[-1][0]
    check_collinear(r, order, last)
    # one solve on the leading triangle (all blocks but the last) turns column
    # i of R above its diagonal block, R_Pi, into R_PP⁻¹ R_Pi followed by zeros
    level = np.repeat(np.arange(len(sizes)), sizes)
    coef = np.linalg.solve(r[:last, :last], np.where(level[:last, None] < level, r[:last], 0.0))
    b = np.zeros((p, p))
    b[np.ix_(order, order[:last])] = coef.T
    within = [r[s:e, s:e].T @ r[s:e, s:e] / data.n_samples for s, e in spans]
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
        noise_std[list(block)] = np.sqrt(np.diag(cov))
    return ChainGraphModel(b, ordering, noise_std, tuple(within))
