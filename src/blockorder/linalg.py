"""Dense linear-algebra primitives: centering, covariance, residualization.

Everything here is a pure function over immutable inputs.  Covariance uses
the 1/n normalizer; regression coefficients are invariant to that choice.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from .errors import InvalidInputError, SingularMatrixError

# A covariance block is re-solved with a diagonal ridge only when its plain
# condition number exceeds this; past it even after the ridge, we give up.
COND_LIMIT = 1e12
RIDGE_SCALE = 1e-8


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """Centered p-by-n sample matrix plus the original index of each row."""

    values: np.ndarray
    variable_ids: tuple[int, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "variable_ids", tuple(int(i) for i in self.variable_ids))
        _check_layout(values, self.variable_ids)
        scale = 1.0 + np.abs(values).max(axis=1)
        if not np.all(np.isfinite(scale)):  # NaN would defeat the centering check
            raise InvalidInputError("values must be finite (found NaN or inf)")
        if np.any(np.abs(values.mean(axis=1)) > 1e-8 * scale):
            raise InvalidInputError("rows must be centered; use center() on raw data")

    @property
    def n_variables(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    def restrict(self, ids: Iterable[int]) -> "DataMatrix":
        """Sub-matrix holding only the given variables, in the given order."""
        wanted = tuple(int(i) for i in ids)
        pos = {v: r for r, v in enumerate(self.variable_ids)}
        missing = [i for i in wanted if i not in pos]
        if missing:
            raise InvalidInputError(f"unknown variable ids: {missing}")
        values = self.values[[pos[i] for i in wanted]]
        _check_layout(values, wanted)
        # rows of a validated matrix are finite and centered already
        sub = object.__new__(DataMatrix)
        object.__setattr__(sub, "values", values)
        object.__setattr__(sub, "variable_ids", wanted)
        return sub


def _check_layout(values: np.ndarray, variable_ids: tuple[int, ...]) -> None:
    if values.ndim != 2:
        raise InvalidInputError("values must be a 2-d (p, n) array")
    p, n = values.shape
    if p < 1 or n < 2:
        raise InvalidInputError(f"need p >= 1 and n >= 2, got shape {values.shape}")
    if len(variable_ids) != p:
        raise InvalidInputError("variable_ids length must match the row count")
    if len(set(variable_ids)) != p:
        raise InvalidInputError("variable_ids must be distinct")


@dataclass(frozen=True, eq=False)
class CovarianceBlocks:
    """Covariance of (x_S, x_rest) partitioned into its three blocks."""

    sigma_s: np.ndarray
    sigma_s_rest: np.ndarray
    sigma_rest: np.ndarray


def center(raw) -> DataMatrix:
    """Subtract each row's mean; variables are numbered 0..p-1."""
    values = np.atleast_2d(np.asarray(raw, dtype=np.float64))
    if values.ndim != 2:
        raise InvalidInputError("raw data must be a 2-d (p, n) array")
    if values.shape[1] < 2:
        raise InvalidInputError("need at least 2 samples")
    centered = values - values.mean(axis=1, keepdims=True)
    return DataMatrix(centered, tuple(range(values.shape[0])))


def covariance(data: DataMatrix) -> np.ndarray:
    """(1/n) X X^T of a centered matrix, exactly symmetrized."""
    x = data.values
    cov = x @ x.T / x.shape[1]
    return (cov + cov.T) / 2.0


def covariance_blocks(cov: np.ndarray, s_pos: Sequence[int], rest_pos: Sequence[int]) -> CovarianceBlocks:
    s_pos = list(s_pos)
    rest_pos = list(rest_pos)
    return CovarianceBlocks(
        sigma_s=cov[np.ix_(s_pos, s_pos)],
        sigma_s_rest=cov[np.ix_(s_pos, rest_pos)],
        sigma_rest=cov[np.ix_(rest_pos, rest_pos)],
    )


def _solve_spd(sigma_s: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve sigma_s @ B = rhs via Cholesky, ridging only ill-conditioned inputs."""
    m = sigma_s.shape[0]
    ridge_values = (0.0, RIDGE_SCALE * float(np.trace(sigma_s)) / m)
    for ridge in ridge_values:
        attempt = sigma_s if ridge == 0.0 else sigma_s + ridge * np.eye(m)
        cond = np.linalg.cond(attempt)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            continue
        try:
            factor = scipy.linalg.cho_factor(attempt, lower=True)
        except np.linalg.LinAlgError:
            continue
        return scipy.linalg.cho_solve(factor, rhs)
    raise SingularMatrixError(
        f"covariance block of size {m} has condition number above {COND_LIMIT:g} "
        "even after diagonal regularization"
    )


def _split_positions(data: DataMatrix, subset: Iterable[int]):
    s_ids = tuple(sorted({int(i) for i in subset}))
    if not s_ids:
        raise InvalidInputError("subset must not be empty")
    pos = {v: r for r, v in enumerate(data.variable_ids)}
    missing = [i for i in s_ids if i not in pos]
    if missing:
        raise InvalidInputError(f"subset contains unknown variable ids: {missing}")
    if len(s_ids) == data.n_variables:
        raise InvalidInputError("subset must be a proper subset of the variables")
    s_set = set(s_ids)
    rest_ids = tuple(i for i in data.variable_ids if i not in s_set)
    return s_ids, [pos[i] for i in s_ids], rest_ids, [pos[i] for i in rest_ids]


def regress_on(data: DataMatrix, subset: Iterable[int]):
    """OLS of the remaining variables on x_S.

    Returns ``(coef, residuals)`` where ``coef[t, s]`` is the weight of the
    s-th subset variable in the t-th remaining variable, and ``residuals`` is
    a DataMatrix over the remaining variables in their original order.
    """
    s_ids, s_pos, rest_ids, rest_pos = _split_positions(data, subset)
    cov = covariance(data)
    blocks = covariance_blocks(cov, s_pos, rest_pos)
    beta = _solve_spd(blocks.sigma_s, blocks.sigma_s_rest)  # (|S|, |rest|)
    resid = data.values[rest_pos] - beta.T @ data.values[s_pos]
    return beta.T, DataMatrix(resid, rest_ids)


def residualize(data: DataMatrix, subset: Iterable[int]) -> DataMatrix:
    """Residuals of the remaining variables after regressing them on x_S."""
    return regress_on(data, subset)[1]
