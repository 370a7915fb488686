"""Dense linear-algebra primitives: centering, covariance, residualization.

Everything here is a pure function over immutable inputs.  Covariance uses
the 1/n normalizer; regression coefficients are invariant to that choice.
"""

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, SingularMatrixError

# A covariance block is solved with a diagonal ridge only when its condition
# number exceeds this.
COND_LIMIT = 1e12
RIDGE_SCALE = 1e-8
# A residual this small relative to its variable is rounding error: OLS on
# an exactly collinear regressor set leaves about 1e-16 of the scale.
COLLINEAR_RTOL = 1e-8


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
        """Sub-matrix holding only the given variables, in the given order.

        A variable whose row is zero throughout raises DegenerateInputError.
        """
        wanted = tuple(int(i) for i in ids)
        values = self.values[_rows(self, wanted)]
        if not values.any(axis=1).all():
            flat = [i for i, row in zip(wanted, values) if not row.any()]
            raise DegenerateInputError(f"variable(s) {flat} have zero variance")
        return _derived(values, wanted)


def _rows(data: DataMatrix, ids: tuple[int, ...]) -> list[int]:
    """Row position of each id, in the order given."""
    pos = {v: r for r, v in enumerate(data.variable_ids)}
    missing = [i for i in ids if i not in pos]
    if missing:
        raise InvalidInputError(f"unknown variable ids: {missing}")
    return [pos[i] for i in ids]


def _derived(values: np.ndarray, variable_ids: tuple[int, ...]) -> DataMatrix:
    """DataMatrix of rows derived from a validated one, so finite and centered already."""
    _check_layout(values, variable_ids)
    out = object.__new__(DataMatrix)
    object.__setattr__(out, "values", values)
    object.__setattr__(out, "variable_ids", variable_ids)
    return out


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


def _solve_spd(sigma_s: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve sigma_s @ B = rhs through one symmetric eigendecomposition.

    A block with a NaN or infinite entry raises SingularMatrixError.  A block
    whose largest eigenvalue is not at most COND_LIMIT times its smallest
    (for a positive semidefinite block: whose condition number exceeds
    COND_LIMIT) gets RIDGE_SCALE times its mean eigenvalue added to every
    eigenvalue.  One whose smallest eigenvalue is still not positive, such as
    an all-zero block, raises SingularMatrixError.
    """
    m = sigma_s.shape[0]
    if not np.all(np.isfinite(sigma_s)):
        raise SingularMatrixError(f"covariance block of size {m} has non-finite entries")
    lam, vec = np.linalg.eigh(sigma_s)
    if not lam[-1] <= COND_LIMIT * lam[0]:
        lam = lam + RIDGE_SCALE * float(np.trace(sigma_s)) / m
    if not lam[0] > 0.0:
        raise SingularMatrixError(f"covariance block of size {m} is singular even with a ridge")
    return vec @ ((vec.T @ rhs) / lam[:, None])


def regress_on(data: DataMatrix, subset: Iterable[int]):
    """OLS of the remaining variables on x_S.

    Returns ``(coef, residuals)`` where ``coef[t, s]`` is the weight of the
    s-th subset variable in the t-th remaining variable, and ``residuals`` is
    a DataMatrix over the remaining variables in their original order.  An
    x_S block that ``_solve_spd`` cannot solve raises SingularMatrixError.
    A residual whose standard deviation is at most ``COLLINEAR_RTOL`` times
    its variable's own in ``data`` (a variable that is, up to rounding, a
    linear function of x_S) raises DegenerateInputError naming them all.
    """
    s_set = {int(i) for i in subset}
    s_ids = tuple(sorted(s_set))
    s_pos = _rows(data, s_ids)
    if not 0 < len(s_ids) < data.n_variables:
        raise InvalidInputError("subset must be a non-empty proper subset of the variables")
    rest_pos = [r for r, v in enumerate(data.variable_ids) if v not in s_set]
    rest_ids = tuple(data.variable_ids[r] for r in rest_pos)
    cross = covariance(data)[s_pos]
    beta = _solve_spd(cross[:, s_pos], cross[:, rest_pos])  # (|S|, |rest|)
    own = data.values[rest_pos]
    resid = own - beta.T @ data.values[s_pos]
    kept = resid.std(axis=1) > COLLINEAR_RTOL * own.std(axis=1)
    if not kept.all():
        raise DegenerateInputError(
            f"residual standard deviation at most {COLLINEAR_RTOL:g} of the variable's own for "
            f"variable(s) {[v for v, ok in zip(rest_ids, kept) if not ok]} regressed on "
            f"{list(s_ids)}: up to rounding, a linear function of them"
        )
    return beta.T, _derived(resid, rest_ids)


def residualize(data: DataMatrix, subset: Iterable[int]) -> DataMatrix:
    """Residuals of the remaining variables after regressing them on x_S."""
    return regress_on(data, subset)[1]
