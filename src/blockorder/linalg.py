"""Dense linear-algebra primitives: centering, least squares, residualization.

Everything here is a pure function over immutable inputs.  Least squares has
one path, a Householder QR of the samples (``qr_factor``): no covariance is
formed, no normal equations are solved, and there is no ridge.
"""

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, SingularMatrixError

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


def qr_factor(values: np.ndarray) -> np.ndarray:
    """Square upper-triangular R of a Householder QR of the samples, values.T = Q R.

    ``R[k:c + 1, c]`` is variable c's residual on the variables before k, in
    Q's coordinates.  With fewer samples than variables, rows past the n-th are 0.
    """
    p = values.shape[0]
    r = np.zeros((p, p))
    r[: min(values.shape)] = np.linalg.qr(values.T, mode="r")
    return r


def check_collinear(r: np.ndarray, ids: tuple[int, ...], m: int) -> None:
    """Reject a variable that is, up to rounding, a linear function of its regressors.

    ``r`` is ``qr_factor`` of the variables ``ids``, the first m of them the
    regressors (x_S in ``regress_on``, all blocks but the last in
    ``estimate_strengths``).  The first regressor whose pivot (residual on the
    regressors before it) is at most ``COLLINEAR_RTOL`` of its norm raises
    SingularMatrixError, else the responses whose residuals on all m are that
    small raise DegenerateInputError.  Pivots are at least the smallest
    singular value, so regressors of condition below 1 / ``COLLINEAR_RTOL`` pass.
    """
    own = COLLINEAR_RTOL * np.hypot.reduce(r, axis=0, initial=0.0)  # norms that cannot overflow
    spread = np.concatenate((np.abs(np.diag(r)[:m]), np.hypot.reduce(r[m:, m:], axis=0, initial=0.0)))
    flat = np.flatnonzero(~(spread > own))
    if flat.size:
        named, regressors = ([flat[0]], flat[0]) if flat[0] < m else (flat, m)
        raise (SingularMatrixError if flat[0] < m else DegenerateInputError)(
            f"residual standard deviation at most {COLLINEAR_RTOL:g} of the variable's own for "
            f"variable(s) {[ids[c] for c in named]} regressed on {sorted(ids[:regressors])}: "
            "up to rounding, a linear function of them"
        )


def regress_on(data: DataMatrix, subset: Iterable[int]):
    """OLS of the remaining variables on x_S.

    Returns ``(coef, residuals)`` where ``coef[t, s]`` is the weight of the
    s-th subset variable in the t-th remaining variable, and ``residuals`` is
    a DataMatrix over the remaining variables in their original order.  One
    ``qr_factor`` of x_S and the rest gives both; ``check_collinear`` rejects
    a variable of either that is, up to rounding, a linear function of x_S.
    """
    s_set = {int(i) for i in subset}
    s_ids = tuple(sorted(s_set))
    s_pos = _rows(data, s_ids)
    if not 0 < len(s_ids) < data.n_variables:
        raise InvalidInputError("subset must be a non-empty proper subset of the variables")
    rest_pos = [r for r, v in enumerate(data.variable_ids) if v not in s_set]
    rest_ids = tuple(data.variable_ids[r] for r in rest_pos)
    m = len(s_ids)
    r = qr_factor(data.values[s_pos + rest_pos])
    check_collinear(r, s_ids + rest_ids, m)
    beta = np.linalg.solve(r[:m, :m], r[:m, m:])  # (|S|, |rest|)
    resid = data.values[rest_pos] - beta.T @ data.values[s_pos]
    return beta.T, _derived(resid, rest_ids)


def residualize(data: DataMatrix, subset: Iterable[int]) -> DataMatrix:
    """Residuals of the remaining variables after regressing them on x_S."""
    return regress_on(data, subset)[1]
