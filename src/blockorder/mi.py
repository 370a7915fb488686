"""Nonparametric mutual information via k-nearest-neighbor counting.

The estimator is the digamma-based neighbor-count form: distances use the
max norm, the k-th neighbor radius is found in the joint space, and marginal
neighbors strictly inside that radius are counted per point:

    MI = psi(k) + psi(n) - mean_i[ psi(nx_i + 1) + psi(ny_i + 1) ]

Every digamma argument is an integer in 1..n, so one table of harmonic
numbers per call supplies them all.

Every coordinate is scaled to unit variance first, so scores are comparable
across datasets, and a deterministic content-keyed jitter of magnitude 1e-10
breaks distance ties that discrete-valued inputs would otherwise produce.
Keying the jitter to content (not position) makes the estimate bit-identical
under sample reordering, coordinate reordering, and swapping the two
arguments.
"""

import numpy as np

from ._kernels import count_within, kth_neighbor_distance
from .errors import DegenerateInputError, InvalidInputError

TIE_JITTER_SCALE = 1e-10

_SALT = np.uint64(0x5851F42D4C957F2D)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _tie_jitter(z: np.ndarray) -> np.ndarray:
    """Deterministic per-cell jitter in (-1e-10, 1e-10), keyed to content.

    Each cell's offset is derived from a hash of its own row's values and a
    hash of its own sample's values.  Both hashes are order-independent
    (wrapping uint64 sums), which is what buys the permutation and argument
    -swap invariances.
    """
    bits = np.ascontiguousarray(z + 0.0).view(np.uint64)  # +0.0 folds -0.0 into +0.0
    cell = _splitmix64(bits ^ _SALT)
    sample_key = _splitmix64(cell.sum(axis=0, dtype=np.uint64))
    row_key = cell.sum(axis=1, dtype=np.uint64)
    mixed = _splitmix64(row_key[:, None] ^ sample_key[None, :])
    unit = (mixed >> np.uint64(11)).astype(np.float64) * 2.0**-53  # [0, 1)
    return (2.0 * unit - 1.0) * TIE_JITTER_SCALE


def _digamma_table(n: int) -> np.ndarray:
    """The digamma function at 1..n: entry m - 1 is H(m - 1) - Euler's constant."""
    return np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, n)))) - np.euler_gamma


def mutual_information(x, y, k: int) -> float:
    """Estimated MI in nats between two sample blocks of shape (d, n).

    1-d inputs are treated as single-row blocks; ``k`` is the neighbor
    count, and distances are always max-norm.  Raises if ``k < 1``, if the
    sample counts differ, if ``n <= k``, or if any coordinate has zero
    variance.  Estimates may be slightly negative; callers compare them to
    a threshold as-is.
    """
    k = int(k)
    if k < 1:
        raise InvalidInputError(f"neighbor count must be >= 1, got {k}")
    xm = np.atleast_2d(np.asarray(x, dtype=np.float64))
    ym = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if xm.ndim != 2 or ym.ndim != 2:
        raise InvalidInputError("inputs must be at most 2-d")
    if xm.shape[1] != ym.shape[1]:
        raise InvalidInputError(
            f"sample counts differ: {xm.shape[1]} vs {ym.shape[1]}"
        )
    n = xm.shape[1]
    if n <= k:
        raise InvalidInputError(f"need more than k={k} samples, got {n}")
    joint = np.vstack((xm, ym))
    if not np.all(np.isfinite(joint)):
        raise InvalidInputError("inputs must be finite")
    scale = joint.std(axis=1)
    if not np.all(scale > 0.0):
        raise DegenerateInputError("zero-variance coordinate in MI input")
    scaled = joint / scale[:, None]
    jittered = scaled + _tie_jitter(scaled)

    d_x = xm.shape[0]
    eps = kth_neighbor_distance(jittered.T, k)
    n_x = count_within(jittered[:d_x].T, eps)
    n_y = count_within(jittered[d_x:].T, eps)

    psi = _digamma_table(n)
    # Summing in sorted order keeps the value bit-identical under any
    # permutation of the samples.
    per_sample = psi[n_x] + psi[n_y]
    mean_term = float(np.sort(per_sample).sum()) / n
    return float(psi[k - 1] + psi[n - 1] - mean_term)
