"""Hot numeric kernels for nearest-neighbor counting.

The mutual-information estimator spends essentially all of its time finding
per-point k-th neighbor distances and counting marginal neighbors under the
max norm.  Both kernels' pairwise passes work one row block at a time.  A
block is sized to stay in a core's L2 cache, and its buffers are allocated
once per call and reused for every block; the block size never changes a
result.

The k-th neighbor kernel finds each radius on a 16-bit grid and measures in
float64 only the pairs near it.  One call puts every coordinate on one common
grid, ``q_ri = rint((x_ri - min_r) * s)`` with ``s = 32767 / R`` and R the
largest coordinate range, so the grid distances ``Q_ij = max_r |q_ri - q_rj|``
are exact int16 arithmetic.  Against the float64 distances ``D_ij = max_r
|fl(x_ri - x_rj)|`` that the estimator is defined by,

    |Q_ij - s * D_ij| <= 1 + 2**-35.

Proof: ``x_ri - min_r`` and ``s * (x_ri - min_r)`` are each rounded once with
relative error at most 2**-53 (a subtraction whose result is subnormal is
exact, and a subnormal product is off by at most 2**-1075), and the product
is below 2**15, so it is within 2**-37 of the exact ``s * (x_ri - min_r)``;
``rint`` moves it by at most 1/2.  So ``q_ri - q_rj`` is within
1 + 2**-36 of ``s * (x_ri - x_rj)``.  ``fl(x_ri - x_rj)`` is within
2**-53 |x_ri - x_rj| of the exact difference, at most 2**-38 once scaled.
abs and max over coordinates move no value by more than the largest of
these errors, which sum to less than 1 + 2**-35.

The k-th smallest entry of a row moves by no more than its entries do, so
with T_i the k-th smallest grid distance of row i the radius satisfies
``s * eps_i`` in ``[T_i - 1 - 2**-35, T_i + 1 + 2**-35]``.  A pair with
``Q_ij < T_i - 3`` has ``s * D_ij < T_i - 2 + 2**-35 < s * eps_i``, so it is
strictly nearer than the radius; one with ``Q_ij > T_i + 3`` is strictly
farther.  With L_i pairs below the band ``|Q_ij - T_i| <= 3``, eps_i is the
(k - L_i)-th smallest float64 distance in the band.  Only those pairs, 1.1
to 2.4 per row on average (at most 17) in fits of the benchmark's
workloads, are measured with the float64 arithmetic above, so the radii are
the same bits as from the full distance matrix.

The count kernel builds no distances.  Point j is inside point i's radius
eps_i when ``|x_ri - x_rj| < eps_i`` in every coordinate r, each difference
rounded as a float64 subtraction rounds it.  Rounding is monotone, so along
a sorted coordinate those j form one contiguous range of ranks.  One sort of
the points together with the keys ``x_ri - eps_i`` guesses where each range
starts (and, on ``-x``, where it ends); each end is then checked with the
predicate itself and moved past whole runs of equal values until the check
holds, so the range is exact.  In one dimension the count is the range's
length.  In more, ranks and ranges are stored in the smallest unsigned dtype
that holds n, and the pairwise pass is an integer box test,
``(rank_j - first_i) mod 2**bits < width_i``, ANDed across coordinates: a
narrow unsigned subtract and compare per pair and coordinate instead of a
float64 subtract, abs, max and compare.  The counts are the same integers
as from the distance matrix, at every n.

Every call runs on the calling thread, one row block after another.  The
cores are used one level up, where the work shares nothing: when a pairwise
pass spans at least two row blocks (n > 512, for the int16 grid distances
and the 16-bit box test alike), the exact search scores a level's
candidates concurrently, one thread per core of the process's affinity mask
(``os.sched_getaffinity``) with the calling thread as one of them, and each
kernel call allocates its own scratch.  A call computes the same arithmetic
on the same inputs on whichever thread runs it, so results are
bit-identical for any core count.  There is no setting for it: to use fewer
cores, narrow the affinity mask (for example with ``taskset``).
"""

import numpy as np

# 512 KiB per scratch buffer: 262,144 int16 grid distances
_CHUNK_BYTES = 1 << 19
# the grid's cells are 0.._GRID_MAX, so grid differences fit int16
_GRID_MAX = 32767
# grid distances this close to a row's k-th are measured in float64
_BAND = 3


def _coordinates(points):
    """The (n, d) ``points`` as a contiguous coordinate-major (d, n) float64 array."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d (n, d) array")
    return np.ascontiguousarray(pts.T)


def _block_rows(cols):
    """Points per row block of a pairwise pass over the coordinate-major ``cols``.

    A block is as many points as fill ``_CHUNK_BYTES`` with one value of
    ``cols``' dtype per pair of a block point and any of the n points, which
    is the size of each pairwise buffer the row functions allocate in that
    dtype.
    """
    n = cols.shape[1]
    return max(1, min(n, _CHUNK_BYTES // (max(n, 1) * cols.itemsize)))


def _kth_rows(grid, cols, k, out):
    """k-th neighbor distances of every point, one row block at a time.

    ``grid`` is the (d, n) int16 grid and ``cols`` the float64 points it was
    made from.  The grid distances from a block of points to all n are formed
    in a buffer allocated once per call, with a second one as scratch; only
    the pairs in each row's band are measured in float64.
    """
    n = grid.shape[1]
    rows = _block_rows(grid)
    dist_buf, tmp_buf = np.empty((rows, n), dtype=np.int16), np.empty((rows, n), dtype=np.int16)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        dist, tmp = dist_buf[: hi - lo], tmp_buf[: hi - lo]
        # |q_i - q_j| <= 32767, so neither the difference nor its abs overflows
        np.subtract(grid[0, lo:hi, None], grid[0], out=dist)
        np.abs(dist, out=dist)
        for r in range(1, grid.shape[0]):
            np.subtract(grid[r, lo:hi, None], grid[r], out=tmp)
            np.abs(tmp, out=tmp)
            np.maximum(dist, tmp, out=dist)
        np.copyto(tmp, dist)
        tmp.partition(k, axis=1)
        kth = tmp[:, k, None].copy()
        # the partition leaves every value below the k-th in the first k places
        below = np.count_nonzero(tmp[:, :k] < kth - _BAND, axis=1)
        np.subtract(dist, kth, out=tmp)
        np.abs(tmp, out=tmp)
        # dist is not read again in this block, so its first half holds the mask
        mask = dist.reshape(-1).view(bool)[: dist.size].reshape(dist.shape)
        band = np.flatnonzero(np.less_equal(tmp, _BAND, out=mask))
        row, col = np.divmod(band, n)
        exact = np.abs(cols[:, row + lo] - cols[:, col]).max(axis=0)
        # each row's band is one run of ``row``; sort every run by distance
        order = np.lexsort((exact, row))
        out[lo:hi] = exact[order[np.searchsorted(row, np.arange(hi - lo)) + k - below]]


def _box_rows(ranks, first, width, out):
    """Count, for each point, the points inside its rank box, one row block at a time."""
    n = ranks.shape[1]
    rows = _block_rows(ranks)
    diff_buf = np.empty((rows, n), dtype=ranks.dtype)
    inside_buf, tmp_buf = np.empty((rows, n), dtype=bool), np.empty((rows, n), dtype=bool)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        diff, inside, tmp = diff_buf[: hi - lo], inside_buf[: hi - lo], tmp_buf[: hi - lo]
        for r in range(ranks.shape[0]):
            # unsigned subtraction wraps, so one compare tests both ends
            np.subtract(ranks[r], first[r, lo:hi, None], out=diff)
            np.less(diff, width[r, lo:hi, None], out=tmp if r else inside)
            if r:
                np.logical_and(inside, tmp, out=inside)
        # a count is at most n, so the ranks' dtype holds it
        inside.sum(axis=1, dtype=ranks.dtype, out=out[lo:hi])


def _points_before(keys, n):
    """Per entry of each row of ``keys``, how many of the row's first n sort before it.

    One sort per row: for one of the first n entries this is its rank.
    """
    order = np.argsort(keys, axis=1)
    is_point = order < n
    before = np.empty(keys.shape, dtype=np.int32)
    np.put_along_axis(before, order, np.cumsum(is_point, axis=1, dtype=np.int32) - is_point, axis=1)
    return before


def _rank_windows(cols, radii):
    """Per coordinate, each point's rank and the ranks within its radius.

    Returns ``(ranks, first, width)``, each (d, n) and of the smallest
    unsigned dtype that holds n.  Point j satisfies ``|x_rj - x_ri| <
    radii[i]`` exactly when ``ranks[r, j]`` lies in ``first[r, i] :
    first[r, i] + width[r, i]``.
    """
    d, n = cols.shape
    # x_j is below x_i's window when x_i - x_j >= eps_i and above it when
    # (-x_i) - (-x_j) >= eps_i, each difference rounded as the k-th kernel
    # rounds it; rounding is monotone, so along a sorted coordinate the test
    # holds on a prefix, and its length is what is searched for, on x and -x
    keys = np.empty((2 * d, 2 * n))
    signed = keys[:, :n]
    signed[:d] = cols
    np.negative(cols, out=signed[d:])
    np.subtract(signed, radii, out=keys[:, n:])
    # the number of points before a key x_i - eps_i guesses the prefix's length
    before = _points_before(keys, n)
    # each sorted row between sentinels, -inf and +inf, which the test always
    # and never passes, so a prefix of length c ends between flat[row + c]
    # and flat[row + c + 1]
    padded = np.full((2 * d, n + 2), np.inf)
    padded[:, 0] = -np.inf
    padded[:, 1:-1] = np.sort(signed, axis=1)
    flat = padded.ravel()
    row = np.arange(0, flat.size, n + 2)[:, None]
    # ``starts`` holds the flat position of each run of equal values, and
    # ``run`` the run of each position, so an end moves past a whole run
    changes = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=changes[1:])
    starts = np.flatnonzero(changes)
    run = np.cumsum(changes, dtype=np.int32) - 1
    end = row + before[:, n:]
    while True:
        right = signed - flat[end + 1] >= radii
        left = ~(signed - flat[end] >= radii)
        if not (right.any() or left.any()):
            break
        end[right] = starts[run[end[right] + 1] + 1] - 1
        end[left] = starts[run[end[left]]] - 1
    below = end - row
    first, last = below[:d], n - below[d:]
    dtype = np.min_scalar_type(n)
    return before[:d, :n].astype(dtype), first.astype(dtype), np.maximum(last - first, 0).astype(dtype)


def kth_neighbor_distance(points, k):
    """Max-norm distance from each point to its k-th nearest neighbor.

    ``points`` is (n, d) and finite, and ``1 <= k < n``; the distance to self
    (0) occupies rank 0, so the k-th neighbor is the element of rank k in the
    sorted distance row.
    """
    cols = _coordinates(points)
    n = cols.shape[1]
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n = {n}, got {k}")
    if not np.isfinite(cols).all():
        raise ValueError("points must be finite")
    low = cols.min(axis=1, keepdims=True)
    span = float((cols.max(axis=1, keepdims=True) - low).max())
    scale = _GRID_MAX / span if span > 0 else np.inf
    grid = np.zeros(cols.shape, dtype=np.int16)
    # a range of 0, one that overflows, or one so small that the scale
    # overflows puts every point in one cell: every pair is then in the band
    if 0 < scale < np.inf:
        np.rint((cols - low) * scale, out=grid, casting="unsafe")
    out = np.empty(n, dtype=np.float64)
    _kth_rows(grid, cols, k, out)
    return out


def count_within(points, radii):
    """Count, per point, the other points strictly inside its max-norm radius.

    ``points`` is (n, d) and finite; ``radii`` (n,) is non-negative.
    """
    cols = _coordinates(points)
    radii = np.asarray(radii, dtype=np.float64)
    # the range search needs ordered values and the sentinels +-inf outside
    # every window; a NaN or a radius of -inf would never settle
    if not (np.isfinite(cols).all() and (radii >= 0).all()):
        raise ValueError("points must be finite and radii non-negative")
    ranks, first, width = _rank_windows(cols, radii)
    if len(cols) == 1:
        out = width[0].astype(np.int64)
    else:
        out = np.empty(cols.shape[1], dtype=np.int64)
        _box_rows(ranks, first, width, out)
    # self (distance 0) is inside only a positive radius; tied data can give
    # a radius of 0
    out -= radii > 0
    return out
