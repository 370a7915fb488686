"""Hot numeric kernels for nearest-neighbor counting.

The mutual-information estimator spends essentially all of its time finding
per-point k-th neighbor distances and counting marginal neighbors under the
max norm.  The k-th neighbor kernel computes the pairwise distances exactly,
one row block at a time.  A block is sized to stay in a core's L2 cache, and
its buffers are allocated once per row range and reused for every block, so
the loop itself allocates nothing; the block size never changes a result.

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

A call whose pairwise pass spans at least two row blocks (n > 256 for the
k-th distances, n > 512 for the 16-bit box test) splits its rows into
contiguous ranges, one per core in the process's affinity mask
(``os.sched_getaffinity``): the calling thread computes the first range and
a thread pool the others.  The pool is created with the module and starts its
threads on the first call that splits.  Each range allocates its own
buffers; together they hold one block, so scratch memory does not grow with
the core count.  Every output row is written by one thread with the same
arithmetic, so the results are bit-identical for any core count, and there
is no setting for it.  A pairwise pass with a single row block, and every
one-dimensional count, runs serially on the calling thread and never
touches the pool.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# 512 KiB per scratch buffer: 65,536 float64 distances
_CHUNK_BYTES = 1 << 19
# threads besides the caller's
_WORKERS = len(os.sched_getaffinity(0)) - 1


def _start_pool():
    # an executor starts a thread only when work is submitted to it; a forked
    # child inherits the pool but none of its threads, so it needs a new one
    global _pool
    _pool = ThreadPoolExecutor(max(_WORKERS, 1), thread_name_prefix="blockorder-kernels")


_start_pool()
os.register_at_fork(after_in_child=_start_pool)


def _coordinates(points):
    """The (n, d) ``points`` as a contiguous coordinate-major (d, n) float64 array."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d (n, d) array")
    return np.ascontiguousarray(pts.T)


def _kth_rows(cols, k, out, start, stop, rows):
    """k-th neighbor distances of the points ``start:stop``, ``rows`` points at a time.

    ``cols`` is the coordinate-major (d, n) point set.  The max-norm
    distances from a block of points to all n are formed in a buffer
    allocated once for the whole range, with a second one as scratch, and
    partitioned in place.
    """
    shape = (min(rows, stop - start), cols.shape[1])
    dist_buf, tmp_buf = np.empty(shape), np.empty(shape)
    for lo in range(start, stop, rows):
        hi = min(lo + rows, stop)
        dist, tmp = dist_buf[: hi - lo], tmp_buf[: hi - lo]
        np.subtract(cols[0, lo:hi, None], cols[0], out=dist)
        np.abs(dist, out=dist)
        for r in range(1, cols.shape[0]):
            np.subtract(cols[r, lo:hi, None], cols[r], out=tmp)
            np.abs(tmp, out=tmp)
            np.maximum(dist, tmp, out=dist)
        dist.partition(k, axis=1)
        out[lo:hi] = dist[:, k]


def _box_rows(ranks, first, width, out, start, stop, rows):
    """Count, for each point of ``start:stop``, the points inside its rank box."""
    shape = (min(rows, stop - start), ranks.shape[1])
    diff_buf = np.empty(shape, dtype=ranks.dtype)
    inside_buf, tmp_buf = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
    for lo in range(start, stop, rows):
        hi = min(lo + rows, stop)
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


def _split_rows(cols, rows_fn, *args):
    """Run ``rows_fn(cols, *args, start, stop, rows)`` over every point.

    ``cols`` is a coordinate-major (d, n) array of any dtype.  A block is
    as many points as fill ``_CHUNK_BYTES`` with one value of ``cols``' dtype
    per pair of a block point and any of the n points.  The points are cut
    into one contiguous range per core, but never into more ranges than they
    have blocks.  Each range works through blocks of ``rows`` points,
    ``1/ranges`` of a block, so the ranges' scratch together holds one block
    whatever the core count.  The first range runs on the calling thread,
    the others on the pool, and the call returns once all are done.
    """
    n = cols.shape[1]
    step = max(1, _CHUNK_BYTES // (max(n, 1) * cols.itemsize))
    parts = min(-(-n // step), _WORKERS + 1)
    rows = -(-step // parts)
    bounds = [n * i // parts for i in range(parts + 1)]
    ranges = list(zip(bounds[:-1], bounds[1:]))
    futures = [_pool.submit(rows_fn, cols, *args, start, stop, rows) for start, stop in ranges[1:]]
    try:
        rows_fn(cols, *args, *ranges[0], rows)
    finally:
        # the workers write into the caller's arrays: never return before them
        wait(futures)
    for future in futures:
        future.result()


def kth_neighbor_distance(points, k):
    """Max-norm distance from each point to its k-th nearest neighbor.

    ``points`` is (n, d); the distance to self (0) occupies rank 0, so the
    k-th neighbor is the element of rank k in the sorted distance row.
    """
    cols = _coordinates(points)
    out = np.empty(cols.shape[1], dtype=np.float64)
    _split_rows(cols, _kth_rows, k, out)
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
        _split_rows(ranks, _box_rows, first, width, out)
    # self (distance 0) is inside only a positive radius; tied data can give
    # a radius of 0
    out -= radii > 0
    return out
