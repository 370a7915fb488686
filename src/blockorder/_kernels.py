"""Hot numeric kernels for nearest-neighbor counting.

The mutual-information estimator spends essentially all of its time finding
per-point k-th neighbor distances and counting marginal neighbors under the
max norm.  Both kernels compute the pairwise distances exactly, one row block
at a time.  A block is sized to stay in a core's L2 cache, and its distance
buffers are allocated once per row range and reused for every block, so the
loop itself allocates nothing; the block size never changes a result.

A call with at least two row blocks splits its rows into contiguous ranges,
one per core in the process's affinity mask (``os.sched_getaffinity``): the
calling thread computes the first range and a thread pool the others.  The
pool is created with the module and starts its threads on the first call that
splits.  Each range allocates its own buffers; together they hold one block,
so scratch memory does not grow with the core count.  Every output row is
written by one thread with the same arithmetic, so the results are
bit-identical for any core count, and there is no setting for it.  A call
with a single row block (n <= 256) runs serially on the calling thread and
never touches the pool.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# 512 KiB of float64 per distance buffer
_CHUNK_FLOATS = 65_536
# threads besides the caller's
_WORKERS = len(os.sched_getaffinity(0)) - 1


def _start_pool():
    # an executor starts a thread only when work is submitted to it; a forked
    # child inherits the pool but none of its threads, so it needs a new one
    global _pool
    _pool = ThreadPoolExecutor(max(_WORKERS, 1), thread_name_prefix="blockorder-kernels")


_start_pool()
os.register_at_fork(after_in_child=_start_pool)


def _chebyshev_block(block, pts, dist, tmp):
    """Max-norm distances from each point of ``block`` to each of ``pts``.

    Both are coordinate-major, (d, m) and (d, n); the result is written into
    ``dist`` (m, n), with ``tmp`` (m, n) as scratch.
    """
    np.subtract(block[0, :, None], pts[0], out=dist)
    np.abs(dist, out=dist)
    for r in range(1, pts.shape[0]):
        np.subtract(block[r, :, None], pts[r], out=tmp)
        np.abs(tmp, out=tmp)
        np.maximum(dist, tmp, out=dist)
    return dist


def _distance_blocks(cols, start, stop, rows):
    """Yield ``(lo, hi, dist)`` over row blocks of the points ``start:stop``.

    ``cols`` is the coordinate-major (d, n) point set; ``dist`` holds the
    distances from points ``lo:hi`` (at most ``rows`` of them) to all points.
    It is a view of one buffer allocated for the whole range, so the next
    block overwrites it and a caller may reorder it in place.
    """
    shape = (min(rows, stop - start), cols.shape[1])
    dist_buf, tmp_buf = np.empty(shape), np.empty(shape)
    for lo in range(start, stop, rows):
        hi = min(lo + rows, stop)
        yield lo, hi, _chebyshev_block(cols[:, lo:hi], cols, dist_buf[: hi - lo], tmp_buf[: hi - lo])


def _kth_rows(cols, k, out, start, stop, rows):
    for lo, hi, dist in _distance_blocks(cols, start, stop, rows):
        dist.partition(k, axis=1)
        out[lo:hi] = dist[:, k]


def _count_rows(cols, radii, out, start, stop, rows):
    inside_buf = np.empty((min(rows, stop - start), cols.shape[1]), dtype=bool)
    for lo, hi, dist in _distance_blocks(cols, start, stop, rows):
        inside = np.less(dist, radii[lo:hi, None], out=inside_buf[: hi - lo])
        inside.sum(axis=1, out=out[lo:hi])


def _split_rows(points, rows_fn, *args):
    """Run ``rows_fn(cols, *args, start, stop, rows)`` over every row.

    The n rows of the (n, d) ``points`` are cut into one contiguous range
    per core, but never into more ranges than they have row blocks.  Each
    range works through blocks of ``rows`` rows, ``1/ranges`` of a block, so
    the ranges' scratch together holds one block whatever the core count.
    The first range runs on the calling thread, the others on the pool, and
    the call returns once all are done.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d (n, d) array")
    cols = np.ascontiguousarray(pts.T)
    n = cols.shape[1]
    step = max(1, _CHUNK_FLOATS // max(n, 1))
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
    out = np.empty(len(points), dtype=np.float64)
    _split_rows(points, _kth_rows, k, out)
    return out


def count_within(points, radii):
    """Count, per point, the other points strictly inside its max-norm radius."""
    out = np.empty(len(radii), dtype=np.int64)
    _split_rows(points, _count_rows, radii, out)
    # self (distance 0) is inside only a positive radius; tied data can give
    # a radius of 0
    out -= radii > 0
    return out
