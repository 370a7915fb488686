"""Hot numeric kernels for nearest-neighbor counting.

The mutual-information estimator spends essentially all of its time finding
per-point k-th neighbor distances and counting marginal neighbors under the
max norm.  Both kernels compute the pairwise distances exactly, one row block
at a time.  A block is sized to stay in a core's L2 cache, and its distance
buffers are allocated once per call and reused for every block, so the loop
itself allocates nothing; the block size never changes a result.

A call with at least two row blocks splits its rows into contiguous ranges,
one per core in the process's affinity mask (``os.sched_getaffinity``): the
calling thread computes the first range and a thread pool the others.  Each
range works in its own buffers, which the calling thread allocates; together
they hold one block, so scratch memory does not grow with the core count.
Every output row is written by one thread with the same arithmetic, so the
results are bit-identical for any core count, and there is no setting for
it.  A call with a single row block (n <= 256) runs serially on the calling
thread and never starts the pool.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# 512 KiB of float64 per distance buffer
_CHUNK_FLOATS = 65_536
# threads besides the caller's
_WORKERS = len(os.sched_getaffinity(0)) - 1
# created by the first call that splits, so importing starts no thread
_pool = None
_pool_lock = threading.Lock()


def _reset_after_fork():
    # a forked child inherits the pool but none of its threads, so work
    # queued on it there would never run
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_after_fork)


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="blockorder-kernels")
        return _pool


def _block_rows(n):
    return max(1, _CHUNK_FLOATS // max(n, 1))


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


def _distance_blocks(cols, start, stop, dist_buf, tmp_buf):
    """Yield ``(lo, hi, dist)`` over row blocks of the points ``start:stop``.

    ``cols`` is the coordinate-major (d, n) point set; ``dist`` holds the
    distances from points ``lo:hi`` to all points.  It is a view of
    ``dist_buf``, whose row count is the block size, so the next block
    overwrites it and a caller may reorder it in place.
    """
    step = len(dist_buf)
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        yield lo, hi, _chebyshev_block(cols[:, lo:hi], cols, dist_buf[: hi - lo], tmp_buf[: hi - lo])


def _kth_rows(cols, k, out, start, stop, dist_buf, tmp_buf):
    for lo, hi, dist in _distance_blocks(cols, start, stop, dist_buf, tmp_buf):
        dist.partition(k, axis=1)
        out[lo:hi] = dist[:, k]


def _count_rows(cols, radii, out, start, stop, dist_buf, tmp_buf, inside_buf):
    for lo, hi, dist in _distance_blocks(cols, start, stop, dist_buf, tmp_buf):
        inside = np.less(dist, radii[lo:hi, None], out=inside_buf[: hi - lo])
        inside.sum(axis=1, out=out[lo:hi])


def _split_rows(points, rows_fn, args, buffer_dtypes):
    """Run ``rows_fn(cols, *args, start, stop, *buffers)`` over every row.

    The n rows of the (n, d) ``points`` are cut into one contiguous range
    per core, but never into more ranges than they have row blocks.  The
    ranges share one block's worth of scratch: each gets a buffer of each of
    ``buffer_dtypes`` with ``1/ranges`` of a block's rows, so memory does
    not grow with the core count.  The first range runs on the calling
    thread, the others on the pool, and the call returns once all are done.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d (n, d) array")
    cols = np.ascontiguousarray(pts.T)
    n = cols.shape[1]
    step = _block_rows(n)
    parts = min(-(-n // step), _WORKERS + 1)
    rows = -(-step // parts)
    bounds = [n * i // parts for i in range(parts + 1)]
    calls = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        buffers = [np.empty((min(rows, stop - start), n), dtype=dtype) for dtype in buffer_dtypes]
        calls.append((cols, *args, start, stop, *buffers))
    futures = [_executor().submit(rows_fn, *call) for call in calls[1:]]
    try:
        rows_fn(*calls[0])
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
    _split_rows(points, _kth_rows, (k, out), (np.float64, np.float64))
    return out


def count_within(points, radii):
    """Count, per point, the other points strictly inside its max-norm radius."""
    out = np.empty(len(radii), dtype=np.int64)
    _split_rows(points, _count_rows, (radii, out), (np.float64, np.float64, bool))
    # self (distance 0) is inside only a positive radius; tied data can give
    # a radius of 0
    out -= radii > 0
    return out
