"""Hot numeric kernels for nearest-neighbor counting.

The mutual-information estimator spends essentially all of its time finding
per-point k-th neighbor distances and counting marginal neighbors under the
max norm.  Both kernels compute the pairwise distances exactly, one row block
at a time.  A block is sized to stay in a core's L2 cache, and its distance
buffers are allocated once per call and reused for every block, so the loop
itself allocates nothing; the block size never changes a result.
"""

import numpy as np

# 512 KiB of float64 per distance buffer
_CHUNK_FLOATS = 65_536


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


def _distance_blocks(points):
    """Yield ``(start, stop, dist)`` over row blocks of the (n, d) ``points``.

    ``dist`` holds the distances from points ``start:stop`` to all points;
    it is a view of a buffer that the next block overwrites, so a caller may
    reorder it in place.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d (n, d) array")
    cols = np.ascontiguousarray(pts.T)
    n = cols.shape[1]
    step = _block_rows(n)
    dist_buf = np.empty((min(step, n), n))
    tmp_buf = np.empty_like(dist_buf)
    for start in range(0, n, step):
        stop = min(start + step, n)
        rows = stop - start
        yield start, stop, _chebyshev_block(cols[:, start:stop], cols, dist_buf[:rows], tmp_buf[:rows])


def kth_neighbor_distance(points, k):
    """Max-norm distance from each point to its k-th nearest neighbor.

    ``points`` is (n, d); the distance to self (0) occupies rank 0, so the
    k-th neighbor is the element of rank k in the sorted distance row.
    """
    out = np.empty(len(points), dtype=np.float64)
    for start, stop, dist in _distance_blocks(points):
        dist.partition(k, axis=1)
        out[start:stop] = dist[:, k]
    return out


def count_within(points, radii):
    """Count, per point, the other points strictly inside its max-norm radius."""
    n = len(radii)
    out = np.empty(n, dtype=np.int64)
    inside_buf = np.empty((min(_block_rows(n), n), n), dtype=bool)
    for start, stop, dist in _distance_blocks(points):
        inside = np.less(dist, radii[start:stop, None], out=inside_buf[: stop - start])
        inside.sum(axis=1, out=out[start:stop])
    # self (distance 0) is inside only a positive radius; tied data can give
    # a radius of 0
    out -= radii > 0
    return out
