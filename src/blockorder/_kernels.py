"""Hot numeric kernels for nearest-neighbor counting.

The mutual-information estimator spends essentially all of its time finding
per-point k-th neighbor distances and counting marginal neighbors under the
max norm.  Both kernels compute the pairwise distances exactly, in row
chunks that bound the scratch memory; the chunk size never changes a result.
"""

import numpy as np

# ~32 MB of float64 scratch per chunk
_CHUNK_FLOATS = 4_000_000


def _as_points(points):
    out = np.ascontiguousarray(points, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError("points must be a 2-d (n, d) array")
    return out


def _chebyshev_block(block, pts):
    """Pairwise max-norm distances between a row block and all points."""
    dist = np.abs(block[:, None, 0] - pts[None, :, 0])
    for r in range(1, pts.shape[1]):
        np.maximum(dist, np.abs(block[:, None, r] - pts[None, :, r]), out=dist)
    return dist


def kth_neighbor_distance(points, k):
    """Max-norm distance from each point to its k-th nearest neighbor.

    ``points`` is (n, d); the distance to self (0) occupies rank 0, so the
    k-th neighbor is the element of rank k in the sorted distance row.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    out = np.empty(n, dtype=np.float64)
    step = max(1, _CHUNK_FLOATS // max(n, 1))
    for start in range(0, n, step):
        dist = _chebyshev_block(pts[start : start + step], pts)
        out[start : start + step] = np.partition(dist, k, axis=1)[:, k]
    return out


def count_within(points, radii):
    """Count, per point, the other points strictly inside its max-norm radius."""
    pts = _as_points(points)
    n = pts.shape[0]
    out = np.empty(n, dtype=np.int64)
    step = max(1, _CHUNK_FLOATS // max(n, 1))
    for start in range(0, n, step):
        block = pts[start : start + step]
        dist = _chebyshev_block(block, pts)
        inside = dist < radii[start : start + step, None]
        # self (distance 0) is inside only a positive radius; tied data can
        # give a radius of 0
        out[start : start + step] = inside.sum(axis=1) - inside[
            np.arange(block.shape[0]), np.arange(start, start + block.shape[0])
        ].astype(np.int64)
    return out
