"""Exact recursive search for an ordered-block decomposition.

At each level, every admissible proper subset S of the working set U is
scored by the mutual information between x_S and the residuals of the
remaining variables regressed on x_S (``regress_on`` rejects a residual of
rounding size as collinear).  The minimizer splits U when its score
is at or below the threshold delta; otherwise U stays together as one block.
Recursion on the minimizer reuses the original columns; recursion on its
complement uses the residual matrix.  With delta = +inf every block comes
out a singleton (full-ordering mode).
"""

import math
import os
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations
from typing import Collection, NamedTuple

from .errors import InvalidInputError, SearchTooLargeError
from .linalg import DataMatrix, residualize
from .mi import mutual_information
from .model import BlockOrdering
from .strengths import assemble_model

DEFAULT_DELTA = 1e-2
# Largest working set the exact search enumerates (2^p - 2 candidates).
MAX_EXACT_P = 15
# Candidates are scored on threads only above this many samples.  On a 2-core
# VM threads made fits at n = 1000 and 2000 faster but n = 200 slower: four
# p = 100 covering fits took 2.22 s serially and 2.91 s threaded, with one
# pool per fit (medians of 8 alternating rounds).
THREADS_ABOVE_N = 512


@dataclass(frozen=True)
class SearchConfig:
    """Split threshold delta and MI neighbor count k (None: 5% of n)."""

    delta: float = DEFAULT_DELTA
    k: int | None = None

    def __post_init__(self):
        if math.isnan(self.delta) or self.delta < 0.0:
            raise InvalidInputError("delta must be >= 0 (or +inf)")
        if self.k is not None and self.k < 1:
            raise InvalidInputError(f"neighbor count must be >= 1, got {self.k}")


class ScoreRecord(NamedTuple):
    level: int
    subset: tuple[int, ...]
    score: float


def independence_score(data: DataMatrix, subset, k: int) -> float:
    """MI between x_S and the residuals of the remaining variables on x_S."""
    s_ids = tuple(sorted(int(i) for i in subset))
    resid = residualize(data, s_ids)
    return mutual_information(data.restrict(s_ids).values, resid.values, k)


@contextmanager
def _worker_pool(n: int):
    """Worker threads for the scores of a search over n samples, or None.

    When n exceeds ``THREADS_ABOVE_N`` and the affinity mask has more than
    one core, this yields an executor of ``cores - 1`` threads, shut down on
    exit; otherwise it yields None and candidates are scored serially.
    Only ``fit`` and ``fit_large`` open one, for the whole fit, so a fit
    starts its threads once rather than once per level.
    """
    cores = len(os.sched_getaffinity(0))
    if cores < 2 or n <= THREADS_ABOVE_N:
        yield None
        return
    with ThreadPoolExecutor(cores - 1) as pool:
        yield pool


def _scores(data: DataMatrix, candidates, k: int, pool: ThreadPoolExecutor | None = None) -> list[float]:
    """``independence_score`` of each candidate, in enumeration order.

    Without ``pool`` the candidates are scored serially.  With it, the
    pool's workers take the candidates in order, and the calling thread
    scores every one that no worker has started.  Each score is the same
    call on the same inputs, so the scores are bit-identical to a serial
    loop.  A failure drops the candidates no thread has started, waits for
    the ones running and raises the first failure in enumeration order; the
    pool stays open for the caller.
    """
    if pool is None:
        return [independence_score(data, candidate, k) for candidate in candidates]
    futures = [pool.submit(independence_score, data, candidate, k) for candidate in candidates]
    try:
        for i, candidate in enumerate(candidates):
            if futures[i].cancel():
                futures[i] = Future()
                futures[i].set_result(independence_score(data, candidate, k))
    except Exception as error:
        # stored as a worker's error is, so the first failing candidate
        # in enumeration order raises below
        futures[i].set_exception(error)
    finally:
        for future in futures:
            future.cancel()
        wait(futures)
    return [future.result() for future in futures]


def enumerate_candidates(
    u, constraints: Collection[tuple[int, int]] = ()
) -> list[tuple[int, ...]]:
    """Non-empty proper subsets of U, minus constraint violations.

    A known precedence (j1, j2) excludes any subset containing j2 while j1
    stays behind in U \\ S.  Order: by size, then lexicographic.
    """
    members = tuple(sorted(int(i) for i in u))
    if len(set(members)) != len(members):
        raise InvalidInputError("duplicate indices in U")
    if not members:
        raise InvalidInputError("U must not be empty")
    in_u = set(members)
    relevant = [
        (int(a), int(b))
        for a, b in constraints
        if int(a) in in_u and int(b) in in_u and int(a) != int(b)
    ]
    out: list[tuple[int, ...]] = []
    for size in range(1, len(members)):
        for combo in combinations(members, size):
            chosen = set(combo)
            if any(b in chosen and a not in chosen for a, b in relevant):
                continue
            out.append(combo)
    return out


def find_most_exogenous(
    data: DataMatrix,
    u,
    cfg: SearchConfig,
    constraints: Collection[tuple[int, int]] = (),
    trace: list[ScoreRecord] | None = None,
    level: int = 0,
    _pool: ThreadPoolExecutor | None = None,
):
    """Lowest-scoring admissible subset of U and its score.

    Ties go to the smallest subset, then lexicographic order (the
    enumeration order guarantees this).  Returns ``(None, inf)`` when the
    constraints exclude every candidate.  More than ``MAX_EXACT_P``
    variables raise ``SearchTooLargeError`` before any candidate is scored.
    """
    members = tuple(sorted(int(i) for i in u))
    if len(members) < 2:
        raise InvalidInputError("need at least 2 variables to search")
    if len(members) > MAX_EXACT_P:
        raise SearchTooLargeError(
            f"exact search over {len(members)} variables exceeds the guard "
            f"({MAX_EXACT_P}); use the covering-based large-graph mode"
        )
    n = data.n_samples
    k = cfg.k if cfg.k is not None else min(max(1, round(0.05 * n)), n - 1)
    best_subset: tuple[int, ...] | None = None
    best_score = math.inf
    candidates = enumerate_candidates(members, constraints)
    for candidate, score in zip(candidates, _scores(data, candidates, k, _pool)):
        if trace is not None:
            trace.append(ScoreRecord(level, candidate, score))
        if best_subset is None or score < best_score:
            best_subset = candidate
            best_score = score
    return best_subset, best_score


def group_search(
    data: DataMatrix,
    u,
    cfg: SearchConfig,
    constraints: Collection[tuple[int, int]] = (),
    trace: list[ScoreRecord] | None = None,
    _level: int = 0,
    _pool: ThreadPoolExecutor | None = None,
) -> BlockOrdering:
    """Recursive ordered-block decomposition of U; ``data.restrict`` vets U's ids and variances."""
    members = tuple(sorted(int(i) for i in u))
    sub = data.restrict(members)
    if len(members) == 1:
        return BlockOrdering((members,))
    best, score = find_most_exogenous(sub, members, cfg, constraints, trace, _level, _pool)
    if best is None or not score <= cfg.delta:
        return BlockOrdering((members,))
    head = group_search(sub, best, cfg, constraints, trace, _level + 1, _pool)
    rest = tuple(i for i in members if i not in set(best))
    tail = group_search(residualize(sub, best), rest, cfg, constraints, trace, _level + 1, _pool)
    return BlockOrdering(head.blocks + tail.blocks)


def fit(data: DataMatrix, cfg: SearchConfig | None = None):
    """Full exact estimate: block ordering, strengths, residual covariances.

    Returns ``(model, trace)``.  Refuses more than ``MAX_EXACT_P`` variables.
    """
    cfg = cfg or SearchConfig()
    p = data.n_variables
    if set(data.variable_ids) != set(range(p)):
        raise InvalidInputError("fit expects a full matrix with variables 0..p-1")
    trace: list[ScoreRecord] = []
    with _worker_pool(data.n_samples) as pool:
        ordering = group_search(data, data.variable_ids, cfg, (), trace, _pool=pool)
    return assemble_model(data, ordering), trace
