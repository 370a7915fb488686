"""Exact recursive search for an ordered-block decomposition.

At each level, every admissible proper subset S of the working set U is
scored by the mutual information between x_S and the residuals of the
remaining variables regressed on x_S.  The minimizer splits U when its score
is at or below the threshold delta; otherwise U stays together as one block.
Recursion on the minimizer reuses the original columns; recursion on its
complement uses the residual matrix.  With delta = +inf every block comes
out a singleton (full-ordering mode).
"""

import math
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Collection, NamedTuple

from ._kernels import _CHUNK_BYTES
from .errors import DegenerateInputError, InvalidInputError, SearchTooLargeError
from .linalg import DataMatrix, residualize
from .mi import mutual_information
from .model import BlockOrdering
from .strengths import COLLINEAR_RTOL, assemble_model

DEFAULT_DELTA = 1e-2
# Largest working set the exact search enumerates (2^p - 2 candidates).
MAX_EXACT_P = 15


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
    """MI between x_S and the residuals of the remaining variables on x_S.

    A row of either whose standard deviation is at most ``COLLINEAR_RTOL``
    times the same variable's in ``data`` raises ``DegenerateInputError``.
    """
    s_ids = tuple(sorted(int(i) for i in subset))
    resid = residualize(data, s_ids)
    x_s = data.restrict(s_ids)
    floor = dict(zip(data.variable_ids, COLLINEAR_RTOL * data.values.std(axis=1)))
    flat = [i for part in (x_s, resid)
            for i, std in zip(part.variable_ids, part.values.std(axis=1)) if not std > floor[i]]
    if flat:
        raise DegenerateInputError(
            f"standard deviation at most {COLLINEAR_RTOL:g} of the variable's own for variable(s) "
            f"{flat} when scoring candidate {list(s_ids)}: up to rounding, a linear function of "
            "the variables regressed out of them"
        )
    return mutual_information(x_s.values, resid.values, k)


def _scores(data: DataMatrix, candidates, k: int) -> list[float]:
    """``independence_score`` of each candidate, in enumeration order.

    When a kernel's pairwise pass spans more than one row block of int16
    grid distances (n > 512) and the affinity mask has more than one core,
    ``cores - 1`` worker threads take the candidates in order, and the
    calling thread scores every one that no worker has started.  Each score
    is the same call on the same inputs, so the scores are bit-identical to
    a serial loop.  A failure drops the candidates no thread has started,
    joins the workers and raises the first failure in enumeration order.
    """
    cores = len(os.sched_getaffinity(0))
    if cores < 2 or 2 * data.n_samples**2 <= _CHUNK_BYTES:
        return [independence_score(data, candidate, k) for candidate in candidates]
    with ThreadPoolExecutor(cores - 1) as pool:
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
            pool.shutdown(cancel_futures=True)
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
    for candidate, score in zip(candidates, _scores(data, candidates, k)):
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
) -> BlockOrdering:
    """Recursive ordered-block decomposition of U."""
    members = tuple(sorted(int(i) for i in u))
    if not set(members) <= set(data.variable_ids):
        raise InvalidInputError("U must be a subset of the data's variables")
    if len(members) == 1:
        return BlockOrdering((members,))
    sub = data if set(data.variable_ids) == set(members) else data.restrict(members)
    best, score = find_most_exogenous(sub, members, cfg, constraints, trace, _level)
    if best is None or not score <= cfg.delta:
        return BlockOrdering((members,))
    head = group_search(sub.restrict(best), best, cfg, constraints, trace, _level + 1)
    rest = tuple(i for i in members if i not in set(best))
    tail = group_search(residualize(sub, best), rest, cfg, constraints, trace, _level + 1)
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
    ordering = group_search(data, data.variable_ids, cfg, (), trace)
    return assemble_model(data, ordering), trace
