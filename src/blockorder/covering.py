"""Covering-based approximate search for large graphs.

Exact search caps out quickly, so large graphs are handled in two steps.
First, one global causal order is computed from all variables at once by
the sequential search of DirectLiNGAM (Shimizu et al., JMLR 2011), scored
with the pairwise entropy-approximation measure of Hyvarinen & Smith (JMLR
2013).  Second, the exact search runs on many random variable subsets of
size h, each constrained by that order, and only decides which neighbours in
the order share a block.  The order comes from the full data because a
small margin of a dense graph hides common causes: precedence facts read
off margins alone are often wrong.  With h equal to p a subset hides
nothing, so ``fit_large`` is then the exact search ``fit`` itself.

Each step of the order scores variable i as ``S_i = sum_j P_ij``, a sum of
non-negative pair penalties built from four entropies, and keeps only the
argmin.  A partial sum is therefore a lower bound on ``S_i``, and a
candidate whose partial sum exceeds the best exact score by a relative
margin of 1e-9 (far above the rounding of summing in another order) can
neither win nor tie: its remaining pairs are skipped, as in the threshold
pruning of ParaLiNGAM (Shahbazinia, Salehkaleybar & Hashemi, arXiv
2109.13993).  Each step is seeded with the previous step's penalties: the
candidates are visited by their previous scores, and each first computes
its pairs with the partners that penalised it most.  The survivors are
scored in full with the plain formula's arithmetic, so the order is the
one the full score matrix gives, bit for bit.

Each run's block ordering also turns into pairwise precedence facts that are
merged globally.  The bookkeeping is one boolean reachability matrix over
the variables the facts touch, with each merged group entered as a cycle
and the closure taken by repeated squaring.  Mutually reachable variables
form one merged group, so a directed cycle among accumulated pairs
(possible under sampling noise) collapses into a group; the pairs reachable
in one direction only are the transitive closure.  ``build_block_order``
orders these groups and singletons, each step taking the one holding the
smallest variable that no unplaced variable strictly reaches.  Variables a
subset run leaves in one block contribute no facts (merging them would
overstate confounding).

Since precedence is transitive, each run is constrained by the part of the
closure of everything accumulated so far that lies inside its subset: a
candidate S that would reverse any established order, even indirectly, is
never scored.  Under that rule a run's output is always a linear extension
of the known relation, so subset runs cannot create cycles; the merge
machinery still guards callers that feed independently collected pair
batches.

Under the global order that closure adds no constraint.  Every run is also
constrained by the order's pairs within its subset, so its candidates are
prefixes of the subset in the order, its blocks are contiguous in the order
and every pair it yields follows the order; so does the closure of those
pairs.  A run's result therefore depends on its subset alone, and a subset
that holds no two neighbours in the order, which could not join any, is not
searched at all.
"""

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError
from .linalg import DataMatrix
from .model import BlockOrdering
from .search import MAX_EXACT_P, ScoreRecord, SearchConfig, _worker_pool, fit, group_search
from .strengths import assemble_model


@dataclass(frozen=True)
class Covering:
    """Subsets of equal size whose union is the whole variable set."""

    subsets: tuple[tuple[int, ...], ...]


def random_covering(p: int, h: int, n_subsets: int, seed: int) -> Covering:
    """N uniform size-h subsets of 0..p-1, patched so their union covers all.

    Variables missed by the N draws are chunked into extra subsets, each
    padded with uniformly drawn other variables up to size h.
    """
    if not 2 <= h <= p:
        raise InvalidInputError(f"need 2 <= h <= p, got h={h}, p={p}")
    if n_subsets < 1:
        raise InvalidInputError("need at least one subset")
    if seed < 0:
        raise InvalidInputError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    subsets = [
        tuple(sorted(int(v) for v in rng.choice(p, size=h, replace=False)))
        for _ in range(n_subsets)
    ]
    covered = {v for subset in subsets for v in subset}
    missing = sorted(set(range(p)) - covered)
    for start in range(0, len(missing), h):
        chunk = missing[start : start + h]
        pool = np.array(sorted(set(range(p)) - set(chunk)))
        pad = rng.choice(pool, size=h - len(chunk), replace=False)
        subsets.append(tuple(sorted(chunk + [int(v) for v in pad])))
    return Covering(tuple(subsets))


@dataclass(frozen=True)
class PairOrderList:
    """Accumulated precedence pairs plus groups merged out of conflicts.

    ``pairs`` holds (j1, j2) facts meaning j1 precedes j2, with both
    endpoints in different groups; ``groups`` are the collapsed cycles
    (every size >= 2).
    """

    pairs: frozenset[tuple[int, int]]
    groups: tuple[tuple[int, ...], ...]

    @classmethod
    def empty(cls) -> "PairOrderList":
        return cls(frozenset(), ())


def _reachability(pairs, groups) -> tuple[np.ndarray, np.ndarray]:
    """Variables touched by ``pairs`` and ``groups``, and which reaches which.

    Returns ``(nodes, reach)``: ``nodes`` sorted, and ``reach[i, j]`` True
    when ``nodes[i]`` reaches ``nodes[j]`` along the pairs, with each group
    entered as a cycle through its members; every node reaches itself.
    """
    heads = [a for a, _ in pairs]
    tails = [b for _, b in pairs]
    for group in groups:
        heads.extend(group)
        tails.extend(group[1:] + group[:1])
    nodes = np.unique(np.array(heads + tails, dtype=np.int64))
    reach = np.eye(len(nodes), dtype=bool)
    reach[np.searchsorted(nodes, heads), np.searchsorted(nodes, tails)] = True
    # each squaring doubles the path length covered; the 0/1 products sum
    # to exact small integers in float64
    while True:
        step = reach.astype(np.float64)
        wider = step @ step > 0.0
        if np.array_equal(wider, reach):
            return nodes, reach
        reach = wider


def merge_orders(k: PairOrderList, new_pairs) -> PairOrderList:
    """Union old and new pairs; collapse any directed cycle into a group.

    The groups are the classes of mutually reachable variables.  Pairs
    internal to a group leave the precedence relation but the group
    membership is kept.  The result depends only on the union of all pairs
    ever merged, not on the batch order.
    """
    pairs: set[tuple[int, int]] = set(k.pairs)
    for a, b in new_pairs:
        a, b = int(a), int(b)
        if a == b:
            raise InvalidInputError(f"self-pair ({a}, {a}) is not a valid precedence")
        pairs.add((a, b))
    nodes, reach = _reachability(pairs, k.groups)
    mutual = reach & reach.T
    groups = tuple(sorted({tuple(nodes[row].tolist()) for row in mutual[mutual.sum(axis=1) > 1]}))
    internal = {(a, b) for group in groups for a in group for b in group}
    return PairOrderList(frozenset(pairs - internal), groups)


def implied_constraints(k: PairOrderList) -> frozenset[tuple[int, int]]:
    """Transitive closure of the precedence relation, expanded through groups.

    Every pair (a, b) such that a reaches b through recorded pairs and group
    memberships while b does not reach a; these are the orders a later
    subset run must not reverse.
    """
    nodes, reach = _reachability(k.pairs, k.groups)
    rows, cols = np.nonzero(reach & ~reach.T)
    return frozenset(zip(nodes[rows].tolist(), nodes[cols].tolist()))


def extract_pairs(ordering: BlockOrdering) -> list[tuple[int, int]]:
    """All (earlier, later) pairs across blocks; members of one block give none."""
    out: list[tuple[int, int]] = []
    blocks = ordering.blocks
    for a in range(len(blocks)):
        for b in range(a + 1, len(blocks)):
            out.extend((i, j) for i in blocks[a] for j in blocks[b])
    return out


def build_block_order(k: PairOrderList, p: int) -> BlockOrdering:
    """Global ordering over 0..p-1 from accumulated pairs and merged groups.

    The blocks are the mutual-reachability classes; one of two or more that
    is not among ``k.groups`` is a cycle.  Each step emits the class of the
    smallest unplaced variable that no unplaced variable strictly reaches.
    """
    for v in (v for group in k.groups for v in group):
        if not 0 <= v < p:
            raise InvalidInputError(f"variable {v} out of range for p={p}")
    for a, b in k.pairs:
        if not (0 <= a < p and 0 <= b < p):
            raise InvalidInputError(f"pair ({a}, {b}) out of range for p={p}")
    nodes, closure = _reachability(k.pairs, k.groups)
    reach = np.eye(p, dtype=bool)
    reach[np.ix_(nodes, nodes)] = closure
    mutual = reach & reach.T
    classes = {tuple(np.flatnonzero(row).tolist()) for row in mutual}
    if any(len(c) > 1 for c in classes - {tuple(sorted(g)) for g in k.groups}):
        raise InvalidInputError("precedence relation is cyclic; collapse cycles with merge_orders")
    strict = reach & ~mutual
    unplaced = np.ones(p, dtype=bool)
    ordered: list[tuple[int, ...]] = []
    while unplaced.any():
        block = np.flatnonzero(mutual[np.argmax(unplaced & ~strict[unplaced].any(axis=0))])
        ordered.append(tuple(block.tolist()))
        unplaced[block] = False
    return BlockOrdering(tuple(ordered))


# Constants of the maximum-entropy approximation of differential entropy
# (Hyvarinen & Smith, JMLR 2013, eq. 20), for standardised variables.
_ENTROPY_GAUSS = (1.0 + math.log(2.0 * math.pi)) / 2.0
_K1, _K2, _GAMMA = 79.047, 7.4129, 0.37457
# Samples per chunk of pairwise residuals, bounding the order step's memory.
_CHUNK_ELEMENTS = 1 << 17
# A partial score prunes a candidate only above the best exact score by this
# relative margin, far above the rounding of summing m terms in another order.
_PRUNE_MARGIN = 1e-9
# Per order step: how many partners, those of largest previous penalty, each
# candidate computes first, and how many candidates are fully scored per
# round.  Both set speed only.
_PARTNERS = 3
_BATCH = 2


def _entropy(u: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Approximate entropy of each standardised row of ``u`` (last axis: samples).

    ``scratch``, an array of ``u``'s shape and dtype, holds the elementwise
    terms; without it they go to a fresh array.  A standardised value can
    reach sqrt(n), and float32 ``cosh`` overflows above 89.4; in a row where
    it did, log cosh is taken as |u| - log 2 there, its float32-exact limit.
    """
    w = np.empty_like(u) if scratch is None else scratch
    with np.errstate(over="ignore"):
        log_cosh = np.log(np.cosh(u, out=w), out=w).mean(axis=-1, dtype=np.float64)
        big = np.isinf(log_cosh)
        if big.any():
            v = u[big]
            terms = np.log(np.cosh(v))
            log_cosh[big] = np.where(np.isinf(terms), np.abs(v) - math.log(2.0), terms).mean(
                axis=-1, dtype=np.float64
            )
    np.multiply(-0.5, u, out=w)
    np.multiply(w, u, out=w)
    gauss = np.multiply(u, np.exp(w, out=w), out=w).mean(axis=-1, dtype=np.float64)
    return _ENTROPY_GAUSS - _K1 * (log_cosh - _GAMMA) ** 2 - _K2 * gauss**2


def _residual_entropies(
    i: np.ndarray, j: np.ndarray, a: np.ndarray, b: np.ndarray, z32: np.ndarray, buffers: np.ndarray
) -> np.ndarray:
    """Entropy of the standardised residual r_i|j = a_ij z_i - b_ij z_j for each pair (i, j).

    The pairs are formed in chunks of ``_CHUNK_ELEMENTS`` samples in the two
    rows of the float32 array ``buffers``.  Each product is rounded to
    float32 before the difference, so a pair's entropy has the same bits in
    any batch.
    """
    n = z32.shape[1]
    out = np.empty(len(i))
    step = max(1, _CHUNK_ELEMENTS // n)
    for lo in range(0, len(i), step):
        ii, jj = i[lo : lo + step], j[lo : lo + step]
        resid = buffers[0, : len(ii) * n].reshape(len(ii), n)
        scratch = buffers[1, : resid.size].reshape(resid.shape)
        # with mode="clip" np.take fills the buffer directly ("raise" copies
        # through a temporary); every index is in range
        np.take(z32, ii, axis=0, out=resid, mode="clip")
        np.take(z32, jj, axis=0, out=scratch, mode="clip")
        np.multiply(a[ii, jj, None], resid, out=resid)
        np.multiply(b[ii, jj, None], scratch, out=scratch)
        out[lo : lo + step] = _entropy(np.subtract(resid, scratch, out=resid), scratch)
    return out


def _exogeneity_scores(
    z: np.ndarray, buffers: np.ndarray, prior: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """DirectLiNGAM's score of each standardised row of ``z``; lowest is most exogenous.

    Row i scores ``S_i = sum_j P_ij`` with the penalty
    ``P_ij = min(0, H(z_j) + H(r_i|j) - H(z_i) - H(r_j|i))**2``, where
    ``r_i|j`` is the standardised residual of z_i regressed on z_j and H is
    the entropy approximation.  Only the argmin is used, and every penalty
    is >= 0, so a partial sum bounds S_i from below: once it exceeds the
    best exact score by the relative ``_PRUNE_MARGIN``, i can neither win
    nor tie, and its remaining pairs are never computed.

    ``prior`` holds the previous step's penalties on these rows (0 for the
    pairs it did not compute; all 0 at the first step).  The candidate with
    the lowest prior sum, the smallest id among equals, is scored first, in
    full, for the first best score.  Every candidate still alive then
    computes its pairs with the ``_PARTNERS`` partners of largest prior
    penalty (the smallest ids among equals), and the survivors are scored
    in full ``_BATCH`` at a time, lowest partial sum first, pruning again
    after each round.  Which pairs are computed affects speed only: each
    penalty has the bits the whole m-by-m matrix would give it, and a fully
    scored row is summed as a row of that matrix, so the scores, their
    minimum and its smallest index are the plain formula's.

    Returns ``(scores, penalty)``: the exact score of every fully scored
    candidate and inf for the pruned ones, so ``np.argmin`` picks the
    winner, and the penalties computed (0 elsewhere), the next step's
    ``prior``.  ``buffers`` must hold ``max(_CHUNK_ELEMENTS, n)`` float32
    values per row.
    """
    m, n = z.shape
    corr = np.clip(z @ z.T / n, -1.0, 1.0)
    # r_i|j = a[i, j] * z_i - b[i, j] * z_j has unit variance
    a = 1.0 / np.sqrt(np.maximum(1.0 - corr * corr, 1e-12))
    b = (corr * a).astype(np.float32)
    a = a.astype(np.float32)
    z32 = z.astype(np.float32)
    h = _entropy(z)
    h_resid = np.zeros((m, m))
    penalty = np.zeros((m, m))
    done = np.eye(m, dtype=bool)
    scores = np.full(m, np.inf)

    def compute(rows, cols) -> None:
        """Both directions of the pairs ``(rows, cols)`` (indexing an m-by-m array) not done yet."""
        want = np.zeros((m, m), dtype=bool)
        want[rows, cols] = True
        want |= want.T
        want &= ~done
        i, j = np.nonzero(want)
        h_resid[i, j] = _residual_entropies(i, j, a, b, z32, buffers)
        done[i, j] = True
        diff = h[j] + h_resid[i, j] - h[i] - h_resid[j, i]
        penalty[i, j] = np.minimum(diff, 0.0) ** 2

    def survivors() -> np.ndarray:
        """Score the complete rows; the others that can still win, lowest partial sum first."""
        partial = penalty.sum(axis=1)
        complete = done.all(axis=1)
        scores[complete] = partial[complete]
        alive = np.flatnonzero(~complete & (partial <= scores.min() * (1.0 + _PRUNE_MARGIN)))
        return alive[np.argsort(partial[alive], kind="stable")]

    compute(np.argmin(prior.sum(axis=1)), slice(None))
    alive = survivors()
    compute(alive[:, None], np.argsort(-prior[alive], axis=1, kind="stable")[:, :_PARTNERS])
    while len(alive := survivors()):
        compute(alive[:_BATCH], slice(None))
    return scores, penalty


def global_order(data: DataMatrix) -> tuple[int, ...]:
    """Causal order of all variables, most exogenous first.

    DirectLiNGAM with the pairwise entropy-approximation measure: each step
    standardises the remaining variables, takes the one with the lowest
    ``_exogeneity_scores`` next and regresses the others on it.  Ties go to
    the smallest variable id.  The float32 rounding of the pairwise
    residuals is much finer than the approximation.

    A step needs only the argmin of its scores, each a sum of non-negative
    pair penalties, so it prunes a candidate as soon as a partial sum
    exceeds the best exact score by the relative ``_PRUNE_MARGIN`` (1e-9,
    far above the ~m * 2**-53 rounding of summing in another order).  The
    penalties a step computed seed the next one: its candidates are visited
    by their previous sums and start with their largest previous penalties,
    which prunes most candidates early (about 0.3 of all pairwise residual
    entropies are computed at p=100, n=200).  Every computed value and every
    full score has the bits of the full score matrix, and a pruned candidate
    scores above the minimum, so the order is the one that matrix gives.
    """
    x = np.array(data.values, dtype=np.float64)
    n, p = data.n_samples, data.n_variables
    remaining = list(range(p))
    buffers = np.empty((2, max(_CHUNK_ELEMENTS, n)), dtype=np.float32)
    penalty = np.zeros((p, p))
    order: list[int] = []
    while len(remaining) > 1:
        z = x[remaining]
        sd = np.sqrt((z * z).mean(axis=1))
        z /= np.where(sd > 0.0, sd, 1.0)[:, None]
        scores, penalty = _exogeneity_scores(z, buffers, penalty)
        k = int(np.argmin(scores))
        order.append(remaining.pop(k))
        penalty = np.delete(np.delete(penalty, k, axis=0), k, axis=1)
        top = x[order[-1]]
        energy = top @ top
        if energy > 0.0:
            x[remaining] -= np.outer(x[remaining] @ top / energy, top)
    order.extend(remaining)
    return tuple(data.variable_ids[i] for i in order)


def _adjacent_ranks(rank: Mapping[int, int], members: Iterable[int]) -> np.ndarray:
    """Ranks r in the order such that order[r - 1] and order[r] are both members."""
    ranks = np.sort([rank[v] for v in members])
    return ranks[1:][np.diff(ranks) == 1]


def _order_cut(order: Sequence[int], rank: Mapping[int, int], runs: Iterable[BlockOrdering]) -> BlockOrdering:
    """The global order cut into contiguous blocks.

    Two neighbours in the order share a block only when some run kept them
    in one block.  ``rank`` maps each variable to its position in ``order``.
    """
    joined = np.zeros(len(order), dtype=bool)  # joined[r]: order[r - 1] and order[r]
    for ordering in runs:
        for block in ordering.blocks:
            joined[_adjacent_ranks(rank, block)] = True
    cuts = np.flatnonzero(~joined[1:]) + 1
    return BlockOrdering(tuple(tuple(part) for part in np.split(np.asarray(order), cuts)))


def fit_large(data: DataMatrix, h: int, n_subsets: int, cfg: SearchConfig | None = None, seed: int = 0):
    """Approximate estimate via a global order and exact search on a random covering.

    With h == p a subset hides nothing, so this is the exact search ``fit``
    itself, model and trace alike.  With h < p the global causal order of
    all variables is computed first; every subset run is constrained by it,
    and the result is that order cut into contiguous blocks where some run
    kept two neighbours together.

    Every run's candidates are therefore prefixes of its subset in the
    order, so its blocks are contiguous in the order and every precedence
    pair it yields follows the order.  The closure of the pairs accumulated
    so far then follows the order too and adds no constraint: a run's
    output depends on its subset alone, not on which runs came before it.
    A subset that holds no two neighbours in the order cannot join any, so
    it is not searched; it counts as one block, which yields no precedence
    pair, no trace row and no join.  The trace holds the rows of the
    searched subsets in covering order.  Returns ``(model, trace)``.
    """
    cfg = cfg or SearchConfig()
    p = data.n_variables
    if set(data.variable_ids) != set(range(p)):
        raise InvalidInputError("fit_large expects a full matrix with variables 0..p-1")
    if not 2 <= h <= min(p, MAX_EXACT_P):
        raise InvalidInputError(f"need 2 <= h <= min(p, MAX_EXACT_P) = {min(p, MAX_EXACT_P)}, got h={h}")
    if n_subsets < 1:
        raise InvalidInputError("need at least one subset")
    if seed < 0:
        raise InvalidInputError("seed must be >= 0")
    if h == p:
        return fit(data, cfg)
    cover = random_covering(p, h, n_subsets, seed)
    order = global_order(data)
    rank = {v: r for r, v in enumerate(order)}
    trace: list[ScoreRecord] = []
    accumulated = PairOrderList.empty()
    runs: list[BlockOrdering] = []
    with _worker_pool(data.n_samples) as pool:
        for subset in cover.subsets:
            closure = implied_constraints(accumulated)
            if len(_adjacent_ranks(rank, subset)) == 0:
                ordering = BlockOrdering((subset,))
            else:
                constraints = {pair for pair in permutations(subset, 2) if pair in closure}
                constraints |= set(combinations(sorted(subset, key=rank.__getitem__), 2))
                ordering = group_search(data, subset, cfg, constraints, trace, _pool=pool)
            accumulated = merge_orders(accumulated, extract_pairs(ordering))
            runs.append(ordering)
    return assemble_model(data, _order_cut(order, rank, runs)), trace
