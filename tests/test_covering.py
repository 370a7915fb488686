"""Tests for the covering-based large-graph search machinery."""

import math
import random
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockorder import (
    BlockOrdering,
    GenSpec,
    InvalidInputError,
    SearchConfig,
    center,
    fit,
    fit_large,
    generate_dataset,
)
from blockorder import covering
from blockorder.covering import (
    _order_cut,
    build_block_order,
    extract_pairs,
    global_order,
    implied_constraints,
    merge_orders,
    random_covering,
)
from blockorder.datagen import _power_noise, derive_seed
from blockorder.search import group_search
from blockorder.strengths import assemble_model


def power_chain():
    """x0 -> x1 -> x2 -> x3 with strength 0.9 and super-Gaussian noise."""
    rng = np.random.default_rng(13)
    rows = [_power_noise(rng, 1500, 2.0)]
    for _ in range(3):
        rows.append(0.9 * rows[-1] + _power_noise(rng, 1500, 2.0))
    return center(np.vstack(rows))


class TestRandomCovering:
    def test_full_size_single_subset(self):
        cover = random_covering(5, 5, 1, seed=0)
        assert cover.subsets == ((0, 1, 2, 3, 4),)

    def test_patching_completes_small_covering(self):
        cover = random_covering(3, 2, 1, seed=1)
        assert len(cover.subsets) == 2
        assert {v for s in cover.subsets for v in s} == {0, 1, 2}
        assert all(len(s) == 2 for s in cover.subsets)

    def test_union_always_complete(self):
        for seed in range(20):
            cover = random_covering(50, 5, 50, seed=seed)
            assert {v for s in cover.subsets for v in s} == set(range(50))
            assert all(len(set(s)) == 5 for s in cover.subsets)

    def test_patching_triggers_for_some_seed(self):
        # 50 draws of 5-of-50 miss a variable often enough that some seed
        # needs patch subsets beyond the requested 50
        assert any(
            len(random_covering(50, 5, 50, seed=seed).subsets) > 50 for seed in range(20)
        )

    def test_deterministic_given_seed(self):
        assert random_covering(20, 4, 10, seed=7) == random_covering(20, 4, 10, seed=7)

    def test_rejects_oversized_subsets(self):
        with pytest.raises(InvalidInputError):
            random_covering(3, 4, 1, seed=0)


class TestMergeOrders:
    def test_plain_union_without_conflict(self):
        k = merge_orders(frozenset(), [(0, 1)])
        assert k == frozenset({(0, 1)})
        k = merge_orders(k, [(1, 2)])
        assert k == frozenset({(0, 1), (1, 2)})

    def test_rejects_self_pair(self):
        with pytest.raises(InvalidInputError):
            merge_orders(frozenset(), [(3, 3)])

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] != p[1]),
            max_size=40,
        ),
        shuffle_seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_order_does_not_matter(self, pairs, shuffle_seed):
        batches = [pairs[i : i + 5] for i in range(0, len(pairs), 5)]
        baseline = frozenset()
        for batch in batches:
            baseline = merge_orders(baseline, batch)
        random.Random(shuffle_seed).shuffle(batches)
        shuffled = frozenset()
        for batch in batches:
            shuffled = merge_orders(shuffled, batch)
        assert shuffled == baseline == frozenset(pairs)


class TestExtractPairs:
    def test_two_blocks(self):
        got = extract_pairs(BlockOrdering(((1, 2), (3,))))
        assert sorted(got) == [(1, 3), (2, 3)]

    def test_single_block_gives_nothing(self):
        assert extract_pairs(BlockOrdering(((0, 1, 2),))) == []

    def test_total_order_closure(self):
        got = extract_pairs(BlockOrdering(((1,), (2,), (3,))))
        assert sorted(got) == [(1, 2), (1, 3), (2, 3)]


class TestImpliedConstraints:
    def test_closure_of_a_chain(self):
        k = merge_orders(frozenset(), [(0, 1), (1, 2)])
        assert implied_constraints(k) == frozenset({(0, 1), (1, 2), (0, 2)})


def reference_reachability(pairs, p: int) -> list[list[bool]]:
    """reach[u][v]: u reaches v along the pairs; Warshall's closure."""
    reach = [[u == v for v in range(p)] for u in range(p)]
    for a, b in pairs:
        reach[a][b] = True
    for w in range(p):
        for u in range(p):
            if reach[u][w]:
                reach[u] = [x or y for x, y in zip(reach[u], reach[w])]
    return reach


@st.composite
def merged_relations(draw):
    """(pairs, p): batches of random pairs over 0..p-1 merged by merge_orders."""
    p = draw(st.integers(1, 9))
    pair = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)).filter(lambda ab: ab[0] != ab[1])
    k = frozenset()
    if p > 1:
        for batch in draw(st.lists(st.lists(pair, max_size=12), max_size=4)):
            k = merge_orders(k, batch)
    return k, p


@st.composite
def acyclic_relations(draw):
    """(pairs, p): a random set of the pairs that follow a random permutation of 0..p-1."""
    p = draw(st.integers(1, 9))
    order = draw(st.permutations(range(p)))
    forward = list(combinations(order, 2))
    pairs = draw(st.sets(st.sampled_from(forward), max_size=len(forward))) if forward else set()
    return frozenset(pairs), p


class TestBuildBlockOrder:
    def test_incomparable_nodes_sorted_by_index(self):
        k = merge_orders(frozenset(), [(0, 1), (0, 2)])
        assert build_block_order(k, 3).to_lists() == [[0], [1], [2]]

    def test_no_pairs_gives_index_order(self):
        assert build_block_order(frozenset(), 3).to_lists() == [[0], [1], [2]]

    def test_out_of_range_pair_rejected(self):
        k = merge_orders(frozenset(), [(0, 9)])
        with pytest.raises(InvalidInputError):
            build_block_order(k, 3)

    @given(relation=st.one_of(merged_relations(), acyclic_relations()))
    @settings(max_examples=300, deadline=None)
    def test_matches_its_definition(self, relation):
        k, p = relation
        reach = reference_reachability(k, p)
        if any(reach[u][v] and reach[v][u] for u in range(p) for v in range(u)):
            with pytest.raises(InvalidInputError, match="cyclic"):
                build_block_order(k, p)
            return
        blocks = build_block_order(k, p).blocks
        assert [len(block) for block in blocks] == [1] * p
        order = [block[0] for block in blocks]
        for i, u in enumerate(order):
            assert not any(reach[v][u] for v in order[i + 1:])
        unplaced = set(range(p))
        for v in order:
            ready = [w for w in unplaced if not any(reach[u][w] for u in unplaced if u != w)]
            assert v == min(ready)
            unplaced.remove(v)


def test_build_block_order_rejects_cyclic_relation():
    with pytest.raises(InvalidInputError):
        build_block_order(frozenset({(0, 1), (1, 0)}), 2)


class TestGlobalOrder:
    def test_recovers_chain(self):
        assert global_order(power_chain()) == (0, 1, 2, 3)

    def test_fit_large_blocks_are_contiguous_in_global_order(self):
        data, _ = generate_dataset(GenSpec(p=10, n=400, seed=19, mode="chain_graph"))
        model, trace = fit_large(data, 4, 8, SearchConfig(delta=0.01), seed=2)
        order = global_order(data)
        # constrained by the order, a run over 4 variables scores only the
        # 3 + 2 + 1 prefixes of its members instead of up to 14 + 6 + 2
        assert len(trace) <= 6 * len(random_covering(10, 4, 8, seed=2).subsets)
        start = 0
        for block in model.ordering.blocks:
            assert set(block) == set(order[start : start + len(block)])
            start += len(block)
        assert start == 10
        assert len(model.ordering) < 10  # some run kept two neighbours together

    def test_only_neighbours_in_the_order_join(self):
        runs = [BlockOrdering(((3, 1), (2,))), BlockOrdering(((0,), (1, 2)))]
        rank = {3: 0, 0: 1, 1: 2, 2: 3}
        assert _order_cut((3, 0, 1, 2), rank, runs).to_lists() == [[3], [0], [1, 2]]

    def test_neighbour_rule_recovers_confounded_blocks(self):
        data, _ = generate_dataset(GenSpec(p=5, n=1000, seed=0, mode="eq4_example"))
        model, _ = fit_large(data, 4, 6, SearchConfig(delta=0.01), seed=2)
        assert model.ordering.to_lists() == [[0, 1], [2], [3, 4]]


def plain_entropy(u):
    """The entropy approximation as plain expressions, each term a fresh array."""
    log_cosh = np.log(np.cosh(u)).mean(axis=-1, dtype=np.float64)
    gauss = (u * np.exp(-0.5 * u * u)).mean(axis=-1, dtype=np.float64)
    k1, k2, gamma = covering._K1, covering._K2, covering._GAMMA
    return covering._ENTROPY_GAUSS - k1 * (log_cosh - gamma) ** 2 - k2 * gauss**2


def plain_global_order(data, dtype=np.float32):
    """The order step with the plain full-matrix formula; returns (order, each step's scores).

    ``dtype`` is the precision of the pairwise residuals (float32 as in
    ``global_order``, or float64 as a reference).
    """
    x = np.array(data.values, dtype=np.float64)
    n = data.n_samples
    remaining = list(range(data.n_variables))
    order, scores = [], []
    while len(remaining) > 1:
        m = len(remaining)
        z = x[remaining]
        sd = np.sqrt((z * z).mean(axis=1))
        z /= np.where(sd > 0.0, sd, 1.0)[:, None]
        corr = np.clip(z @ z.T / n, -1.0, 1.0)
        a = 1.0 / np.sqrt(np.maximum(1.0 - corr * corr, 1e-12))
        b = (corr * a).astype(dtype)
        a = a.astype(dtype)
        z32 = z.astype(dtype)
        h_resid = np.empty((m, m))
        rows = max(1, covering._CHUNK_ELEMENTS // (m * n))
        for lo in range(0, m, rows):
            hi = min(m, lo + rows)
            resid = a[lo:hi, :, None] * z32[lo:hi, None, :] - b[lo:hi, :, None] * z32[None, :, :]
            h_resid[lo:hi] = plain_entropy(resid)
        h = plain_entropy(z)
        diff = h[None, :] + h_resid - h[:, None] - h_resid.T
        np.fill_diagonal(diff, 0.0)
        scores.append((np.minimum(diff, 0.0) ** 2).sum(axis=1))
        order.append(remaining.pop(int(np.argmin(scores[-1]))))
        top = x[order[-1]]
        energy = top @ top
        if energy > 0.0:
            x[remaining] -= np.outer(x[remaining] @ top / energy, top)
    order.extend(remaining)
    return tuple(data.variable_ids[i] for i in order), scores


def record_scores(monkeypatch):
    """Make ``global_order`` append each step's (scores, penalty) to the returned list."""
    recorded = []
    scores_of = covering._exogeneity_scores

    def recording(z, buffers, prior):
        recorded.append(scores_of(z, buffers, prior))
        return recorded[-1]

    monkeypatch.setattr(covering, "_exogeneity_scores", recording)
    return recorded


def count_residual_rows(monkeypatch):
    """Make ``global_order`` count the residual rows (float32) handed to ``_entropy``."""
    count = [0]
    entropy = covering._entropy

    def counting(u, scratch=None):
        if u.dtype == np.float32:
            count[0] += u.shape[0]
        return entropy(u, scratch)

    monkeypatch.setattr(covering, "_entropy", counting)
    return count


def all_pairs(p):
    """Residual entropies the full matrix computes over a whole order: sum of m(m - 1)."""
    return sum(m * (m - 1) for m in range(2, p + 1))


class TestOrderStepBitIdentity:
    """The pruned order step picks what the plain full-matrix formula picks, with its bits."""

    @staticmethod
    def datasets():
        data, _ = generate_dataset(GenSpec(p=7, n=40, seed=8, mode="chain_graph"))
        # integer-valued, with variable 3 a copy of variable 1, so scores tie
        tied = np.round(data.values)
        tied[3] = tied[1]
        return data, center(tied)

    # with p=7 and n=40 one row of pairs is 280 values: the default chunk
    # holds every pair of a step, 840 gives chunks of 21 pairs, and 100 of 2
    # pairs, shorter than a single row
    @pytest.mark.parametrize("chunk", [1 << 17, 840, 100])
    def test_matches_plain_formula(self, chunk, monkeypatch):
        monkeypatch.setattr(covering, "_CHUNK_ELEMENTS", chunk)
        recorded = record_scores(monkeypatch)
        for data in self.datasets():
            recorded.clear()
            order, scores = plain_global_order(data)
            assert global_order(data) == order
            assert len(recorded) == len(scores)
            for (got, _), plain in zip(recorded, scores):
                scored = np.isfinite(got)
                assert got[scored].tobytes() == plain[scored].tobytes()
                # a pruned candidate scores above the minimum, so cannot tie
                assert np.all(plain[~scored] > plain.min())

    def test_tied_scores_go_to_the_smaller_id(self):
        _, tied = self.datasets()
        _, scores = plain_global_order(tied)
        assert scores[0][1] == scores[0][3]
        order = global_order(tied)
        assert order.index(1) < order.index(3)

    @given(
        p=st.integers(3, 25),
        n=st.integers(20, 300),
        seed=st.integers(0, 10_000),
        variant=st.sampled_from(["plain", "rounded", "copied", "flipped"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_order_as_plain_formula(self, p, n, seed, variant):
        data, _ = generate_dataset(GenSpec(p=p, n=n, seed=seed, mode="chain_graph"))
        values = data.values.copy()
        if variant == "rounded":  # integer-valued, so pairs of scores tie
            values = np.round(values)
        elif variant == "copied":
            values[p - 1] = values[0]
        elif variant == "flipped":
            values[p - 1] = -values[1]
        data = center(values)
        assert global_order(data) == plain_global_order(data)[0]

    # the default chunk, and chunks of 3 pairs and of half a pair (so one
    # pair each), both shorter than a row of 5 pairs
    @pytest.mark.parametrize("n", [40, 200, 1001])
    @pytest.mark.parametrize("pairs_per_chunk", [None, 3, 0.5])
    def test_pair_batches_match_the_full_chunk(self, n, pairs_per_chunk, monkeypatch):
        if pairs_per_chunk is not None:
            monkeypatch.setattr(covering, "_CHUNK_ELEMENTS", int(pairs_per_chunk * n))
        rng = np.random.default_rng(n)
        m = 6
        z = rng.laplace(size=(m, n)) + 0.5 * rng.laplace(size=(1, n))
        z /= np.sqrt((z * z).mean(axis=1))[:, None]
        corr = np.clip(z @ z.T / n, -1.0, 1.0)
        a = 1.0 / np.sqrt(np.maximum(1.0 - corr * corr, 1e-12))
        b = (corr * a).astype(np.float32)
        a = a.astype(np.float32)
        z32 = z.astype(np.float32)
        full = plain_entropy(a[:, :, None] * z32[:, None, :] - b[:, :, None] * z32[None, :, :])
        buffers = np.empty((2, max(covering._CHUNK_ELEMENTS, n)), dtype=np.float32)
        others = np.array([0, 1, 3, 4, 5])
        row = (np.full(5, 2), others)
        column = (others, np.full(5, 2))
        gathered = (rng.integers(0, m, 17), rng.integers(0, m, 17))
        for i, j in (row, column, gathered):
            got = covering._residual_entropies(i, j, a, b, z32, buffers)
            assert got.tobytes() == full[i, j].tobytes()


class TestOrderStepWork:
    """Pruning skips most residual entropies (a speed guard; outputs are pinned above)."""

    def test_criterion_six_data(self, monkeypatch):
        spec = GenSpec(p=50, n=1000, seed=derive_seed(7, 0), mode="chain_graph")
        data, _ = generate_dataset(spec)
        count = count_residual_rows(monkeypatch)
        global_order(data)
        assert count[0] <= 0.5 * all_pairs(50)

    def test_wide_chain(self, monkeypatch):
        data, _ = generate_dataset(GenSpec(p=100, n=200, seed=0, mode="chain_graph"))
        count = count_residual_rows(monkeypatch)
        global_order(data)
        assert count[0] <= 0.4 * all_pairs(100)


def test_outlier_beyond_float32_cosh(monkeypatch):
    """A standardised value above 89.4 overflows float32 cosh; the order step stays finite."""
    rng = np.random.default_rng(0)
    x = rng.laplace(size=(6, 10_000))
    for i in range(1, 6):
        x[i] += 0.8 * x[i - 1]
    x[2, 0] = 1e5  # about 100 standard deviations
    data = center(x)
    recorded = record_scores(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        order = global_order(data)
    for scores, penalty in recorded:
        assert not np.isnan(scores).any() and np.isfinite(scores.min())
        assert np.isfinite(penalty).all()
    assert order == plain_global_order(data, np.float64)[0]


def has_order_neighbours(order, subset):
    return any(abs(order.index(u) - order.index(v)) == 1 for u, v in combinations(subset, 2))


def search_every_subset(data, h, n_subsets, seed, cfg):
    """Covering mode with every drawn subset searched under the order's constraints alone.

    Returns the model, the order and each subset with its own trace rows.
    """
    order = global_order(data)
    runs, traces = [], []
    for subset in random_covering(data.n_variables, h, n_subsets, seed).subsets:
        rows = []
        constraints = set(combinations(sorted(subset, key=order.index), 2))
        runs.append(group_search(data.restrict(subset), subset, cfg, constraints, rows))
        traces.append((subset, rows))
    rank = {v: r for r, v in enumerate(order)}
    return assemble_model(data, _order_cut(order, rank, runs)), order, traces


class TestSkipRule:
    """Skipping the subsets without two order neighbours leaves the model unchanged."""

    @pytest.mark.parametrize("p", [12, 30])
    @pytest.mark.parametrize("h", [3, 4, 5])
    def test_matches_searching_every_subset(self, p, h):
        cfg = SearchConfig(delta=0.01)
        searched = skipped = joined = 0
        for seed in range(4):
            data, _ = generate_dataset(GenSpec(p=p, n=200, seed=seed, mode="chain_graph"))
            model, trace = fit_large(data, h, 12, cfg, seed)
            expected, order, traces = search_every_subset(data, h, 12, seed, cfg)
            assert model.ordering == expected.ordering
            assert model.b.tobytes() == expected.b.tobytes()
            kept = [has_order_neighbours(order, subset) for subset, _ in traces]
            assert trace == [row for keep, (_, rows) in zip(kept, traces) if keep for row in rows]
            searched += sum(kept)
            skipped += len(kept) - sum(kept)
            joined += len(model.ordering) < p
        # both kinds of subset occur, and some fit keeps two neighbours together
        assert searched and skipped and joined


class TestRunsFollowTheOrder:
    """Every precedence pair a covering fit accumulates follows the global order,
    which is why ``merge_orders`` needs no conflict handling."""

    @pytest.mark.parametrize("p", [12, 30])
    @pytest.mark.parametrize("h", [3, 4, 5])
    def test_merged_pairs_and_their_closure_follow_the_order(self, p, h, monkeypatch):
        batches, relations = [], []
        merge = covering.merge_orders

        def recording(pairs, new_pairs):
            batches.append(list(new_pairs))
            relations.append(merge(pairs, batches[-1]))
            return relations[-1]

        monkeypatch.setattr(covering, "merge_orders", recording)
        cfg = SearchConfig(delta=0.01)
        yielded = 0
        for seed in range(4):
            batches.clear()
            relations.clear()
            data, _ = generate_dataset(GenSpec(p=p, n=200, seed=seed, mode="chain_graph"))
            fit_large(data, h, 12, cfg, seed)
            forward = set(combinations(global_order(data), 2))
            assert all(pair in forward for batch in batches for pair in batch)
            assert implied_constraints(relations[-1]) <= forward
            yielded += sum(map(len, batches))
        assert yielded  # some run orders two variables


class TestFitLarge:
    def test_degenerate_covering_matches_exact_search_on_dag(self):
        data, _ = generate_dataset(GenSpec(p=4, n=800, seed=11, mode="dag"))
        cfg = SearchConfig(delta=math.inf)
        exact = group_search(data, data.variable_ids, cfg)
        large, _ = fit_large(data, h=4, n_subsets=1, cfg=cfg, seed=0)
        assert large.ordering.blocks == exact.blocks

    def test_full_size_subsets_are_the_exact_search(self):
        data, _ = generate_dataset(GenSpec(p=4, n=300, seed=11, mode="dag"))
        cfg = SearchConfig(delta=0.05)
        exact, exact_trace = fit(data, cfg)
        large, large_trace = fit_large(data, h=4, n_subsets=3, cfg=cfg, seed=0)
        assert large.ordering == exact.ordering
        assert np.array_equal(large.b, exact.b)
        assert large_trace == exact_trace
        with pytest.raises(InvalidInputError):
            fit_large(data, h=4, n_subsets=0, cfg=cfg, seed=0)

    def test_pairwise_runs_reconstruct_total_order(self):
        data = power_chain()
        cfg = SearchConfig(delta=0.05)
        k = frozenset()
        for subset in [(a, b) for a in range(4) for b in range(a + 1, 4)]:
            ordering = group_search(data.restrict(subset), subset, cfg, implied_constraints(k))
            k = merge_orders(k, extract_pairs(ordering))
        assert build_block_order(k, 4).to_lists() == [[0], [1], [2], [3]]

    def test_deterministic_given_everything(self):
        data, _ = generate_dataset(GenSpec(p=8, n=400, seed=17, mode="chain_graph"))
        cfg = SearchConfig(delta=0.01)
        one, _ = fit_large(data, 3, 6, cfg, seed=5)
        two, _ = fit_large(data, 3, 6, cfg, seed=5)
        assert one.ordering.blocks == two.ordering.blocks
        assert np.array_equal(one.b, two.b)

    def test_blocks_partition_variables(self):
        data, _ = generate_dataset(GenSpec(p=10, n=400, seed=19, mode="chain_graph"))
        model, _ = fit_large(data, 4, 8, SearchConfig(delta=0.01), seed=2)
        assert model.ordering.is_partition_of(range(10))

    def test_rejects_negative_seed_when_h_is_p(self):
        # h == p runs the exact search and draws no covering, yet still checks the seed
        data = center(np.random.default_rng(1).standard_normal((5, 50)))
        with pytest.raises(InvalidInputError, match="seed must be >= 0"):
            fit_large(data, h=5, n_subsets=2, seed=-1)

    def test_rejects_h_above_guard(self):
        data = center(np.random.default_rng(1).standard_normal((17, 50)))
        with pytest.raises(InvalidInputError):
            fit_large(data, h=16, n_subsets=2, seed=0)
