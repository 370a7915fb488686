"""Tests for the exact recursive ordered-block search."""

import math

import numpy as np
import pytest

from blockorder import (
    DataMatrix,
    DegenerateInputError,
    GenSpec,
    InvalidInputError,
    SearchConfig,
    SearchTooLargeError,
    center,
    fit,
    generate_dataset,
)
from blockorder.datagen import _power_noise
from blockorder.linalg import residualize
from blockorder.search import (
    enumerate_candidates,
    find_most_exogenous,
    group_search,
    independence_score,
)


def chain_data(seed, n, beta=0.9, p=3):
    """x0 -> x1 -> ... with strongly non-Gaussian noise."""
    rng = np.random.default_rng(seed)
    rows = [_power_noise(rng, n, 2.0)]
    for _ in range(p - 1):
        rows.append(beta * rows[-1] + _power_noise(rng, n, 2.0))
    return center(np.vstack(rows))


class TestEnumerateCandidates:
    def test_two_variables(self):
        assert enumerate_candidates((0, 1)) == [(0,), (1,)]

    def test_constraint_filtering(self):
        got = enumerate_candidates((0, 1, 2), constraints=[(0, 1)])
        assert got == [(0,), (2,), (0, 1), (0, 2)]

    def test_singleton_has_no_proper_subsets(self):
        assert enumerate_candidates((7,)) == []

    def test_size_then_lexicographic_order(self):
        got = enumerate_candidates((2, 0, 1))
        assert got == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]

    def test_candidate_count_bound(self):
        assert len(enumerate_candidates(range(6))) == 2**6 - 2

    def test_constraints_outside_u_are_ignored(self):
        got = enumerate_candidates((0, 1), constraints=[(5, 1), (0, 9)])
        assert got == [(0,), (1,)]


class TestIndependenceScore:
    def test_exogenous_set_scores_near_zero(self):
        data = chain_data(0, 2000)
        assert independence_score(data, (0,), 100) < 0.02

    def test_reversed_direction_scores_high(self):
        data = chain_data(0, 2000)
        assert independence_score(data, (2,), 100) >= 0.05

    def test_independent_pair_both_near_zero(self):
        rng = np.random.default_rng(1)
        data = center(np.vstack([_power_noise(rng, 2000, 2.0), _power_noise(rng, 2000, 2.0)]))
        assert abs(independence_score(data, (0,), 100)) < 0.02
        assert abs(independence_score(data, (1,), 100)) < 0.02

    def test_rounding_sized_residual_is_collinear(self):
        # x1 is 3 x0 plus noise 1e-12 of its scale: not exactly collinear, but
        # a residual that small relative to x1 is rounding, not data
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal(200)
        data = center(np.vstack([x0, 3.0 * x0 + 1e-12 * rng.standard_normal(200), rng.standard_normal(200)]))
        with pytest.raises(DegenerateInputError, match=r"variable\(s\) \[1\] when scoring candidate \[0\]"):
            independence_score(data, (0,), 10)


class TestFindMostExogenous:
    def test_chain_prefix_wins(self):
        # {0} and {0, 1} are both exogenous against the rest of the chain;
        # noise decides between them, but nothing else should ever win, and
        # either choice recurses to the same final ordering
        prefix_wins = 0
        order_hits = 0
        for seed in range(10):
            data = chain_data(seed, 2000)
            best, _ = find_most_exogenous(data, (0, 1, 2), SearchConfig())
            prefix_wins += best in ((0,), (0, 1))
            ordering = group_search(data, (0, 1, 2), SearchConfig())
            order_hits += ordering.to_lists() == [[0], [1], [2]]
        assert prefix_wins >= 9
        assert order_hits >= 9

    def test_exact_tie_breaks_to_first_candidate(self):
        # samples closed under coordinate swap make the two singleton scores
        # bit-identical, so the tie rule must pick {0}
        rng = np.random.default_rng(3)
        half = rng.standard_normal((2, 30))
        swapped = half[[1, 0]]
        data = center(np.hstack([half, swapped]))
        best, _ = find_most_exogenous(data, (0, 1), SearchConfig(k=5))
        assert best == (0,)

    def test_guard_rejects_large_sets(self, monkeypatch):
        def no_mi(*args):
            raise AssertionError("the guard must fire before any MI call")

        monkeypatch.setattr("blockorder.search.mutual_information", no_mi)
        data = center(np.random.default_rng(0).standard_normal((16, 50)))
        with pytest.raises(SearchTooLargeError):
            find_most_exogenous(data, range(16), SearchConfig())

    def test_fully_constrained_returns_none(self):
        data = chain_data(5, 200)
        best, score = find_most_exogenous(
            data.restrict((0, 1)), (0, 1), SearchConfig(), constraints=[(0, 1), (1, 0)]
        )
        assert best is None and score == math.inf


class TestGroupSearch:
    def test_single_variable_base_case(self):
        data = chain_data(0, 200)
        assert group_search(data, (2,), SearchConfig()).blocks == ((2,),)

    def test_infinite_delta_gives_singletons(self):
        data, _ = generate_dataset(GenSpec(p=4, n=500, seed=0, mode="dag"))
        ordering = group_search(data, data.variable_ids, SearchConfig(delta=math.inf))
        assert all(len(block) == 1 for block in ordering.blocks)

    def test_zero_delta_keeps_confounded_data_together(self):
        # one shared factor drives everything, so every candidate split
        # scores strictly positive and delta=0 refuses them all
        rng = np.random.default_rng(8)
        factor = _power_noise(rng, 800, 2.0)
        rows = [0.9 * factor + 0.5 * _power_noise(rng, 800, 2.0) for _ in range(3)]
        data = center(np.vstack(rows))
        scores = [
            independence_score(data, s, 40)
            for s in enumerate_candidates((0, 1, 2))
        ]
        assert min(scores) > 0
        out = group_search(data, (0, 1, 2), SearchConfig(delta=0.0, k=40))
        assert out.blocks == ((0, 1, 2),)

    def test_blocks_partition_input_set(self):
        data, _ = generate_dataset(GenSpec(p=5, n=400, seed=3, mode="chain_graph"))
        ordering = group_search(data, data.variable_ids, SearchConfig())
        assert ordering.is_partition_of(range(5))

    def test_recovers_confounded_example_blocks(self):
        data, _ = generate_dataset(GenSpec(p=5, n=2000, seed=2, mode="eq4_example"))
        ordering = group_search(data, data.variable_ids, SearchConfig(delta=0.01))
        assert ordering.to_lists() == [[0, 1], [2], [3, 4]]

    def test_suffix_matches_run_on_residuals(self):
        # ordering found on the residuals of the first block equals the
        # suffix of the full ordering
        data, _ = generate_dataset(GenSpec(p=5, n=2000, seed=2, mode="eq4_example"))
        cfg = SearchConfig(delta=0.01)
        full = group_search(data, data.variable_ids, cfg)
        first = full.blocks[0]
        rest = tuple(i for i in range(5) if i not in first)
        tail = group_search(residualize(data, first), rest, cfg)
        assert tail.blocks == full.blocks[1:]

    def test_respects_constraints(self):
        data = chain_data(6, 1000)
        ordering = group_search(
            data, (0, 1, 2), SearchConfig(delta=math.inf), constraints=[(2, 0)]
        )
        level = ordering.level_of()
        assert level[2] < level[0]


class TestFit:
    def test_single_variable_model(self):
        data = center(np.random.default_rng(1).standard_normal((1, 100)))
        model, trace = fit(data)
        assert model.ordering.blocks == ((0,),)
        assert np.array_equal(model.b, np.zeros((1, 1)))
        assert trace == []

    def test_refuses_too_many_variables(self):
        data = center(np.random.default_rng(2).standard_normal((16, 60)))
        with pytest.raises(SearchTooLargeError):
            fit(data)

    def test_trace_records_every_candidate_at_top_level(self):
        data, _ = generate_dataset(GenSpec(p=4, n=400, seed=4, mode="dag"))
        _, trace = fit(data, SearchConfig(delta=math.inf))
        top = [r for r in trace if r.level == 0]
        assert len(top) == 2**4 - 2

    def test_estimated_model_respects_its_own_ordering(self):
        data, _ = generate_dataset(GenSpec(p=5, n=600, seed=5, mode="chain_graph"))
        model, _ = fit(data)
        level = model.ordering.level_of()
        for i in range(5):
            for j in range(5):
                if level[i] <= level[j]:
                    assert model.b[i, j] == 0.0 or level[j] < level[i]

    def test_permutation_equivariance(self):
        data, _ = generate_dataset(GenSpec(p=4, n=800, seed=6, mode="dag"))
        model, _ = fit(data, SearchConfig(delta=math.inf))
        perm = np.array([2, 0, 3, 1])
        shuffled = np.empty_like(data.values)
        shuffled[perm] = data.values
        model_p, _ = fit(DataMatrix(shuffled, range(4)), SearchConfig(delta=math.inf))
        relabeled = [sorted(int(perm[v]) for v in block) for block in model.ordering.blocks]
        assert model_p.ordering.to_lists() == relabeled

    def test_fit_rejects_partial_matrices(self):
        data = center(np.random.default_rng(3).standard_normal((3, 50))).restrict((0, 2))
        with pytest.raises(InvalidInputError):
            fit(data)
