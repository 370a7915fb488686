"""Tests for OLS strength estimation under a given block ordering."""

import numpy as np
import pytest

from blockorder import BlockOrdering, GenSpec, InvalidInputError, generate_dataset
from blockorder.model import check_block_lower_triangular
from blockorder.strengths import estimate_strengths


class TestEstimateStrengths:
    def test_first_block_rows_are_zero(self):
        data, truth = generate_dataset(GenSpec(p=5, n=500, seed=0, mode="chain_graph"))
        b, _ = estimate_strengths(data, truth.ordering)
        for v in truth.ordering.blocks[0]:
            assert np.all(b[v] == 0.0)

    def test_true_ordering_recovers_coefficients(self):
        data, truth = generate_dataset(GenSpec(p=5, n=4000, seed=1, mode="dag"))
        b, _ = estimate_strengths(data, truth.ordering)
        assert np.abs(b - truth.b).max() < 0.1

    def test_estimates_converge_with_sample_size(self):
        def fit_dev(n):
            data, truth = generate_dataset(GenSpec(p=5, n=n, seed=2, mode="dag"))
            b, _ = estimate_strengths(data, truth.ordering)
            return np.abs(b - truth.b).max()

        assert fit_dev(10_000) < fit_dev(100)

    def test_result_strictly_respects_ordering(self):
        data, truth = generate_dataset(GenSpec(p=6, n=400, seed=3, mode="chain_graph"))
        b, _ = estimate_strengths(data, truth.ordering)
        assert check_block_lower_triangular(b, truth.ordering)
        level = truth.ordering.level_of()
        for i in range(6):
            for j in range(6):
                if level[i] == level[j]:
                    assert b[i, j] == 0.0

    def test_sample_permutation_leaves_estimate_unchanged(self):
        data, truth = generate_dataset(GenSpec(p=4, n=600, seed=4, mode="chain_graph"))
        b, _ = estimate_strengths(data, truth.ordering)
        perm = np.random.default_rng(0).permutation(600)
        shuffled = type(data)(data.values[:, perm], data.variable_ids)
        b2, _ = estimate_strengths(shuffled, truth.ordering)
        assert np.abs(b - b2).max() < 1e-12

    def test_confounded_example_residual_covariance(self):
        # block {3, 4} keeps its within-block edge and latent factor in the
        # residual covariance: cov = b54 + c4*c5 = 0.8 + 0.49
        data, truth = generate_dataset(GenSpec(p=5, n=40_000, seed=5, mode="eq4_example"))
        _, within = estimate_strengths(data, truth.ordering)
        last = within[2]
        assert last.shape == (2, 2)
        assert abs(last[0, 1] - 1.29) < 0.08
        assert abs(truth.within_block_cov[2][0, 1] - 1.29) < 1e-12

    def test_rejects_mismatched_ordering(self):
        data, _ = generate_dataset(GenSpec(p=4, n=100, seed=6, mode="dag"))
        with pytest.raises(InvalidInputError):
            estimate_strengths(data, BlockOrdering(((0, 1), (2,))))

    def test_within_covariances_follow_block_order(self):
        data, truth = generate_dataset(GenSpec(p=6, n=300, seed=7, mode="chain_graph"))
        _, within = estimate_strengths(data, truth.ordering)
        assert len(within) == len(truth.ordering.blocks)
        for block, cov in zip(truth.ordering.blocks, within):
            assert cov.shape == (len(block), len(block))
            assert np.all(np.diag(cov) >= 0.0)
