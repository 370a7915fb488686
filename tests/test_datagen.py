"""Tests for the synthetic benchmark generator."""

import numpy as np
import pytest
from scipy.stats import kurtosis

from blockorder import (
    GenSpec,
    InvalidInputError,
    confounded_example_model,
    derive_seed,
    generate_dataset,
    random_chain_graph,
)
from blockorder.datagen import _power_noise
from blockorder.model import check_block_lower_triangular


class TestGenSpec:
    def test_rejects_bad_mode(self):
        with pytest.raises(InvalidInputError):
            GenSpec(p=3, n=100, seed=0, mode="banana")

    def test_example_mode_requires_five_variables(self):
        with pytest.raises(InvalidInputError):
            GenSpec(p=4, n=100, seed=0, mode="eq4_example")


class TestRandomChainGraph:
    def test_single_variable(self):
        model = random_chain_graph(1, seed=0)
        assert model.b.shape == (1, 1) and model.b[0, 0] == 0.0
        assert len(model.ordering.blocks) == 1
        assert 0.5 <= model.noise_std[0] <= 1.5

    def test_structure_invariants_over_seeds(self):
        for seed in range(30):
            model = random_chain_graph(7, seed=seed)
            assert check_block_lower_triangular(model.b, model.ordering)
            assert 1 <= len(model.ordering.blocks) <= 7
            assert np.all((model.noise_std >= 0.5) & (model.noise_std <= 1.5))

    def test_block_count_uniform(self):
        counts = np.zeros(10)
        for seed in range(1000):
            model = random_chain_graph(10, seed=derive_seed(99, seed))
            counts[len(model.ordering.blocks) - 1] += 1
        expected = 100.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 9 degrees of freedom; 21.67 is the 99% quantile
        assert chi2 < 21.67

    def test_parent_induced_std_in_range(self):
        from blockorder.model import mixing_from_adjacency

        for seed in range(10):
            model = random_chain_graph(6, seed=seed)
            mixing = mixing_from_adjacency(model.b)
            # implied covariance with unit-variance sources scaled by noise std
            m = mixing @ np.diag(model.noise_std)
            sigma = m @ m.T
            level = model.ordering.level_of()
            order = [v for block in model.ordering.blocks for v in block]
            for idx, v in enumerate(order):
                row = model.b[v]
                if np.any(row != 0.0):
                    var = float(row @ sigma @ row)
                    assert 0.5**2 - 1e-9 <= var <= 1.5**2 + 1e-9
                    parents = np.flatnonzero(row)
                    assert all(
                        level[p] < level[v] or (level[p] == level[v] and p != v)
                        for p in parents
                    )


class TestSampleNongaussian:
    def test_identity_exponent_is_standardized_gaussian(self):
        out = _power_noise(np.random.default_rng(3), 1000, 1.0)
        z = np.random.default_rng(3).standard_normal(1000)
        z = (z - z.mean()) / z.std()
        assert np.abs(out - z).max() < 1e-12

    def test_exact_standardization(self):
        out = _power_noise(np.random.default_rng(4), 500, 1.7)
        assert abs(out.mean()) < 1e-12
        assert abs(out.std() - 1.0) < 1e-12

    def test_super_gaussian_has_positive_excess_kurtosis(self):
        out = _power_noise(np.random.default_rng(5), 1_000_000, 2.0)
        assert kurtosis(out) > 0.5

    def test_sub_gaussian_has_negative_excess_kurtosis(self):
        out = _power_noise(np.random.default_rng(6), 1_000_000, 0.5)
        assert kurtosis(out) < -0.1


class TestGenerateDataset:
    def test_dag_mode_gives_singleton_blocks(self):
        _, truth = generate_dataset(GenSpec(p=6, n=100, seed=0, mode="dag"))
        assert all(len(block) == 1 for block in truth.ordering.blocks)

    def test_example_mode_structure(self):
        data, truth = generate_dataset(GenSpec(p=5, n=200, seed=1, mode="eq4_example"))
        assert truth.ordering.to_lists() == [[0, 1], [2], [3, 4]]
        assert data.values.shape == (5, 200)
        assert truth.b[1, 0] == 0.8 and truth.b[4, 3] == 0.8

    def test_example_model_is_fixed(self):
        model = confounded_example_model()
        assert np.array_equal(model.b, [
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.8, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.8, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.8, 0.0, 0.0],
            [0.8, 0.0, 0.0, 0.8, 0.0],
        ])
        assert np.array_equal(model.noise_std, np.ones(5))
        # noise correlation 0.7 * 0.7 inside {0, 1} and {3, 4}, pushed
        # through the within-block edge of strength 0.8
        pair = [[1.0, 1.29], [1.29, 2.424]]
        covs = model.within_block_cov
        assert len(covs) == 3
        assert np.allclose(covs[0], pair, rtol=0.0, atol=1e-12)
        assert np.array_equal(covs[1], [[1.0]])
        assert np.allclose(covs[2], pair, rtol=0.0, atol=1e-12)
        with pytest.raises(TypeError):
            confounded_example_model(0.5)

    def test_example_confounder_correlation(self):
        # correlation of the two first-block noises is c1*c2 = 0.49
        spec = GenSpec(p=5, n=200_000, seed=2, mode="eq4_example")
        data, truth = generate_dataset(spec)
        x = data.values
        e0 = x[0]
        e1 = x[1] - truth.b[1, 0] * x[0]
        corr = float(np.corrcoef(e0, e1)[0, 1])
        assert abs(corr - 0.49) < 0.02

    def test_deterministic(self):
        spec = GenSpec(p=7, n=300, seed=9, mode="chain_graph")
        d1, t1 = generate_dataset(spec)
        d2, t2 = generate_dataset(spec)
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(t1.b, t2.b)
        assert t1.ordering.blocks == t2.ordering.blocks

    def test_rows_centered(self):
        data, _ = generate_dataset(GenSpec(p=4, n=250, seed=3, mode="chain_graph"))
        assert np.all(np.abs(data.values.mean(axis=1)) < 1e-10)

    def test_truth_model_is_valid_and_permuted(self):
        seen_nontrivial_labels = False
        for seed in range(10):
            _, truth = generate_dataset(GenSpec(p=6, n=50, seed=seed, mode="chain_graph"))
            assert check_block_lower_triangular(truth.b, truth.ordering)
            first = truth.ordering.blocks[0]
            if min(first) != 0:
                seen_nontrivial_labels = True
        assert seen_nontrivial_labels

    def test_within_block_cov_matches_block_shapes(self):
        _, truth = generate_dataset(GenSpec(p=8, n=50, seed=4, mode="chain_graph"))
        assert truth.within_block_cov is not None
        for block, cov in zip(truth.ordering.blocks, truth.within_block_cov):
            assert cov.shape == (len(block), len(block))


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(0, 1) == derive_seed(0, 1)
        seeds = {derive_seed(0, i) for i in range(100)}
        assert len(seeds) == 100

    def test_seed_and_index_both_matter(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)
        assert derive_seed(1, 0) != derive_seed(1, 1)

    def test_negative_seed_rejected(self):
        # masking it to 64 bits would silently turn -1 into 2**64 - 1
        with pytest.raises(InvalidInputError, match="seed must be >= 0"):
            derive_seed(-1, 0)
