"""Tests for model types, the adjacency/mixing relation, and simulation."""

import numpy as np
import pytest

from blockorder import (
    BlockOrdering,
    ChainGraphModel,
    InvalidInputError,
    ModelInvalidError,
    center,
    read_model_json,
    write_model_json,
)
from blockorder.model import (
    check_block_lower_triangular,
    mixing_from_adjacency,
    model_from_dict,
    model_to_dict,
    simulate,
)


def example_adjacency():
    """The five-variable confounded example's strength matrix."""
    b = np.zeros((5, 5))
    b[1, 0] = 0.8
    b[2, 1] = 0.8
    b[3, 2] = 0.8
    b[4, 0] = 0.8
    b[4, 3] = 0.8
    return b


class TestBlockOrdering:
    def test_canonical_sorted_blocks(self):
        ordering = BlockOrdering(((2, 0), (1,)))
        assert ordering.blocks == ((0, 2), (1,))

    def test_level_of(self):
        ordering = BlockOrdering(((0, 1), (2,)))
        assert ordering.level_of() == {0: 0, 1: 0, 2: 1}

    def test_rejects_empty_block(self):
        with pytest.raises(InvalidInputError):
            BlockOrdering(((0,), ()))

    def test_rejects_overlapping_blocks(self):
        with pytest.raises(InvalidInputError):
            BlockOrdering(((0, 1), (1, 2)))


class TestMixing:
    def test_zero_adjacency_gives_identity(self):
        assert np.array_equal(mixing_from_adjacency(np.zeros((3, 3))), np.eye(3))

    def test_two_variable_chain(self):
        b = np.array([[0.0, 0.0], [0.7, 0.0]])
        assert np.allclose(mixing_from_adjacency(b), [[1.0, 0.0], [0.7, 1.0]], atol=1e-14)

    def test_multiply_back_gives_identity(self):
        rng = np.random.default_rng(0)
        b = np.tril(rng.uniform(-1, 1, size=(5, 5)), k=-1)
        a = mixing_from_adjacency(b)
        assert np.abs(a @ (np.eye(5) - b) - np.eye(5)).max() < 1e-10

    def test_adjacency_recovered_from_mixing(self):
        rng = np.random.default_rng(1)
        b = np.tril(rng.uniform(-1, 1, size=(6, 6)), k=-1)
        a = mixing_from_adjacency(b)
        assert np.abs((np.eye(6) - np.linalg.inv(a)) - b).max() < 1e-9

    def test_singular_matrix_rejected(self):
        b = np.array([[0.0, 1.0], [1.0, 0.0]])  # I - B singular
        with pytest.raises(ModelInvalidError):
            mixing_from_adjacency(b)


class TestCheckBlockLowerTriangular:
    def test_zero_matrix_any_ordering(self):
        assert check_block_lower_triangular(np.zeros((4, 4)), BlockOrdering(((1, 3), (0, 2))))

    def test_example_with_true_ordering(self):
        ordering = BlockOrdering(((0, 1), (2,), (3, 4)))
        assert check_block_lower_triangular(example_adjacency(), ordering)

    def test_example_with_reversed_ordering(self):
        reversed_ordering = BlockOrdering(((3, 4), (2,), (0, 1)))
        assert not check_block_lower_triangular(example_adjacency(), reversed_ordering)


class TestChainGraphModel:
    def test_valid_model(self):
        model = ChainGraphModel(
            example_adjacency(), BlockOrdering(((0, 1), (2,), (3, 4))), np.ones(5)
        )
        assert model.n_variables == 5

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(InvalidInputError):
            ChainGraphModel(np.zeros((2, 2)), BlockOrdering(((0,), (1,))), np.array([1.0, 0.0]))

    def test_rejects_ordering_violation(self):
        b = np.array([[0.0, 0.5], [0.0, 0.0]])  # 1 -> 0 but 0 ordered first
        with pytest.raises(ModelInvalidError):
            ChainGraphModel(b, BlockOrdering(((0,), (1,))), np.ones(2))

    def test_rejects_nonzero_diagonal(self):
        b = np.eye(2) * 0.1
        with pytest.raises(InvalidInputError):
            ChainGraphModel(b, BlockOrdering(((0,), (1,))), np.ones(2))


class TestSimulate:
    def test_no_structure_returns_centered_noise(self):
        rng = np.random.default_rng(2)
        model = ChainGraphModel(np.zeros((3, 3)), BlockOrdering(((0, 1, 2),)), np.ones(3))
        e = rng.standard_normal((3, 50))
        out = simulate(model, e)
        assert np.array_equal(out.values, center(e).values)

    def test_two_variable_propagation(self):
        beta = 1.3
        model = ChainGraphModel(
            np.array([[0.0, 0.0], [beta, 0.0]]), BlockOrdering(((0,), (1,))), np.ones(2)
        )
        e = np.random.default_rng(3).standard_normal((2, 40))
        out = simulate(model, e)
        expected = center(np.vstack([e[0], beta * e[0] + e[1]]))
        assert np.abs(out.values - expected.values).max() < 1e-12

    def test_confounding_shows_up_without_an_edge(self):
        # shared factor makes two unconnected variables correlate
        rng = np.random.default_rng(4)
        f = rng.standard_normal(5000)
        e = np.vstack([0.7 * f + rng.standard_normal(5000), 0.7 * f + rng.standard_normal(5000)])
        model = ChainGraphModel(np.zeros((2, 2)), BlockOrdering(((0, 1),)), np.ones(2))
        out = simulate(model, e)
        cov = out.values @ out.values.T / out.n_samples
        assert abs(cov[0, 1]) > 0.3

    def test_output_shape_and_centering(self):
        model = ChainGraphModel(np.zeros((2, 2)), BlockOrdering(((0,), (1,))), np.ones(2))
        out = simulate(model, np.random.default_rng(5).standard_normal((2, 17)))
        assert out.values.shape == (2, 17)
        assert np.all(np.abs(out.values.mean(axis=1)) < 1e-10)

    def test_wrong_noise_shape(self):
        model = ChainGraphModel(np.zeros((2, 2)), BlockOrdering(((0,), (1,))), np.ones(2))
        with pytest.raises(InvalidInputError):
            simulate(model, np.zeros((3, 10)))


class TestJsonRoundTrip:
    def make_model(self):
        return ChainGraphModel(
            example_adjacency(),
            BlockOrdering(((0, 1), (2,), (3, 4))),
            np.array([1.0, 0.9, 1.1, 1.2, 0.8]),
            (np.eye(2), np.eye(1), np.array([[1.0, 0.3], [0.3, 1.0]])),
        )

    def test_dict_round_trip(self):
        model = self.make_model()
        back = model_from_dict(model_to_dict(model, {"seed": 1}))
        assert np.array_equal(back.b, model.b)
        assert back.ordering.blocks == model.ordering.blocks
        assert np.array_equal(back.noise_std, model.noise_std)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(back.within_block_cov, model.within_block_cov)
        )

    @pytest.mark.parametrize("indices", [[0, 2], [0, 1, 1]], ids=["missing", "duplicated"])
    def test_malformed_within_block_cov_rejected(self, indices):
        # blocks (0, 1), (2,), (3, 4) need covariance entries for blocks 0, 1, 2
        raw = model_to_dict(self.make_model())
        covs = {item["block"]: item["cov"] for item in raw["within_block_cov"]}
        raw["within_block_cov"] = [{"block": i, "cov": covs[i]} for i in indices]
        with pytest.raises(InvalidInputError):
            model_from_dict(raw)

    def test_file_round_trip(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        write_model_json(path, model, {"mode": "exact"})
        back = read_model_json(path)
        assert back.ordering.blocks == model.ordering.blocks
        assert np.array_equal(back.b, model.b)
