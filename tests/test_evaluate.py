"""Tests for the evaluation metrics."""

import numpy as np
import pytest

from blockorder import (
    BlockOrdering,
    ChainGraphModel,
    InvalidInputError,
    order_error_count,
    scatter_pairs,
)


def chain_model():
    """x0 -> x1 -> x2 with singleton blocks."""
    b = np.zeros((3, 3))
    b[1, 0] = 0.7
    b[2, 1] = 0.7
    return ChainGraphModel(b, BlockOrdering(((0,), (1,), (2,))), np.ones(3))


class TestOrderErrorCount:
    def test_perfect_ordering(self):
        model = chain_model()
        assert order_error_count(model, model.ordering) == 0

    def test_fully_reversed_chain(self):
        assert order_error_count(chain_model(), BlockOrdering(((2,), (1,), (0,)))) == 2

    def test_partially_wrong_chain(self):
        assert order_error_count(chain_model(), BlockOrdering(((1,), (0,), (2,)))) == 1

    def test_within_block_pairs_never_count(self):
        assert order_error_count(chain_model(), BlockOrdering(((0, 1, 2),))) == 0

    def test_refinement_of_truth_gives_zero(self):
        b = np.zeros((4, 4))
        b[2, 0] = 1.0
        b[3, 1] = -1.0
        truth = ChainGraphModel(b, BlockOrdering(((0, 1), (2, 3))), np.ones(4))
        refined = BlockOrdering(((0,), (1,), (2,), (3,)))
        assert order_error_count(truth, refined) == 0

    def test_merging_adjacent_blocks_never_adds_errors(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            b = np.tril(rng.uniform(-1, 1, (5, 5)) * (rng.random((5, 5)) < 0.5), -1)
            truth = ChainGraphModel(
                b, BlockOrdering(tuple((i,) for i in range(5))), np.ones(5)
            )
            perm = rng.permutation(5)
            blocks = [(int(v),) for v in perm]
            est = BlockOrdering(tuple(blocks))
            base = order_error_count(truth, est)
            cut = int(rng.integers(0, 4))
            merged_blocks = (
                blocks[:cut]
                + [tuple(sorted(blocks[cut] + blocks[cut + 1]))]
                + blocks[cut + 2 :]
            )
            merged = BlockOrdering(tuple(merged_blocks))
            assert order_error_count(truth, merged) <= base

    def test_mismatched_variables_rejected(self):
        with pytest.raises(InvalidInputError):
            order_error_count(chain_model(), BlockOrdering(((0,), (1,))))


class TestScatterPairs:
    def test_perfect_estimate_on_diagonal(self):
        model = chain_model()
        pairs = scatter_pairs(model, model)
        assert len(pairs) == 6
        assert all(t == e for t, e in pairs)

    def test_zero_estimate(self):
        zero = ChainGraphModel(
            np.zeros((3, 3)), BlockOrdering(((0, 1, 2),)), np.ones(3)
        )
        pairs = scatter_pairs(chain_model(), zero)
        assert sorted(t for t, _ in pairs) == [0.0, 0.0, 0.0, 0.0, 0.7, 0.7]
        assert all(e == 0.0 for _, e in pairs)

    def test_size_mismatch_rejected(self):
        small = ChainGraphModel(np.zeros((2, 2)), BlockOrdering(((0,), (1,))), np.ones(2))
        with pytest.raises(InvalidInputError):
            scatter_pairs(chain_model(), small)

