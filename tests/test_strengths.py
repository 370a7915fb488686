"""Tests for OLS strength estimation under a given block ordering."""

import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from blockorder import (
    BlockOrdering, DataMatrix, DegenerateInputError, GenSpec, InvalidInputError, SingularMatrixError,
    center, generate_dataset,
)
from blockorder.linalg import check_collinear, qr_factor
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


class TestAgainstLstsq:
    @staticmethod
    def per_block_lstsq(data, ordering):
        """(b, within) from one scipy lstsq per block on its predecessors."""
        x, n = data.values, data.n_samples
        b = np.zeros((data.n_variables, data.n_variables))
        within, preds = [], []
        for block in ordering.blocks:
            resid = x[list(block)]
            if preds:
                beta = scipy.linalg.lstsq(x[preds].T, resid.T)[0]
                b[np.ix_(block, preds)] = beta.T
                resid = resid - beta.T @ x[preds]
            within.append(resid @ resid.T / n)
            preds += block
        return b, within

    def test_matches_per_block_lstsq_on_random_orderings(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = int(rng.integers(1, 13))
            n = int(rng.integers(p + 2, 200))
            mixing = np.tril(rng.uniform(-1.5, 1.5, (p, p)), -1) + np.eye(p)
            data = center(mixing @ rng.laplace(size=(p, n)) * rng.uniform(0.1, 10.0, (p, 1)))
            order = rng.permutation(p)
            cuts = np.flatnonzero(rng.random(p - 1) < 0.5) + 1
            ordering = BlockOrdering(tuple(tuple(int(i) for i in part) for part in np.split(order, cuts)))
            b, within = estimate_strengths(data, ordering)
            ref_b, ref_within = self.per_block_lstsq(data, ordering)
            scale = np.abs(ref_b).max() + 1.0
            assert np.abs(b - ref_b).max() <= 1e-10 * scale
            for got, ref in zip(within, ref_within):
                assert np.array_equal(got, got.T)
                assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


class TestDegenerateInputs:
    """Each ends in one BlockOrderError naming the variable and its regressors."""

    MESSAGE = ("residual standard deviation at most 1e-08 of the variable's own for variable(s) {} "
               "regressed on {}: up to rounding, a linear function of them")

    @staticmethod
    def duplicated(p=4, n=50):
        values = center(np.random.default_rng(1).standard_normal((p, n))).values
        values[1] = -2.0 * values[0]
        return DataMatrix(values, tuple(range(p)))

    def test_duplicated_pair_in_a_block_with_later_blocks_is_singular(self):
        ordering = BlockOrdering(((2,), (0, 1), (3,)))
        with pytest.raises(SingularMatrixError) as error:
            estimate_strengths(self.duplicated(), ordering)
        assert str(error.value) == self.MESSAGE.format([1], [0, 2])

    def test_duplicated_pair_in_the_last_block_fits(self):
        # nothing is regressed on the pair, so only its within-block
        # covariance, of rank one, shows the duplicate
        b, within = estimate_strengths(self.duplicated(), BlockOrdering(((2,), (3,), (0, 1))))
        assert np.all(np.isfinite(b))
        assert abs(np.linalg.det(within[2])) <= 1e-12 * np.abs(within[2]).max() ** 2

    def test_variable_collinear_with_its_predecessors_is_degenerate(self):
        with pytest.raises(DegenerateInputError) as error:
            estimate_strengths(self.duplicated(), BlockOrdering(((0, 2), (1, 3))))
        assert str(error.value) == self.MESSAGE.format([1], [0, 2])

    @pytest.mark.parametrize("blocks,error,named", [
        (((0,), (1,), (2,), (3,), (4,), (5,)), SingularMatrixError, ([4], [0, 1, 2, 3])),
        (((0, 1, 2), (3, 4), (5,)), SingularMatrixError, ([4], [0, 1, 2, 3])),
    ], ids=["singletons", "rank-spent-inside-a-block"])
    def test_more_variables_than_samples(self, blocks, error, named):
        # centered samples span n - 1 dimensions, so the n-th variable in
        # block order is a linear function of those before it
        data = center(np.random.default_rng(2).standard_normal((6, 5)))
        with pytest.raises(error) as raised:
            estimate_strengths(data, BlockOrdering(blocks))
        assert str(raised.value) == self.MESSAGE.format(*named)


class TestOneCollinearityCheck:
    """``estimate_strengths``' one check against one check per block."""

    @staticmethod
    def per_block_check(data, ordering):
        """Each block's variables as responses of the blocks before it, in turn."""
        order = tuple(i for block in ordering.blocks for i in block)
        r = qr_factor(data.restrict(order).values)
        end = 0
        for block in ordering.blocks:
            start, end = end, end + len(block)
            check_collinear(r[:end, :end], order[:end], start)

    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(2, 9),
        wide=st.booleans(),
        duplicates=st.integers(0, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_raises_exactly_when_the_per_block_loop_does(self, seed, p, wide, duplicates):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, p + 1)) if wide else int(rng.integers(p + 2, 40))
        values = center(rng.laplace(size=(p, n))).values
        for _ in range(duplicates):
            source, copy = rng.choice(p, size=2, replace=False)
            values[copy] = rng.choice([-2.0, 0.5, 3.0]) * values[source]
        data = DataMatrix(values, range(p))
        cuts = np.flatnonzero(rng.random(p - 1) < 0.5) + 1
        parts = np.split(rng.permutation(p), cuts)
        ordering = BlockOrdering(tuple(tuple(int(i) for i in part) for part in parts))

        try:
            self.per_block_check(data, ordering)
            expected = None
        except (DegenerateInputError, SingularMatrixError) as error:
            expected = error
        try:
            estimate_strengths(data, ordering)
            raised = None
        except (DegenerateInputError, SingularMatrixError) as error:
            raised = error
        assert (raised is None) == (expected is None)
        if raised is None:
            return
        last = set(ordering.blocks[-1])
        assert {v in last for v in self.named(raised)} == {isinstance(raised, DegenerateInputError)}
        # the loop names a variable before the last block as a response only
        # when it is a linear function of the blocks before its own; the one
        # check names it as a regressor, else it raises what the loop raised
        if isinstance(expected, SingularMatrixError) or set(self.named(expected)) <= last:
            assert (type(raised), str(raised)) == (type(expected), str(expected))

    @staticmethod
    def named(error):
        found = re.search(r"variable\(s\) \[([\d, ]+)\] regressed on", str(error)).group(1)
        return [int(v) for v in found.split(", ")]
