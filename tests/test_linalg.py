"""Tests for centering, the QR factor, least squares, and residualization."""

import re

import numpy as np
import pytest
import scipy.linalg

from blockorder import DataMatrix, DegenerateInputError, InvalidInputError, SingularMatrixError, center
from blockorder.linalg import COLLINEAR_RTOL, qr_factor, regress_on, residualize


def naive_covariance(x):
    """Independent double-loop summation oracle for (1/n) X X^T."""
    p, n = x.shape
    out = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            s = 0.0
            for t in range(n):
                s += x[i, t] * x[j, t]
            out[i, j] = s / n
    return out


def gauss_jordan_inverse(matrix):
    """Hand-rolled inversion, independent of LAPACK."""
    m = [list(map(float, row)) for row in matrix]
    n = len(m)
    aug = [row + [1.0 if i == j else 0.0 for j in range(n)] for i, row in enumerate(m)]
    for i in range(n):
        pivot = max(range(i, n), key=lambda r: abs(aug[r][i]))
        aug[i], aug[pivot] = aug[pivot], aug[i]
        if abs(aug[i][i]) < 1e-14:
            raise ValueError("singular")
        div = aug[i][i]
        aug[i] = [v / div for v in aug[i]]
        for r in range(n):
            if r != i and aug[r][i] != 0.0:
                factor = aug[r][i]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[i])]
    return np.array([row[n:] for row in aug])


def brute_force_residual(x, s_pos, rest_pos):
    """Normal-equations solve from naive covariance and hand inversion."""
    cov = naive_covariance(x)
    sigma_s = cov[np.ix_(s_pos, s_pos)]
    sigma_sr = cov[np.ix_(s_pos, rest_pos)]
    beta = gauss_jordan_inverse(sigma_s) @ sigma_sr
    return x[rest_pos] - beta.T @ x[s_pos]


class TestCenter:
    def test_simple_row(self):
        out = center(np.array([[1.0, 2.0, 3.0]]))
        assert np.array_equal(out.values, [[-1.0, 0.0, 1.0]])
        assert out.variable_ids == (0,)

    def test_idempotent(self):
        raw = np.random.default_rng(3).standard_normal((3, 40))
        once = center(raw)
        twice = center(once.values)
        assert np.abs(once.values - twice.values).max() < 1e-14

    def test_random_row_means_vanish(self):
        raw = np.random.default_rng(0).uniform(-5, 5, size=(4, 100))
        out = center(raw)
        assert np.all(np.abs(out.values.mean(axis=1)) < 1e-10)

    def test_too_few_samples(self):
        with pytest.raises(InvalidInputError):
            center(np.array([[1.0]]))


class TestDataMatrix:
    def test_rejects_uncentered(self):
        with pytest.raises(InvalidInputError):
            DataMatrix(np.array([[1.0, 2.0, 3.0]]), (0,))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(InvalidInputError):
            DataMatrix(np.array([[1.0, -1.0], [2.0, -2.0]]), (0, 0))

    def test_restrict_preserves_requested_order(self):
        data = center(np.random.default_rng(1).standard_normal((4, 30)))
        sub = data.restrict((3, 1))
        assert sub.variable_ids == (3, 1)
        assert np.array_equal(sub.values[0], data.values[3])

    def test_restrict_rejects_duplicate_ids(self):
        data = center(np.random.default_rng(1).standard_normal((3, 10)))
        with pytest.raises(InvalidInputError):
            data.restrict((2, 2))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rejects_non_finite_values(self, entry):
        # the only way into the least-squares factor is through a DataMatrix
        with pytest.raises(InvalidInputError, match="must be finite"):
            DataMatrix(np.array([[1.0, -1.0], [entry, 0.0]]), (0, 1))

    def test_restrict_unknown_id(self):
        data = center(np.random.default_rng(1).standard_normal((2, 10)))
        with pytest.raises(InvalidInputError):
            data.restrict((0, 7))


class TestCovariance:
    """R^T R / n of ``qr_factor``, the covariance estimate_strengths reports for each block."""

    @staticmethod
    def covariance(data):
        r = qr_factor(data.values)
        return r.T @ r / data.n_samples

    def test_single_variable(self):
        data = center(np.array([[-1.0, 0.0, 1.0]]))
        assert np.allclose(self.covariance(data), [[2.0 / 3.0]], atol=1e-15)

    def test_identical_rows_rank_one(self):
        row = np.array([0.5, -1.5, 1.0])
        data = center(np.vstack([row, row]))
        cov = self.covariance(data)
        assert np.allclose(cov, cov[0, 0] * np.ones((2, 2)), atol=1e-15)
        assert abs(np.linalg.det(cov)) < 1e-12

    def test_matches_naive_summation(self):
        data = center(np.random.default_rng(5).standard_normal((5, 1000)))
        assert np.abs(self.covariance(data) - naive_covariance(data.values)).max() < 1e-10

    def test_symmetric(self):
        data = center(np.random.default_rng(6).standard_normal((6, 200)))
        cov = self.covariance(data)
        assert np.array_equal(cov, cov.T)


class TestResidualize:
    def test_zero_cross_covariance_leaves_data_unchanged(self):
        # exactly orthogonal integer patterns, already zero-mean
        x_s = np.array([[1.0, -1.0, 1.0, -1.0]])
        x_r = np.array([[1.0, 1.0, -1.0, -1.0]])
        data = DataMatrix(np.vstack([x_s, x_r]), (0, 1))
        out = residualize(data, (0,))
        assert np.array_equal(out.values, x_r)

    def test_perfect_linear_dependence_zero_residual(self):
        # a residual of rounding size is collinearity, not data
        base = center(np.array([[1.0, 2.0, -3.0, 0.5, -0.5]])).values[0]
        data = DataMatrix(np.vstack([base, 2.0 * base]), (0, 1))
        with pytest.raises(DegenerateInputError, match=r"variable\(s\) \[1\] regressed on \[0\]"):
            residualize(data, (0,))

    def test_small_residual_above_the_threshold_is_kept(self):
        rng = np.random.default_rng(3)
        base, noise = center(rng.standard_normal((2, 200))).values
        data = DataMatrix(np.vstack([base, 3.0 * base + 1e-6 * noise]), (0, 1))
        ratio = residualize(data, (0,)).values.std() / data.values[1].std()
        assert 1e-7 < ratio < 1e-5

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(11)
        data = center(rng.standard_normal((6, 500)))
        out = residualize(data, (1, 4))
        expected = brute_force_residual(data.values, [1, 4], [0, 2, 3, 5])
        assert np.abs(out.values - expected).max() < 1e-8

    def test_variable_ids_preserved_in_order(self):
        data = center(np.random.default_rng(2).standard_normal((5, 60)))
        out = residualize(data, (2,))
        assert out.variable_ids == (0, 1, 3, 4)

    def test_residuals_orthogonal_to_predictors(self):
        rng = np.random.default_rng(7)
        data = center(rng.standard_normal((7, 300)))
        out = residualize(data, (0, 3, 6))
        cross = data.restrict((0, 3, 6)).values @ out.values.T / data.n_samples
        assert np.abs(cross).max() < 1e-8

    def test_residual_covariance_is_schur_complement(self):
        rng = np.random.default_rng(8)
        data = center(rng.standard_normal((5, 400)))
        x = data.values
        cov = x @ x.T / data.n_samples
        schur = cov[2:, 2:] - cov[:2, 2:].T @ np.linalg.solve(cov[:2, :2], cov[:2, 2:])
        resid = residualize(data, (0, 1)).values
        resid_cov = resid @ resid.T / data.n_samples
        assert np.abs(resid_cov - schur).max() < 1e-8

    @pytest.mark.parametrize("subset", [(), (0, 1, 2)])
    def test_rejects_empty_and_full_subsets(self, subset):
        data = center(np.random.default_rng(4).standard_normal((3, 30)))
        with pytest.raises(InvalidInputError):
            residualize(data, subset)

    def test_zero_variance_predictor_raises_singularity(self):
        # named as DataMatrix.restrict names it, not as a collinear regressor
        rng = np.random.default_rng(9)
        rows = np.vstack([np.zeros(20), center(rng.standard_normal((1, 20))).values])
        data = DataMatrix(rows, (0, 1))
        with pytest.raises(DegenerateInputError, match=r"^variable\(s\) \[0\] have zero variance$"):
            residualize(data, (0,))

    @pytest.mark.parametrize("zero", [(0,), (3,), (0, 2)], ids=["first-regressor", "response", "two"])
    def test_zero_variable_is_named_as_zero_variance(self, zero):
        rows = center(np.random.default_rng(13).standard_normal((4, 30))).values
        rows[list(zero)] = 0.0
        data = DataMatrix(rows, (0, 1, 2, 3))
        message = re.escape(f"variable(s) {list(zero)} have zero variance")
        with pytest.raises(DegenerateInputError, match=f"^{message}$"):
            regress_on(data, (0, 1, 2))
        with pytest.raises(DegenerateInputError, match=f"^{message}$"):
            data.restrict(range(4))

    def test_regressor_of_huge_scale_is_solved(self):
        # the factor never squares the samples, so a scale whose covariance
        # would overflow is solved like any other
        rows = center(np.random.default_rng(9).standard_normal((2, 20))).values
        data = DataMatrix(rows * np.array([[1e200], [1.0]]), (0, 1))
        coef, resid = regress_on(data, (0,))
        beta = scipy.linalg.lstsq(data.values[:1].T, data.values[1])[0]
        assert abs(coef[0, 0] - beta[0]) <= 1e-12 * abs(beta[0])
        assert np.abs(resid.values[0] - (data.values[1] - beta[0] * data.values[0])).max() < 1e-12

    def test_duplicated_predictor_raises_singularity(self):
        base = center(np.random.default_rng(10).standard_normal((2, 100)))
        rows = np.vstack([base.values[0], base.values[0], base.values[1]])
        data = DataMatrix(rows, (0, 1, 2))
        with pytest.raises(SingularMatrixError, match=r"^residual standard deviation at most 1e-08 of the "
                           r"variable's own for variable\(s\) \[1\] regressed on \[0\]: up to rounding, "
                           r"a linear function of them$"):
            residualize(data, (0, 1))

    def test_more_regressors_than_samples_is_singular(self):
        # centered samples span n - 1 dimensions, so the n-th regressor is a
        # linear function of those before it
        data = center(np.random.default_rng(12).standard_normal((7, 5)))
        named = re.escape("variable(s) [4] regressed on [0, 1, 2, 3]:")
        with pytest.raises(SingularMatrixError, match=named):
            regress_on(data, range(6))


class TestRegressOn:
    def test_known_coefficients(self):
        rng = np.random.default_rng(12)
        x = center(rng.standard_normal((1, 2000))).values[0]
        y = 1.5 * x + 0.1 * center(rng.standard_normal((1, 2000))).values[0]
        data = DataMatrix(np.vstack([x, y - y.mean()]), (0, 1))
        coef, resid = regress_on(data, (0,))
        assert abs(coef[0, 0] - 1.5) < 0.02
        assert resid.variable_ids == (1,)


class TestLeastSquares:
    """regress_on's fitted values and residuals against scipy's SVD-based lstsq."""

    @staticmethod
    def blocks(m, duplicate, seed):
        """m predictors, then 3 responses that depend on them, n=400."""
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((m + 3, 400))
        raw[m:] += rng.standard_normal((3, m)) @ raw[:m]
        if duplicate:  # a scaled copy of another predictor makes x_S singular
            raw[m - 1] = rng.uniform(0.5, 2.0) * raw[rng.integers(m - 1)]
        return center(raw)

    @staticmethod
    def spectral_blocks(rng, singular_values):
        """As ``blocks``, for predictors whose sample matrix has the given
        singular values (times sqrt(n)) in random orthogonal bases."""
        m, n = len(singular_values), 400
        basis = np.linalg.qr(rng.standard_normal((m, m)))[0]
        scores = np.linalg.qr(rng.standard_normal((n, m)))[0].T * np.sqrt(n)
        x = (basis * singular_values) @ scores
        y = rng.standard_normal((3, m)) @ x + 0.3 * rng.standard_normal((3, n))
        return center(np.vstack([x, y]))

    @staticmethod
    def max_error(data, m):
        """Largest difference in fitted values or residuals between regress_on
        on the first m variables and lstsq, relative to the responses' scale."""
        x_s, y = data.values[:m], data.values[m:]
        coef, resid = regress_on(data, range(m))
        fitted = scipy.linalg.lstsq(x_s.T, y.T)[0].T @ x_s
        errors = (np.abs(coef @ x_s - fitted).max(), np.abs(resid.values - (y - fitted)).max())
        return max(errors) / np.abs(y).max()

    @pytest.mark.parametrize("m", [*range(1, 16), 99])
    def test_well_conditioned_matches_lstsq(self, m):
        for seed in range(5):
            assert self.max_error(self.blocks(m, False, seed), m) <= 1e-12

    @pytest.mark.parametrize("m", range(2, 16))
    @pytest.mark.parametrize("cond", [1e5, 1e7])
    def test_ill_conditioned_matches_lstsq(self, m, cond):
        # Both solves are backward stable, so they agree to about cond * eps;
        # observed: at most 0.04 of it.
        rng = np.random.default_rng(m)
        for _ in range(5):
            data = self.spectral_blocks(rng, np.logspace(0, -np.log10(cond), m))
            assert np.linalg.cond(data.values[:m]) < 1.01 * cond
            assert self.max_error(data, m) <= cond * np.finfo(float).eps

    @pytest.mark.parametrize("m", [*range(2, 16), 99])
    def test_duplicated_regressor_raises(self, m):
        for seed in range(5):
            data = self.blocks(m, True, seed)
            named = re.escape(f"variable(s) [{m - 1}] regressed on {list(range(m - 1))}:")
            with pytest.raises(SingularMatrixError, match=named):
                regress_on(data, range(m))

    def test_never_rejects_below_the_inverse_tolerance(self):
        # A regressor's pivot is at least the smallest singular value of x_S,
        # and its own spread at most the largest, so a regressor set whose
        # condition number is below 1 / COLLINEAR_RTOL always passes.
        rng = np.random.default_rng(0)
        for _ in range(300):
            m = int(rng.integers(2, 16))
            log_cond = rng.uniform(0, -np.log10(COLLINEAR_RTOL) - 0.2)
            inner = 10.0 ** -rng.uniform(0, log_cond, m - 2)
            data = self.spectral_blocks(rng, np.concatenate(([1.0, 10.0 ** -log_cond], inner)))
            assert np.linalg.cond(data.values[:m]) < 1 / COLLINEAR_RTOL
            assert self.max_error(data, m) <= 1e-8


class TestSolveSpd:
    """regress_on's coefficients solve the SPD normal equations sigma_S beta = sigma_SR;
    checked against scipy's Cholesky solve of them."""

    @pytest.mark.parametrize("m", [*range(1, 16), 99])
    def test_well_conditioned_matches_cho_solve(self, m):
        for seed in range(5):
            data = TestLeastSquares.blocks(m, False, seed)
            x = data.values
            cov = x @ x.T / data.n_samples
            sigma_s, rhs = cov[:m, :m], cov[:m, m:]
            assert np.linalg.cond(sigma_s) < 10
            expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(sigma_s, lower=True), rhs)
            got = regress_on(data, range(m))[0].T
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("entry", [0.0, np.nan])
    def test_zero_or_nan_block_raises(self, entry):
        # a regressor that is zero throughout has zero variance; a NaN one
        # never reaches the factor, since a DataMatrix holds only finite values
        rows = center(np.random.default_rng(11).standard_normal((4, 30))).values
        rows[2] = entry
        error, message = ((DegenerateInputError, re.escape("variable(s) [2] have zero variance"))
                          if entry == 0.0 else (InvalidInputError, "must be finite"))
        with pytest.raises(error, match=message):
            regress_on(DataMatrix(rows, (0, 1, 2, 3)), (0, 1, 2))
