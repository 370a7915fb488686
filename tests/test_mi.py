"""Tests for the k-nearest-neighbor mutual information estimator."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from blockorder import DegenerateInputError, InvalidInputError, SearchConfig, center
from blockorder import _kernels
from blockorder.mi import mutual_information
from blockorder.search import find_most_exogenous


class TestDefaultK:
    """Without an explicit k the search asks for 5% of n, within [1, n-1]."""

    @staticmethod
    def neighbor_counts(n, monkeypatch):
        seen = set()

        def recording_mi(x, y, k):
            seen.add(k)
            return 0.0

        monkeypatch.setattr("blockorder.search.mutual_information", recording_mi)
        data = center(np.random.default_rng(0).standard_normal((2, n)))
        find_most_exogenous(data, (0, 1), SearchConfig())
        return seen

    @pytest.mark.parametrize("n,expected", [(1000, 50), (20, 1), (500, 25)])
    def test_five_percent_rule(self, n, expected, monkeypatch):
        assert self.neighbor_counts(n, monkeypatch) == {expected}

    def test_clamped_to_valid_range(self, monkeypatch):
        assert self.neighbor_counts(2, monkeypatch) == {1}


class TestValidation:
    def test_too_few_samples_for_k(self):
        x = np.random.default_rng(0).standard_normal(10)
        with pytest.raises(InvalidInputError):
            mutual_information(x, x + 1.0, 10)

    def test_mismatched_sample_counts(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError):
            mutual_information(rng.standard_normal(50), rng.standard_normal(49), 3)

    def test_zero_variance_coordinate(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DegenerateInputError):
            mutual_information(np.zeros(100), rng.standard_normal(100), 3)

    def test_bad_k(self):
        x = np.random.default_rng(0).standard_normal(10)
        with pytest.raises(InvalidInputError):
            mutual_information(x, x + 1.0, 0)
        with pytest.raises(InvalidInputError):
            SearchConfig(k=0)


class TestOracles:
    def test_independent_gaussians_near_zero(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(4000)
        y = rng.standard_normal(4000)
        mi = mutual_information(x, y, 200)
        assert abs(mi) <= 0.02

    def test_correlated_gaussians_match_closed_form(self):
        rho = 0.5
        rng = np.random.default_rng(7)
        z = rng.standard_normal((2, 4000))
        x = z[0]
        y = rho * z[0] + np.sqrt(1 - rho**2) * z[1]
        mi = mutual_information(x, y, 200)
        assert abs(mi - (-0.5 * np.log(1 - rho**2))) < 0.05

    def test_functional_dependence_saturates(self):
        x = np.random.default_rng(3).standard_normal(1000)
        assert mutual_information(x, x, 50) >= 2.0


class TestInvariances:
    def test_argument_swap_is_bit_exact(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 400))
        y = rng.standard_normal((1, 400))
        assert mutual_information(x, y, 20) == mutual_information(y, x, 20)

    def test_sample_permutation_is_bit_exact(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 300))
        y = 0.5 * x[0] + rng.standard_normal(300)
        perm = rng.permutation(300)
        a = mutual_information(x, y, 15)
        b = mutual_information(x[:, perm], y[perm], 15)
        assert a == b

    def test_coordinate_permutation_is_bit_exact(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 300))
        y = rng.standard_normal((1, 300))
        a = mutual_information(x, y, 15)
        b = mutual_information(x[[2, 0, 1]], y, 15)
        assert a == b

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 300))
        y = rng.standard_normal((1, 300))
        base = mutual_information(x, y, 15)
        scaled = x * np.array([[3.7], [0.002]])
        assert abs(mutual_information(scaled, y, 15) - base) <= 1e-9

    def test_monotone_in_noise_level(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(1500)
        noise = rng.standard_normal(1500)
        scores = [
            mutual_information(x, x + sigma * noise, 75)
            for sigma in (0.1, 1.0, 10.0)
        ]
        assert scores[0] > scores[1] > scores[2]

    def test_negative_estimates_are_allowed(self):
        # near-independence can dip below zero; just confirm it is finite
        rng = np.random.default_rng(11)
        mi = mutual_information(rng.standard_normal(200), rng.standard_normal(200), 40)
        assert np.isfinite(mi)


def _brute_force(pts, k, radii):
    """k-th neighbor distances and strict counts from the full distance matrix."""
    dist = cdist(pts, pts, "chebyshev")
    inside = dist < radii[:, None]
    # self is counted only where it is strictly inside, as with a radius of 0
    return np.sort(dist, axis=1)[:, k], inside.sum(axis=1) - np.diag(inside)


class TestKernelsAgainstBruteForce:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("chunk_rows", [None, 3])
    def test_bit_identical(self, d, ties, chunk_rows, monkeypatch):
        n, k = 97, 5
        rng = np.random.default_rng(100 * d + ties)
        if ties:
            # integer grid points, repeated so that some radii are 0 and
            # some distances equal a radius exactly, among continuous points
            grid = rng.integers(0, 3, size=(6, d)).astype(float)[rng.integers(0, 6, 60)]
            pts = np.vstack([grid, rng.standard_normal((n - 60, d))])
        else:
            pts = rng.standard_normal((n, d))
        if chunk_rows is not None:
            # a few rows per chunk, so chunk boundaries fall inside the data
            monkeypatch.setattr(_kernels, "_CHUNK_FLOATS", chunk_rows * n)
        radii = _kernels.kth_neighbor_distance(pts, k)
        kth, counts = _brute_force(pts, k, radii)
        assert np.array_equal(radii, kth)
        assert np.array_equal(_kernels.count_within(pts, radii), counts)
        if ties:
            assert np.any(radii == 0.0) and np.any(radii > 0.0)

    def test_scratch_memory_is_bounded(self):
        # the kernels work through cache-sized row blocks in reused buffers;
        # a whole-matrix temporary at this size would be tens of MiB
        pts = np.random.default_rng(12).standard_normal((3000, 4))
        tracemalloc.start()
        try:
            radii = _kernels.kth_neighbor_distance(pts, 150)
            _kernels.count_within(pts[:, :2], radii)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def test_import_does_not_load_scipy_spatial():
    # scipy.spatial costs several MiB resident; the kernels do without it
    package_root = str(Path(_kernels.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = "import sys, blockorder; print('scipy.spatial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
