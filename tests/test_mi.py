"""Tests for the k-nearest-neighbor mutual information estimator."""

import os
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist
from scipy.special import digamma

from blockorder import DegenerateInputError, InvalidInputError, SearchConfig, center
from blockorder import _kernels
from blockorder.mi import _digamma_table, mutual_information
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
        # 5% of 3 rounds to 0; with n = 2 every pair of centred rows is
        # collinear, so the search would stop before MI
        assert self.neighbor_counts(3, monkeypatch) == {1}


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

    def test_digamma_table_matches_scipy(self):
        table = _digamma_table(5000)
        reference = digamma(np.arange(1.0, 5001.0))
        assert np.array_equal(table[:10], reference[:10])
        assert np.abs(table / reference - 1.0).max() < 1e-13


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


class _CountingPool(ThreadPoolExecutor):
    submits = 0

    def submit(self, *args, **kwargs):
        self.submits += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def three_workers(monkeypatch):
    """The kernels split rows four ways, on a fresh pool that counts its submits."""
    pool = _CountingPool(3)
    monkeypatch.setattr(_kernels, "_WORKERS", 3)
    monkeypatch.setattr(_kernels, "_pool", pool)
    yield pool
    pool.shutdown()


class TestKernelsAgainstBruteForce:
    @staticmethod
    def check(d, ties, chunk_rows, monkeypatch):
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
            # a few float64 rows per chunk, so chunk boundaries fall inside
            # the data; the count's box test works on 8-bit ranks, 8 times
            # as many rows per chunk
            monkeypatch.setattr(_kernels, "_CHUNK_BYTES", chunk_rows * n * 8)
        radii = _kernels.kth_neighbor_distance(pts, k)
        kth, counts = _brute_force(pts, k, radii)
        assert np.array_equal(radii, kth)
        assert np.array_equal(_kernels.count_within(pts, radii), counts)
        if ties:
            assert np.any(radii == 0.0) and np.any(radii > 0.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("chunk_rows", [None, 3])
    def test_bit_identical(self, d, ties, chunk_rows, monkeypatch):
        self.check(d, ties, chunk_rows, monkeypatch)

    # 40 rows per block gives 3 blocks, fewer than the 4 ranges; 97 rows are
    # not a multiple of 5 (20 blocks, 2-row blocks within each range)
    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("chunk_rows", [40, 5, 1])
    def test_split_rows_bit_identical(self, d, ties, chunk_rows, monkeypatch, three_workers):
        self.check(d, ties, chunk_rows, monkeypatch)
        assert three_workers.submits > 0  # the rows were split

    @pytest.mark.parametrize("n,split", [(256, False), (257, True)])
    def test_only_multi_block_calls_split(self, n, split, three_workers):
        _kernels.kth_neighbor_distance(np.random.default_rng(n).standard_normal((n, 2)), 3)
        assert (three_workers.submits > 0) == split

    # 16-bit ranks fill a 512 KiB block at n = 512
    @pytest.mark.parametrize("n,split", [(512, False), (513, True)])
    def test_only_multi_block_counts_split(self, n, split, three_workers):
        _kernels.count_within(np.random.default_rng(n).standard_normal((n, 2)), np.full(n, 0.5))
        assert (three_workers.submits > 0) == split

    def test_one_dimension_needs_no_pairwise_pass(self, three_workers):
        # 600 points would split a box test's rows; one coordinate has none
        pts = np.random.default_rng(4).standard_normal((600, 1))
        radii = np.full(600, 0.01)
        assert np.array_equal(_kernels.count_within(pts, radii), _brute_force(pts, 1, radii)[1])
        assert three_workers.submits == 0

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("in_points,value", [(True, np.nan), (True, np.inf), (False, np.nan),
                                                 (False, -np.inf)])
    def test_unordered_input_raises(self, d, in_points, value):
        # at every n the count searches sorted values, which a NaN or a
        # radius of -inf would keep from settling
        for n in (40, 300):
            pts = np.random.default_rng(5).standard_normal((n, d))
            radii = np.full(n, 0.1)
            (pts[:, 0] if in_points else radii)[7] = value
            with pytest.raises(ValueError, match="finite"):
                _kernels.count_within(pts, radii)

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

    def test_scratch_memory_is_bounded_when_split(self, three_workers):
        # each range allocates its own scratch, one block's worth in all
        self.test_scratch_memory_is_bounded()


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 5),
    # 255/256: the last 8-bit and the first 16-bit ranks; 257: an odd size
    # with 16-bit ranks; 512/513: one 16-bit rank block or two
    n=st.one_of(st.integers(1, 40), st.sampled_from([255, 256, 257, 512, 513])),
    small_blocks=st.booleans(),
    grid=st.booleans(),
    scale=st.sampled_from([1.0, 1e-300, 1e300]),
    seed=st.integers(0, 2**32 - 1),
)
def test_count_equals_brute_force(d, n, small_blocks, grid, scale, seed):
    rng = np.random.default_rng(seed)
    if grid:
        # integer grid points: ties in every coordinate and between distances
        pts = rng.integers(0, 4, size=(n, d)).astype(float) * scale
    else:
        pts = rng.standard_normal((n, d)) * scale
    # per point a radius of 0, exactly the distance to some point, or that
    # distance stretched or shrunk
    other = cdist(pts, pts, "chebyshev")[np.arange(n), rng.integers(0, n, n)]
    radii = np.choose(rng.integers(0, 3, n), [np.zeros(n), other, other * rng.uniform(0.5, 1.5, n)])
    # three float64 rows' worth of bytes per block: 24 rows of 8-bit ranks
    # or 12 of 16-bit, so the box test runs in several blocks from n = 25
    chunk = 3 * 8 * n if small_blocks else _kernels._CHUNK_BYTES
    with mock.patch.object(_kernels, "_CHUNK_BYTES", chunk):
        counts = _kernels.count_within(pts, radii)
    assert np.array_equal(counts, _brute_force(pts, 0, radii)[1])


class TestPinnedValues:
    """MI to the last bit, so a neighbor count that moves by one shows."""

    # recorded with the count taken from the full float64 distance matrix
    PINS = {
        (200, 1, 1): "0x1.388b86d233d00p-3",
        (200, 1, 4): "0x1.211a171ee9dd0p-2",
        (200, 2, 3): "0x1.ad965949af680p-3",
        (200, 4, 1): "0x1.130a7bd593dc0p-4",
        (1000, 1, 1): "0x1.e7dad7d766380p-4",
        (1000, 1, 4): "0x1.0354d42977ea0p-2",
        (1000, 2, 3): "0x1.96b3031750140p-3",
        (1000, 4, 1): "0x1.5f94539929b00p-4",
        (2000, 1, 1): "0x1.d9726b1689500p-4",
        (2000, 1, 4): "0x1.e2e86ba276440p-3",
        (2000, 2, 3): "0x1.a50b6fc8f29c0p-3",
        (2000, 4, 1): "0x1.28a62c4282280p-4",
    }

    @pytest.mark.parametrize("n,d_x,d_y", sorted(PINS))
    def test_value(self, n, d_x, d_y):
        rng = np.random.default_rng([n, d_x, d_y])
        z = rng.standard_normal((d_x + d_y, n))
        k = max(1, round(0.05 * n))
        mi = mutual_information(z[:d_x], z[d_x:] + 0.5 * z[0], k)
        assert mi.hex() == self.PINS[n, d_x, d_y]


def test_forked_child_runs_split_kernels(three_workers):
    # the child inherits a pool whose threads stayed behind in the parent;
    # it must start its own rather than queue work that never runs
    pts = np.random.default_rng(3).standard_normal((2000, 3))
    radii = _kernels.kth_neighbor_distance(pts, 20)
    counts = _kernels.count_within(pts[:, :2], radii)
    assert three_workers.submits > 0
    pid = os.fork()
    if pid == 0:  # child: never return into pytest
        code = 1
        try:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(10)
            again = _kernels.kth_neighbor_distance(pts, 20)
            same = np.array_equal(again, radii)
            code = 0 if same and np.array_equal(_kernels.count_within(pts[:, :2], again), counts) else 3
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


class TestFailingRange:
    """A failing range reaches the caller, but only once every range is done."""

    @staticmethod
    def split(rows_fn):
        # 1000 float64 columns are 16 blocks, so four ranges: the caller's
        # starts at 0
        _kernels._split_rows(np.zeros((1, 1000)), rows_fn)

    def test_caller_failure_waits_for_workers(self, three_workers):
        finished = []

        def rows_fn(cols, start, stop, rows):
            if start == 0:
                raise RuntimeError("caller's range failed")
            if stop == cols.shape[1]:
                time.sleep(0.2)
                finished.append(start)

        with pytest.raises(RuntimeError, match="caller's range failed"):
            self.split(rows_fn)
        # the workers write into the caller's arrays, so they must be done
        assert finished == [750]

    def test_worker_failure_reaches_caller(self, three_workers):
        def rows_fn(cols, start, stop, rows):
            if stop == cols.shape[1]:
                raise ValueError("last range failed")

        with pytest.raises(ValueError, match="last range failed"):
            self.split(rows_fn)
        assert three_workers.submits == 3


def _run_with_package(code):
    package_root = str(Path(_kernels.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy would add hundreds of
    # modules to every process start
    code = "import sys, blockorder.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _run_with_package(code) == "[]"


def test_fits_with_scipy_blocked(tmp_path):
    # an import of any scipy module raises ImportError in this process
    code = f"""
import sys
sys.modules["scipy"] = None
from blockorder.cli import main
d = {str(tmp_path)!r}
for name, sim, fit in [
    ("eq4", ["--mode", "eq4", "--n", "400"], []),
    ("chain", ["--mode", "chain", "--p", "12", "--n", "300"], ["--mode", "large", "--subsets", "10"]),
]:
    assert main(["simulate", *sim, "--output", f"{{d}}/{{name}}.csv", "--truth", f"{{d}}/{{name}}_truth.json"]) == 0
    print(main(["fit", "--input", f"{{d}}/{{name}}.csv", "--output", f"{{d}}/{{name}}_model.json", *fit]))
"""
    assert _run_with_package(code).split() == ["0", "0"]


def test_import_starts_no_thread():
    # the kernels' pool is created with the module but starts its threads
    # with the first call that splits rows
    assert _run_with_package("import threading, blockorder; print(threading.active_count())") == "1"
