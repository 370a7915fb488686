"""Acceptance suite: every top-level criterion at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to get one status line per
criterion.  Thresholds are pinned here, not calibrated elsewhere; the
per-module suites cover the fine grain.
"""

import json
import math
import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import numpy as np

import blockorder
from blockorder import (
    DataMatrix,
    GenSpec,
    SearchConfig,
    center,
    derive_seed,
    fit,
    fit_large,
    generate_dataset,
    order_error_count,
    random_chain_graph,
    scatter_pairs,
)
from blockorder.linalg import residualize
from blockorder.mi import mutual_information
from blockorder.model import mixing_from_adjacency

from test_linalg import brute_force_residual


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


class TestCriterion1MiOracle:
    def test_gaussian_mi_oracle(self):
        start = time.perf_counter()
        n = 10_000
        k = round(0.05 * n)  # the search's default neighbor count
        rng = np.random.default_rng(0)
        z = rng.standard_normal((2, n))
        rho = 0.5
        dependent = mutual_information(
            z[0], rho * z[0] + math.sqrt(1 - rho**2) * z[1], k
        )
        independent = mutual_information(
            rng.standard_normal(n), rng.standard_normal(n), k
        )
        elapsed = time.perf_counter() - start
        analytic = -0.5 * math.log(1 - rho**2)
        ok = (
            abs(dependent - analytic) <= 0.05
            and abs(independent) <= 0.02
            and elapsed < 30.0
        )
        report(
            1,
            ok,
            f"MI oracle: rho=0.5 -> {dependent:.4f} (analytic {analytic:.4f}), "
            f"independent -> {independent:.4f}, {elapsed:.1f}s",
        )
        assert abs(dependent - analytic) <= 0.05
        assert abs(independent) <= 0.02
        assert elapsed < 30.0


class TestCriterion2Residualization:
    def test_hundred_instances_match_brute_force(self):
        rng = np.random.default_rng(7)
        worst_value = 0.0
        worst_cross = 0.0
        for _ in range(100):
            p = int(rng.integers(2, 9))
            data = center(rng.standard_normal((p, 200)))
            size = int(rng.integers(1, p))
            s_pos = sorted(int(v) for v in rng.choice(p, size=size, replace=False))
            rest = [i for i in range(p) if i not in s_pos]
            out = residualize(data, s_pos)
            expected = brute_force_residual(data.values, s_pos, rest)
            worst_value = max(worst_value, float(np.abs(out.values - expected).max()))
            cross = data.values[s_pos] @ out.values.T / data.n_samples
            worst_cross = max(worst_cross, float(np.abs(cross).max()))
        ok = worst_value < 1e-8 and worst_cross <= 1e-8
        report(
            2,
            ok,
            f"residualization: max |resid - oracle| = {worst_value:.2e}, "
            f"max residual/predictor covariance = {worst_cross:.2e}",
        )
        assert worst_value < 1e-8
        assert worst_cross <= 1e-8


class TestCriterion3ConfoundedExample:
    def test_block_recovery_rate(self):
        start = time.perf_counter()
        hits = 0
        for seed in range(10):
            data, _ = generate_dataset(GenSpec(p=5, n=2000, seed=seed, mode="eq4_example"))
            model, _ = fit(data, SearchConfig(delta=0.01))
            hits += model.ordering.to_lists() == [[0, 1], [2], [3, 4]]
        elapsed = time.perf_counter() - start
        ok = hits >= 7 and elapsed < 300.0
        report(3, ok, f"confounded 5-var example recovered {hits}/10, {elapsed:.0f}s")
        assert hits >= 7
        assert elapsed < 300.0


class TestCriterion4DagMode:
    def test_median_order_errors(self):
        start = time.perf_counter()
        errors = []
        for trial in range(10):
            data, truth = generate_dataset(
                GenSpec(p=6, n=1000, seed=derive_seed(0, trial), mode="dag")
            )
            model, _ = fit(data, SearchConfig(delta=math.inf))
            errors.append(order_error_count(truth, model.ordering))
        elapsed = time.perf_counter() - start
        median = float(np.median(errors))
        ok = median <= 1.0 and elapsed < 600.0
        report(4, ok, f"full-ordering mode errors {errors}, median {median}, {elapsed:.0f}s")
        assert median <= 1.0
        assert elapsed < 600.0


class TestCriterion5CoefficientScatter:
    def test_slope_and_correlation(self):
        pairs = []
        for trial in range(10):
            data, truth = generate_dataset(
                GenSpec(p=5, n=1000, seed=derive_seed(1, trial), mode="chain_graph")
            )
            model, _ = fit(data, SearchConfig(delta=0.01))
            pairs.extend(scatter_pairs(truth, model))
        true_b = np.array([t for t, _ in pairs])
        est_b = np.array([e for _, e in pairs])
        slope = float(true_b @ est_b / (true_b @ true_b))
        corr = float(np.corrcoef(true_b, est_b)[0, 1])
        ok = 0.9 <= slope <= 1.1 and corr >= 0.95
        report(5, ok, f"coefficient scatter: slope {slope:.3f}, correlation {corr:.3f}")
        assert 0.9 <= slope <= 1.1
        assert corr >= 0.95


class TestCriterion6LargeGraphs:
    def test_covering_mode_recovery(self):
        # A 5-variable margin of a dense 50-variable graph hides common
        # causes, so precedence facts read off margins alone are often
        # wrong.  The full variable set hides none (chain_graph draws
        # independent noise), so fit_large orders all variables at once and
        # the margin runs only decide which neighbours share a block.
        start = time.perf_counter()
        consistent_fracs = []
        corrs = []
        for trial in range(3):
            data, truth = generate_dataset(
                GenSpec(p=50, n=1000, seed=derive_seed(7, 2 * trial), mode="chain_graph")
            )
            model, _ = fit_large(
                data, 5, 50, SearchConfig(delta=0.01), seed=derive_seed(7, 2 * trial + 1)
            )
            level = model.ordering.level_of()
            edges = [
                (i, j)
                for i in range(50)
                for j in range(50)
                if i != j and truth.b[i, j] != 0.0
            ]
            consistent = sum(1 for i, j in edges if level[j] <= level[i])
            consistent_fracs.append(consistent / len(edges))
            pairs = scatter_pairs(truth, model)
            true_b = np.array([t for t, _ in pairs])
            est_b = np.array([e for _, e in pairs])
            corrs.append(float(np.corrcoef(true_b, est_b)[0, 1]))
        elapsed = time.perf_counter() - start
        ok = min(consistent_fracs) >= 0.8 and min(corrs) >= 0.9 and elapsed < 1800.0
        report(
            6,
            ok,
            "covering mode: consistent fractions "
            f"{[round(f, 3) for f in consistent_fracs]}, correlations "
            f"{[round(c, 3) for c in corrs]}, {elapsed:.0f}s",
        )
        assert elapsed < 1800.0
        assert min(consistent_fracs) >= 0.8
        assert min(corrs) >= 0.9


class TestCriterion7StructuralInvariants:
    def test_thousand_random_fits(self):
        deltas = (0.01, 0.05, math.inf)
        checked = 0
        rng = np.random.default_rng(100)
        for i in range(1000):
            p = int(rng.integers(2, 7))
            mode = "dag" if i % 2 else "chain_graph"
            delta = deltas[i % 3]
            data, _ = generate_dataset(
                GenSpec(p=p, n=160, seed=derive_seed(2, i), mode=mode)
            )
            model, _ = fit(data, SearchConfig(delta=delta))
            assert model.ordering.is_partition_of(range(p))
            if math.isinf(delta):
                assert all(len(block) == 1 for block in model.ordering.blocks)
            level = model.ordering.level_of()
            for a in range(p):
                for b in range(p):
                    if a != b and level[a] <= level[b]:
                        assert model.b[a, b] == 0.0
            checked += 1
        report(7, True, f"structural invariants held on {checked} random fits")
        assert checked == 1000

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(200)
        hits = 0
        for i in range(20):
            p = int(rng.integers(3, 6))
            delta = math.inf if i % 2 else 0.01
            data, _ = generate_dataset(
                GenSpec(p=p, n=500, seed=derive_seed(3, i), mode="dag")
            )
            model, _ = fit(data, SearchConfig(delta=delta))
            perm = rng.permutation(p)
            shuffled = np.empty_like(data.values)
            shuffled[perm] = data.values
            model_p, _ = fit(DataMatrix(shuffled, range(p)), SearchConfig(delta=delta))
            relabeled = [
                sorted(int(perm[v]) for v in block) for block in model.ordering.blocks
            ]
            hits += model_p.ordering.to_lists() == relabeled
        report(7, hits == 20, f"permutation equivariance on {hits}/20 fixed-seed instances")
        assert hits == 20


def population_ordering(mix_rows: np.ndarray, ids: list[int]) -> list[tuple[int, ...]]:
    """Ordering found from exact (population) quantities for observed rows.

    ``mix_rows`` maps independent unit-variance sources to the observed
    variables.  A subset is exogenous exactly when, after population
    regression, its rows and the residual rows load on disjoint sources.
    """
    if len(ids) == 1:
        return [tuple(ids)]
    sigma = mix_rows @ mix_rows.T
    count = len(ids)
    for size in range(1, count):
        for s_pos in combinations(range(count), size):
            r_pos = [i for i in range(count) if i not in s_pos]
            beta = np.linalg.solve(
                sigma[np.ix_(s_pos, s_pos)], sigma[np.ix_(s_pos, r_pos)]
            )
            resid_rows = mix_rows[r_pos] - beta.T @ mix_rows[list(s_pos)]
            support_s = np.abs(mix_rows[list(s_pos)]).sum(axis=0) > 1e-9
            support_r = np.abs(resid_rows).sum(axis=0) > 1e-9
            if not np.any(support_s & support_r):
                head = population_ordering(mix_rows[list(s_pos)], [ids[i] for i in s_pos])
                tail = population_ordering(resid_rows, [ids[i] for i in r_pos])
                return head + tail
    return [tuple(ids)]


def ancestor_table(b: np.ndarray) -> np.ndarray:
    """reach[j, i] is True when j influences i through nonzero strengths."""
    p = b.shape[0]
    reach = (b.T != 0.0).copy()
    for mid in range(p):
        reach |= np.outer(reach[:, mid], reach[mid, :])
    return reach


class TestCriterion8SubsetConsistency:
    def test_population_pairs_never_contradict_truth(self):
        # An extracted pair (j1, j2) contradicts the true structure only if
        # the true graph forces the reverse, i.e. j2 is an ancestor of j1;
        # structurally incomparable variables may legitimately come out in
        # either order.
        checked_pairs = 0
        for model_idx in range(50):
            p = int(np.random.default_rng(derive_seed(5, model_idx)).integers(3, 7))
            truth = random_chain_graph(p, seed=derive_seed(6, model_idx))
            reach = ancestor_table(truth.b)
            mixing = mixing_from_adjacency(truth.b) @ np.diag(truth.noise_std)
            for size in range(2, p + 1):
                for subset in combinations(range(p), size):
                    blocks = population_ordering(mixing[list(subset)], list(subset))
                    for a in range(len(blocks)):
                        for b in range(a + 1, len(blocks)):
                            for j1 in blocks[a]:
                                for j2 in blocks[b]:
                                    checked_pairs += 1
                                    assert not reach[j2, j1], (
                                        f"model {model_idx}: extracted ({j1},{j2}) but "
                                        f"{j2} is an ancestor of {j1}"
                                    )
        report(8, True, f"subset-consistency: {checked_pairs} extracted pairs, 0 contradictions")
        assert checked_pairs > 0


class TestCriterion9Determinism:
    @staticmethod
    def run_cli(args, tmp_path):
        env = dict(os.environ)
        env.setdefault("PYTHONHASHSEED", "0")
        # the child runs in tmp_path, where a relative PYTHONPATH no longer
        # resolves; put the package under test first on its path
        package_root = str(Path(blockorder.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "blockorder", *map(str, args)],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    @staticmethod
    def mask_runtime(report_text: str) -> str:
        lines = report_text.splitlines()
        rows = [lines[0]] + [",".join(line.split(",")[:-1]) for line in lines[1:]]
        return "\n".join(rows)

    def test_cli_outputs_byte_identical(self, tmp_path):
        sim = ["simulate", "--mode", "eq4", "--n", 600, "--seed", 3]
        self.run_cli(sim + ["--output", "a.csv", "--truth", "a.json"], tmp_path)
        self.run_cli(sim + ["--output", "b.csv", "--truth", "b.json"], tmp_path)
        sim_ok = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes() and (
            tmp_path / "a.json"
        ).read_bytes() == (tmp_path / "b.json").read_bytes()

        fit_args = ["fit", "--input", "a.csv", "--delta", "0.01"]
        self.run_cli(fit_args + ["--output", "m1.json", "--trace", "t1.csv"], tmp_path)
        self.run_cli(fit_args + ["--output", "m2.json", "--trace", "t2.csv"], tmp_path)
        fit_ok = (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes() and (
            tmp_path / "t1.csv"
        ).read_bytes() == (tmp_path / "t2.csv").read_bytes()

        bench = ["benchmark", "--p", 3, "--n", 300, "--trials", 2, "--mode", "dag",
                 "--delta", "inf", "--seed", 1]
        self.run_cli(bench + ["--report", "r1.csv"], tmp_path)
        self.run_cli(bench + ["--report", "r2.csv"], tmp_path)
        bench_ok = self.mask_runtime((tmp_path / "r1.csv").read_text()) == self.mask_runtime(
            (tmp_path / "r2.csv").read_text()
        ) and (tmp_path / "r1_scatter.csv").read_bytes() == (
            tmp_path / "r2_scatter.csv"
        ).read_bytes()

        ok = sim_ok and fit_ok and bench_ok
        report(
            9,
            ok,
            "determinism: simulate "
            f"{'ok' if sim_ok else 'DIFF'}, fit {'ok' if fit_ok else 'DIFF'}, "
            f"benchmark (runtime column masked) {'ok' if bench_ok else 'DIFF'}",
        )
        assert ok

        model = json.loads((tmp_path / "m1.json").read_text())
        blocks = model["blocks"]
        assert all(blocks) and sorted(v for block in blocks for v in block) == list(range(5))
