#!/usr/bin/env python3
"""Benchmark of ``blockorder fit``: wall time, set-up time, memory and accuracy.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload eq4-exact --seed 0 --seconds 30 --trace 0

One operation is one in-process ``blockorder.cli.main(["fit", ...])`` on a CSV
that ``blockorder simulate`` wrote, with the model JSON and the score-trace CSV
written as a user would.  Each workload fits a panel of datasets drawn from
``--seed``.  A run fits every dataset once, then keeps fitting the panel in
turn while another fit of average length still ends within ``--seconds``.
Every fit is checked: exit code 0, a model that passes the library's own
structural checks, an ordering that partitions 0..p-1, finite values, a
well-formed trace, and byte-identical output whenever a dataset is fitted
again.

``--trace 0`` reports the end-to-end metrics with no instrumentation.
``--trace 1`` alternates plain and traced fits of the same dataset and
reports per-fit layer metrics (see ``layers.py``) and the tracing overhead.
The last line of standard output is the JSON result; the line before it holds
the details: machine, set-up samples, every fit with its output digests, and
the layer shares.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib
import importlib.util
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from layers import Recorder

DEFAULT_SEED = 0
HELDOUT_SEED = 104729  # kept for confirming a claim on a seed not tuned on
SETUP_SAMPLES = 3  # this process plus two fresh interpreters
WORK_ROOT = Path(".bench_work")


class Workload(NamedTuple):
    simulate: tuple[str, ...]  # `blockorder simulate` arguments besides n, seed and paths
    n: int
    fit: tuple[str, ...]  # `blockorder fit` arguments besides paths and seed
    panel: int  # datasets per run; one pass takes about 30 s on a 2-core Xeon
    warmup_n: int
    warmup_fit: tuple[str, ...] = ()


WORKLOADS = {
    "eq4-exact": Workload(("--mode", "eq4"), 2000, ("--delta", "0.01"), 3, 200),
    "dag6-order": Workload(("--mode", "dag", "--p", "6"), 1000, ("--delta", "inf"), 6, 200),
    # the warm-up keeps n above p so that the p=100 OLS stays well posed
    "cover-wide": Workload(
        ("--mode", "chain", "--p", "100"), 200,
        ("--mode", "large", "--h", "5", "--subsets", "200"), 4, 150, ("--subsets", "20"),
    ),
}

# per-fit layer metrics of a traced run, by output name
PER_FIT = (
    "kernels.kth.calls", "kernels.kth.busy_s", "kernels.kth.pairs", "kernels.count.calls",
    "kernels.count.busy_s", "kernels.count.pairs", "kernels.self_s", "mi.calls",
    "mi.busy_s", "mi.self_s", "search.enumerate.calls", "search.enumerate.busy_s",
    "search.candidates", "search.candidates_pruned", "search.group_search.calls",
    "search.self_s", "covering.random_covering.busy_share", "covering.implied.calls",
    "covering.implied.busy_share", "covering.closure_pairs", "covering.merge.calls",
    "covering.merge.busy_share", "covering.build.busy_share", "covering.groups",
    "covering.self_share", "linalg.residualize.calls", "linalg.residualize.busy_s",
    "linalg.regress_on.calls", "linalg.regress_on.busy_s", "linalg.self_s",
    "strengths.calls", "strengths.busy_s", "cli.read_csv.busy_s", "cli.read_csv.bytes",
    "model.write_json.busy_s", "cli.self_s",
)
# output names that differ from their key in Recorder.summarize
SUMMARY_KEY = {
    "search.candidates": "search.enumerate.candidates",
    "search.candidates_pruned": "search.enumerate.candidates_pruned",
    "covering.closure_pairs": "covering.implied.closure_pairs",
    "covering.groups": "covering.build.groups",
    "cli.self_s": "cli.main.own_s",
}
# Covering times are reported as shares of the traced fit's wall time: the
# exact workloads never call the layer, and a time that is 0 on every run
# reads like a value that was not measured.
SHARE_OF = {
    "covering.random_covering.busy_share": "covering.random_covering.busy_s",
    "covering.implied.busy_share": "covering.implied.busy_s",
    "covering.merge.busy_share": "covering.merge.busy_s",
    "covering.build.busy_share": "covering.build.busy_s",
    "covering.self_share": "covering.self_s",
}
# set-up totals of a traced run
PER_SETUP = ("datagen.generate.busy_s", "cli.write_csv.busy_s", "cli.write_csv.bytes")
# layers whose self time makes up a fit, for the share table
SHARE_LAYERS = ("kernels", "mi", "search", "covering", "linalg", "strengths", "cli", "model")
# everything the detail line summarizes; END_TO_END is the subset that is
# never zero, so a relative bound on it is meaningful
SUMMARY_UNITS = {
    "fit_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "order_errors": "count",
    "order_accuracy": "ratio",
    "exact_recovery": "ratio",
    "coef_corr": "ratio",
    "fail_ratio": "ratio",
}
END_TO_END = ("fit_s", "setup_s", "peak_rss_mb", "coef_corr", "order_accuracy")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


class Dataset(NamedTuple):
    index: int
    data_seed: int
    fit_seed: int
    csv: str
    truth: str
    model: str
    trace: str


class FitResult(NamedTuple):
    dataset: int
    traced: bool
    seconds: float
    model_sha256: str
    trace_sha256: str
    trace_rows: int
    problems: list[str]
    model: object  # the parsed model, None if the fit produced none


def sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def draw_datasets(name: str, seed: int, work: Path) -> list[Dataset]:
    rng = random.Random(f"{name}/{seed}")
    out = []
    for i in range(WORKLOADS[name].panel):
        stem = work / f"d{i}"
        out.append(Dataset(
            i, rng.randrange(2**31), rng.randrange(2**31),
            f"{stem}.csv", f"{stem}_truth.json", f"{stem}_model.json", f"{stem}_trace.csv",
        ))
    return out


def fit_argv(name: str, ds: Dataset, extra=()) -> list[str]:
    return ["fit", "--input", ds.csv, "--output", ds.model, "--trace", ds.trace,
            "--seed", str(ds.fit_seed), *WORKLOADS[name].fit, *extra]


def simulate_argv(name: str, ds: Dataset, n: int) -> list[str]:
    wl = WORKLOADS[name]
    return ["simulate", *wl.simulate, "--n", str(n), "--seed", str(ds.data_seed),
            "--output", ds.csv, "--truth", ds.truth]


def setup(name: str, seed: int, work: Path, recorder: Recorder | None = None):
    """Import blockorder, simulate the panel, warm up; returns (seconds, cli, datasets)."""
    start = time.perf_counter()
    cli = importlib.import_module("blockorder.cli")
    if recorder is not None:
        recorder.fit = "setup"
        recorder.install()
    wl = WORKLOADS[name]
    datasets = draw_datasets(name, seed, work)
    for ds in datasets:
        run_cli(cli, simulate_argv(name, ds, wl.n))
    # Untimed warm-up of the same mode at reduced n: the first strength
    # estimate in a process pays a one-off cost several times its steady one.
    warm = datasets[0]._replace(csv=str(work / "warm.csv"), truth=str(work / "warm_truth.json"))
    run_cli(cli, simulate_argv(name, warm, wl.warmup_n))
    if recorder is not None:
        recorder.fit = "warmup"
    run_cli(cli, fit_argv(name, warm, wl.warmup_fit))
    if recorder is not None:
        recorder.uninstall()
    return time.perf_counter() - start, cli, datasets


def run_cli(cli, argv) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"blockorder {' '.join(argv)} exited with {code}")


def setup_in_child(name: str, seed: int, probe: int) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-probe", str(probe)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=150, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def check_fit(ds: Dataset, p: int):
    """Problems with the outputs a fit left on disk, the parsed model, trace rows."""
    from blockorder.errors import BlockOrderError
    from blockorder.model import check_block_lower_triangular, model_from_dict

    import numpy as np

    try:
        model = model_from_dict(json.loads(Path(ds.model).read_text(encoding="utf-8")))
    except (OSError, ValueError, KeyError, TypeError, BlockOrderError) as exc:
        return [f"model JSON rejected: {exc!r}"], None, 0
    problems = []
    if sorted(v for block in model.ordering.blocks for v in block) != list(range(p)):
        problems.append("ordering does not partition 0..p-1")
    elif not check_block_lower_triangular(model.b, model.ordering):
        problems.append("b is not block lower triangular")
    arrays = [model.b, model.noise_std, *(model.within_block_cov or ())]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        problems.append("non-finite value in model")
    rows = Path(ds.trace).read_text(encoding="utf-8").splitlines()
    if len(rows) < 2 or rows[0] != "level,subset,score":
        problems.append("trace CSV has no header or no rows")
    else:
        try:
            if not all(math.isfinite(float(row.split(",")[2])) for row in rows[1:]):
                problems.append("non-finite score in trace")
        except (ValueError, IndexError):
            problems.append("malformed trace row")
    return problems, model, len(rows) - 1


def timed_fit(cli, name: str, ds: Dataset, p: int, recorder=None, fit_id=None) -> FitResult:
    """One timed fit; the output checks run after the clock stops."""
    for path in (ds.model, ds.trace):
        Path(path).unlink(missing_ok=True)
    if recorder is not None:
        recorder.fit = fit_id
        recorder.install()
    start = time.perf_counter()
    try:
        code = cli.main(fit_argv(name, ds))
        problems = [] if code == 0 else [f"exit code {code}"]
    except (Exception, SystemExit) as exc:  # a crashing fit is a failed operation
        traceback.print_exc()
        problems = [f"raised {exc!r}"]
    finally:
        elapsed = time.perf_counter() - start
        if recorder is not None:
            recorder.uninstall()
    if problems:
        return FitResult(ds.index, recorder is not None, elapsed, "", "", 0, problems, None)
    problems, model, rows = check_fit(ds, p)
    return FitResult(ds.index, recorder is not None, elapsed, sha256(ds.model),
                     sha256(ds.trace), rows, problems, model)


def accuracy(truths: dict, fits: list[FitResult]) -> dict:
    """Accuracy of the first good fit of every dataset against its truth."""
    from blockorder.evaluate import order_error_count, scatter_pairs

    import numpy as np

    errors = edges = exact = scored = 0
    pairs = []
    for index, truth in truths.items():
        fit = next((f for f in fits if f.dataset == index and not f.problems), None)
        if fit is None:
            continue
        scored += 1
        errors += order_error_count(truth, fit.model.ordering)
        edges += int(np.count_nonzero(truth.b))
        exact += fit.model.ordering.to_lists() == truth.ordering.to_lists()
        pairs.extend(scatter_pairs(truth, fit.model))
    if not scored:
        return {}
    table = np.asarray(pairs)
    return {
        "order_errors": errors,
        "order_accuracy": 1.0 - errors / edges if edges else 1.0,
        "exact_recovery": exact / scored,
        "coef_corr": float(np.corrcoef(table[:, 0], table[:, 1])[0, 1]),
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas": blas_name,
        "blas_threads": blas_threads(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """Set up, run fits for ``seconds``, check them; returns (details, result)."""
    setup_samples = [] if trace else [setup_in_child(name, seed, i) for i in range(1, SETUP_SAMPLES)]
    recorder = Recorder() if trace else None
    own_setup, cli, datasets = setup(name, seed, work, recorder)
    setup_samples.append(own_setup)
    from blockorder.model import read_model_json

    truths = {ds.index: read_model_json(ds.truth) for ds in datasets}

    # Every dataset is fitted once; after that, a fit (or plain/traced pair)
    # starts only if one of average length still ends within ``seconds``.
    fits: list[FitResult] = []
    overheads: list[float] = []
    start = time.perf_counter()

    def time_left_for(steps: int) -> bool:
        elapsed = time.perf_counter() - start
        return elapsed + elapsed / steps <= seconds

    if not trace:
        while len(fits) < len(datasets) or time_left_for(len(fits)):
            ds = datasets[len(fits) % len(datasets)]
            fits.append(timed_fit(cli, name, ds, truths[ds.index].n_variables))
    else:
        pair = 0
        while pair == 0 or time_left_for(pair):
            ds = datasets[pair % len(datasets)]
            seconds_of = {}
            # alternate which side goes first so drift does not bias the overhead
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                fit = timed_fit(cli, name, ds, truths[ds.index].n_variables,
                                recorder if traced else None, len(fits))
                fits.append(fit)
                seconds_of[traced] = fit.seconds
            overheads.append(seconds_of[True] - seconds_of[False])
            pair += 1

    first_digest = {}
    for fit in fits:
        if not fit.problems:
            digest = (fit.model_sha256, fit.trace_sha256)
            if first_digest.setdefault(fit.dataset, digest) != digest:
                fit.problems.append("output differs from an earlier fit of the same dataset")

    layer_values: dict[str, list] = {}
    shares: dict[str, list] = {}
    if trace:
        for fit_id, fit in enumerate(fits):
            if not fit.traced or fit.problems:
                continue
            summary = recorder.summarize(fit_id)
            fit.problems.extend(identities(summary, fit.trace_rows))
            for out_name in PER_FIT:
                if out_name in SHARE_OF:
                    value = summary[SHARE_OF[out_name]] / fit.seconds
                else:
                    value = summary.get(SUMMARY_KEY.get(out_name, out_name), 0)
                layer_values.setdefault(out_name, []).append(value)
            for layer in SHARE_LAYERS:
                shares.setdefault(layer, []).append(summary[layer + ".self_s"] / fit.seconds)

    failed = sum(1 for f in fits if f.problems)
    acc = accuracy(truths, fits)
    per_dataset: dict[int, list] = {}
    for f in fits:
        if not f.traced and not f.problems:
            per_dataset.setdefault(f.dataset, []).append(f.seconds)
    fit_s = statistics.fmean(statistics.median(v) for v in per_dataset.values()) if per_dataset else 0.0
    summary = {
        "fit_s": fit_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "order_errors": acc.get("order_errors"),
        "order_accuracy": acc.get("order_accuracy"),
        "exact_recovery": acc.get("exact_recovery"),
        "coef_corr": acc.get("coef_corr"),
        "fail_ratio": failed / len(fits),
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "setup_samples_s": setup_samples,
        "datasets": [ds._asdict() for ds in datasets],
        "fits": [
            {"id": i, "dataset": f.dataset, "traced": f.traced, "seconds": f.seconds,
             "model_sha256": f.model_sha256, "trace_sha256": f.trace_sha256,
             "trace_rows": f.trace_rows, "problems": f.problems}
            for i, f in enumerate(fits)
        ],
        "summary": summary,
    }

    if not trace:
        metrics = {}
        for key in END_TO_END:
            value = summary[key]
            # a missing or undefined value only occurs with failed fits
            finite = value is not None and math.isfinite(value)
            metrics[key] = (value if finite else 0.0, SUMMARY_UNITS[key])
    else:
        metrics = {}
        for k, v in layer_values.items():
            timed = unit_of(k) == "s" or k in SHARE_OF
            metrics[k] = (statistics.median(v) if timed else statistics.fmean(v), unit_of(k))
        for out_name in PER_FIT:
            metrics.setdefault(out_name, (0.0, unit_of(out_name)))
        setup_summary = recorder.summarize("setup")
        for out_name in PER_SETUP:
            metrics[out_name] = (setup_summary.get(out_name, 0), unit_of(out_name))
        tried = metrics["search.candidates"][0] + metrics["search.candidates_pruned"][0]
        ratio = metrics["search.candidates"][0] / tried if tried else 0.0
        metrics["search.candidate_ratio"] = (ratio, "ratio")
        traced_s = [f.seconds for f in fits if f.traced and not f.problems]
        metrics["trace.fit_s"] = (statistics.median(traced_s) if traced_s else 0.0, "s")
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
        detail["layer_shares"] = {k: statistics.median(v) for k, v in shares.items()}
        detail["spans_file"] = str(write_spans(recorder, work.with_name(work.name + "-spans.csv")))

    result = {
        "correct": failed == 0,
        "attempted": len(fits),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return detail, result


def write_spans(recorder: Recorder, path: Path) -> Path:
    """All recorded spans as CSV: index, name, start, end, parent index, fit id."""
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write("index,name,start,end,parent,fit\n")
        for index, span in enumerate(recorder.spans):
            handle.write(f"{index},{span.name},{span.start!r},{span.end!r},{span.parent},{span.fit}\n")
    return path


def identities(summary: dict, trace_rows: int) -> list[str]:
    """Counter identities one fit must satisfy; a missed binding breaks them."""
    out = []
    mi_calls = summary["mi.calls"]
    if mi_calls != trace_rows:
        out.append(f"mi.calls {mi_calls} != trace rows {trace_rows}")
    if summary["kernels.kth.calls"] != mi_calls:
        out.append(f"kernels.kth.calls {summary['kernels.kth.calls']} != mi.calls {mi_calls}")
    if summary["kernels.count.calls"] != 2 * mi_calls:
        out.append(f"kernels.count.calls {summary['kernels.count.calls']} != 2 x mi.calls {mi_calls}")
    if summary["covering.random_covering.calls"]:
        subsets = summary.get("covering.random_covering.subsets", 0)
        for key in ("covering.implied.calls", "covering.merge.calls"):
            if summary[key] != subsets:
                out.append(f"{key} {summary[key]} != covering subsets {subsets}")
    if summary["cli.main.calls"] != 1:
        out.append(f"cli.main.calls {summary['cli.main.calls']} != 1")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; {HELDOUT_SEED} is held out for confirming claims")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    src = Path.cwd() / "src"
    if not (src / "blockorder" / "__init__.py").is_file():
        print(f"perfbench: no blockorder sources under {src}; run from the checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    tag = f"{args.workload}-s{args.seed}"
    if args.setup_probe is not None:
        work = WORK_ROOT / f"{tag}-setup{args.setup_probe}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            seconds, _, _ = setup(args.workload, args.seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0

    work = WORK_ROOT / tag
    work.mkdir(parents=True, exist_ok=True)
    try:
        detail, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only succeeds when no spans file was kept
    for key, value in detail["summary"].items():
        print(f"# {key} = {value} {SUMMARY_UNITS[key]}")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
