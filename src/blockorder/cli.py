"""Command-line entry point: fit, simulate, and benchmark workflows.

File formats:
  data CSV    rows are samples, columns are variables, one header row
              (a non-numeric first line is auto-detected on input)
  model JSON  {"blocks", "b", "noise_std", "within_block_cov", "params"};
              truth files and fitted output share the schema
  report CSV  trial,p,n,mode,delta,error_count,runtime_ms (+ companion
              <report>_scatter.csv with true_b,est_b)

Exit codes: 0 success, 2 usage/input error, 1 estimation failure.
"""

import argparse
import math
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .covering import fit_large
from .datagen import GenSpec, derive_seed, generate_dataset
from .errors import BlockOrderError, InvalidInputError, SearchTooLargeError
from .evaluate import order_error_count, scatter_pairs
from .linalg import DataMatrix, center
from .model import write_model_json
from .search import MAX_EXACT_P, SearchConfig, fit

_CLI_MODES = {"chain": "chain_graph", "dag": "dag", "eq4": "eq4_example"}


def _parse_delta(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise InvalidInputError(f"--delta must be a number or 'inf', got {text!r}") from exc


def _parse_kneig(text: str) -> int | None:
    if text.strip().lower() == "auto":
        return None
    try:
        return int(text)
    except ValueError as exc:
        raise InvalidInputError(f"--kneig must be an integer or 'auto', got {text!r}") from exc


def _delta_repr(delta: float):
    return "inf" if math.isinf(delta) else delta


def read_csv_matrix(path) -> DataMatrix:
    """Load a samples-by-variables CSV (header auto-detected) and center it.

    Every value must be finite and small enough in magnitude that the sum of
    a centered column's n squares cannot overflow, as the MI scaling
    (``joint.std``) and the order step (``(z * z).mean``, ``x @ top``) take it.
    """
    path = Path(path)
    # utf-8-sig drops the byte-order mark that spreadsheet exports start with
    with path.open("r", encoding="utf-8-sig") as handle:
        # the header is sniffed on the first non-blank line, and loadtxt skips
        # the lines before it too, since it rejects a line of spaces
        skip, first = next(((i, line) for i, line in enumerate(handle) if line.strip()), (0, ""))
    if not first:
        raise InvalidInputError(f"{path}: empty input file")
    try:
        [float(tok) for tok in first.strip().split(",")]
    except ValueError:
        skip += 1
    try:
        with warnings.catch_warnings():  # a file without data rows is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2, encoding="utf-8-sig")
    except ValueError as exc:
        raise InvalidInputError(f"{path}: could not parse CSV: {exc}") from exc
    if table.shape[0] < 2:
        raise InvalidInputError(f"{path}: need at least 2 samples")
    # centered values stay below twice this, so n of their squared products sum finitely
    limit = math.sqrt(np.finfo(np.float64).max / table.shape[0]) / 2.0
    too_large = np.flatnonzero(~(np.abs(table).max(axis=0) < limit))
    if too_large.size:
        raise InvalidInputError(
            f"{path}: variable(s) {too_large.tolist()} need finite values below {limit:.3g} "
            "in magnitude (found NaN, inf, or a scale whose sum of squares overflows)"
        )
    constant = np.flatnonzero((table == table[0]).all(axis=0))
    if constant.size:
        raise InvalidInputError(
            f"{path}: constant column for variable(s) {constant.tolist()}; every variable needs nonzero variance"
        )
    return center(table.T)


def _write_csv(path, header, rows) -> None:
    """A header line, then one line per row; a float cell is written as its repr."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(str(cell) for cell in row) + "\n")


def _output_path(text) -> Path:
    """``text`` as an output file's path; ``""``, ``.``, ``/`` or ``dir/`` names no file."""
    path = Path(text)
    if not path.name or str(text)[-1:] in (os.sep, os.altsep):
        raise InvalidInputError(f"{str(text)!r} is not an output file name")
    return path


def _check_outputs(*paths, source=None) -> None:
    """Reject an output path that cannot be written, before any work is done.

    Only an unset (None) path is skipped.  An output that resolves to the
    ``source`` input or to another output would overwrite it.
    """
    taken = {Path(source).resolve(): "the input"} if source else {}
    for path in (_output_path(path) for path in paths if path is not None):
        if path.is_dir():
            raise InvalidInputError(f"{path}: is a directory, not an output file")
        if not path.parent.is_dir():
            raise InvalidInputError(f"{path}: {path.parent} is not an existing directory")
        target = path.resolve()
        if target in taken:
            raise InvalidInputError(f"{path}: same file as {taken[target]}, which it would overwrite")
        taken[target] = "another output"


def write_csv_matrix(path, data: DataMatrix) -> None:
    _write_csv(path, (f"x{i}" for i in data.variable_ids), data.values.T.tolist())


def _cmd_fit(args) -> int:
    cfg = SearchConfig(delta=_parse_delta(args.delta), k=_parse_kneig(args.kneig))
    _check_outputs(args.output, args.trace, source=args.input)
    data = read_csv_matrix(args.input)
    if args.mode == "exact":
        model, trace = fit(data, cfg)
    else:
        model, trace = fit_large(data, args.h, args.subsets, cfg, args.seed)
    params = {
        "command": "fit",
        "input": str(args.input),
        "delta": _delta_repr(cfg.delta),
        "kneig": "auto" if cfg.k is None else cfg.k,
        "mode": args.mode,
        "h": args.h,
        "subsets": args.subsets,
        "seed": args.seed,
    }
    write_model_json(args.output, model, params)
    if args.trace is not None:
        rows = ((r.level, ";".join(str(i) for i in r.subset), float(r.score)) for r in trace)
        _write_csv(args.trace, ("level", "subset", "score"), rows)
    return 0


def _cmd_simulate(args) -> int:
    mode = _CLI_MODES[args.mode]
    p = args.p
    if p is None:
        if mode != "eq4_example":
            raise InvalidInputError("--p is required unless --mode eq4")
        p = 5
    spec = GenSpec(p=p, n=args.n, seed=args.seed, mode=mode)
    _check_outputs(args.output, args.truth)
    data, truth = generate_dataset(spec)
    write_csv_matrix(args.output, data)
    params = {
        "command": "simulate",
        "p": spec.p,
        "n": spec.n,
        "seed": spec.seed,
        "mode": args.mode,
    }
    write_model_json(args.truth, truth, params)
    return 0


def _cmd_benchmark(args) -> int:
    if args.trials < 1:
        raise InvalidInputError("--trials must be >= 1")
    cfg = SearchConfig(delta=_parse_delta(args.delta))
    mode = _CLI_MODES[args.mode]
    report_path = _output_path(args.report)
    scatter_path = report_path.with_name(report_path.stem + "_scatter" + (report_path.suffix or ".csv"))
    _check_outputs(report_path, scatter_path)
    rows = []
    all_pairs = []
    for trial in range(args.trials):
        data_seed = derive_seed(args.seed, 2 * trial)
        fit_seed = derive_seed(args.seed, 2 * trial + 1)
        spec = GenSpec(p=args.p, n=args.n, seed=data_seed, mode=mode)
        data, truth = generate_dataset(spec)
        start = time.perf_counter()
        if args.p <= MAX_EXACT_P:
            model, _ = fit(data, cfg)
        else:
            model, _ = fit_large(data, args.h, args.subsets, cfg, fit_seed)
        runtime_ms = (time.perf_counter() - start) * 1000.0
        rows.append(
            (trial, args.p, args.n, args.mode, _delta_repr(cfg.delta),
             order_error_count(truth, model.ordering), f"{runtime_ms:.3f}")
        )
        all_pairs.extend(scatter_pairs(truth, model))
    _write_csv(report_path, ("trial", "p", "n", "mode", "delta", "error_count", "runtime_ms"), rows)
    _write_csv(scatter_path, ("true_b", "est_b"), all_pairs)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error for ``main`` to report in one line, without the usage block."""

    def error(self, message):
        raise InvalidInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="blockorder",
        description="Estimate ordered blocks of variables from non-Gaussian data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit_p = sub.add_parser("fit", help="estimate a model from a data CSV")
    fit_p.add_argument("--input", required=True, help="samples-by-variables CSV")
    fit_p.add_argument("--delta", default="0.01", help="stop threshold, number or 'inf'")
    fit_p.add_argument("--kneig", default="auto", help="neighbor count, integer or 'auto'")
    fit_p.add_argument("--mode", choices=("exact", "large"), default="exact")
    fit_p.add_argument("--h", type=int, default=5, help="subset size for large mode")
    fit_p.add_argument("--subsets", type=int, default=50, help="covering size for large mode")
    fit_p.add_argument("--seed", type=int, default=0, help="covering seed for large mode")
    fit_p.add_argument("--output", required=True, help="model JSON path")
    fit_p.add_argument("--trace", default=None, help="optional score-trace CSV path")
    fit_p.set_defaults(func=_cmd_fit)

    sim_p = sub.add_parser("simulate", help="generate a synthetic dataset plus truth")
    sim_p.add_argument("--p", type=int, default=None, help="variable count")
    sim_p.add_argument("--n", type=int, required=True, help="sample count")
    sim_p.add_argument("--seed", type=int, default=0)
    sim_p.add_argument("--mode", choices=tuple(_CLI_MODES), default="chain")
    sim_p.add_argument("--output", required=True, help="data CSV path")
    sim_p.add_argument("--truth", required=True, help="truth model JSON path")
    sim_p.set_defaults(func=_cmd_simulate)

    bench_p = sub.add_parser("benchmark", help="generate, fit, and score repeatedly")
    bench_p.add_argument("--p", type=int, required=True)
    bench_p.add_argument("--n", type=int, required=True)
    bench_p.add_argument("--trials", type=int, default=10)
    bench_p.add_argument("--mode", choices=tuple(_CLI_MODES), default="chain")
    bench_p.add_argument("--delta", default="0.01")
    bench_p.add_argument("--h", type=int, default=5)
    bench_p.add_argument("--subsets", type=int, default=50)
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--report", required=True, help="report CSV path")
    bench_p.set_defaults(func=_cmd_benchmark)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InvalidInputError, SearchTooLargeError, OSError, UnicodeDecodeError) as exc:
        print(f"blockorder: error: {exc}", file=sys.stderr)
        return 2
    except BlockOrderError as exc:
        print(f"blockorder: estimation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
