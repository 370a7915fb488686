"""Counter identities of the layer wrappers, checked on tiny fits.

A wrapper that misses one import-site binding of a function reports too few
calls; these identities turn that into a failure instead of a silent zero.
Run from the checkout root with ``python3 -m pytest perfbench``.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from layers import TARGETS, Recorder  # noqa: E402
from run import identities  # noqa: E402

cli = importlib.import_module("blockorder.cli")
covering = importlib.import_module("blockorder.covering")
kernels = importlib.import_module("blockorder._kernels")
mi = importlib.import_module("blockorder.mi")


def traced_fit(tmp_path, simulate_args, fit_args, recorder=None):
    csv, truth = tmp_path / "data.csv", tmp_path / "truth.json"
    trace = tmp_path / "trace.csv"
    assert cli.main(["simulate", *simulate_args, "--output", str(csv), "--truth", str(truth)]) == 0
    recorder = recorder or Recorder()
    recorder.fit = 0
    if not recorder.bindings():
        recorder.install()
    try:
        code = cli.main(["fit", "--input", str(csv), "--output", str(tmp_path / "model.json"),
                         "--trace", str(trace), *fit_args])
    finally:
        recorder.uninstall()
    assert code == 0
    rows = len(trace.read_text(encoding="utf-8").splitlines()) - 1
    return recorder.summarize(0), rows


def test_exact_fit_identities(tmp_path):
    summary, rows = traced_fit(tmp_path, ["--mode", "eq4", "--n", "150", "--seed", "2"], ["--delta", "0.01"])
    assert rows > 0
    assert summary["mi.calls"] == rows
    assert summary["kernels.kth.calls"] == summary["mi.calls"]
    assert summary["kernels.count.calls"] == 2 * summary["mi.calls"]
    assert summary["search.enumerate.candidates"] == rows
    assert summary["covering.implied.calls"] == 0
    assert identities(summary, rows) == []


def test_full_ordering_identities(tmp_path):
    summary, rows = traced_fit(
        tmp_path, ["--mode", "dag", "--p", "4", "--n", "120", "--seed", "5"], ["--delta", "inf"]
    )
    assert summary["strengths.calls"] == 1
    assert summary["kernels.kth.pairs"] == 120 * 120 * rows
    assert identities(summary, rows) == []


def test_covering_identities(tmp_path):
    p, h, subsets, seed = 12, 4, 6, 3
    summary, rows = traced_fit(
        tmp_path,
        ["--mode", "chain", "--p", str(p), "--n", "120", "--seed", "4"],
        ["--mode", "large", "--h", str(h), "--subsets", str(subsets), "--seed", str(seed)],
    )
    expected = len(covering.random_covering(p, h, subsets, seed).subsets)
    assert summary["covering.implied.calls"] == expected
    assert summary["covering.merge.calls"] == expected
    assert summary["covering.random_covering.subsets"] == expected
    assert summary["mi.calls"] == rows
    assert identities(summary, rows) == []


def test_missed_binding_breaks_an_identity(tmp_path):
    recorder = Recorder()
    recorder.install()
    original = kernels.count_within.__wrapped__
    mi.count_within = original  # as if the wrapper had missed mi's binding
    summary, rows = traced_fit(tmp_path, ["--mode", "eq4", "--n", "120", "--seed", "1"], [], recorder)
    assert summary["kernels.count.calls"] == 0
    assert any("kernels.count.calls" in problem for problem in identities(summary, rows))


def test_uninstall_restores_every_binding():
    originals = {(mod, attr): getattr(sys.modules[mod], attr) for _, mod, attr, _ in TARGETS}
    count_within = kernels.count_within
    recorder = Recorder()
    recorder.install()
    try:
        assert mi.count_within is kernels.count_within
        assert mi.count_within is not count_within
        assert mi.count_within.__wrapped__ is count_within
        assert recorder.bindings() > len(TARGETS)
    finally:
        recorder.uninstall()
    assert mi.count_within is count_within
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[mod], attr) is fn
