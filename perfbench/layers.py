"""Layer timing from outside the program: wrap public functions, record spans.

Each target below is one public function of a ``blockorder`` layer.  While a
``Recorder`` is installed, every module attribute that is bound to a target's
function object is replaced by a wrapper, so a name imported elsewhere
(``mi.count_within`` as well as ``_kernels.count_within``) is wrapped too;
``uninstall`` puts the original objects back.  A wrapper appends one span
(name, start, end, parent span, fit id) per call to an in-memory list and may
add counts derived from the call's arguments and result.

Functions that are not targets (``DataMatrix.restrict``, ``covariance``,
``extract_pairs``, the trace-CSV writer) are charged to the self time of the
innermost target that called them.
"""

import functools
import os
import sys
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root span
    fit: object


def _n_squared(args, kwargs, result):
    n = args[0].shape[0]
    return {"pairs": n * n}


def _candidates(args, kwargs, result):
    size = len(set(args[0]))
    return {"candidates": len(result), "candidates_pruned": 2**size - 2 - len(result)}


def _covering_subsets(args, kwargs, result):
    return {"subsets": len(result.subsets)}


def _closure_pairs(args, kwargs, result):
    return {"closure_pairs": len(result)}


def _groups(args, kwargs, result):
    return {"groups": len(args[0].groups)}


def _bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (span name, module, function name, counter); the span name's first part is
# the layer its self time is charged to.
TARGETS = (
    ("kernels.kth", "blockorder._kernels", "kth_neighbor_distance", _n_squared),
    ("kernels.count", "blockorder._kernels", "count_within", _n_squared),
    ("mi", "blockorder.mi", "mutual_information", None),
    ("linalg.residualize", "blockorder.linalg", "residualize", None),
    ("linalg.regress_on", "blockorder.linalg", "regress_on", None),
    ("search.fit", "blockorder.search", "fit", None),
    ("search.group_search", "blockorder.search", "group_search", None),
    ("search.enumerate", "blockorder.search", "enumerate_candidates", _candidates),
    ("strengths", "blockorder.strengths", "estimate_strengths", None),
    ("covering.fit_large", "blockorder.covering", "fit_large", None),
    ("covering.random_covering", "blockorder.covering", "random_covering", _covering_subsets),
    ("covering.implied", "blockorder.covering", "implied_constraints", _closure_pairs),
    ("covering.merge", "blockorder.covering", "merge_orders", None),
    ("covering.build", "blockorder.covering", "build_block_order", _groups),
    ("cli.main", "blockorder.cli", "main", None),
    ("cli.read_csv", "blockorder.cli", "read_csv_matrix", _bytes),
    ("cli.write_csv", "blockorder.cli", "write_csv_matrix", _bytes),
    ("model.write_json", "blockorder.model", "write_model_json", None),
    ("datagen.generate", "blockorder.datagen", "generate_dataset", None),
)

LAYERS = ("kernels", "mi", "search", "covering", "linalg", "strengths", "cli", "model", "datagen")


class Recorder:
    """Spans and counts of every target call made while installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # fit -> name -> count
        self.fit: object = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.fit)
            counts = self.counts[self.fit]
            counts[name + ".calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[name + "." + key] += value
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of every target in the loaded blockorder modules."""
        if self._saved:
            raise RuntimeError("recorder already installed")
        modules = [m for n, m in sys.modules.items() if n == "blockorder" or n.startswith("blockorder.")]
        for name, module_name, attr, counter in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()

    def bindings(self) -> int:
        return len(self._saved)

    def summarize(self, fit) -> dict:
        """Times and counts of one fit, keyed by metric name.

        ``<span>.busy_s`` is the summed duration of a target's spans,
        ``<span>.own_s`` that duration minus the time its child spans cover,
        and ``<layer>.self_s`` the own time of all the layer's targets.
        """
        spans = [(i, s) for i, s in enumerate(self.spans) if s is not None and s.fit == fit]
        child_time: dict[int, float] = defaultdict(float)
        for _, span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for name, *_ in TARGETS:
            out[name + ".busy_s"] = out[name + ".own_s"] = 0.0
            out[name + ".calls"] = 0
        for layer in LAYERS:
            out[layer + ".self_s"] = 0.0
        for index, span in spans:
            duration = span.end - span.start
            own = duration - child_time[index]
            out[span.name + ".busy_s"] += duration
            out[span.name + ".own_s"] += own
            out[span.name.split(".")[0] + ".self_s"] += own
        out.update(self.counts[fit])
        return out
