"""Per-layer tracing from outside the package.

Spans are recorded by wrappers that replace the names each module's
callers use: callers import functions directly (``from .bootstrap import
resample``), so a wrapper goes into the *consuming* module's namespace,
and methods are wrapped on their class.  Nothing in ``funcavg`` changes;
:func:`install` returns a handle whose ``restore`` puts every original
back.

A span records its name (the layer), start, end, parent span and the id
of the benchmark operation containing it.  Spans stay in memory until the
run ends.  A layer's self time is its spans' durations minus the time
their child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from pathlib import Path

from funcavg import cli, regression, simharness
from funcavg.dataset import Dataset
from funcavg.estimators import TwoArmSample
from funcavg.rng import RngStream

# Layer -> names wrapped in each consuming module's namespace.
_MODULE_WRAPS = {
    simharness: {
        "estimators": ("midrange", "discrete_plugin_average"),
        "bootstrap.resample": ("resample",),
        "bootstrap.intervals": ("hoeffding_ci", "hoeffding_u_ci", "percentile_ci",
                                "popoviciu_check"),
        "distributions": ("sample_truncated_normal", "sample_bernoulli",
                          "sample_bernoulli_probs", "sample_binomial",
                          "round_to_integers"),
        "regression.ols_fit": ("ols_fit",),
        "simharness.emit": ("write_report",),
    },
    cli: {
        "estimators": ("midrange",),
        "bootstrap.resample": ("resample",),
        "bootstrap.intervals": ("hoeffding_ci",),
        "regression.ols_fit": ("ols_fit",),
        "regression.build_design": ("build_design",),
        "regression.refits": ("standardization_bootstrap_se", "ps_stratified_contrast"),
        "cli.ingest_csv": ("ingest_csv",),
        "diagnostics": ("ecdf", "sum_symmetry_gap", "mean_midrange_distance",
                        "residual_support_symmetry"),
    },
    regression: {
        "regression.ols_fit": ("ols_fit",),
        "regression.logistic_fit": ("logistic_fit",),
        "regression.build_design": ("build_design", "design_from_columns"),
    },
}
_METHOD_WRAPS = {
    "dataset.take": (Dataset, "take"),
    "rng.generator": (RngStream, "generator"),
}

LAYERS = ("simharness", "simharness.emit", "cli", "cli.ingest_csv", "diagnostics",
          "estimators", "bootstrap.resample", "bootstrap.intervals",
          "regression.ols_fit", "regression.logistic_fit", "regression.build_design",
          "regression.refits", "dataset.take", "distributions", "rng.generator")


def _observe_resample(counts, args, _kwargs, _result):
    values, config = args[0], args[1]
    counts["resample.index_cells"] += config.replicates * config.size_for(len(values))


def _observe_range_check(counts, _args, _kwargs, passed):
    counts["range_checks.total"] += 1
    counts["range_checks.passed"] += bool(passed)


def _observe_logistic(counts, _args, _kwargs, fit):
    counts["logistic_fit.irls_iters"] += fit.iterations


def _observe_ingest(counts, _args, _kwargs, result):
    data, dropped = result
    counts["ingest_csv.rows"] += data.n_rows + dropped


def _observe_bernoulli_probs(counts, _args, _kwargs, _result):
    counts["sample_bernoulli_probs.calls"] += 1


_OBSERVERS = {
    "resample": _observe_resample,
    "popoviciu_check": _observe_range_check,
    "logistic_fit": _observe_logistic,
    "ingest_csv": _observe_ingest,
    "sample_bernoulli_probs": _observe_bernoulli_probs,
}


class Tracer:
    """In-memory span store, one list per span field."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._op = -1
        self._n_ops = 0

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one ``name`` span per call."""
        names, parents, ops, starts, ends = (self.names, self.parents, self.ops,
                                             self.starts, self.ends)
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ops.append(self._op)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def run_op(self, layer: str, fn):
        """Call ``fn`` as a new benchmark operation with a root ``layer`` span."""
        self._op = self._n_ops
        self._n_ops += 1
        try:
            return self.wrap(layer, fn)()
        finally:
            self._op = -1

    def layer_totals(self) -> tuple[Counter, Counter]:
        """(calls per layer, self seconds per layer).

        Self time is a span's duration minus its children's durations.
        """
        child = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_ns[name] += self.ends[i] - self.starts[i] - child[i]
        return calls, Counter({k: v / 1e9 for k, v in self_ns.items()})

    def write_tsv(self, path: Path, phase: str) -> None:
        """Append every span as ``phase id parent op name start_ns end_ns``."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(f"{phase}\t{i}\t{self.parents[i]}\t{self.ops[i]}\t{name}\t"
                         f"{self.starts[i]}\t{self.ends[i]}\n")


class Installed:
    """Wrappers in place; :meth:`restore` puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installed:
    """Wrap every traced name; returns the handle that undoes it."""
    installed = Installed()
    for module, layers in _MODULE_WRAPS.items():
        for layer, names in layers.items():
            for name in names:
                fn = getattr(module, name)
                installed.replace(module, name,
                                  tracer.wrap(layer, fn, _OBSERVERS.get(name)))
    for layer, (cls, attr) in _METHOD_WRAPS.items():
        installed.replace(cls, attr, tracer.wrap(layer, getattr(cls, attr)))
    from_labels = TwoArmSample.__dict__["from_labels"].__func__
    installed.replace(TwoArmSample, "from_labels",
                      classmethod(tracer.wrap("estimators", from_labels)))

    # Every successful bootstrap refit ends in one standardization_contrast
    # call, so counting those (no span) counts refits that did not fail.
    contrast = regression.standardization_contrast

    @functools.wraps(contrast)
    def counted_contrast(*args, **kwargs):
        result = contrast(*args, **kwargs)
        tracer.counts["refits.completed"] += 1
        return result

    installed.replace(regression, "standardization_contrast", counted_contrast)
    return installed
