"""Spans around the calls into each scalemix module, for the traced run.

The benchmark records spans from its own code: :func:`instrument` replaces
public functions at the module attribute through which the package calls
them (``scalemix.cli.load_csv``, ``scalemix.vb.cholesky``, ...), so no
file of the package changes. Each span holds its name, start, end, parent
and thread. Parents come from a per-thread stack; a span opened on a
worker thread with an empty stack takes the innermost open span of the
main thread as its parent, because the package starts its worker threads
from there. Spans stay in memory; at the end of the command
:func:`summarize` reduces them to the per-layer metrics and the self time
by span name, which go into the command's result record.

Self time is a span's duration minus the part of its interval that its
child spans cover (children on two threads may overlap; their union is
subtracted once).
"""

import importlib
import statistics
import threading
import time

NAME, START, END, PARENT, THREAD, INFO = range(6)


def _fit_info(args, kwargs, classifier):
    classes = classifier.classes
    return {
        "class_fits": len(classes),
        "iterations": sum(len(cm.elbo_trace) for cm in classes),
        "pruned": sum(cm.n_pruned for cm in classes),
        "unconverged": sum(not cm.converged for cm in classes),
    }


# (module, attribute, span name, summary of the call kept on the span)
WRAPPED = (
    ("scalemix.cli", "main", "cli.main", None),
    ("scalemix.cli", "load_csv", "data.load_csv", lambda a, k, r: {"rows": r.n_rows}),
    ("scalemix.cli", "split_by_trials", "data.split", None),
    ("scalemix.cli", "subsample", "data.split", None),
    ("scalemix.cli", "build_default_prior", "model.prior", None),
    ("scalemix.cli", "save_model", "model.save", None),
    ("scalemix.cli", "load_model", "model.load", None),
    ("scalemix.cli", "fit", "vb.fit", _fit_info),
    ("scalemix.cli", "select_nu", "nu_select.select", lambda a, k, r: {"nu": r}),
    ("scalemix.cli", "predict_batch", "predict.batch", lambda a, k, r: {"records": len(a[1])}),
    ("scalemix.cli", "accuracy", "metrics.score", None),
    ("scalemix.cli", "precision_recall", "metrics.score", None),
    ("scalemix.cli", "confusion_matrix", "metrics.score", None),
    ("scalemix.cli", "probability_of_superiority", "metrics.score", None),
    ("scalemix.nu_select", "fit", "nu_select.fold_fit", _fit_info),
    ("scalemix.nu_select", "conditional_entropy", "nu_select.grid_score", None),
    ("scalemix.vb", "e_step", "vb.e_step", None),
    ("scalemix.vb", "m_step", "vb.m_step", None),
    ("scalemix.vb", "elbo", "vb.elbo", None),
    ("scalemix.vb", "cholesky", "numerics.cholesky", None),
    ("scalemix.vb", "mahalanobis_sq_batch", "numerics.mahalanobis_batch", None),
    ("scalemix.model", "cholesky", "numerics.cholesky", None),
    ("scalemix.predict", "cholesky", "numerics.cholesky", None),
)


class Tracer:
    """Collects spans from wrapped functions; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._stacks = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self._patched = []

    def wrap(self, module, attr, name, info=None):
        original = getattr(module, attr)
        spans, stacks, lock, main = self.spans, self._stacks, self._lock, self._main

        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            elif ident != main and stacks.get(main):
                parent = stacks[main][-1]
            else:
                parent = None
            span = [name, 0.0, 0.0, parent, ident, None]
            with lock:
                sid = len(spans)
                spans.append(span)
            stack.append(sid)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def instrument(tracer):
    for module_name, attr, name, info in WRAPPED:
        tracer.wrap(importlib.import_module(module_name), attr, name, info)


def _self_times(spans):
    children = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for sid, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


# every per-layer metric with its unit; counts repeat exactly for a fixed input
LAYER_METRICS = {
    "cli.self_s": "s",
    "data.load_csv_s": "s",
    "data.load_csv_rows": "count",
    "data.split_s": "s",
    "model.prior_s": "s",
    "model.save_s": "s",
    "model.load_s": "s",
    "vb.fit_s": "s",
    "vb.class_fits": "count",
    "vb.iterations": "count",
    "vb.e_step_s": "s",
    "vb.m_step_s": "s",
    "vb.m_step_calls": "count",
    "vb.elbo_s": "s",
    "vb.iter_ms": "ms",
    "vb.pruned_components": "count",
    "vb.unconverged_classes": "count",
    "numerics.cholesky_calls": "count",
    "numerics.cholesky_s": "s",
    "numerics.cholesky_per_iter": "calls/iter",
    "numerics.mahalanobis_batch_calls": "count",
    "numerics.mahalanobis_batch_s": "s",
    "nu_select.fold_fit_s": "s",
    "nu_select.grid_score_s": "s",
    "nu_select.grid_score_calls": "count",
    "nu_select.selected_nu": "dof",
    "predict.batch_s": "s",
    "predict.records": "count",
    "predict.us_per_record": "us",
    "metrics.score_s": "s",
}


def summarize(spans):
    """Per-layer metrics of one traced command, and self time by span name.

    Times are busy time summed over threads, so with worker threads a
    layer can be busy longer than the command's wall time. A layer the
    command never reaches reads 0, as do ratios over a zero count.
    """
    self_s = _self_times(spans)
    busy, calls, self_by_name = {}, {}, {}
    for span, own in zip(spans, self_s):
        name = span[NAME]
        busy[name] = busy.get(name, 0.0) + span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + own

    def infos(*names):
        return [s[INFO] for s in spans if s[NAME] in names and s[INFO] is not None]

    def fit_total(key):
        return sum(i[key] for i in infos("vb.fit", "nu_select.fold_fit"))

    def ratio(num, den):
        return num / den if den else 0.0

    iterations = fit_total("iterations")
    fit_s = busy.get("vb.fit", 0.0) + busy.get("nu_select.fold_fit", 0.0)
    records = sum(i["records"] for i in infos("predict.batch"))
    selected = [i["nu"] for i in infos("nu_select.select")]
    layers = {
        "cli.self_s": self_by_name.get("cli.main", 0.0),
        "data.load_csv_s": busy.get("data.load_csv", 0.0),
        "data.load_csv_rows": sum(i["rows"] for i in infos("data.load_csv")),
        "data.split_s": busy.get("data.split", 0.0),
        "model.prior_s": busy.get("model.prior", 0.0),
        "model.save_s": busy.get("model.save", 0.0),
        "model.load_s": busy.get("model.load", 0.0),
        "vb.fit_s": fit_s,
        "vb.class_fits": fit_total("class_fits"),
        "vb.iterations": iterations,
        "vb.e_step_s": busy.get("vb.e_step", 0.0),
        "vb.m_step_s": busy.get("vb.m_step", 0.0),
        "vb.m_step_calls": calls.get("vb.m_step", 0),
        "vb.elbo_s": busy.get("vb.elbo", 0.0),
        "vb.iter_ms": 1e3 * ratio(fit_s, iterations),
        "vb.pruned_components": fit_total("pruned"),
        "vb.unconverged_classes": fit_total("unconverged"),
        "numerics.cholesky_calls": calls.get("numerics.cholesky", 0),
        "numerics.cholesky_s": busy.get("numerics.cholesky", 0.0),
        "numerics.cholesky_per_iter": ratio(calls.get("numerics.cholesky", 0), iterations),
        "numerics.mahalanobis_batch_calls": calls.get("numerics.mahalanobis_batch", 0),
        "numerics.mahalanobis_batch_s": busy.get("numerics.mahalanobis_batch", 0.0),
        "nu_select.fold_fit_s": busy.get("nu_select.fold_fit", 0.0),
        "nu_select.grid_score_s": busy.get("nu_select.grid_score", 0.0),
        "nu_select.grid_score_calls": calls.get("nu_select.grid_score", 0),
        "nu_select.selected_nu": statistics.median(selected) if selected else 0.0,
        "predict.batch_s": busy.get("predict.batch", 0.0),
        "predict.records": records,
        "predict.us_per_record": 1e6 * ratio(busy.get("predict.batch", 0.0), records),
        "metrics.score_s": busy.get("metrics.score", 0.0),
    }
    return layers, self_by_name
