"""Span tracer that wraps library functions wherever they are looked up.

Several adaptkan modules import names from each other (``network`` holds its
own reference to ``adapt.decide``, ``cli`` to ``clf.simulate``, and so on),
so replacing a function only in its defining module would miss every call
made through those references.  :meth:`Tracer.install` therefore rebinds
every global of every loaded ``adaptkan`` module that refers to the target
object; methods are patched once on their class.  :meth:`Tracer.uninstall`
restores the originals, so untraced passes run the unmodified program.

A span is ``(name, start_ns, end_ns, parent_index, op_id)``.  Spans stay in
memory and are written out with :meth:`Tracer.write_csv` when a run ends.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from collections import defaultdict

# (span name, module, attribute path) for every layer boundary the benchmark
# times.  Span names are the per-layer metric prefixes in BENCHMARK.json.
TARGETS = [
    ("network.forward", "adaptkan.network", "AdaptKanNet.forward"),
    ("network.backward", "adaptkan.network", "AdaptKanNet.backward"),
    ("network.forward_jvp", "adaptkan.network", "AdaptKanNet.forward_jvp"),
    ("network.backward_jvp", "adaptkan.network", "AdaptKanNet.backward_jvp"),
    ("network.refine_all", "adaptkan.network", "AdaptKanNet.refine_all"),
    ("histogram.update", "adaptkan.histogram", "FeatureHistogram.update"),
    ("histogram.refit", "adaptkan.histogram", "FeatureHistogram.refit"),
    ("adapt.decide", "adaptkan.adapt", "decide"),
    ("adapt.apply_adapt", "adaptkan.adapt", "apply_adapt"),
    ("spline.refit_least_squares", "adaptkan.spline", "refit_least_squares"),
    ("spline.refine_grid", "adaptkan.spline", "refine_grid"),
    ("optim.Adam.step", "adaptkan.optim", "Adam.step"),
    ("optim.train", "adaptkan.optim", "train"),
    ("clf.train_clf", "adaptkan.clf", "train_clf"),
    ("clf.clf_loss_and_grads", "adaptkan.clf", "clf_loss_and_grads"),
    ("clf.lyapunov_value_and_grad", "adaptkan.clf", "lyapunov_value_and_grad"),
    ("clf.simulate", "adaptkan.clf", "simulate"),
    ("ood.OodScorer.fit", "adaptkan.ood", "OodScorer.fit"),
    ("ood.OodScorer.score_hist", "adaptkan.ood", "OodScorer.score_hist"),
    ("ood.auroc", "adaptkan.ood", "auroc"),
    ("model_io.save_model", "adaptkan.model_io", "save_model"),
    ("model_io.load_model", "adaptkan.model_io", "load_model"),
    ("cli.main", "adaptkan.cli", "main"),
    ("cli.cmd_clf_train", "adaptkan.cli", "cmd_clf_train"),
    ("cli.cmd_clf_simulate", "adaptkan.cli", "cmd_clf_simulate"),
    ("cli.cmd_clf_conformal", "adaptkan.cli", "cmd_clf_conformal"),
    ("cli.cmd_ood_fit", "adaptkan.cli", "cmd_ood_fit"),
    ("cli.cmd_ood_score", "adaptkan.cli", "cmd_ood_score"),
    ("cli.cmd_ood_auroc", "adaptkan.cli", "cmd_ood_auroc"),
]

# Span the benchmark opens around each timed pass; its self time is the
# benchmark's own glue between library calls.
ROOT = "perfbench.pass"

SPAN_NAMES = [name for name, _, _ in TARGETS] + [ROOT]


class Tracer:
    """Records nested spans around the functions named in ``TARGETS``."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self.missing = []
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so each call records a span called ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "adaptkan" or key.startswith("adaptkan."))]
        self.missing = []
        for name, modname, path in TARGETS:
            mod = importlib.import_module(modname)
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_path, None) if owner_path else mod
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                # the function was renamed or removed; its metrics read 0
                self.missing.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(name, raw.__func__))
            else:
                wrapped = self.wrap(name, raw)
            if owner_path:
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is raw]:
                    self._undo.append((m, key, raw))
                    setattr(m, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_ns", "end_ns", "parent", "op"])
            writer.writerows(self.spans)


def self_times(spans):
    """Per name: (calls, total self seconds); self = duration minus child spans."""
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child[i]
    return {name: (calls[name], self_ns[name] * 1e-9) for name in calls}


def parent_counts(spans, name):
    """How many spans called ``name`` are opened directly under each parent name."""
    counts = defaultdict(int)
    for span_name, _, _, parent, _ in spans:
        if span_name == name:
            counts[spans[parent][0] if parent >= 0 else None] += 1
    return dict(counts)
