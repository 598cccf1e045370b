"""Span tracing around the program's public functions, from outside the program.

``Tracer.installed()`` replaces each target function with a wrapper that
records one span per call (name, start, end, parent span) and restores the
originals on exit. A module that bound a name at import (``from .analysis
import analyze_records`` in ``report``) gets its binding wrapped too. A target
the program no longer has is reported as absent and skipped, so a renamed or
deleted function never fails a traced run.

Spans stay in memory; ``summarize`` turns a range of them into per-function
call counts, inclusive seconds and self seconds (a span's duration minus the
time its child spans cover), and ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# (span name, module bindings that hold the function)
TARGETS = (
    ("sweep.build_dataset", ("sweep.build_dataset",)),
    ("sweep.load_records", ("sweep.load_records",)),
    ("sweep.append_record", ("sweep.append_record",)),
    ("training.train_run", ("training.train_run",)),
    ("training.adam_step", ("training.adam_step",)),
    ("training.gradient_with_penalties", ("training.gradient_with_penalties",)),
    ("training.diffusion_update", ("training.diffusion_update",)),
    ("models.mean_gradient", ("models.mean_gradient",)),
    ("models.forward_loss", ("models.forward_loss",)),
    ("models.predict_accuracy", ("models.predict_accuracy",)),
    ("models.per_sample_gradients", ("models.per_sample_gradients",)),
    ("models.hidden_activations", ("models.hidden_activations",)),
    ("models.hidden_backward", ("models.hidden_backward",)),
    ("measures.gradient_noise", ("measures.gradient_noise",)),
    ("measures.sharpness_lambda_max", ("measures.sharpness_lambda_max",)),
    ("analysis.analyze_records", ("analysis.analyze_records", "report.analyze_records")),
    ("causal.fit_cpts", ("causal.fit_cpts",)),
    ("causal.interventional_distribution", ("causal.interventional_distribution",)),
    ("causal.backdoor_diagnostic", ("causal.backdoor_diagnostic",)),
    ("stats.welch_t_test", ("stats.welch_t_test",)),
    ("stats.wilcoxon_signed_rank", ("stats.wilcoxon_signed_rank",)),
    ("report.emit_report", ("report.emit_report",)),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    result: object = None


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


PACKAGE = "batchlab"
KEEP_RESULTS = ("measures.sharpness_lambda_max",)  # calls kept for the sharpness oracle


@dataclass
class Tracer:
    targets: tuple = TARGETS
    spans: list[Span] = field(default_factory=list)
    absent: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)

    def _wrap(self, name: str, fn):
        spans, stack, keep = self.spans, self._stack, name in KEEP_RESULTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(), parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if keep:
                    span.result = (args, kwargs, result)
                return result
            finally:
                span.end = perf_counter()
                stack.pop()

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own operation (a sweep, a report)."""
        stack = self._stack
        span = Span(name, perf_counter(), parent=stack[-1] if stack else -1)
        stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()

    @contextmanager
    def installed(self):
        """Wrap every target binding that exists; restore all on exit."""
        saved = []
        try:
            for name, bindings in self.targets:
                found = False
                for binding in bindings:
                    module_name, attr = binding.rsplit(".", 1)
                    try:
                        module = importlib.import_module(f"{PACKAGE}.{module_name}")
                    except ImportError:
                        continue
                    fn = getattr(module, attr, None)
                    if not callable(fn):
                        continue
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(name, fn))
                    found = True
                if not found:
                    self.absent.add(name)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def summarize(self, start: int = 0, stop: int | None = None) -> dict[str, Stat]:
        """Per-name counts, inclusive and self seconds over spans[start:stop]."""
        spans = self.spans[start:stop]
        child = [0.0] * len(spans)
        for span in spans:
            if span.parent >= start:
                child[span.parent - start] += span.end - span.start
        stats: dict[str, Stat] = {}
        for span, covered in zip(spans, child):
            st = stats.setdefault(span.name, Stat())
            st.calls += 1
            st.s += span.end - span.start
            st.self_s += span.end - span.start - covered
        return stats

    def results(self, name: str, start: int = 0, stop: int | None = None) -> list:
        return [s.result for s in self.spans[start:stop] if s.name == name and s.result is not None]

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent], one JSON document."""
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "absent": sorted(self.absent),
            "spans": [[index[s.name], s.start, s.end, s.parent] for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
