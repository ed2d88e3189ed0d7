"""Span recorder for traced benchmark jobs, attached from outside csfdyn.

Every target below is a public function looked up through the module that
calls it (``csfdyn.cli`` or ``csfdyn.pipeline``), so replacing the module
attribute puts a span around each call the command makes. A span records
its name, layer, start, end and parent; spans stay in memory until the run
ends. Counts come from return values and raised exceptions, never from
program internals. A target that no longer exists (renamed by a later
refactor), or whose return value no longer has what its counts read,
makes its layer *unmeasured*: the job still runs and that layer's metrics
read ``UNMEASURED``.

With ``memory=True`` each span also records the peak of ``tracemalloc``
while it was open, in MB (10^6 bytes) of everything traced since the job
started. ``tracemalloc.reset_peak`` is called around every span, and the
recorder keeps each open span's running peak itself, so nested spans do
not hide their parents' peaks.
"""

from __future__ import annotations

import importlib
import os
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

UNMEASURED = -1.0


def _nbytes(obj) -> int:
    frames = getattr(obj, "frames", None)
    return int(getattr(frames, "nbytes", 0))


def _velocity_counts(args, result) -> dict:
    out = result[0] if isinstance(result, tuple) else result
    return {"velocity.bytes_computed": _nbytes(args[0]) + _nbytes(out)}


def _convert_counts(args, result) -> dict:
    counts = _velocity_counts(args, result)
    counts["velocity.pixel_frames"] = int(result.frames.size)
    return counts


def _file_size(key: str) -> Callable:
    return lambda args, result: {key: os.path.getsize(args[0])}


def _labelled(args, result) -> dict:
    return {
        "gating.cycles_labeled": len(result),
        "gating.cycles_mixed": sum(1 for c in result if c.resp_label.value == "MIXED"),
    }


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    layer: str
    #: metric that collects this span's self time
    metric: str
    counts: Callable | None = None


TARGETS = (
    Target("csfdyn.cli", "read_series", "ingest", "ingest.read_s",
           _file_size("ingest.bytes_read")),
    Target("csfdyn.cli", "read_mask", "ingest", "ingest.read_s",
           _file_size("ingest.bytes_read")),
    Target("csfdyn.cli", "read_physio", "ingest", "ingest.read_s",
           _file_size("ingest.bytes_read")),
    Target("csfdyn.cli", "process_subject", "pipeline", "pipeline.self_s"),
    Target("csfdyn.pipeline", "prepare_velocity", "pipeline", "pipeline.self_s"),
    Target("csfdyn.pipeline", "phase_to_velocity", "velocity", "velocity.convert_s",
           _convert_counts),
    Target("csfdyn.pipeline", "as_velocity_field", "velocity", "velocity.convert_s",
           _convert_counts),
    Target("csfdyn.pipeline", "unwrap_temporal", "velocity", "velocity.unwrap_s",
           _velocity_counts),
    Target("csfdyn.pipeline", "background_correct", "velocity", "velocity.background_s",
           _velocity_counts),
    Target("csfdyn.pipeline", "refine_roi", "flow", "flow.refine_s"),
    Target("csfdyn.pipeline", "extract_flow", "flow", "flow.extract_s",
           lambda args, result: {"flow.roi_pixels": result.n_roi_pixels}),
    Target("csfdyn.pipeline", "detect_cycles_from_flow", "gating", "gating.detect_s",
           lambda args, result: {"gating.cycles_detected": result.n_cycles}),
    Target("csfdyn.pipeline", "detect_cycles_from_plethysmo", "gating", "gating.detect_s",
           lambda args, result: {"gating.cycles_detected": result.n_cycles}),
    Target("csfdyn.pipeline", "classify_resp", "gating", "gating.resp_s"),
    Target("csfdyn.pipeline", "label_cycles", "gating", "gating.label_s", _labelled),
    Target("csfdyn.pipeline", "resample_cycle", "ensemble", "ensemble.resample_s",
           lambda args, result: {"ensemble.resample_calls": 1}),
    Target("csfdyn.pipeline", "build_ensembles", "ensemble", "ensemble.build_s"),
    Target("csfdyn.pipeline", "stroke_volume", "metrics", "metrics.s"),
    Target("csfdyn.pipeline", "reversal_check", "metrics", "metrics.s"),
    Target("csfdyn.cli", "spearman", "stats", "stats.spearman_s"),
    Target("csfdyn.cli", "wilcoxon_paired", "stats", "stats.wilcoxon_s"),
    Target("csfdyn.cli", "paired_t", "stats", "stats.paired_t_s"),
    Target("csfdyn.cli", "result_to_report", "reporting", "reporting.s"),
    Target("csfdyn.cli", "write_json", "reporting", "reporting.s"),
    Target("csfdyn.cli", "write_curves_csv", "reporting", "reporting.s"),
    Target("csfdyn.cli", "write_curves_svg", "reporting", "reporting.s"),
    Target("csfdyn.cli", "write_scatter_svg", "reporting", "reporting.s"),
    Target("csfdyn.cli", "sha256_of", "reporting", "reporting.s",
           _file_size("reporting.bytes_hashed")),
)

#: the root span: one whole ``csfdyn.cli.main`` call
ROOT = Target("csfdyn.cli", "main", "cli", "cli.self_s")

#: per-job metrics the spans produce, by layer; each unit is declared in
#: BENCHMARK.json
LAYER_METRICS = {
    "velocity": ("velocity.convert_s", "velocity.unwrap_s", "velocity.background_s",
                 "velocity.peak_mb", "velocity.pixel_frames", "velocity.bytes_computed"),
    "flow": ("flow.refine_s", "flow.extract_s", "flow.roi_pixels", "flow.peak_mb"),
    "gating": ("gating.detect_s", "gating.resp_s", "gating.label_s",
               "gating.cycles_detected", "gating.cycles_labeled", "gating.cycles_mixed",
               "gating.kept_ratio"),
    "ensemble": ("ensemble.resample_s", "ensemble.resample_calls", "ensemble.build_s",
                 "ensemble.cycles_skipped"),
    "metrics": ("metrics.s",),
    "stats": ("stats.spearman_s", "stats.wilcoxon_s", "stats.paired_t_s", "stats.peak_mb"),
    "ingest": ("ingest.read_s", "ingest.bytes_read"),
    "reporting": ("reporting.s", "reporting.bytes_hashed"),
    "pipeline": ("pipeline.self_s",),
    "cli": ("cli.self_s",),
}

#: metrics holding span self times; with every layer measured they sum to
#: the root span's duration
TIME_METRICS = tuple(name for names in LAYER_METRICS.values() for name in names
                     if name.endswith(("_s", ".s")))

#: layers whose peak memory is reported, from the memory run
PEAK_LAYERS = ("velocity", "flow", "stats")


@dataclass
class Span:
    name: str
    layer: str
    metric: str
    parent: int | None
    start: float
    end: float = 0.0
    peak_mb: float = 0.0


@dataclass
class Recorder:
    """Spans and counts of the job it wraps, in memory."""

    memory: bool = False
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    unmeasured: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _running_peak: dict[int, int] = field(default_factory=dict)

    def call(self, target: Target, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                self._running_peak[parent] = max(self._running_peak[parent], peak)
            tracemalloc.reset_peak()
            self._running_peak[index] = current
        span = Span(f"{target.module}.{target.attr}", target.layer, target.metric,
                    parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if type(exc).__name__ == "TooFewSamples" and target.attr == "resample_cycle":
                self.counts["ensemble.cycles_skipped"] += 1
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if self.memory:
                peak = max(self._running_peak.pop(index), tracemalloc.get_traced_memory()[1])
                span.peak_mb = peak / 1e6
                if parent is not None:
                    self._running_peak[parent] = max(self._running_peak[parent], peak)
                tracemalloc.reset_peak()
        if target.counts is not None:
            try:
                self.counts.update(target.counts(args, result))
            except (AttributeError, TypeError, IndexError, OSError):
                self.unmeasured.add(target.layer)
        return result

    def wrap(self, target: Target, fn):
        def traced(*args, **kwargs):
            return self.call(target, fn, *args, **kwargs)
        return traced


@contextmanager
def installed(recorder: Recorder, targets=TARGETS):
    """Replace each target with a traced wrapper for the duration; a
    missing target marks its layer unmeasured."""
    saved = []
    for target in targets:
        module = importlib.import_module(target.module)
        fn = getattr(module, target.attr, None)
        if fn is None:
            recorder.unmeasured.add(target.layer)
            continue
        saved.append((module, target.attr, fn))
        setattr(module, target.attr, recorder.wrap(target, fn))
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def job_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer metrics of the one job the recorder holds."""
    values = {name: 0.0 for names in LAYER_METRICS.values() for name in names}
    for span, own in zip(recorder.spans, self_times(recorder.spans)):
        values[span.metric] += own
        if span.layer in PEAK_LAYERS:
            key = f"{span.layer}.peak_mb"
            values[key] = max(values[key], span.peak_mb)
    for key, count in recorder.counts.items():
        values[key] += count
    detected = values["gating.cycles_detected"]
    values["gating.kept_ratio"] = (
        values["gating.cycles_labeled"] / (detected - 1) if detected > 1 else 0.0
    )
    for layer in recorder.unmeasured:
        for name in LAYER_METRICS[layer]:
            values[name] = UNMEASURED
    return values
