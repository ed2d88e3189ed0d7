"""Retrospective double gating: cardiac cycle detection from the flow
signal itself (or a plethysmograph trace), and inspiration/expiration
labeling from the respiratory belt.

One detector serves both cardiac sources; only the onset rule differs
(the upward zero crossing before each flow peak, or the foot of each
plethysmograph upstroke).

All detection happens on timestamps relative to the first sample, so
shifting every input clock by the same amount shifts every output
timestamp by exactly that amount.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.signal import find_peaks

from .errors import (
    ArrhythmicSignal,
    ClockMismatch,
    FlatSignal,
    TooFewCycles,
    ValueOutOfRange,
    WrongKind,
    warn,
)
from .flow import FlowSamples
from .ingest import PhysioKind, PhysioTrace

DEFAULT_MIN_RR = 300.0
DEFAULT_MAX_RR = 2000.0

#: belt smoothing window (ms) and Schmitt-trigger band (fraction of the
#: belt's range) of classify_resp
DEFAULT_SMOOTHING_MS = 500.0
DEFAULT_HYSTERESIS = 0.05

#: shortest admissible inspiration/expiration run, ms
DEBOUNCE_MS = 200.0

#: refuse self-gating above this RR coefficient of variation
RR_CV_LIMIT = 0.35

#: inspiration fraction at or above which a cycle is INSPIRATION, and at
#: or below which it is EXPIRATION; anything between is MIXED
INSPIRATION_MIN_FRACTION = 0.7
EXPIRATION_MAX_FRACTION = 0.3


class GatingMethod(str, Enum):
    FLOW_PEAKS = "FLOW_PEAKS"
    PLETHYSMO = "PLETHYSMO"


class RespLabel(str, Enum):
    INSPIRATION = "INSPIRATION"
    EXPIRATION = "EXPIRATION"
    MIXED = "MIXED"


@dataclass
class CycleBoundaries:
    """Detected cardiac cycle start times (ms) plus rhythm summary.

    min_rr/max_rr record the admissible cycle-length window the detector
    ran with; downstream labeling skips intervals outside it.
    """

    onsets: np.ndarray
    method: GatingMethod
    mean_rr: float
    rr_cv: float
    min_rr: float = DEFAULT_MIN_RR
    max_rr: float = DEFAULT_MAX_RR

    def __post_init__(self):
        self.onsets = np.asarray(self.onsets, dtype=np.float64)
        if self.onsets.size < 2:
            raise TooFewCycles(f"{self.onsets.size} cycle onsets is not a rhythm")
        if np.any(np.diff(self.onsets) <= 0):
            raise ValueOutOfRange("onsets must be strictly increasing")

    @property
    def n_cycles(self) -> int:
        """Number of detected cycle starts."""
        return int(self.onsets.size)


def resp_label_for(inspiration_fraction: float) -> RespLabel:
    """Breathing label of a cycle that spends the given fraction of its
    time in inspiration."""
    if inspiration_fraction >= INSPIRATION_MIN_FRACTION:
        return RespLabel.INSPIRATION
    if inspiration_fraction <= EXPIRATION_MAX_FRACTION:
        return RespLabel.EXPIRATION
    return RespLabel.MIXED


@dataclass
class RespPhases:
    """Per-sample inspiration/expiration labels on the physio clock.

    inspiration is a bool array aligned with the trace samples
    (True = INSPIRATION). Runs are guaranteed no shorter than 200 ms.
    """

    t0: float
    sample_interval: float
    inspiration: np.ndarray

    def __post_init__(self):
        self.inspiration = np.asarray(self.inspiration, dtype=bool)
        if self.inspiration.ndim != 1 or self.inspiration.size < 2:
            raise ValueOutOfRange("labels must form a 1D run of at least 2 samples")

    @property
    def timestamps(self) -> np.ndarray:
        return self.t0 + np.arange(self.inspiration.size, dtype=np.float64) * self.sample_interval

    def covers(self, t_start: float, t_end: float) -> bool:
        """Whether [t_start, t_end] lies within the labeled span, with half
        a sample of slack at each edge."""
        slack = 0.5 * self.sample_interval
        t_last = self.t0 + (self.inspiration.size - 1) * self.sample_interval
        return t_start >= self.t0 - slack and t_end <= t_last + slack

    def label_at(self, times: np.ndarray) -> np.ndarray:
        """Nearest-sample inspiration flag for arbitrary timestamps."""
        idx = np.rint((np.asarray(times, dtype=np.float64) - self.t0) / self.sample_interval)
        idx = np.clip(idx, 0, self.inspiration.size - 1).astype(np.intp)
        return self.inspiration[idx]


@dataclass
class LabeledCycle:
    """One cardiac cycle cut out of the continuous flow signal."""

    cycle_id: int
    start: float
    end: float
    t: np.ndarray
    q: np.ndarray
    resp_label: RespLabel
    inspiration_fraction: float

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.float64)
        self.q = np.asarray(self.q, dtype=np.float64)

    @property
    def rr(self) -> float:
        return self.end - self.start

    @property
    def n_samples(self) -> int:
        return int(self.t.size)


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with edge shrinkage.

    window is in samples and forced odd so the filter stays zero-phase;
    near the edges the window shrinks instead of padding. A window of 2n+1
    samples or more, for n samples, averages the whole signal at every
    sample.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    w = max(1, int(window))
    if w % 2 == 0:
        w += 1
    if w == 1 or n == 1:
        return x.copy()
    half = min(w // 2, n)
    csum = np.concatenate([[0.0], np.cumsum(x)])
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    return (csum[hi] - csum[lo]) / (hi - lo)


def _smooth_for_peaks(x: np.ndarray, dt: float, max_rr: float) -> np.ndarray:
    """Detrend by a max_rr-wide moving average, then 3-sample smooth."""
    detrend_w = max(3, int(round(min(max_rr / dt, 2 * x.size + 1))))
    resid = x - moving_average(x, detrend_w)
    return moving_average(resid, 3)


def _find_beat_peaks(s: np.ndarray, dt: float, min_rr: float) -> np.ndarray:
    """Local maxima of the band-limited signal with prominence and
    refractory gating. Returns sample indices."""
    pos = s[s > 0]
    # 1e-9 of full scale guards against float residue masquerading as
    # pulsation when the input is essentially constant
    floor = 1e-9 * float(np.abs(s).max(initial=0.0))
    if pos.size == 0:
        raise TooFewCycles("flow signal has no positive excursions to gate on")
    prominence = max(0.5 * float(np.percentile(pos, 75)), floor)
    if prominence <= 0.0:
        raise TooFewCycles("flow signal has no usable pulsation")
    distance = max(1, int(np.ceil(min_rr / dt)))
    peaks, _ = find_peaks(s, prominence=prominence, distance=distance)
    return peaks


def _detect(x: np.ndarray, rel: np.ndarray, dt: float | None, t_first: float,
            method: GatingMethod, min_rr: float, max_rr: float) -> CycleBoundaries:
    """Cycles of x, sampled at rel (ms since its first sample) every dt ms
    (None: the median step of rel). Only the onset rule depends on method:
    the last upward zero crossing at or before each beat peak, or the last
    minimum since the previous peak."""
    if not 0 < min_rr < max_rr:
        raise ValueOutOfRange("need 0 < min_rr < max_rr")
    if rel[-1] < 5.0 * min_rr:
        raise TooFewCycles(f"signal spans {rel[-1]:g} ms, need at least {5 * min_rr:g}")
    if dt is None:
        dt = float(np.median(np.diff(rel)))
    s = _smooth_for_peaks(x, dt, max_rr)
    peaks = _find_beat_peaks(s, dt, min_rr)

    if method is GatingMethod.FLOW_PEAKS:
        # crossing i lies between samples i - 1 and i, linearly interpolated
        up = np.flatnonzero((s[:-1] <= 0.0) & (s[1:] > 0.0)) + 1
        frac = -s[up - 1] / (s[up] - s[up - 1])
        at = rel[up - 1] + frac * (rel[up] - rel[up - 1])
        if s[0] > 0.0:
            # the positive run under the first peaks reaches the first
            # sample: the flush was already underway when recording
            # started, so clamp their onset to the window edge
            up, at = np.r_[0, up], np.r_[rel[0], at]
        k = np.searchsorted(up, peaks, side="right") - 1
        onsets = at[k[k >= 0]]
    else:
        feet, prev = [], 0
        for p in peaks.tolist():
            seg = s[prev : p + 1]
            feet.append(prev + seg.size - 1 - int(np.argmin(seg[::-1])))
            prev = p
        onsets = rel[feet]
    # onsets do not decrease in peak order, so this only drops repeats
    onsets = np.unique(onsets)

    if onsets.size < 5:
        raise TooFewCycles(f"only {onsets.size} cycles detected, need at least 5")
    rr = np.diff(onsets)
    mean_rr = float(rr.mean())
    rr_cv = float(rr.std() / mean_rr)
    if rr_cv > RR_CV_LIMIT:
        raise ArrhythmicSignal(
            f"cycle length varies too much for self-gating (cv = {rr_cv:.3f}); "
            f"try a plethysmograph recording"
        )
    return CycleBoundaries(
        onsets=t_first + onsets,
        method=method,
        mean_rr=mean_rr,
        rr_cv=rr_cv,
        min_rr=min_rr,
        max_rr=max_rr,
    )


def detect_cycles_from_flow(
    flow: FlowSamples, min_rr: float = DEFAULT_MIN_RR, max_rr: float = DEFAULT_MAX_RR
) -> CycleBoundaries:
    """Self-gate the flow waveform: one onset per systolic flush.

    Pipeline: moving-average detrend (window = max_rr), 3-sample smooth,
    peak pick with prominence >= half the 75th percentile of positive
    excursions, refractory spacing of min_rr (larger peak wins), then
    each onset is placed at the last upward zero-crossing before its
    peak, linearly interpolated between samples.
    """
    t = flow.timestamps
    return _detect(flow.q, t - t[0], None, float(t[0]), GatingMethod.FLOW_PEAKS,
                   min_rr, max_rr)


def detect_cycles_from_plethysmo(
    trace: PhysioTrace, min_rr: float = DEFAULT_MIN_RR, max_rr: float = DEFAULT_MAX_RR
) -> CycleBoundaries:
    """Gate from a plethysmograph trace; onsets at the foot of each
    upstroke (the last minimum before the pulse peak)."""
    if trace.kind is not PhysioKind.CARDIAC_PLETHYSMO:
        raise WrongKind(f"expected CARDIAC_PLETHYSMO trace, got {trace.kind.value}")
    dt = trace.sample_interval
    rel = np.arange(trace.samples.size, dtype=np.float64) * dt
    return _detect(trace.samples, rel, dt, trace.t0, GatingMethod.PLETHYSMO, min_rr, max_rr)


def _noise_floor(x: np.ndarray) -> float:
    """Robust white-noise sigma from first differences."""
    d = np.abs(np.diff(x))
    return float(np.median(d)) * 1.4826 / np.sqrt(2.0)


def _merge_short_runs(labels: np.ndarray, min_samples: int) -> np.ndarray:
    """Flip label runs shorter than min_samples into a neighbor, shortest
    first, until none remain."""
    labels = labels.copy()
    while True:
        change = np.flatnonzero(np.diff(labels.view(np.int8)))
        starts = np.concatenate([[0], change + 1])
        ends = np.concatenate([change + 1, [labels.size]])
        lengths = ends - starts
        if starts.size == 1 or lengths.min() >= min_samples:
            return labels
        k = int(np.argmin(lengths))
        labels[starts[k] : ends[k]] = ~labels[starts[k]]


def classify_resp(trace: PhysioTrace, smoothing_window: float = DEFAULT_SMOOTHING_MS,
                  hysteresis: float = DEFAULT_HYSTERESIS) -> RespPhases:
    """Split the belt trace into inspiration (rising) and expiration
    (falling) with a Schmitt trigger.

    The trace is smoothed by a centered moving average, then a rising /
    falling state machine flips only after the signal retreats from its
    running extremum by hysteresis * range; the transition is backdated
    to the extremum itself. Runs shorter than 200 ms are merged away.
    """
    if trace.kind is not PhysioKind.RESP_BELT:
        raise WrongKind(f"expected RESP_BELT trace, got {trace.kind.value}")
    if not 0 < hysteresis < 1:
        raise ValueOutOfRange(f"hysteresis fraction must be in (0, 1), got {hysteresis}")
    if not smoothing_window > 0:
        raise ValueOutOfRange(f"smoothing window must be positive, got {smoothing_window} ms")
    if trace.duration < 2000.0:
        raise ValueOutOfRange(
            f"trace spans {trace.duration:g} ms, need at least one breath (2000 ms)"
        )
    dt = trace.sample_interval
    s = moving_average(trace.samples,
                       int(round(min(smoothing_window / dt, 2 * trace.samples.size + 1))))
    rng = float(s.max() - s.min())
    noise = _noise_floor(trace.samples)
    if rng < 10.0 * noise or rng <= 0.0:
        raise FlatSignal(
            f"belt range {rng:g} is below 10x the noise floor {noise:g}; "
            f"cannot separate breathing phases"
        )
    band = hysteresis * rng

    s = s.tolist()
    # until the signal first leaves the band its direction is unknown, so
    # follow both running extremes; the later of the belt's two extremes
    # lies a full range (> band) from the other, so this loop always breaks
    lo = hi = 0
    for i, x in enumerate(s):
        if x < s[lo]:
            lo = i
        elif x > s[hi]:
            hi = i
        if x - s[lo] > band or s[hi] - x > band:
            break
    rising = x - s[lo] > band
    seg_start = lo if rising else hi
    labels = np.zeros(len(s), dtype=bool)
    labels[:seg_start] = not rising  # the tail of the opposite phase
    ext, ext_idx = x, i
    for i in range(i + 1, len(s)):
        x = s[i]
        travel = x - ext if rising else ext - x
        if travel > 0:
            ext, ext_idx = x, i
        elif travel < -band:
            # retreated by more than the band: the turn was at the extremum
            labels[seg_start:ext_idx] = rising
            seg_start, rising = ext_idx, not rising
            ext, ext_idx = x, i
    labels[seg_start:] = rising

    labels = _merge_short_runs(labels, max(1, int(np.ceil(DEBOUNCE_MS / dt))))
    return RespPhases(t0=trace.t0, sample_interval=dt, inspiration=labels)


def label_cycles(
    boundaries: CycleBoundaries, phases: RespPhases, flow: FlowSamples
) -> list[LabeledCycle]:
    """Cut the flow signal at the onsets and tag each cycle with its
    breathing phase.

    inspiration_fraction is the fraction of the cycle's flow samples
    falling on INSPIRATION-labeled physio samples; resp_label_for turns
    it into the cycle's label. Intervals whose length falls outside
    [min_rr, max_rr] (dropped beats, double triggers) are skipped.
    """
    onsets = boundaries.onsets
    if not phases.covers(float(onsets[0]), float(onsets[-1])):
        raise ClockMismatch(
            "respiratory labels do not cover the gated time range "
            f"[{onsets[0]:g}, {onsets[-1]:g}] ms"
        )
    t = flow.timestamps
    # flow timestamps strictly increase, so cycle k holds samples
    # cut[k] <= i < cut[k + 1], exactly those with start <= t < end
    cut = np.searchsorted(t, onsets)
    insp_all = phases.label_at(t)
    cycles: list[LabeledCycle] = []
    for start, end, lo, hi in zip(onsets[:-1], onsets[1:], cut[:-1], cut[1:]):
        rr = end - start
        if not boundaries.min_rr <= rr <= boundaries.max_rr:
            continue
        n_samp = int(hi - lo)
        if n_samp == 0:
            continue
        # a cycle under ensemble.MIN_SAMPLES is warned about once, where
        # process_subject drops it
        if n_samp > 24:
            warn(f"cycle at {start:.0f} ms holds {n_samp} samples; expected "
                 f"roughly 8-12 for EPI-PC timing")
        frac = float(insp_all[lo:hi].mean())
        cycles.append(
            LabeledCycle(
                cycle_id=len(cycles),
                start=float(start),
                end=float(end),
                t=t[lo:hi],
                q=flow.q[lo:hi],
                resp_label=resp_label_for(frac),
                inspiration_fraction=frac,
            )
        )
    return cycles
