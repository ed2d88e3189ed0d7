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

import heapq
import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain

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


#: the breathing labels in the order of their codes in the cycle tables
RESP_LABELS = tuple(RespLabel)


def _resp_codes(inspiration_fraction):
    """Code (index into RESP_LABELS) of the breathing label of a cycle
    spending each given fraction of its time in inspiration."""
    return np.where(inspiration_fraction >= INSPIRATION_MIN_FRACTION, 0,
                    np.where(inspiration_fraction <= EXPIRATION_MAX_FRACTION, 1, 2))


def _label_code(label: RespLabel) -> int:
    """Index of a cycle row's breathing label into RESP_LABELS."""
    try:
        return RESP_LABELS.index(label)
    except ValueError:
        raise ValueOutOfRange(f"resp_label must be a RespLabel, got {label!r}") from None


def resp_label_for(inspiration_fraction: float) -> RespLabel:
    """Breathing label of a cycle that spends the given fraction of its
    time in inspiration."""
    return RESP_LABELS[int(_resp_codes(inspiration_fraction))]


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


@dataclass(eq=False)
class CycleTable(Sequence[LabeledCycle]):
    """Labeled cardiac cycles as columns with one value per cycle, over
    the samples they cut.

    Cycle k holds samples lo[k] <= i < hi[k] of t and q (the flow's own
    arrays when label_cycles built the table). Indexing or iterating
    builds a LabeledCycle row, whose t and q are views of the table's.
    n_rr_rejected and n_empty count the intervals between onsets that
    label_cycles dropped: those outside [min_rr, max_rr], and those
    holding no flow sample.
    """

    t: np.ndarray
    q: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    cycle_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    #: index into RESP_LABELS of each cycle's breathing label
    label: np.ndarray
    inspiration_fraction: np.ndarray
    n_rr_rejected: int = 0
    n_empty: int = 0

    @classmethod
    def of(cls, cycles: Sequence[LabeledCycle]) -> CycleTable:
        """cycles as a table: a CycleTable itself, or a list of
        LabeledCycle rows packed into one, their samples laid end to end."""
        if isinstance(cycles, cls):
            return cycles
        if any(c.q.shape != c.t.shape for c in cycles):
            raise ValueOutOfRange("a cycle needs one flow value per sample time")
        n = np.array([c.n_samples for c in cycles], dtype=np.intp)
        return cls(
            t=np.concatenate([np.empty(0)] + [c.t for c in cycles]),
            q=np.concatenate([np.empty(0)] + [c.q for c in cycles]),
            lo=np.cumsum(n) - n,
            hi=np.cumsum(n),
            cycle_id=np.array([c.cycle_id for c in cycles], dtype=np.int64),
            start=np.array([c.start for c in cycles], dtype=np.float64),
            end=np.array([c.end for c in cycles], dtype=np.float64),
            label=np.array([_label_code(c.resp_label) for c in cycles], dtype=np.int8),
            inspiration_fraction=np.array([c.inspiration_fraction for c in cycles],
                                          dtype=np.float64),
        )

    def take(self, rows: np.ndarray) -> CycleTable:
        """The cycles at rows (indices or a mask), over the same samples."""
        return replace(self, lo=self.lo[rows], hi=self.hi[rows], cycle_id=self.cycle_id[rows],
                       start=self.start[rows], end=self.end[rows], label=self.label[rows],
                       inspiration_fraction=self.inspiration_fraction[rows])

    @property
    def rr(self) -> np.ndarray:
        return self.end - self.start

    @property
    def n_samples(self) -> np.ndarray:
        return self.hi - self.lo

    def __len__(self) -> int:
        return self.cycle_id.size

    def __getitem__(self, k: int) -> LabeledCycle:
        k = range(len(self))[operator.index(k)]
        lo, hi = int(self.lo[k]), int(self.hi[k])
        return LabeledCycle(
            cycle_id=int(self.cycle_id[k]),
            start=float(self.start[k]),
            end=float(self.end[k]),
            t=self.t[lo:hi],
            q=self.q[lo:hi],
            resp_label=RESP_LABELS[self.label[k]],
            inspiration_fraction=float(self.inspiration_fraction[k]),
        )


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
    out = np.empty(n)
    # slices: index arrays here took a cropped-long job's traced peak 0.72 -> 1.08 MB
    # samples a <= i < b average the whole window csum[i + half + 1] - csum[i - half]
    a, b = half, max(n - half, half)
    np.subtract(csum[a + half + 1 : b + half + 1], csum[: b - a], out=out[a:b])
    out[a:b] /= 2 * half + 1
    # the others, near the edges, a window cut short by them
    edge = np.r_[0:a, b:n]
    lo = np.maximum(edge - half, 0)
    hi = np.minimum(edge + half + 1, n)
    out[edge] = (csum[hi] - csum[lo]) / (hi - lo)
    return out


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
    d = np.diff(x)
    # in place: np.median(np.abs(np.diff(x))) took classify_resp's traced
    # peak on cropped-long's belt 0.27 -> 0.36 MB
    return float(np.median(np.abs(d, out=d), overwrite_input=True)) * 1.4826 / np.sqrt(2.0)


def _merge_short_runs(labels: np.ndarray, min_samples: int) -> np.ndarray:
    """Flip label runs shorter than min_samples into a neighbor, shortest
    first and the leftmost of equal length first, until none remain or
    one run is left.

    A flipped run joins the runs on either side of it into one. The runs
    form a linked list, and a heap keyed on (length, start) holds each
    short run; an entry whose run has since grown or joined another is
    stale and skipped, so the merge takes O(runs log runs).
    """
    start = [0] + (np.flatnonzero(np.diff(labels.view(np.int8))) + 1).tolist()
    length = np.diff(start + [labels.size]).tolist()
    value = labels[start].tolist()
    runs = len(start)
    prev, nxt = list(range(-1, runs - 1)), list(range(1, runs + 1))
    # recounting the runs after each flip took 308 ms, not 8.5, on a 7,453-turn belt
    heap = [(n, s, k) for k, (n, s) in enumerate(zip(length, start)) if n < min_samples]
    heapq.heapify(heap)
    alive = runs
    while heap and alive > 1:
        n, s, k = heapq.heappop(heap)
        if length[k] != n or start[k] != s:
            continue
        # run k flips, joining its left and right neighbours; the joined
        # run keeps the index of the leftmost of them
        left, right = prev[k], nxt[k]
        keep = k if left < 0 else left
        last = k if right == runs else right
        if left < 0:
            value[k] = not value[k]
        else:
            length[left] += length[k]
            length[k] = 0
        if right < runs:
            length[keep] += length[right]
            length[right] = 0
        alive -= (left >= 0) + (right < runs)
        nxt[keep] = nxt[last]
        if nxt[keep] < runs:
            prev[nxt[keep]] = keep
        if length[keep] < min_samples:
            heapq.heappush(heap, (length[keep], start[keep], keep))
    order, k = [], 0
    while k < runs:
        order.append(k)
        k = nxt[k]
    return np.repeat(np.array(value, dtype=bool)[order], np.array(length)[order])


#: samples of the smoothed belt the Schmitt trigger holds as Python
#: floats at a time; the whole belt as one list would add about 0.19 MB
#: to a 15,001-sample job's peak
_CHUNK = 4096


def _schmitt(s: np.ndarray, band: float) -> np.ndarray:
    """Rising (True) and falling samples of s by the Schmitt trigger of
    classify_resp.

    Each state lasts until the signal retreats from its running extremum
    by more than band, and the turn is dated to the extremum's first
    sample. Both loops take the samples from one reader, a chunk of
    _CHUNK at a time, so the second goes on where the first stopped.
    """
    n = s.size
    values = enumerate(chain.from_iterable(s[c : c + _CHUNK].tolist()
                                           for c in range(0, n, _CHUNK)))
    # until the signal first leaves the band its direction is unknown, so
    # follow both running extremes; the later of the belt's two extremes
    # lies a full range (> band) from the other, so classify_resp's
    # signal always leaves it. One that never does ends falling.
    lo = hi = 0
    lo_x = hi_x = float(s[0])
    for i, x in values:
        if x < lo_x:
            lo, lo_x = i, x
        elif x > hi_x:
            hi, hi_x = i, x
        if x - lo_x > band or hi_x - x > band:
            break
    rising = x - lo_x > band
    seg = lo if rising else hi
    labels = np.empty(n, dtype=bool)
    labels[:seg] = not rising  # the tail of the opposite phase
    ext, turn = x, i
    for i, x in values:
        travel = x - ext if rising else ext - x
        if travel > 0:
            ext, turn = x, i
        elif travel < -band:
            # retreated by more than the band: the turn was at the extremum
            labels[seg:turn] = rising
            seg, rising = turn, not rising
            ext, turn = x, i
    labels[seg:] = rising
    return labels


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
    labels = _schmitt(s, hysteresis * rng)
    labels = _merge_short_runs(labels, max(1, int(np.ceil(DEBOUNCE_MS / dt))))
    return RespPhases(t0=trace.t0, sample_interval=dt, inspiration=labels)


def label_cycles(
    boundaries: CycleBoundaries, phases: RespPhases, flow: FlowSamples
) -> CycleTable:
    """Cut the flow signal at the onsets and tag each cycle with its
    breathing phase, in one pass over all cycles.

    Returns a CycleTable over the flow's own samples: cycle k holds the
    samples with start <= t < end. inspiration_fraction is the fraction
    of the cycle's flow samples falling on INSPIRATION-labeled physio
    samples; resp_label_for's rule turns it into the cycle's label.
    Intervals whose length falls outside [min_rr, max_rr] (dropped beats,
    double triggers), and then those holding no flow sample, are skipped;
    the table counts both. Cycle ids number the kept cycles from 0.
    """
    onsets = boundaries.onsets
    if not phases.covers(float(onsets[0]), float(onsets[-1])):
        raise ClockMismatch(
            "respiratory labels do not cover the gated time range "
            f"[{onsets[0]:g}, {onsets[-1]:g}] ms"
        )
    t = flow.timestamps
    # flow timestamps strictly increase, so interval k holds samples
    # cut[k] <= i < cut[k + 1], exactly those with start <= t < end
    cut = np.searchsorted(t, onsets)
    rr = onsets[1:] - onsets[:-1]
    in_window = (boundaries.min_rr <= rr) & (rr <= boundaries.max_rr)
    keep = in_window & (cut[1:] > cut[:-1])
    lo, hi = cut[:-1][keep], cut[1:][keep]
    start = onsets[:-1][keep]
    # a cycle under ensemble.MIN_SAMPLES is warned about once, where
    # process_subject drops it
    for k in np.flatnonzero(hi - lo > 24).tolist():
        warn(f"cycle at {start[k]:.0f} ms holds {hi[k] - lo[k]} samples; expected "
             f"roughly 8-12 for EPI-PC timing")
    # inspiration samples before each flow sample
    insp = np.concatenate([[0], np.cumsum(phases.label_at(t))])
    frac = (insp[hi] - insp[lo]) / (hi - lo)
    return CycleTable(
        t=t,
        q=flow.q,
        lo=lo,
        hi=hi,
        cycle_id=np.arange(lo.size),
        start=start,
        end=onsets[1:][keep],
        label=_resp_codes(frac).astype(np.int8),
        inspiration_fraction=frac,
        n_rr_rejected=int(np.count_nonzero(~in_window)),
        n_empty=int(np.count_nonzero(in_window & ~keep)),
    )
