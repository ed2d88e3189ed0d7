"""Cardiac self-gating, plethysmograph gating, respiratory labeling."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import csfdyn
from csfdyn import (
    CycleBoundaries,
    FlowSamples,
    GatingMethod,
    PhysioKind,
    PhysioTrace,
    RespLabel,
    RespPhases,
    RoiLabel,
    classify_resp,
    detect_cycles_from_flow,
    detect_cycles_from_plethysmo,
    label_cycles,
    moving_average,
)
from csfdyn.errors import (
    ArrhythmicSignal,
    ClockMismatch,
    FlatSignal,
    TooFewCycles,
    ValueOutOfRange,
    WrongKind,
)
from csfdyn.gating import (
    _CHUNK,
    RR_CV_LIMIT,
    _find_beat_peaks,
    _merge_short_runs,
    _schmitt,
    _smooth_for_peaks,
    resp_label_for,
)


def make_flow(q, dt=88.0, t0=0.0, area=1.44):
    t = t0 + np.arange(len(q), dtype=np.float64) * dt
    return FlowSamples(
        timestamps=t, q=np.asarray(q, dtype=np.float64),
        roi_label=RoiLabel.AQUEDUCT, pixel_area=area, n_roi_pixels=9,
    )


def pulse_train(n_cycles=12, rr=1000.0, dt=88.0, skew=0.35):
    """Flow-like waveform: sharp positive flush plus shallow return."""
    dur = n_cycles * rr
    t = np.arange(0.0, dur, dt)
    u = (t % rr) / rr
    q = np.sin(2 * np.pi * u) + skew * np.sin(4 * np.pi * u)
    return t, q


class TestFlowGating:
    def test_onsets_near_cycle_starts(self):
        t, q = pulse_train(n_cycles=12, rr=1000.0)
        b = detect_cycles_from_flow(make_flow(q))
        assert b.method is GatingMethod.FLOW_PEAKS
        assert 11 <= b.n_cycles <= 12
        starts = np.arange(12) * 1000.0
        err = np.abs(b.onsets[:, None] - starts[None, :]).min(axis=1)
        assert err.max() < 88.0

    def test_mean_rr_and_cv(self):
        t, q = pulse_train(n_cycles=20, rr=900.0)
        b = detect_cycles_from_flow(make_flow(q))
        assert b.mean_rr == pytest.approx(900.0, abs=10.0)
        assert b.rr_cv < 0.05

    def test_time_shift_equivariance(self):
        t, q = pulse_train()
        b0 = detect_cycles_from_flow(make_flow(q, t0=0.0))
        b1 = detect_cycles_from_flow(make_flow(q, t0=250_000.0))
        assert b0.n_cycles == b1.n_cycles
        assert np.max(np.abs((b1.onsets - 250_000.0) - b0.onsets)) < 1e-6

    def test_amplitude_scale_invariance(self):
        t, q = pulse_train()
        b0 = detect_cycles_from_flow(make_flow(q))
        b1 = detect_cycles_from_flow(make_flow(q * 64.0))  # power of two: exact
        assert np.array_equal(b0.onsets, b1.onsets)

    def test_short_signal_refused(self):
        with pytest.raises(TooFewCycles):
            detect_cycles_from_flow(make_flow(np.sin(np.arange(10.0))))

    def test_arrhythmia_refused(self):
        rng = np.random.default_rng(0)
        pieces = []
        for rr in rng.uniform(350, 1900, 30):  # wildly varying cycle length
            n = max(4, int(rr / 88.0))
            u = np.arange(n) / n
            pieces.append(np.sin(2 * np.pi * u))
        q = np.concatenate(pieces)
        with pytest.raises(ArrhythmicSignal):
            detect_cycles_from_flow(make_flow(q))

    def test_flat_signal_refused(self):
        with pytest.raises(TooFewCycles):
            detect_cycles_from_flow(make_flow(np.full(120, -0.5)))

    def test_min_rr_refractory(self):
        # two peaks per cycle closer than min_rr: the refractory window
        # must keep one onset per cycle
        t = np.arange(0.0, 12_000.0, 40.0)
        u = (t % 1000.0) / 1000.0
        q = np.sin(2 * np.pi * u) + 0.8 * np.sin(6 * np.pi * u)
        b = detect_cycles_from_flow(make_flow(q, dt=40.0), min_rr=600.0)
        assert np.all(np.diff(b.onsets) > 500.0)

    def test_bad_rr_window(self):
        t, q = pulse_train()
        with pytest.raises(ValueOutOfRange):
            detect_cycles_from_flow(make_flow(q), min_rr=500.0, max_rr=400.0)


class TestPlethysmoGating:
    def make_trace(self, n_cycles=10, rr=1000.0, dt=10.0, t0=0.0):
        t = np.arange(0.0, n_cycles * rr, dt)
        s = 1.0 - np.cos(2 * np.pi * (t % rr) / rr)
        return PhysioTrace(dt, t0, s, PhysioKind.CARDIAC_PLETHYSMO)

    def test_onsets_at_upstroke_feet(self):
        b = detect_cycles_from_plethysmo(self.make_trace())
        assert b.method is GatingMethod.PLETHYSMO
        starts = np.arange(10) * 1000.0
        err = np.abs(b.onsets[:, None] - starts[None, :]).min(axis=1)
        assert err.max() <= 30.0  # feet sit on the sampled minima

    def test_clock_offset_carried(self):
        b0 = detect_cycles_from_plethysmo(self.make_trace(t0=0.0))
        b1 = detect_cycles_from_plethysmo(self.make_trace(t0=5000.0))
        assert np.allclose(b1.onsets - 5000.0, b0.onsets)

    def test_wrong_kind(self):
        t = PhysioTrace(10.0, 0.0, np.sin(np.linspace(0, 60, 1000)), PhysioKind.RESP_BELT)
        with pytest.raises(WrongKind):
            detect_cycles_from_plethysmo(t)


class TestOneDetectorAgainstLoops:
    """Both detectors against the onset rules written as per-peak loops:
    the flow route's back-scan to the last upward zero crossing (clamped
    to the first sample when the positive run reaches it), the
    plethysmograph's last minimum since the previous peak, and the filter
    that keeps an onset only if it is later than the last one kept.
    Onsets must match bit for bit, and refusals by type."""

    @staticmethod
    def loop_onsets(s, rel, peaks, method):
        onsets, prev = [], 0
        for p in peaks.tolist():
            found = None
            if method is GatingMethod.FLOW_PEAKS:
                i = p
                while i > 0:
                    if s[i - 1] <= 0.0 < s[i]:
                        frac = -s[i - 1] / (s[i] - s[i - 1])
                        found = rel[i - 1] + frac * (rel[i] - rel[i - 1])
                        break
                    i -= 1
                if found is None and s[0] > 0.0:
                    found = float(rel[0])
            else:
                seg = s[prev : p + 1]
                found = float(rel[prev + (seg.size - 1 - int(np.argmin(seg[::-1])))])
                prev = p
            if found is not None and (not onsets or found > onsets[-1]):
                onsets.append(found)
        return np.asarray(onsets)

    def reference(self, x, rel, dt, t_first, method, min_rr, max_rr):
        """(onsets, mean_rr, rr_cv, clamped), or the refusal's type."""
        if not 0 < min_rr < max_rr:
            return ValueOutOfRange
        if rel[-1] < 5.0 * min_rr:
            return TooFewCycles
        s = _smooth_for_peaks(x, dt, max_rr)
        try:
            peaks = _find_beat_peaks(s, dt, min_rr)
        except TooFewCycles:
            return TooFewCycles
        onsets = self.loop_onsets(s, rel, peaks, method)
        if onsets.size < 5:
            return TooFewCycles
        rr = np.diff(onsets)
        mean_rr = float(rr.mean())
        rr_cv = float(rr.std() / mean_rr)
        if rr_cv > RR_CV_LIMIT:
            return ArrhythmicSignal
        clamped = method is GatingMethod.FLOW_PEAKS and s[0] > 0.0 and onsets[0] == 0.0
        return t_first + onsets, mean_rr, rr_cv, clamped

    @staticmethod
    def random_signal(rng):
        """A jittered pulse train (or pure noise) with a random start phase,
        clock offset, step, length and RR window."""
        n = int(rng.integers(20, 1501))
        dt = float(rng.choice([33.3, 40.0, 88.0, rng.uniform(5.0, 120.0)]))
        t0 = float(rng.choice([0.0, rng.uniform(-1e5, 1e5)]))
        rr = rng.uniform(400.0, 1500.0)
        u = np.cumsum(np.full(n, dt) / (rr * (1 + rng.uniform(0, 0.3) * rng.standard_normal(n))))
        u += rng.random()
        x = np.sin(2 * np.pi * u) + rng.uniform(0, 0.6) * np.sin(4 * np.pi * u)
        x = rng.uniform(0.1, 10.0) * x + rng.uniform(0, 0.8) * rng.standard_normal(n)
        if rng.random() < 0.1:
            x = rng.standard_normal(n)
        min_rr, max_rr = float(rng.uniform(150.0, 500.0)), float(rng.uniform(900.0, 2500.0))
        if rng.random() < 0.2:
            # a zero-sum integer pulse on a flat floor, every p samples: with
            # a detrend window of 3 whole periods the smoothed signal is
            # exact, so it holds tied minima (first shape) or a rise straight
            # off an exact zero (second shape)
            p = 2 * int(rng.integers(4, 15)) + 1
            pulse = np.zeros(p)
            shape = [-1.0, -2.0, 0.0, 4.0, -1.0] if rng.random() < 0.5 else [1.0, 3.0, -2.0, -2.0]
            pulse[: len(shape)] = shape
            x = np.tile(np.roll(pulse, int(rng.integers(p))), n // p + 1)[:n]
            min_rr, max_rr = 0.6 * p * dt, 3 * p * dt
        if rng.random() < 0.03:
            min_rr, max_rr = max_rr, min_rr
        return x, dt, t0, min_rr, max_rr

    @staticmethod
    def outcome(detect, *args):
        try:
            b = detect(*args)
        except (TooFewCycles, ArrhythmicSignal, ValueOutOfRange) as exc:
            return type(exc)
        return b

    def check(self, method, n_signals=1200, seed=0):
        rng = np.random.default_rng(seed)
        tally = {"accepted": 0, "clamped": 0, TooFewCycles: 0, ArrhythmicSignal: 0,
                 ValueOutOfRange: 0}
        for _ in range(n_signals):
            x, dt, t0, min_rr, max_rr = self.random_signal(rng)
            if method is GatingMethod.FLOW_PEAKS:
                t = t0 + np.arange(x.size) * dt
                if rng.random() < 0.3:  # a clock that wobbles: step = median gap
                    t = t + rng.uniform(-0.2, 0.2, x.size) * dt
                flow = FlowSamples(timestamps=t, q=x, roi_label=RoiLabel.AQUEDUCT,
                                   pixel_area=1.0, n_roi_pixels=1)
                got = self.outcome(detect_cycles_from_flow, flow, min_rr, max_rr)
                rel = t - t[0]
                step = float(np.median(np.diff(rel)))
                want = self.reference(x, rel, step, float(t[0]), method, min_rr, max_rr)
            else:
                trace = PhysioTrace(dt, t0, x, PhysioKind.CARDIAC_PLETHYSMO)
                got = self.outcome(detect_cycles_from_plethysmo, trace, min_rr, max_rr)
                rel = np.arange(x.size, dtype=np.float64) * dt
                want = self.reference(x, rel, dt, t0, method, min_rr, max_rr)
            if isinstance(want, type):
                assert got is want
                tally[want] += 1
                continue
            onsets, mean_rr, rr_cv, clamped = want
            assert isinstance(got, CycleBoundaries) and got.method is method
            assert np.array_equal(got.onsets, onsets)
            assert (got.mean_rr, got.rr_cv) == (mean_rr, rr_cv)
            tally["accepted"] += 1
            tally["clamped"] += clamped
        return tally

    def test_flow(self):
        tally = self.check(GatingMethod.FLOW_PEAKS)
        assert tally["accepted"] >= 300 and tally["clamped"] >= 20
        assert min(tally[e] for e in (TooFewCycles, ArrhythmicSignal, ValueOutOfRange)) >= 5

    def test_plethysmo(self):
        tally = self.check(GatingMethod.PLETHYSMO)
        assert tally["accepted"] >= 300
        assert min(tally[e] for e in (TooFewCycles, ArrhythmicSignal, ValueOutOfRange)) >= 5


class TestMovingAverage:
    def test_constant_preserved(self):
        x = np.full(50, 3.7)
        assert np.allclose(moving_average(x, 11), 3.7)

    def test_window_one_is_identity(self, rng):
        x = rng.normal(size=30)
        assert np.array_equal(moving_average(x, 1), x)

    def test_interior_matches_convolution(self, rng):
        x = rng.normal(size=100)
        out = moving_average(x, 9)
        ref = np.convolve(x, np.ones(9) / 9, mode="valid")
        assert np.allclose(out[4:-4], ref, atol=1e-12)

    def test_window_beyond_the_signal_averages_it_all(self):
        # 2n + 1 samples reach every sample from every other; a longer
        # window, however long, is the same filter
        x = np.arange(10.0)
        whole = moving_average(x, 21)
        assert np.all(whole == 4.5)
        assert moving_average(x, 10**30).tobytes() == whole.tobytes()

    def test_edges_shrink(self):
        x = np.arange(10.0)
        out = moving_average(x, 5)
        assert out[0] == pytest.approx(np.mean(x[:3]))   # window [0, 2]
        assert out[-1] == pytest.approx(np.mean(x[-3:]))


class TestClassifyResp:
    def make_belt(self, period=5000.0, dur=40_000.0, dt=40.0, noise=0.0, seed=0):
        t = np.arange(0.0, dur, dt)
        s = -np.cos(2 * np.pi * t / period)  # rising first half of each breath
        if noise:
            s = s + np.random.default_rng(seed).normal(0, noise, s.size)
        return PhysioTrace(dt, 0.0, s, PhysioKind.RESP_BELT)

    def test_half_cycle_split(self):
        phases = classify_resp(self.make_belt())
        frac = phases.inspiration.mean()
        assert 0.45 < frac < 0.55

    def test_transitions_near_extrema(self):
        period = 5000.0
        phases = classify_resp(self.make_belt(period=period))
        lab = phases.inspiration.astype(np.int8)
        t = phases.timestamps[np.flatnonzero(np.diff(lab)) + 1]
        # extrema of -cos sit at multiples of period/2
        err = np.abs(t / (period / 2) - np.round(t / (period / 2)))
        assert np.max(err) * (period / 2) < 250.0  # within the smoothing window

    def test_noise_tolerated(self):
        phases = classify_resp(self.make_belt(noise=0.05, seed=3))
        frac = phases.inspiration.mean()
        assert 0.4 < frac < 0.6

    def test_flat_refused(self):
        t = PhysioTrace(40.0, 0.0,
                        np.random.default_rng(1).normal(0, 0.01, 1000),
                        PhysioKind.RESP_BELT)
        with pytest.raises(FlatSignal):
            classify_resp(t)

    def test_monotone_ramp_single_label(self):
        up = PhysioTrace(40.0, 0.0, np.linspace(0, 1, 200), PhysioKind.RESP_BELT)
        phases = classify_resp(up, hysteresis=0.8)
        assert phases.inspiration.all()
        down = PhysioTrace(40.0, 0.0, np.linspace(1, 0, 200), PhysioKind.RESP_BELT)
        phases = classify_resp(down, hysteresis=0.8)
        assert not phases.inspiration.any()

    def test_no_short_runs(self):
        phases = classify_resp(self.make_belt(noise=0.08, seed=9))
        lab = phases.inspiration.astype(np.int8)
        change = np.flatnonzero(np.diff(lab))
        runs = np.diff(np.concatenate([[0], change + 1, [lab.size]]))
        assert runs.min() * 40.0 >= 200.0

    def test_hysteresis_validation(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueOutOfRange):
                classify_resp(self.make_belt(), hysteresis=bad)

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_smoothing_window_must_be_positive(self, bad):
        # a window of one sample or less would silently skip the smoothing
        with pytest.raises(ValueOutOfRange, match="smoothing window"):
            classify_resp(self.make_belt(), smoothing_window=bad)

    def test_wrong_kind(self):
        t = PhysioTrace(10.0, 0.0, np.sin(np.linspace(0, 30, 3000)),
                        PhysioKind.CARDIAC_PLETHYSMO)
        with pytest.raises(WrongKind):
            classify_resp(t)

    def test_too_short(self):
        t = PhysioTrace(40.0, 0.0, np.sin(np.linspace(0, 5, 30)), PhysioKind.RESP_BELT)
        with pytest.raises(ValueOutOfRange):
            classify_resp(t)


    @pytest.mark.parametrize("seed", range(12))
    def test_negated_belt_gives_the_complement(self, seed):
        # rising and falling obey one rule, so turning the belt upside
        # down swaps inspiration and expiration sample for sample
        rng = np.random.default_rng(seed)
        t = np.arange(0.0, 60_000.0, 40.0)
        if seed % 2:
            s = np.cumsum(rng.normal(0, 1, t.size))
        else:
            s = np.sin(2 * np.pi * t / rng.uniform(2500, 7000) + rng.uniform(0, 2 * np.pi))
            s += rng.normal(0, 0.15, t.size)
        hysteresis = rng.uniform(0.02, 0.6)
        belt = PhysioTrace(40.0, 0.0, s, PhysioKind.RESP_BELT)
        upright = classify_resp(belt, hysteresis=hysteresis).inspiration
        flipped = classify_resp(replace(belt, samples=-s), hysteresis=hysteresis).inspiration
        np.testing.assert_array_equal(flipped, ~upright)

    def test_ties_keep_the_earliest_extremum(self):
        # a quantized belt holds each extreme over a plateau of equal
        # samples; the turn is dated to the plateau's first sample
        dt = 40.0
        s = np.round(3 * np.sin(2 * np.pi * np.arange(1000) * dt / 5000.0)) / 3
        belt = PhysioTrace(dt, 0.0, s, PhysioKind.RESP_BELT)
        lab = classify_resp(belt, smoothing_window=dt).inspiration.astype(np.int8)
        turns = np.flatnonzero(np.diff(lab)) + 1
        extreme = np.abs(s) == 1.0
        plateau_starts = np.flatnonzero(extreme[1:] & ~extreme[:-1]) + 1
        assert plateau_starts.size == 16
        np.testing.assert_array_equal(turns, plateau_starts)


class TestMergeShortRuns:
    def test_blip_removed(self):
        lab = np.array([0, 0, 0, 1, 0, 0, 0], dtype=bool)
        assert not _merge_short_runs(lab, 2).any()

    def test_long_runs_kept(self):
        lab = np.array([0, 0, 0, 1, 1, 1, 0, 0, 0], dtype=bool)
        assert np.array_equal(_merge_short_runs(lab, 3), lab)

    def test_shortest_first(self):
        # the 1-sample run must merge before the 2-sample run is judged
        lab = np.array([1, 1, 1, 0, 0, 1, 0, 0, 0], dtype=bool)
        out = _merge_short_runs(lab, 3)
        change = np.flatnonzero(np.diff(out.view(np.int8)))
        runs = np.diff(np.concatenate([[0], change + 1, [out.size]]))
        assert runs.min() >= 3


def loop_moving_average(x, window):
    """moving_average with every sample's window indexed from the
    cumulative sum: the reference the sliced interior must reproduce."""
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


def loop_schmitt(s, band):
    """The Schmitt trigger of classify_resp a sample at a time over a
    Python list: the reference the chunked read must reproduce."""
    s = s.tolist()
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
    labels[:seg_start] = not rising
    ext, ext_idx = x, i
    for i in range(i + 1, len(s)):
        x = s[i]
        travel = x - ext if rising else ext - x
        if travel > 0:
            ext, ext_idx = x, i
        elif travel < -band:
            labels[seg_start:ext_idx] = rising
            seg_start, rising = ext_idx, not rising
            ext, ext_idx = x, i
    labels[seg_start:] = rising
    return labels


def loop_merge_short_runs(labels, min_samples):
    """_merge_short_runs recounting every run after each flip: the
    reference the heap over linked runs must reproduce."""
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


def scan_signal(rng, n):
    """One of four belt-like signals of n samples: a random walk, a noisy
    sine, either quantized to a few levels (plateaus of tied samples), or
    a constant."""
    kind = int(rng.integers(5))
    if kind == 4:
        return np.full(n, rng.normal())
    if kind % 2:
        s = np.cumsum(rng.normal(0.0, 1.0, n))
    else:
        s = np.sin(2 * np.pi * np.arange(n) / rng.uniform(4, 200) + rng.uniform(0, 6.3))
        s += rng.normal(0.0, rng.uniform(0.0, 0.6), n)
    if kind >= 2:
        s = np.round(s * rng.integers(1, 6)) / 3.0
    return s


SCAN_SIZES = list(range(1, 41)) + [15_001]


def chunk_edge_signals(n):
    """Signals of n samples, each with its band, whose first band exit or
    whose turn (the extremum, or the sample that retreats from it) falls
    on the first or last sample of a chunk the Schmitt trigger reads."""
    i = np.arange(n, dtype=np.float64)
    wobble = 0.2 * (i % 3 == 1)  # ties and steps inside the band
    yield wobble, 0.5  # never leaves the band
    for e in sorted({_CHUNK - 1, _CHUNK, 2 * _CHUNK - 1, 2 * _CHUNK, n - 1}):
        if not 0 < e < n:
            continue
        for sign in (1.0, -1.0):
            # first band exit at e
            yield sign * np.where(i >= e, 1.0, wobble), 0.5
            # turn at e - 1 (seen at e) and at e (seen at e + 1)
            for peak in (e - 1, e):
                yield sign * -np.abs(i - peak), 0.5
            # a plateau of tied extremes e..e + 2, so the turn is dated e
            yield sign * -np.maximum(np.abs(i - e - 1) - 1.0, 0.0), 0.5


class TestAgainstSampleLoops:
    """moving_average, the Schmitt trigger and the short-run merge against
    per-sample and quadratic reference code, bit for bit, over a seeded
    scan."""

    @pytest.mark.parametrize("n", SCAN_SIZES)
    def test_moving_average(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(0.0, 1.0, n)
        windows = list(range(0, 2 * n + 4)) if n <= 40 else [0, 1, 2, 3, 4, 5, 12, 13, 501,
                                                                 7500, 15_001, 30_001, 30_003]
        for window in windows + [10**30]:
            got = moving_average(x, window)
            assert got.tobytes() == loop_moving_average(x, window).tobytes(), window

    @pytest.mark.parametrize("n", SCAN_SIZES + [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    def test_schmitt(self, n):
        rng = np.random.default_rng(100 + n)
        for k in range(40 if n <= 40 else 8):
            s = scan_signal(rng, n)
            # every fifth band at least the whole range: the signal never
            # leaves it, and ends falling
            fraction = rng.uniform(1.0, 2.0) if k % 5 == 4 else rng.uniform(0.01, 0.5)
            band = float(fraction) * float(s.max() - s.min())
            np.testing.assert_array_equal(_schmitt(s, band), loop_schmitt(s, band))
        for s, band in chunk_edge_signals(n):
            np.testing.assert_array_equal(_schmitt(s, band), loop_schmitt(s, band))

    @pytest.mark.parametrize("n", SCAN_SIZES)
    def test_merge_short_runs(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(40 if n <= 40 else 4):
            # runs of 1 to a random longest length
            runs = rng.integers(1, int(rng.integers(2, 12)), size=n)
            labels = (np.repeat(np.arange(n) % 2, runs)[:n] == 1) ^ bool(rng.integers(2))
            for min_samples in (1, 2, 3, int(rng.integers(4, 40))):
                got = _merge_short_runs(labels, min_samples)
                np.testing.assert_array_equal(got, loop_merge_short_runs(labels, min_samples))

    def test_noisy_belt_with_a_one_sample_window(self):
        # 600 s of belt at 40 ms with 0.3 noise, smoothed over one sample:
        # thousands of runs reach the merge
        dt = 40.0
        t = np.arange(15_001) * dt
        rng = np.random.default_rng(7)
        s = -np.cos(2 * np.pi * t / 4500.0) + rng.normal(0.0, 0.3, t.size)
        belt = PhysioTrace(dt, 0.0, s, PhysioKind.RESP_BELT)
        got = classify_resp(belt, smoothing_window=dt).inspiration
        smooth = loop_moving_average(s, 1)
        labels = loop_schmitt(smooth, 0.05 * float(smooth.max() - smooth.min()))
        assert np.count_nonzero(np.diff(labels.view(np.int8))) > 3000
        np.testing.assert_array_equal(got, loop_merge_short_runs(labels, 5))


class TestLabelCycles:
    def make_phases(self, insp, dt=40.0, t0=0.0):
        return RespPhases(t0=t0, sample_interval=dt,
                          inspiration=np.asarray(insp, dtype=bool))

    def make_boundaries(self, onsets, min_rr=300.0, max_rr=2000.0):
        onsets = np.asarray(onsets, dtype=np.float64)
        rr = np.diff(onsets)
        return CycleBoundaries(
            onsets=onsets, method=GatingMethod.FLOW_PEAKS,
            mean_rr=float(rr.mean()), rr_cv=float(rr.std() / rr.mean()),
            min_rr=min_rr, max_rr=max_rr,
        )

    def test_fraction_thresholds(self):
        # 3 cycles x 800 ms, flow sampled every 100 ms
        flow = make_flow(np.ones(25), dt=100.0)
        bounds = self.make_boundaries([0.0, 800.0, 1600.0, 2400.0])
        n_phase = 70
        all_in = self.make_phases(np.ones(n_phase))
        cycles = label_cycles(bounds, all_in, flow)
        assert [c.resp_label for c in cycles] == [RespLabel.INSPIRATION] * 3

        mixed = np.zeros(n_phase, dtype=bool)
        mixed[:10] = True  # covers the first 400 ms: half of cycle 0
        cycles = label_cycles(bounds, self.make_phases(mixed), flow)
        assert cycles[0].resp_label is RespLabel.MIXED
        assert cycles[1].resp_label is RespLabel.EXPIRATION
        assert 0.3 < cycles[0].inspiration_fraction < 0.7

    def test_out_of_range_rr_skipped(self):
        flow = make_flow(np.ones(40), dt=100.0)
        bounds = self.make_boundaries([0.0, 800.0, 1000.0, 1800.0],
                                      min_rr=300.0, max_rr=2000.0)
        phases = self.make_phases(np.ones(110))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cycles = label_cycles(bounds, phases, flow)
        # the 200 ms middle interval is a double trigger, dropped
        assert [c.start for c in cycles] == [0.0, 1000.0]
        assert [c.cycle_id for c in cycles] == [0, 1]

    def test_clock_mismatch(self):
        flow = make_flow(np.ones(25), dt=100.0)
        bounds = self.make_boundaries([0.0, 800.0, 1600.0, 2400.0])
        short = self.make_phases(np.ones(10))  # covers only 400 ms
        with pytest.raises(ClockMismatch):
            label_cycles(bounds, short, flow)

    def test_odd_sample_count_warns(self):
        flow = make_flow(np.ones(100), dt=30.0)  # 800 ms / 30 ms = 26 samples
        bounds = self.make_boundaries([0.0, 800.0, 1600.0])
        phases = self.make_phases(np.ones(100), dt=40.0)
        with pytest.warns(UserWarning, match="samples"):
            label_cycles(bounds, phases, flow)

    def test_cycle_slices_partition_flow(self):
        t, q = pulse_train(n_cycles=8, rr=1000.0)
        flow = make_flow(q)
        bounds = self.make_boundaries(np.arange(9) * 1000.0)
        phases = self.make_phases(np.ones(300))
        cycles = label_cycles(bounds, phases, flow)
        got = np.concatenate([c.q for c in cycles])
        sel = (flow.timestamps >= 0) & (flow.timestamps < 8000.0)
        assert np.array_equal(got, flow.q[sel])

    @staticmethod
    def mask_cut(boundaries, phases, flow):
        """label_cycles with a full-length boolean mask per cycle: the
        reference the searchsorted cut must reproduce bit for bit."""
        t = flow.timestamps
        out = []
        for start, end in zip(boundaries.onsets[:-1], boundaries.onsets[1:]):
            if not boundaries.min_rr <= end - start <= boundaries.max_rr:
                continue
            sel = (t >= start) & (t < end)
            if not sel.any():
                continue
            frac = float(phases.label_at(t[sel]).mean())
            out.append((len(out), float(start), float(end), t[sel], flow.q[sel],
                        resp_label_for(frac), frac))
        return out

    def assert_same_cut(self, boundaries, phases, flow):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = label_cycles(boundaries, phases, flow)
        want = self.mask_cut(boundaries, phases, flow)
        assert len(got) == len(want) > 0
        for c, (cid, start, end, t, q, label, frac) in zip(got, want):
            assert (c.cycle_id, c.start, c.end, c.resp_label) == (cid, start, end, label)
            assert c.inspiration_fraction == frac
            assert np.array_equal(c.t, t) and np.array_equal(c.q, q)

    def test_cut_matches_mask_on_jittered_phantom(self):
        base = csfdyn.default_aqueduct_spec()
        spec = replace(
            base, seed=5,
            grid=replace(base.grid, width=24, height=24),
            lumen=replace(base.lumen, center_row=12.0, center_col=12.0),
            cardiac=replace(base.cardiac, rr_jitter_sd=0.05 * base.cardiac.rr_mean),
            acquisition=replace(base.acquisition, duration=60000.0),
        )
        ds = csfdyn.generate(spec)
        r = csfdyn.process_subject(ds.series, ds.lumen, static=ds.static, belt=ds.belt)
        self.assert_same_cut(r.boundaries, r.phases, r.flow)

    def test_cut_matches_mask_with_onsets_on_frame_times(self, rng):
        t, q = pulse_train(n_cycles=10)
        flow = make_flow(q)
        # one 176 ms interval falls below min_rr and is skipped
        at = [0, 11, 23, 34, 36, 47, 59, 70, 82, 93, 105]
        phases = self.make_phases(rng.random(300) < 0.5)
        self.assert_same_cut(self.make_boundaries(flow.timestamps[at]), phases, flow)
