"""Cycles as tables: label_cycles' CycleTable and resample_cycles'
CanonicalTable against the per-cycle code they replaced, field by field
and bit for bit, and both read as sequences of rows."""

import warnings
from collections.abc import Sequence

import numpy as np
import pytest

import csfdyn
from csfdyn import (
    CanonicalCycle,
    CanonicalTable,
    CycleBoundaries,
    CycleTable,
    FlowSamples,
    GatingMethod,
    LabeledCycle,
    RespLabel,
    RespPhases,
    RoiLabel,
    build_ensembles,
    label_cycles,
    resample_cycles,
)
from csfdyn.ensemble import GATED_FRAMES, MIN_SAMPLES, PHASE_GRID, WRAP_KNOT_TOLERANCE
from csfdyn.errors import EmptyEnsemble, TooFewSamples, ValueOutOfRange
from csfdyn.gating import resp_label_for


def loop_label_cycles(boundaries, phases, flow):
    """label_cycles a cycle at a time, one LabeledCycle object each."""
    onsets = boundaries.onsets
    t = flow.timestamps
    cut = np.searchsorted(t, onsets)
    insp_all = phases.label_at(t)
    cycles = []
    for start, end, lo, hi in zip(onsets[:-1], onsets[1:], cut[:-1], cut[1:]):
        rr = end - start
        if not boundaries.min_rr <= rr <= boundaries.max_rr:
            continue
        n_samp = int(hi - lo)
        if n_samp == 0:
            continue
        if n_samp > 24:
            warnings.warn(f"cycle at {start:.0f} ms holds {n_samp} samples; expected "
                          f"roughly 8-12 for EPI-PC timing")
        frac = float(insp_all[lo:hi].mean())
        cycles.append(LabeledCycle(
            cycle_id=len(cycles), start=float(start), end=float(end), t=t[lo:hi],
            q=flow.q[lo:hi], resp_label=resp_label_for(frac), inspiration_fraction=frac))
    return cycles


def loop_periodic_interp(u, q, mode):
    """ensemble._periodic_interp with a (k, 32, m) comparison for the
    intervals and the slope systems held to the end."""
    k, m = u.shape
    dx = np.diff(u, axis=1, append=u[:, :1] + 1.0)
    chord = np.diff(q, axis=1, append=q[:, :1]) / dx
    if mode == "spline":
        dx_prev = np.roll(dx, 1, axis=1)
        i = np.arange(m)
        a = np.zeros((k, m, m))
        a[:, i, i] = 2 * (dx_prev + dx)
        a[:, i, i - 1] = dx
        a[:, i, (i + 1) % m] = dx_prev
        b = 3 * (dx * np.roll(chord, 1, axis=1) + dx_prev * chord)
        left = np.linalg.solve(a, b[..., None])[..., 0]
        right = np.roll(left, -1, axis=1)
    else:
        left = right = chord
    t = (left + right - 2 * chord) / dx
    cubic = t / dx
    quad = (chord - left) / dx - t
    grid = np.where(PHASE_GRID < u[:, :1], PHASE_GRID + 1.0, PHASE_GRID)
    j = np.count_nonzero(u[:, None, :] <= grid[:, :, None], axis=2) - 1

    def at(c):
        return np.take_along_axis(c, j, axis=1)

    s = grid - at(u)
    z = s * s
    return at(q) + at(left) * s + at(quad) * z + at(cubic) * (z * s)


def loop_resample_cycles(cycles, mode="spline", batch=64):
    """resample_cycles grouping LabeledCycle objects by sample count and
    stacking their arrays."""
    groups = {}
    for pos, cycle in enumerate(cycles):
        if cycle.n_samples < MIN_SAMPLES:
            raise TooFewSamples(f"cycle at {cycle.start:.0f} ms has {cycle.n_samples} samples, "
                                f"need >= {MIN_SAMPLES}")
        u = (cycle.t - cycle.start) / cycle.rr
        if (u[1:] <= u[:-1]).any() or u[0] < 0 or u[-1] >= 1:
            raise ValueOutOfRange("cycle samples must lie strictly ordered within [start, end)")
        q = cycle.q
        if u[0] + 1.0 - u[-1] < WRAP_KNOT_TOLERANCE * (u[-1] - u[-2]):
            u, q = u[:-1], q[:-1]
        groups.setdefault(u.size, []).append((pos, u, q))
    q32 = np.empty((len(cycles), GATED_FRAMES))
    for group in groups.values():
        for b in range(0, len(group), batch):
            at, u, q = zip(*group[b : b + batch])
            q32[list(at)] = loop_periodic_interp(np.stack(u), np.stack(q), mode)
    return [CanonicalCycle(row, c.cycle_id, c.resp_label, c.rr) for c, row in zip(cycles, q32)]


def labelled(ds):
    """The cycle table and the per-cycle oracle's list on a phantom, with
    the warnings each raised."""
    r = csfdyn.process_subject(ds.series, ds.lumen, static=ds.static, belt=ds.belt)
    out = []
    for fn in (label_cycles, loop_label_cycles):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cycles = fn(r.boundaries, r.phases, r.flow)
        out.append((cycles, [str(w.message) for w in caught]))
    return out


@pytest.fixture(scope="module", params=["long", "jittered-spinal"])
def tables(request, long_dataset, jittered_spinal_dataset):
    return labelled(long_dataset if request.param == "long" else jittered_spinal_dataset)


def assert_same_cycles(got, want):
    assert len(got) == len(want)
    for c, w in zip(got, want):
        assert (c.cycle_id, c.start, c.end, c.resp_label) == (w.cycle_id, w.start, w.end,
                                                              w.resp_label)
        assert c.inspiration_fraction == w.inspiration_fraction
        assert c.t.tobytes() == w.t.tobytes() and c.q.tobytes() == w.q.tobytes()


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for c, w in zip(got, want):
        assert c.q32.tobytes() == w.q32.tobytes()
        assert (c.source_cycle_id, c.resp_label, c.rr) == (w.source_cycle_id, w.resp_label,
                                                           w.rr)


class TestAgainstPerCycleCode:
    def test_label_cycles(self, tables):
        (table, warned), (rows, want_warned) = tables
        assert isinstance(table, CycleTable) and len(table) > 60
        assert_same_cycles(table, rows)
        assert warned == want_warned

    @pytest.mark.parametrize("mode", ["spline", "linear"])
    def test_resample_cycles(self, tables, mode):
        (table, _), (rows, _) = tables
        usable = table.n_samples >= MIN_SAMPLES
        want = loop_resample_cycles([c for c in rows if c.n_samples >= MIN_SAMPLES], mode)
        got = resample_cycles(table.take(usable), mode)
        assert isinstance(got, CanonicalTable)
        assert_same_rows(got, want)
        # a list of rows is packed into the same table
        assert_same_rows(resample_cycles([c for c in table if c.n_samples >= MIN_SAMPLES],
                                         mode), want)

    def test_build_ensembles(self, tables):
        (table, _), (rows, _) = tables
        usable = table.n_samples >= MIN_SAMPLES
        canonical = resample_cycles(table.take(usable))
        got = build_ensembles(canonical)
        want = build_ensembles(loop_resample_cycles(
            [c for c in rows if c.n_samples >= MIN_SAMPLES]))
        shuffled = list(canonical)
        np.random.default_rng(0).shuffle(shuffled)
        for other in (want, build_ensembles(shuffled)):
            for name, value in vars(got).items():
                if isinstance(value, np.ndarray):
                    assert value.tobytes() == getattr(other, name).tobytes(), name
                else:
                    assert value == getattr(other, name), name


def make_flow(t, q=None):
    t = np.asarray(t, dtype=np.float64)
    return FlowSamples(timestamps=t, q=np.ones(t.size) if q is None else q,
                       roi_label=RoiLabel.AQUEDUCT, pixel_area=1.0, n_roi_pixels=1)


def make_boundaries(onsets, min_rr=300.0, max_rr=2000.0):
    onsets = np.asarray(onsets, dtype=np.float64)
    return CycleBoundaries(onsets=onsets, method=GatingMethod.FLOW_PEAKS, mean_rr=1.0,
                           rr_cv=0.0, min_rr=min_rr, max_rr=max_rr)


def all_inspiration(span_ms, dt=40.0):
    return RespPhases(t0=0.0, sample_interval=dt,
                      inspiration=np.ones(int(span_ms / dt) + 2, dtype=bool))


class TestDroppedIntervals:
    def test_counts(self):
        # flow sampled every 100 ms over [0, 1000] and [3000, 5000]
        flow = make_flow(np.r_[0:1001:100, 3000:5001:100])
        onsets = [0, 800,    # kept
                  1001,      # 201 ms: below min_rr
                  1700,      # 699 ms, no sample in [1001, 1700)
                  2400,      # 700 ms, no sample either
                  2450,      # 50 ms and no sample: counted below min_rr
                  3200,      # kept, from the samples at 3000 and 3100
                  4000, 4900]
        table = label_cycles(make_boundaries(onsets), all_inspiration(5000.0), flow)
        assert [c.start for c in table] == [0.0, 2450.0, 3200.0, 4000.0]
        assert table.n_rr_rejected == 2
        assert table.n_empty == 2
        assert type(table.n_rr_rejected) is int and type(table.n_empty) is int

    def test_none_dropped(self):
        flow = make_flow(np.arange(0.0, 4000.0, 100.0))
        table = label_cycles(make_boundaries([0, 900, 1800, 2700]), all_inspiration(4000.0),
                             flow)
        assert len(table) == 3 and table.n_rr_rejected == table.n_empty == 0


class TestAsSequences:
    @pytest.fixture()
    @staticmethod
    def table():
        flow = make_flow(np.arange(0.0, 6000.0, 100.0), np.sin(np.arange(60.0)))
        phases = RespPhases(t0=0.0, sample_interval=40.0,
                            inspiration=np.arange(160) % 50 < 20)
        return label_cycles(make_boundaries([0, 800, 1700, 2500, 3400, 4300, 5200]), phases,
                            flow)

    def test_cycle_table(self, table):
        assert isinstance(table, Sequence) and len(table) == 6
        rows = list(table)
        assert [c.cycle_id for c in rows] == list(range(6))
        assert all(isinstance(c, LabeledCycle) for c in rows)
        assert_same_cycles([table[-1], table[-6]], [rows[5], rows[0]])
        assert_same_cycles(table, rows)
        for k in (6, -7):
            with pytest.raises(IndexError):
                table[k]
        assert CycleTable.of(table) is table
        assert_same_cycles(CycleTable.of(rows), rows)
        # row samples are views of the table's
        assert np.shares_memory(table[2].q, table.q)

    def test_canonical_table(self, table):
        canonical = resample_cycles(table)
        assert isinstance(canonical, Sequence) and len(canonical) == 6
        rows = list(canonical)
        assert [c.source_cycle_id for c in rows] == list(range(6))
        assert all(isinstance(c, CanonicalCycle) for c in rows)
        assert {c.resp_label for c in rows} <= set(RespLabel)
        assert_same_rows([canonical[-1], canonical[-6]], [rows[5], rows[0]])
        for k in (6, -7):
            with pytest.raises(IndexError):
                canonical[k]
        assert CanonicalTable.of(canonical) is canonical
        assert_same_rows(CanonicalTable.of(rows), rows)

    def test_empty(self):
        for empty in (CycleTable.of([]), resample_cycles([]), CanonicalTable.of([])):
            assert len(empty) == 0 and list(empty) == []
            with pytest.raises(IndexError):
                empty[0]
        assert len(resample_cycles(CycleTable.of([]))) == 0
        with pytest.raises(EmptyEnsemble):
            build_ensembles(resample_cycles([]))

    def test_malformed_rows_refused(self):
        bad = LabeledCycle(cycle_id=0, start=0.0, end=800.0, t=np.arange(8) * 100.0,
                           q=np.zeros(7), resp_label=RespLabel.MIXED, inspiration_fraction=0.5)
        with pytest.raises(ValueOutOfRange, match="one flow value per sample"):
            resample_cycles([bad])
        bad.q = np.zeros(8)
        bad.resp_label = "BREATH_HOLD"
        with pytest.raises(ValueOutOfRange, match="resp_label"):
            resample_cycles([bad])
        with pytest.raises(ValueOutOfRange, match="resp_label"):
            build_ensembles([CanonicalCycle(np.zeros(32), 0, "BREATH_HOLD", 800.0)])
