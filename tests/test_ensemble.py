"""Cycle resampling onto the 32-point grid and ensemble averaging."""

import re

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from csfdyn import (
    PHASE_GRID,
    CanonicalCycle,
    EnsembleCurves,
    LabeledCycle,
    RespLabel,
    build_ensembles,
    resample_cycle,
    resample_cycles,
)
from csfdyn import ensemble
from csfdyn.ensemble import WRAP_KNOT_TOLERANCE
from csfdyn.errors import EmptyEnsemble, TooFewSamples, ValueOutOfRange


def make_cycle(t, q, start=None, end=None, label=RespLabel.MIXED, cid=0):
    t = np.asarray(t, dtype=np.float64)
    start = t[0] if start is None else start
    end = t[-1] + (t[-1] - t[-2]) if end is None else end
    return LabeledCycle(
        cycle_id=cid, start=float(start), end=float(end),
        t=t, q=np.asarray(q, dtype=np.float64),
        resp_label=label, inspiration_fraction=0.5,
    )


def canon(q32, cid, label=RespLabel.MIXED, rr=1000.0):
    return CanonicalCycle(q32=np.asarray(q32, dtype=np.float64),
                          source_cycle_id=cid, resp_label=label, rr=rr)


class TestResample:
    def test_identity_on_32_grid_samples(self):
        rr = 1000.0
        rng = np.random.default_rng(2)
        q = rng.normal(0, 2, 32)
        t = np.arange(32) / 32 * rr
        out = resample_cycle(make_cycle(t, q, start=0.0, end=rr))
        assert np.max(np.abs(out.q32 - q)) < 1e-9

    def test_sine_from_10_samples(self):
        rr = 1000.0
        t = np.arange(10) / 10 * rr
        q = np.sin(2 * np.pi * t / rr)
        out = resample_cycle(make_cycle(t, q, start=0.0, end=rr))
        truth = np.sin(2 * np.pi * PHASE_GRID)
        assert np.max(np.abs(out.q32 - truth)) < 1e-3

    def test_phase_offset_handled(self):
        # samples not starting at cycle phase zero
        rr = 1000.0
        t = (0.05 + np.arange(16) / 16 * 0.9) * rr
        q = np.sin(2 * np.pi * t / rr)
        out = resample_cycle(make_cycle(t, q, start=0.0, end=rr))
        truth = np.sin(2 * np.pi * PHASE_GRID)
        assert np.max(np.abs(out.q32 - truth)) < 0.05

    def test_linear_mode(self):
        rr = 800.0
        t = np.arange(8) / 8 * rr
        q = np.array([0.0, 1, 2, 3, 4, 3, 2, 1])
        out = resample_cycle(make_cycle(t, q, start=0.0, end=rr), mode="linear")
        # at the original sample phases the value is exact
        assert out.q32[0] == pytest.approx(0.0)
        assert out.q32[4] == pytest.approx(1.0)  # phase 4/32 = sample 1
        assert out.q32[2] == pytest.approx(0.5)  # halfway between

    def test_mode_validation(self):
        t = np.arange(8) / 8 * 800.0
        with pytest.raises(ValueOutOfRange):
            resample_cycle(make_cycle(t, np.zeros(8), start=0.0, end=800.0),
                           mode="nearest")

    def test_too_few_samples(self):
        t = np.array([0.0, 100.0, 200.0])
        with pytest.raises(TooFewSamples):
            resample_cycle(make_cycle(t, np.zeros(3), start=0.0, end=800.0))

    def test_metadata_carried(self):
        t = np.arange(10) / 10 * 900.0
        c = make_cycle(t, np.sin(t / 100), start=0.0, end=900.0,
                       label=RespLabel.INSPIRATION, cid=17)
        out = resample_cycle(c)
        assert out.source_cycle_id == 17
        assert out.resp_label is RespLabel.INSPIRATION
        assert out.rr == pytest.approx(900.0)

    def test_periodicity_no_edge_jump(self):
        # a spline that is not forced periodic would overshoot at the seam
        rr = 1000.0
        t = np.arange(12) / 12 * rr
        q = np.sin(2 * np.pi * t / rr + 0.7)
        out = resample_cycle(make_cycle(t, q, start=0.0, end=rr))
        seam = abs(out.q32[0] - np.sin(0.7))
        assert seam < 1e-3

    def test_last_sample_at_wrap_knot_dropped(self):
        # 14 frames in a beat 0.0075 ms longer than 13 frame intervals: the
        # last sample sits 6.6e-6 of a period before the wrap knot with a
        # slightly different value, which a periodic spline through both
        # turns into a spike of about 9 times the flow peak
        dt = 88.0
        rr = 13 * dt + 0.0075
        t = np.arange(14) * dt
        q = np.sin(2 * np.pi * t / rr) + 0.05 * np.cos(np.arange(14))
        out = resample_cycle(make_cycle(t, q, start=0.0, end=rr))
        assert np.max(np.abs(out.q32)) <= 1.5 * np.max(np.abs(q))
        truth = np.sin(2 * np.pi * PHASE_GRID)
        assert np.max(np.abs(out.q32 - truth)) < 0.1

    @pytest.mark.parametrize("steps,dropped", [(0.5, True), (2.0, False)])
    def test_wrap_knot_tolerance(self, steps, dropped):
        # the last sample lies steps x WRAP_KNOT_TOLERANCE sample steps
        # before the wrap knot; only inside the tolerance is it dropped
        dt = 88.0
        rr = 13 * dt + steps * WRAP_KNOT_TOLERANCE * dt
        t = np.arange(14) * dt
        q = np.cos(np.arange(14))
        out = resample_cycle(make_cycle(t, q, start=0.0, end=rr))
        short = resample_cycle(make_cycle(t[:13], q[:13], start=0.0, end=rr))
        assert np.array_equal(out.q32, short.q32) == dropped


def oracle_q32(cycle, mode="spline"):
    """The per-cycle interpolation resample_cycles batches: CubicSpline
    (or np.interp) through the samples and the wrap knot, with a last
    sample within WRAP_KNOT_TOLERANCE steps of the wrap knot dropped."""
    u = (cycle.t - cycle.start) / cycle.rr
    q = cycle.q
    if u[0] + 1.0 - u[-1] < WRAP_KNOT_TOLERANCE * (u[-1] - u[-2]):
        u, q = u[:-1], q[:-1]
    knots, vals = np.append(u, u[0] + 1.0), np.append(q, q[0])
    grid = np.where(PHASE_GRID < u[0], PHASE_GRID + 1.0, PHASE_GRID)
    if mode == "linear":
        return np.interp(grid, knots, vals)
    return CubicSpline(knots, vals, bc_type="periodic")(grid)


def random_cycles(rng, n_cycles=60, samples=(4, 24)):
    """Cycles of samples[0]-samples[1] jittered samples at random onsets
    and RRs, then cycles whose last sample lies 0.9 and 1.1
    WRAP_KNOT_TOLERANCE sample steps before the wrap knot (just inside and
    just outside it)."""
    cycles = []
    for cid in range(n_cycles):
        n = int(rng.integers(samples[0], samples[1] + 1))
        rr = float(rng.uniform(600.0, 1400.0))
        start = float(rng.uniform(0.0, 5000.0))
        u = (np.arange(n) + rng.uniform(0.3, 0.4) + rng.uniform(-0.25, 0.25, n)) / n
        cycles.append(make_cycle(start + u * rr, rng.normal(0.0, 2.0, n),
                                 start=start, end=start + rr, cid=cid))
    for steps in (0.9, 1.1):
        for n in (4, 9, 13, 24):
            dt = 88.0
            rr = (n - 1) * dt + steps * WRAP_KNOT_TOLERANCE * dt
            cycles.append(make_cycle(np.arange(n) * dt, rng.normal(0.0, 2.0, n),
                                     start=0.0, end=rr, cid=len(cycles)))
    return cycles


class TestResampleCycles:
    @pytest.mark.parametrize("mode", ["spline", "linear"])
    def test_matches_per_cycle_oracle(self, rng, mode):
        cycles = random_cycles(rng)
        out = resample_cycles(cycles, mode)
        assert len({c.n_samples for c in cycles}) > 10
        assert [o.source_cycle_id for o in out] == [c.cycle_id for c in cycles]
        for cyc, got in zip(cycles, out):
            bound = 1e-12 * np.max(np.abs(cyc.q))
            assert np.max(np.abs(got.q32 - oracle_q32(cyc, mode))) <= bound
            assert got.rr == cyc.rr and got.resp_label is cyc.resp_label

    @pytest.mark.parametrize("mode", ["spline", "linear"])
    def test_bit_identical_alone_batched_and_permuted(self, rng, mode):
        cycles = random_cycles(rng)
        batch = [c.q32 for c in resample_cycles(cycles, mode)]
        order = rng.permutation(len(cycles))
        permuted = resample_cycles([cycles[k] for k in order], mode)
        for k, got in zip(order, permuted):
            assert np.array_equal(got.q32, batch[k])
        for cyc, q32 in zip(cycles, batch):
            assert np.array_equal(resample_cycle(cyc, mode).q32, q32)

    @pytest.mark.parametrize("mode", ["spline", "linear"])
    def test_bit_identical_for_every_batch_size(self, rng, mode, monkeypatch):
        """Each sample-count group is interpolated in batches of _BATCH
        cycles; np.linalg.solve factors every system on its own, so the
        batch size does not change a bit of any row."""
        # about 70 cycles per count of 12-14 samples, so a group spans
        # batches of 64, among shuffled cycles of every other count
        cycles = random_cycles(rng, n_cycles=200) + random_cycles(rng, 210, samples=(12, 14))
        cycles = [cycles[k] for k in rng.permutation(len(cycles))]
        assert max(sum(c.n_samples == n for c in cycles) for n in (12, 13, 14)) > 64
        q32 = {}
        for batch in (1, 7, 64, 10**6):
            monkeypatch.setattr(ensemble, "_BATCH", batch)
            q32[batch] = np.stack([c.q32 for c in resample_cycles(cycles, mode)]).tobytes()
        assert all(q == q32[1] for q in q32.values())

    def test_first_bad_cycle_refuses(self, rng):
        good = random_cycles(rng, n_cycles=3)[:3]
        few = make_cycle([0.0, 100.0, 200.0], np.zeros(3), start=0.0, end=800.0)
        late = make_cycle(np.arange(8) * 100.0, np.zeros(8), start=0.0, end=700.0)
        for batch, bad in ((good + [few, late], few), (good + [late, few], late)):
            with pytest.raises((TooFewSamples, ValueOutOfRange)) as alone:
                resample_cycle(bad)
            with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
                resample_cycles(batch)
        with pytest.raises(ValueOutOfRange):
            resample_cycles(good, mode="cubic")

    def test_empty_list(self):
        assert len(resample_cycles([])) == 0


class TestBuildEnsembles:
    def test_mean_and_sd(self):
        rows = [canon(np.full(32, v), cid=i) for i, v in enumerate([1.0, 2.0, 3.0])]
        e = build_ensembles(rows)
        assert np.allclose(e.global_mean, 2.0)
        assert np.allclose(e.global_sd, np.sqrt(2.0 / 3.0))  # population sd
        assert e.n_global == 3
        assert e.n_mixed == 3

    def test_split_by_label(self):
        rows = [
            canon(np.full(32, 1.0), 0, RespLabel.INSPIRATION, rr=900.0),
            canon(np.full(32, 3.0), 1, RespLabel.INSPIRATION, rr=1100.0),
            canon(np.full(32, 5.0), 2, RespLabel.EXPIRATION, rr=1000.0),
            canon(np.full(32, 9.0), 3, RespLabel.MIXED),
        ]
        e = build_ensembles(rows)
        assert np.allclose(e.insp_mean, 2.0)
        assert np.allclose(e.exp_mean, 5.0)
        assert e.n_insp == 2 and e.n_exp == 1 and e.n_mixed == 1
        assert e.n_global == 4  # mixed counts globally
        assert e.mean_rr_insp == pytest.approx(1000.0)
        assert np.allclose(e.global_mean, 4.5)

    def test_absent_states_are_none(self):
        e = build_ensembles([canon(np.ones(32), 0, RespLabel.MIXED)])
        assert e.insp_mean is None and e.insp_sd is None and e.n_insp == 0
        assert e.exp_mean is None and e.n_exp == 0

    def test_empty_refused(self):
        with pytest.raises(EmptyEnsemble):
            build_ensembles([])

    def test_duplicate_ids_refused(self):
        rows = [canon(np.ones(32), 5), canon(np.zeros(32), 5)]
        with pytest.raises(ValueOutOfRange):
            build_ensembles(rows)

    def test_permutation_bit_identity(self, rng):
        rows = [canon(rng.normal(0, 1, 32), cid=i,
                      label=[RespLabel.INSPIRATION, RespLabel.EXPIRATION,
                             RespLabel.MIXED][i % 3],
                      rr=float(rng.uniform(700, 1300)))
                for i in range(24)]
        e0 = build_ensembles(rows)
        order = rng.permutation(24)
        e1 = build_ensembles([rows[k] for k in order])
        for a, b in [(e0.global_mean, e1.global_mean), (e0.global_sd, e1.global_sd),
                     (e0.insp_mean, e1.insp_mean), (e0.exp_sd, e1.exp_sd)]:
            assert np.array_equal(a, b)
        assert e0.mean_rr_global == e1.mean_rr_global

    def test_q32_shape_enforced(self):
        good = canon(np.ones(32), 0)
        with pytest.raises(ValueOutOfRange, match="exactly 32"):
            build_ensembles([good, canon(np.ones(31), 1)])
        with pytest.raises(ValueOutOfRange, match="non-finite"):
            build_ensembles([good, canon(np.full(32, np.nan), 1)])

    @pytest.mark.parametrize("rr", [0.0, -800.0])
    def test_non_positive_rr_refused(self, rr):
        with pytest.raises(ValueOutOfRange, match="rr must be positive"):
            build_ensembles([canon(np.ones(32), 0), canon(np.ones(32), 1, rr=rr)])

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_per_state_stack(self, seed):
        # each state reduced on its own np.stack of its rows in id order;
        # seeds 0-23 include empty inspiration (6, 14, 21), empty
        # expiration (11, 12, 13) and a single MIXED cycle (23)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        labels = [list(RespLabel)[k] for k in rng.integers(3, size=n)]
        rows = [canon(rng.normal(0, 1, 32), cid=int(cid), label=lab,
                      rr=float(rng.uniform(500, 1800)))
                for cid, lab in zip(rng.permutation(100)[:n], labels)]
        e = build_ensembles(rows)
        ordered = sorted(rows, key=lambda c: c.source_cycle_id)
        for states, mean, sd, count, rr in (
            (set(RespLabel), e.global_mean, e.global_sd, e.n_global, e.mean_rr_global),
            ({RespLabel.INSPIRATION}, e.insp_mean, e.insp_sd, e.n_insp, e.mean_rr_insp),
            ({RespLabel.EXPIRATION}, e.exp_mean, e.exp_sd, e.n_exp, e.mean_rr_exp),
        ):
            sel = [c for c in ordered if c.resp_label in states]
            assert count == len(sel)
            if not sel:
                assert mean is None and sd is None and rr is None
                continue
            q = np.stack([c.q32 for c in sel])
            assert np.array_equal(mean, q.mean(axis=0))
            assert np.array_equal(sd, q.std(axis=0))
            assert rr == float(np.mean([c.rr for c in sel]))
        assert e.n_mixed == sum(c.resp_label is RespLabel.MIXED for c in rows)
