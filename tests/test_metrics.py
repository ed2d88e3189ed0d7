"""Stroke volume, net flow, reversal detection.

The key frozen value: for q(u) = sin(2*pi*u) sampled at 32 equispaced
points and rr = 1000 ms, the periodic trapezoid rule gives a positive
lobe of exactly 1/(32*tan(pi/32)) mL = 0.3172865746127769, i.e. 0.32%
below the continuous integral 1/pi.
"""

import math

import numpy as np
import pytest

from csfdyn import (
    SvConvention,
    VolumeUnit,
    reversal_check,
    stroke_volume,
    sv_modulation,
)
from csfdyn.errors import (
    DivisionByZeroSv,
    NonFinite,
    ValueOutOfRange,
)

SINE_LOBE = 1.0 / (32.0 * math.tan(math.pi / 32.0))


def sine32(amp=1.0, phase=0.0):
    return amp * np.sin(2 * np.pi * np.arange(32) / 32 + phase)


class TestStrokeVolume:
    def test_sine_lobe_closed_form(self):
        r = stroke_volume(sine32(), rr=1000.0)
        assert r.v_plus == pytest.approx(SINE_LOBE, abs=1e-13)
        assert r.v_minus == pytest.approx(SINE_LOBE, abs=1e-13)
        assert r.sv == pytest.approx(SINE_LOBE, abs=1e-13)
        # discretization bias against the continuous lobe stays under 0.5%
        assert abs(r.v_plus - 1.0 / math.pi) / (1.0 / math.pi) < 0.005

    def test_rr_scales_volume(self):
        r1 = stroke_volume(sine32(), rr=1000.0)
        r2 = stroke_volume(sine32(), rr=500.0)
        assert r2.v_plus == pytest.approx(0.5 * r1.v_plus)

    def test_conventions(self):
        q = sine32()
        q[q < 0] *= 0.5  # asymmetric return flow
        lobe = stroke_volume(q, rr=1000.0, convention=SvConvention.LOBE_MEAN)
        flush = stroke_volume(q, rr=1000.0, convention=SvConvention.FLUSH_LOBE)
        assert flush.sv == pytest.approx(flush.v_plus)
        assert lobe.sv == pytest.approx(0.5 * (lobe.v_plus + lobe.v_minus))
        assert lobe.sv < flush.sv

    def test_unit_scaling(self):
        ml = stroke_volume(sine32(), rr=1000.0, unit=VolumeUnit.ML)
        ul = stroke_volume(sine32(), rr=1000.0, unit=VolumeUnit.UL)
        assert ul.sv == pytest.approx(1000.0 * ml.sv)
        assert ul.unit is VolumeUnit.UL
        # net flow stays in mL/min regardless of the volume unit
        assert ul.net_flow == pytest.approx(ml.net_flow)

    def test_net_flow_constant_curve(self):
        c = 0.25  # mL/s steady flow
        r = stroke_volume(np.full(32, c), rr=730.0)
        assert r.net_flow == pytest.approx(60.0 * c)
        assert r.flush_duration_fraction == pytest.approx(1.0)
        assert r.direction_reversals == 0

    def test_net_flow_sign(self):
        r = stroke_volume(np.full(32, -0.1), rr=1000.0)
        assert r.net_flow == pytest.approx(-6.0)

    def test_balanced_sine_nets_to_zero(self):
        r = stroke_volume(sine32(), rr=900.0)
        assert abs(r.net_flow) < 1e-12
        assert r.flush_duration_fraction == pytest.approx(0.5)

    def test_reversal_count_sine(self):
        r = stroke_volume(sine32(), rr=1000.0)
        assert r.direction_reversals == 2

    def test_reversal_count_ignores_zeros(self):
        q = np.zeros(32)
        q[2:8] = 1.0
        q[14:20] = -1.0
        r = stroke_volume(q, rr=1000.0)
        assert r.direction_reversals == 2

    def test_reversals_are_circular(self):
        q = np.ones(32)
        q[0] = -1.0  # sign change wraps around the cycle seam
        r = stroke_volume(q, rr=1000.0)
        assert r.direction_reversals == 2

    def test_needs_32_points(self):
        with pytest.raises(ValueOutOfRange):
            stroke_volume(np.ones(16), rr=1000.0)

    def test_rejects_nonfinite(self):
        q = sine32()
        q[5] = np.inf
        with pytest.raises(NonFinite):
            stroke_volume(q, rr=1000.0)

    def test_rejects_bad_rr(self):
        with pytest.raises(ValueOutOfRange):
            stroke_volume(sine32(), rr=0.0)

    def test_rotation_invariance(self):
        q = sine32(amp=0.8, phase=0.3)
        base = stroke_volume(q, rr=1000.0)
        for k in (1, 7, 16, 31):
            rot = stroke_volume(np.roll(q, k), rr=1000.0)
            assert rot.sv == pytest.approx(base.sv, rel=1e-12)
            assert rot.direction_reversals == base.direction_reversals

    def test_sign_flip_swaps_lobes(self):
        q = sine32()
        q[q < 0] *= 0.3
        a = stroke_volume(q, rr=1000.0)
        b = stroke_volume(-q, rr=1000.0)
        assert b.v_plus == pytest.approx(a.v_minus)
        assert b.v_minus == pytest.approx(a.v_plus)
        assert b.net_flow == pytest.approx(-a.net_flow)


class TestModulation:
    def rep(self, sv, unit=VolumeUnit.ML, convention=SvConvention.LOBE_MEAN):
        q = sine32(amp=sv / SINE_LOBE)
        return stroke_volume(q, rr=1000.0, unit=unit, convention=convention)

    def test_relative_difference(self):
        m = sv_modulation(self.rep(0.11), self.rep(0.10))
        assert m == pytest.approx(0.1, abs=1e-9)

    def test_zero_reference(self):
        zero = stroke_volume(np.zeros(32), rr=1000.0)
        with pytest.raises(DivisionByZeroSv):
            sv_modulation(self.rep(0.1), zero)

    def test_unit_mismatch(self):
        with pytest.raises(ValueOutOfRange):
            sv_modulation(self.rep(0.11, VolumeUnit.UL), self.rep(0.10))

    @pytest.mark.parametrize("insp, exp", [
        (SvConvention.FLUSH_LOBE, SvConvention.LOBE_MEAN),
        (SvConvention.LOBE_MEAN, SvConvention.FLUSH_LOBE),
    ], ids=["flush-against-lobe-mean", "lobe-mean-against-flush"])
    def test_convention_mismatch(self, insp, exp):
        with pytest.raises(ValueOutOfRange, match="cannot compare"):
            sv_modulation(self.rep(0.11, convention=insp), self.rep(0.10, convention=exp))
        m = sv_modulation(self.rep(0.11, convention=insp), self.rep(0.10, convention=insp))
        assert m == pytest.approx(0.1, abs=1e-9)


class TestReversalCheck:
    def test_bidirectional_true(self):
        assert reversal_check(sine32())

    def test_unidirectional_false(self):
        assert not reversal_check(np.abs(sine32()) + 0.01)

    def test_tiny_magnitudes_ignored(self):
        q = np.full(32, 0.5)
        q[3] = -1e-9  # below the epsilon floor
        assert not reversal_check(q)

    def test_exact_zero_is_not_reversal(self):
        q = np.ones(32)
        q[10] = 0.0
        assert not reversal_check(q)
