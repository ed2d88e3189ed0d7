"""Phase-to-velocity mapping, temporal unwrapping, per-pixel moments,
background offset."""

import math
import warnings
import zlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csfdyn import (
    Encoding,
    RoiLabel,
    RoiMask,
    SeriesHeader,
    StaticTissueWarning,
    VelocitySeries,
    as_velocity_field,
    background_correct,
    default_aqueduct_spec,
    phase_to_velocity,
    read_series,
    static_mask,
    unwrap_temporal,
    write_series,
)
from csfdyn import extract_flow, velocity
from csfdyn.flow import seed_reference, streamed_flow, streamed_seed_reference
from csfdyn.velocity import pixel_moments
from csfdyn.errors import ValueOutOfRange, WrongEncoding, WrongKind


def make_header(venc=10.0, n_frames=5, w=8, h=6, encoding=Encoding.PHASE_RADIANS):
    return SeriesHeader(
        width=w, height=h, n_frames=n_frames,
        pixel_spacing_x=1.2, pixel_spacing_y=1.2, slice_thickness=4.0,
        venc=venc, frame_interval=88.0, encoding=encoding,
    )


def converted(series):
    """The series' stored values in float64 cm/s."""
    v = series.frames.astype(np.float64)
    if series.header.encoding is Encoding.PHASE_RADIANS:
        v *= series.header.venc / np.pi
    return v


def unwrap_oracle(series, flip_sign=False, anchor=0):
    """Reference velocities of series: converted to float64 cm/s, negated
    when flip_sign is set, and unwrapped over the whole array at once, 2 venc
    off per wrap counted by np.cumsum from the anchor frame.

    The streamed core never flips: negated, the flipped reference must give
    its bits, which is what lets the pipeline apply the sign at the end."""
    v = converted(series)
    if flip_sign:
        v = -v
    venc, out = series.header.venc, v.copy()
    wrapped = (np.abs(np.diff(v, axis=0)) > venc).any(axis=0)
    if wrapped.any():
        w = v[:, wrapped]
        d = np.diff(w, axis=0)
        k = np.where(np.abs(d) > venc, np.sign(d) * np.ceil((np.abs(d) - venc) / (2 * venc)), 0.0)
        cum = np.concatenate([np.zeros((1, w.shape[1])), np.cumsum(k, axis=0)], axis=0)
        out[:, wrapped] = w + -2.0 * venc * (cum - cum[anchor])
    return out


def velocity_maps(series, anchor=0):
    """The series' velocity maps: unwrap_temporal of the series, converted
    by phase_to_velocity first when it holds phase."""
    if series.header.encoding is Encoding.PHASE_RADIANS:
        series = phase_to_velocity(series)
    return unwrap_temporal(series, anchor)


def wrap_to_phase(v, venc):
    """Scanner-side aliasing: velocity -> phase folded into [-pi, pi)."""
    phi = v * np.pi / venc
    return np.mod(phi + np.pi, 2 * np.pi) - np.pi


class TestPhaseToVelocity:
    def test_linear_map(self):
        h = make_header(venc=8.0)
        phase = np.full((5, 6, 8), 0.25 * np.pi, dtype=np.float64)
        f = phase_to_velocity(VelocitySeries(h, phase))
        assert np.allclose(f.frames, 2.0)
        assert f.header.encoding is Encoding.VELOCITY_CMPS

    def test_extremes(self):
        h = make_header(venc=5.0)
        phase = np.zeros((5, 6, 8))
        phase[0, 0, 0] = -np.pi
        f = phase_to_velocity(VelocitySeries(h, phase))
        assert f.frames[0, 0, 0] == pytest.approx(-5.0)

    def test_wrong_encoding(self):
        h = make_header(encoding=Encoding.VELOCITY_CMPS)
        s = VelocitySeries(h, np.zeros((5, 6, 8)))
        with pytest.raises(WrongEncoding):
            phase_to_velocity(s)
        f = as_velocity_field(s)
        assert f.header.encoding is Encoding.VELOCITY_CMPS
        with pytest.raises(WrongEncoding):
            as_velocity_field(VelocitySeries(make_header(), np.zeros((5, 6, 8))))

    def test_series_round_trip(self, tmp_path):
        h = make_header(encoding=Encoding.VELOCITY_CMPS)
        v = np.linspace(-9, 9, 5 * 6 * 8).reshape(5, 6, 8)
        write_series(as_velocity_field(VelocitySeries(h, v)), tmp_path / "v.csfd")
        s = read_series(tmp_path / "v.csfd")
        assert s.header == h
        assert s.frames.dtype == np.float32
        assert np.allclose(s.frames, v, atol=1e-5)


class TestUnwrap:
    def make_aliased(self, v_true, venc):
        """Build a field whose stored velocities are the wrapped version
        of a known time course (one pixel per course)."""
        n, npx = v_true.shape
        frames = np.zeros((n, 1, npx))
        phi = wrap_to_phase(v_true, venc)
        frames[:, 0, :] = phi * venc / np.pi
        h = make_header(venc=venc, n_frames=n, w=npx, h=1,
                        encoding=Encoding.VELOCITY_CMPS)
        return as_velocity_field(VelocitySeries(h, frames))

    def test_recovers_supra_venc_sine(self):
        # peak 7 cm/s at venc 5: every systolic frame aliases
        t = np.arange(40) * 0.088
        v = 7.0 * np.sin(2 * np.pi * t / 1.0)[:, None]
        field = self.make_aliased(v, venc=5.0)
        out = unwrap_temporal(field)
        assert np.max(np.abs(out.frames[:, 0, 0] - v[:, 0])) < 1e-5

    def test_double_wrap(self):
        t = np.linspace(0, 1, 60)
        v = 14.0 * np.sin(2 * np.pi * t)[:, None]  # almost 3x venc
        field = self.make_aliased(v, venc=5.0)
        out = unwrap_temporal(field)
        assert np.max(np.abs(out.frames[:, 0, 0] - v[:, 0])) < 1e-5

    def test_idempotent(self):
        t = np.arange(40) * 0.088
        v = 7.0 * np.sin(2 * np.pi * t)[:, None]
        field = self.make_aliased(v, venc=5.0)
        once = unwrap_temporal(field)
        twice = unwrap_temporal(once)
        assert np.array_equal(once.frames, twice.frames)

    def test_no_wraps_is_identity(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(-4, 4, (20, 6))  # well inside venc 10, steps < venc
        v = np.cumsum(v * 0.2, axis=0)
        v = np.clip(v, -9, 9)
        field = self.make_aliased(v, venc=10.0)
        out = unwrap_temporal(field)
        assert np.allclose(out.frames, field.frames)

    def test_single_frame_is_identity(self):
        field = self.make_aliased(np.array([[4.0, -3.0]]), venc=5.0)
        out = unwrap_temporal(field)
        assert np.array_equal(out.frames, field.frames)
        assert out.frames is not field.frames

    def test_jump_at_any_step_is_found(self):
        # pixel j's only wrap lies between frames j and j + 1, so every step
        # of a long series is scanned, wherever the scan splits it
        n = 200
        v = np.where(np.arange(n)[:, None] <= np.arange(n - 1)[None, :], 4.0, 6.0)
        out = unwrap_temporal(self.make_aliased(v, venc=5.0))
        assert np.allclose(out.frames[:, 0, :], v, atol=1e-9)

    def test_anchor_frame_preserved(self):
        t = np.arange(40) * 0.088
        v = 7.0 * np.sin(2 * np.pi * t)[:, None]
        field = self.make_aliased(v, venc=5.0)
        for anchor in (0, 7, 39):
            out = unwrap_temporal(field, anchor=anchor)
            assert out.frames[anchor, 0, 0] == field.frames[anchor, 0, 0]

    def test_anchor_out_of_range(self):
        field = self.make_aliased(np.zeros((5, 2)), venc=5.0)
        with pytest.raises(ValueOutOfRange):
            unwrap_temporal(field, anchor=5)

    def test_phase_input_is_refused(self):
        # venc is in cm/s, so phase steps would be unwrapped against the wrong turn
        phase = VelocitySeries(make_header(venc=1.0), np.zeros((5, 6, 8)))
        with pytest.raises(WrongEncoding):
            unwrap_temporal(phase)


@st.composite
def wrapped_field(draw):
    """A velocity field in [-venc, venc) whose pixels may or may not hold
    a step beyond venc, a rectangular crop of it, and an anchor frame."""
    n, h, w = draw(st.integers(1, 12)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    venc = 5.0
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    frames = rng.uniform(-venc, venc, (n, h, w))
    # smooth pixels step by at most 0.8 venc: no wrap jump
    smooth = rng.random((h, w)) < 0.5
    frames[:, smooth] *= 0.4
    r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    r1, c1 = draw(st.integers(r0 + 1, h)), draw(st.integers(c0 + 1, w))
    header = make_header(venc=venc, n_frames=n, w=w, h=h, encoding=Encoding.VELOCITY_CMPS)
    return VelocitySeries(header, frames.astype(dtype)), (r0, r1, c0, c1), draw(
        st.integers(0, n - 1))


@settings(deadline=None)
@given(wrapped_field())
def test_unwrap_of_crop_is_crop_of_unwrap(case):
    """unwrap_temporal works per pixel, so the pipeline may unwrap only a
    box of the grid and get the same bits."""
    series, (r0, r1, c0, c1), anchor = case
    crop = series.frames[:, r0:r1, c0:c1]
    cropped = VelocitySeries(
        make_header(venc=series.header.venc, n_frames=crop.shape[0], w=crop.shape[2],
                    h=crop.shape[1], encoding=Encoding.VELOCITY_CMPS), crop)
    whole = unwrap_temporal(series, anchor).frames[:, r0:r1, c0:c1]
    part = unwrap_temporal(cropped, anchor).frames
    assert part.dtype == whole.dtype and part.shape == whole.shape
    assert part.tobytes() == np.ascontiguousarray(whole).tobytes()


@st.composite
def moment_case(draw):
    """A series of 1, 2, 64, 65 or 129 frames whose pixels may or may not
    hold a step beyond venc, a pixel subset, a sign, an optional
    reference time course, an anchor frame and a block budget: 64, 128 or
    192 values give pixel_moments blocks of 1-3 pixels, 1 << 14 (the
    default) blocks of every pixel."""
    n = draw(st.sampled_from([1, 2, 64, 65, 129]))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    encoding = draw(st.sampled_from(list(Encoding)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # phase stays clear of pi, which float32 rounds out of [-pi, pi)
    top = 3.0 if encoding is Encoding.PHASE_RADIANS else 5.0
    frames = rng.uniform(-top, top, (n, h, w))
    # smooth pixels step by at most 0.8 venc: no wrap jump
    frames[:, rng.random((h, w)) < 0.5] *= 0.4
    header = make_header(venc=5.0, n_frames=n, w=w, h=h, encoding=encoding)
    ref = rng.normal(0.0, 1.0, n) if draw(st.booleans()) else None
    return (VelocitySeries(header, frames.astype(dtype)), rng.random((h, w)) < 0.5,
            draw(st.booleans()), ref, draw(st.integers(0, n - 1)),
            draw(st.sampled_from([64, 128, 192, 1 << 14])))


@settings(deadline=None)
@given(moment_case())
def test_moments_of_subset_are_subset_of_moments(case):
    """A pixel's moments do not depend on the other pixels of the call, so
    the pipeline may take them for any pixel set and get the same bits;
    they are the moments of the reference unwrap's output (the flipped one
    negated). So static_offset over the subset gives the offset, and the
    StaticTissueWarning, of the whole grid's moments."""
    series, subset, flip_sign, ref, anchor, budget = case
    with mock.patch.object(velocity, "_BLOCK_VALUES", budget):
        whole = pixel_moments(series, np.ones(subset.shape, dtype=bool), ref, anchor)
        part = pixel_moments(series, subset, ref, anchor)
    at = subset[whole.pixels]
    for name in ("mean", "m2", "cross"):
        mine, theirs = getattr(part, name), getattr(whole, name)
        assert (mine is None) == (theirs is None), name
        assert mine is None or mine.tobytes() == theirs[at].tobytes(), name

    if subset.any():
        # the whole-mask oracle: on a grid this small the lattice is the mask
        static = RoiMask(subset, RoiLabel.STATIC_TISSUE)
        with mock.patch.object(velocity, "_BLOCK_VALUES", budget), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            offset = velocity.static_offset(series, static, anchor)
        warned = any(issubclass(w.category, StaticTissueWarning) for w in caught)
        assert np.float64(offset).tobytes() == np.float64(whole.mean[at].mean()).tobytes()
        worst_sd = np.sqrt(whole.m2[at].max() / series.header.n_frames)
        assert warned == (worst_sd > 0.1 * series.header.venc)

    v = unwrap_oracle(series, flip_sign, anchor)
    v = (-v if flip_sign else v).reshape(v.shape[0], -1)
    n, big = v.shape[0], np.abs(v).max()
    np.testing.assert_allclose(whole.mean, v.mean(axis=0), rtol=1e-12, atol=1e-12 * big)
    np.testing.assert_allclose(whole.m2, v.var(axis=0) * n, rtol=1e-12,
                               atol=1e-12 * n * big**2)
    if ref is not None:
        np.testing.assert_allclose(whole.cross, (ref[:, None] * v).sum(axis=0), rtol=1e-12,
                                   atol=1e-12 * n * big * np.abs(ref).max())


@settings(deadline=None)
@given(moment_case(), st.data())
def test_velocities_match_oracle(case, data):
    """The streamed velocities of any box of the grid, a view that need not
    be contiguous, equal the whole-array reference to the bit (the flipped
    one negated); a _BLOCK_VALUES budget of 64-192 values also splits the
    frames into chunks of 64-192 and the pixels into blocks of 1-3."""
    series, _, flip_sign, _, anchor, budget = case
    _, h, w = series.frames.shape
    r0, c0 = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))
    r1, c1 = data.draw(st.integers(r0 + 1, h)), data.draw(st.integers(c0 + 1, w))
    box = VelocitySeries(replace(series.header, height=r1 - r0, width=c1 - c0),
                         series.frames[:, r0:r1, c0:c1])
    with mock.patch.object(velocity, "_BLOCK_VALUES", budget):
        out = velocity_maps(box, anchor)
    assert out.header == replace(box.header, encoding=Encoding.VELOCITY_CMPS)
    expected = unwrap_oracle(box, flip_sign, anchor)
    if flip_sign:
        expected = -expected
    assert out.frames.dtype == np.float64 and out.frames.shape == expected.shape
    assert out.frames.tobytes() == expected.tobytes()


@settings(deadline=None)
@given(moment_case(), st.booleans())
def test_streamed_flow_matches_velocity_maps(case, corrected):
    """The pipeline's flow and seed reference, summed over the ROI as the
    streamed blocks come, equal to the bit those of the velocity maps:
    extract_flow of velocity_maps() corrected by background_correct
    (static tissue: the other pixels, or all of them), and seed_reference
    of velocity_maps(), however _BLOCK_VALUES splits the ROI. With the sign drawn
    flipped the maps are negated first, and the streamed results, negated
    as prepare_velocity negates the flow (an exact zero kept positive),
    must give their bits."""
    series, pixels, flip_sign, _, anchor, budget = case
    pixels[0, 0] = True  # an ROI is never empty
    roi = RoiMask(pixels, RoiLabel.AQUEDUCT)
    sign = -1.0 if flip_sign else 1.0
    with mock.patch.object(velocity, "_BLOCK_VALUES", budget):
        vel = velocity_maps(series, anchor)
        vel = VelocitySeries(vel.header, sign * vel.frames)
        offset = None
        if corrected:
            static = RoiMask(~pixels if (~pixels).any() else pixels, RoiLabel.STATIC_TISSUE)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StaticTissueWarning)
                corrected_vel, offset = background_correct(vel, static)
        flow = streamed_flow(series, roi, anchor, None if offset is None else sign * offset)
        ref = streamed_seed_reference(series, roi, anchor)
    expected = extract_flow(corrected_vel if corrected else vel, roi)
    assert (sign * flow.q + 0.0).tobytes() == expected.q.tobytes()
    assert flow.timestamps.tobytes() == expected.timestamps.tobytes()
    assert (flow.n_roi_pixels, flow.pixel_area) == (expected.n_roi_pixels, expected.pixel_area)
    assert (sign * ref + 0.0).tobytes() == seed_reference(vel, roi).tobytes()


@pytest.mark.parametrize("block", [2048, 300, 7])
def test_streamed_flow_adds_pixels_in_turn(block):
    """Over an ROI of about 800 pixels, with a budget of block pixels of 64
    frames (one block of all of them at 2048, blocks of 300 or 7 pixels
    otherwise), the streamed flow is numpy's sum of the F-ordered gather
    of the corrected maps, to the bit: pixel after pixel, not the pairwise
    row sum of a C-ordered block, which differs in the last bits. The maps
    are negated, and so is the flow, as prepare_velocity flips the sign."""
    rng = np.random.default_rng(5)
    header = make_header(venc=5.0, n_frames=130, w=40, h=40, encoding=Encoding.VELOCITY_CMPS)
    series = VelocitySeries(header, rng.uniform(-5.0, 5.0, (130, 40, 40)).astype(np.float32))
    pixels = rng.random((40, 40)) < 0.5
    vel = velocity_maps(series, 60)
    flipped = VelocitySeries(vel.header, -vel.frames)
    with pytest.warns(StaticTissueWarning):
        flipped, offset = background_correct(flipped, RoiMask(~pixels, RoiLabel.STATIC_TISSUE))
    with mock.patch.object(velocity, "_BLOCK_VALUES", block * 64):
        flow = streamed_flow(series, RoiMask(pixels, RoiLabel.AQUEDUCT), 60, -offset)
    gather = flipped.frames[:, pixels]
    assert gather.flags.f_contiguous
    q = gather.sum(axis=1) * (header.pixel_area * 0.01)
    assert (-flow.q + 0.0).tobytes() == q.tobytes()
    pairwise = np.ascontiguousarray(gather).sum(axis=1) * (header.pixel_area * 0.01)
    assert not np.array_equal(pairwise, q)


def test_moments_refuse_anchor_out_of_range():
    header = make_header(n_frames=5, w=1, h=1, encoding=Encoding.VELOCITY_CMPS)
    series = VelocitySeries(header, np.zeros((5, 1, 1)))
    for anchor in (-1, 5):
        with pytest.raises(ValueOutOfRange):
            pixel_moments(series, np.ones((1, 1), dtype=bool), anchor=anchor)


def test_constant_pixel_has_zero_m2():
    # 0.1 summed over a chunk does not divide back to 0.1 exactly
    header = make_header(n_frames=200, w=1, h=1, encoding=Encoding.VELOCITY_CMPS)
    moments = pixel_moments(VelocitySeries(header, np.full((200, 1, 1), 0.1)),
                            np.ones((1, 1), dtype=bool))
    assert moments.m2.tolist() == [0.0]
    assert moments.mean[0] == pytest.approx(0.1, rel=1e-15)


def test_pixel_varies_by_its_unwrapped_steps():
    # Velocities at venc 5, one column per pixel. Stored as velocity: -7.7
    # is 2.3 wrapped once, and -7.7 + 10 gives 2.3 to the bit (2.3 - 10
    # gives -7.7), so the first pixel steps raw but holds still once
    # unwrapped, at any anchor. The second holds one value unwrapped
    # through the first chunk of 64 frames and steps only across the chunk
    # boundary, where its raw step is within venc. Phase lies in [-pi, pi),
    # so there a pixel that steps raw also varies: the first alternates
    # 4.5 and -4.5 (4.5 and 5.5 unwrapped), and the second wraps across the
    # boundary. In both, the third holds 1.0 through its first chunk and
    # steps to 3.0, within venc, inside a later chunk, and the fourth never
    # changes: 0.1 summed over a chunk does not divide back to 0.1 exactly.
    # Means are checked against the exact mean of the oracle's values,
    # rounded once, which for the velocity-stored pixels at anchor 0 is 2.3
    # and the mean of 64 frames of 2.3 and 136 of 5.0.
    n, venc = 200, 5.0
    frame = np.arange(n)
    for encoding, still in ((Encoding.VELOCITY_CMPS, [0, 3]), (Encoding.PHASE_RADIANS, [3])):
        v = np.empty((n, 1, 4))
        if encoding is Encoding.VELOCITY_CMPS:
            v[:, 0, 0] = np.where(frame % 2, -7.7, 2.3)
            v[:, 0, 1] = np.where(frame < 64, -7.7, -5.0)
            v[0, 0, 1] = 2.3
        else:
            v[:, 0, 0] = np.where(frame % 2, -4.5, 4.5)
            v[:, 0, 1] = np.where(frame < 64, 4.0, -4.0)
        v[:, 0, 2] = np.where(frame < 100, 1.0, 3.0)
        v[:, 0, 3] = 0.1
        if encoding is Encoding.PHASE_RADIANS:
            v = (v * (np.pi / venc)).astype(np.float32)
        series = VelocitySeries(make_header(venc=venc, n_frames=n, w=4, h=1,
                                            encoding=encoding), v)
        for anchor in (0, 63, 64, 150):
            moments = pixel_moments(series, np.ones((1, 4), dtype=bool), anchor=anchor)
            oracle = unwrap_oracle(series, anchor=anchor)[:, 0]
            held = (oracle == oracle[0]).all(axis=0)
            assert np.flatnonzero(held).tolist() == still
            assert moments.m2[held].tolist() == [0.0] * len(still)
            m2 = ((oracle - oracle.mean(axis=0)) ** 2).sum(axis=0)
            assert moments.m2[~held] == pytest.approx(m2[~held], rel=1e-12)
            mean = [math.fsum(column) / n for column in oracle.T]
            assert moments.mean == pytest.approx(mean, rel=1e-15)


@pytest.mark.parametrize("encoding", list(Encoding))
def test_a_step_of_venc_is_left_and_a_ulp_above_is_unwrapped(encoding):
    # One step per pixel, at the chunk boundary (frame 64) or inside the
    # first chunk (frame 10): converted, exactly venc in the first and
    # third pixel and a ulp above venc in the second and fourth. The
    # stored value after the step converts to venc exactly; the one before
    # it is 0, or minus a ulp of venc. Each pixel is read in a pass of its
    # own, in 64-frame chunks, so every block is screened: the block after
    # the boundary holds one value, and only the pixel's frame before it
    # shows the step.
    n, venc = 130, 5.0
    after = venc
    if encoding is Encoding.PHASE_RADIANS:
        after = np.nextafter(math.pi, 0.0)
        while after * (venc / np.pi) != venc:
            after = np.nextafter(after, 0.0)
    before = -np.spacing(venc) / (venc / np.pi if encoding is Encoding.PHASE_RADIANS else 1.0)
    frames = np.zeros((n, 1, 4))
    frames[64:, 0, :2] = frames[10:, 0, 2:] = after
    frames[:64, 0, 1] = frames[:10, 0, 3] = before
    series = VelocitySeries(make_header(venc=venc, n_frames=n, w=4, h=1, encoding=encoding),
                            frames)
    v = converted(series)[:, 0]
    up = np.nextafter(venc, np.inf)
    assert np.diff(v, axis=0).max(axis=0).tolist() == [venc, up, venc, up]
    oracle = unwrap_oracle(series)
    assert (oracle[:, 0, ::2] == v[:, ::2]).all()
    assert (oracle[:, 0, 1::2] != v[:, 1::2]).any(axis=0).all()
    assert velocity_maps(series).frames.tobytes() == oracle.tobytes()
    for column in range(4):
        pixel = np.zeros((1, 4), dtype=bool)
        pixel[0, column] = True
        with mock.patch.object(velocity, "_BLOCK_VALUES", 64):
            sums = velocity.pixel_sums(series, pixel)
        assert sums.tobytes() == velocity.add_columns(oracle[:, 0, pixel[0]]).tobytes()
        mean = math.fsum(oracle[:, 0, column]) / n
        assert pixel_moments(series, pixel).mean[0] == pytest.approx(mean, rel=1e-15)


@pytest.mark.parametrize("budget", [64, 1 << 14], ids=["one-pixel-blocks", "one-block"])
@pytest.mark.parametrize("anchor", [0, 150])
@pytest.mark.parametrize("encoding", list(Encoding))
def test_wraps_are_carried_into_chunks_that_do_not_step(encoding, anchor, budget):
    # The first pixel steps from 4 to -4 at frame 30, beyond venc 5, and
    # holds -4 after: in its later 64-frame chunks no column steps beyond
    # venc, but they keep the wrap carried in (+10 cm/s at anchor 0, and
    # -10 cm/s before frame 30 at anchor 150). The second pixel never
    # wraps, so the first chunk's block holds a pixel that does not. At a
    # budget of 64 values every pass reads 64-frame chunks of one pixel.
    n, venc = 200, 5.0
    v = np.zeros((n, 1, 2))
    v[:30, 0, 0], v[30:, 0, 0] = 4.0, -4.0
    v[:, 0, 1] = np.linspace(-2.0, 2.0, n)
    if encoding is Encoding.PHASE_RADIANS:
        v *= np.pi / venc
    series = VelocitySeries(make_header(venc=venc, n_frames=n, w=2, h=1, encoding=encoding),
                            v.astype(np.float32))
    oracle = unwrap_oracle(series, anchor=anchor)
    pixels = np.ones((1, 2), dtype=bool)
    shift = -10.0 if anchor else 10.0
    wrapped = slice(0, 30) if anchor else slice(30, n)
    assert np.array_equal(oracle[wrapped, 0, 0], converted(series)[wrapped, 0, 0] + shift)
    with mock.patch.object(velocity, "_BLOCK_VALUES", budget):
        maps = velocity_maps(series, anchor)
        sums = velocity.pixel_sums(series, pixels, anchor)
        moments = pixel_moments(series, pixels, anchor=anchor)
    assert maps.frames.tobytes() == oracle.tobytes()
    assert sums.tobytes() == velocity.add_columns(oracle[:, 0]).tobytes()
    mean = [math.fsum(column) / n for column in oracle[:, 0].T]
    assert moments.mean == pytest.approx(mean, rel=1e-15)
    m2 = ((oracle[:, 0] - oracle[:, 0].mean(axis=0)) ** 2).sum(axis=0)
    assert moments.m2 == pytest.approx(m2, rel=1e-12)


def chunked_cross(v, ref):
    """cross of the values v (frames, pixels) with ref: per 64-frame chunk,
    (block * ref[:, None]).sum(axis=0) of the chunk as one C-ordered block
    of at least two columns, which numpy sums frame by frame, added to the
    running sums chunk after chunk."""
    cross = np.zeros(v.shape[1])
    for start in range(0, v.shape[0], 64):
        block = np.ascontiguousarray(v[start : start + 64])
        if block.shape[1] == 1:
            block = np.repeat(block, 2, axis=1)
        cross += (block * ref[start : start + 64, None]).sum(axis=0)[: v.shape[1]]
    return cross


@pytest.mark.parametrize("width,budget", [(1, 1 << 14), (5, 3 * 64)],
                         ids=["one-pixel", "partial-last-block"])
def test_cross_is_summed_frame_by_frame_per_chunk(width, budget):
    # 150 frames: two whole 64-frame chunks and a partial one of 22, whose
    # last slab holds fewer frames than the others; five pixels in blocks
    # of 3 leave a last block of 2. Some pixels wrap, so cross is of the
    # unwrapped values.
    n, venc = 150, 5.0
    rng = np.random.default_rng(11)
    frames = rng.uniform(-venc, venc, (n, 1, width))
    frames[:, 0, 1::2] *= 0.3
    series = VelocitySeries(make_header(venc=venc, n_frames=n, w=width, h=1,
                                        encoding=Encoding.VELOCITY_CMPS), frames)
    ref = rng.normal(0.0, 1.0, n)
    with mock.patch.object(velocity, "_BLOCK_VALUES", budget):
        moments = pixel_moments(series, np.ones((1, width), dtype=bool), ref)
    oracle = unwrap_oracle(series)[:, 0]
    assert not np.array_equal(oracle, converted(series)[:, 0])
    assert moments.cross.tobytes() == chunked_cross(oracle, ref).tobytes()
    # the order matters: numpy's pairwise sum of each column differs
    pairwise = sum((oracle[s : s + 64] * ref[s : s + 64, None]).T.copy().sum(axis=1)
                   for s in range(0, n, 64))
    assert not np.array_equal(pairwise, moments.cross)


class TestBackgroundCorrect:
    def make_field(self, offset, noise_sd=0.0, seed=0):
        rng = np.random.default_rng(seed)
        frames = np.zeros((10, 6, 8)) + offset
        frames += rng.normal(0, noise_sd, frames.shape)
        frames[:, 2, 2] += 5.0 * np.sin(np.linspace(0, 6, 10))  # the "vessel"
        h = make_header(n_frames=10, encoding=Encoding.VELOCITY_CMPS)
        return as_velocity_field(VelocitySeries(h, frames))

    def static(self):
        pix = np.zeros((6, 8), dtype=bool)
        pix[4:, :] = True
        return RoiMask(pix, RoiLabel.STATIC_TISSUE)

    def test_removes_constant_offset(self):
        field = self.make_field(0.37)
        out, off = background_correct(field, self.static())
        assert off == pytest.approx(0.37)
        assert np.allclose(out.frames[:, 4:, :], 0.0, atol=1e-12)

    def test_estimate_averages_noise(self):
        field = self.make_field(0.5, noise_sd=0.05, seed=7)
        _, off = background_correct(field, self.static())
        # 16 pixels x 10 frames: SEM ~ 0.004
        assert off == pytest.approx(0.5, abs=0.02)

    def test_label_enforced(self):
        field = self.make_field(0.0)
        bad = RoiMask(np.ones((6, 8), dtype=bool), RoiLabel.OTHER)
        with pytest.raises(WrongKind):
            background_correct(field, bad)

    def test_phase_input_is_refused(self):
        # the offset and the moments are in cm/s; phase frames are not
        phase = VelocitySeries(make_header(n_frames=10), np.zeros((10, 6, 8)))
        with pytest.raises(WrongEncoding):
            background_correct(phase, self.static())

    def test_unstable_tissue_warns(self):
        field = self.make_field(0.0)
        pix = np.zeros((6, 8), dtype=bool)
        pix[2, 2] = True  # the pulsatile pixel, sd >> venc/10
        pix[4, 4] = True
        with pytest.warns(StaticTissueWarning) as record:
            background_correct(field, RoiMask(pix, RoiLabel.STATIC_TISSUE))
        # the warning names the caller of background_correct
        assert [w.filename for w in record] == [__file__]


class TestStaticLattice:
    """The offset's pixels. The moment pass reads exactly the static pixels
    whose values span more than 0.2 venc, on the lattice or off it: they
    alone can be unwrapped or raise the warning. The mean fold reads
    exactly the lattice static[::k, ::k] of at least _LATTICE static
    pixels, over the lattice rows and columns that hold one, and the
    offset takes its means of the other, quiet, static pixels alone."""

    @staticmethod
    def static(size):
        base = default_aqueduct_spec()
        return static_mask(replace(
            base, grid=replace(base.grid, width=size, height=size),
            lumen=replace(base.lumen, center_row=size / 2, center_col=size / 2)))

    @staticmethod
    def reads(monkeypatch, quiet=None):
        """The pixel grids of every moment pass and every mean fold that
        static_offset makes, a fold's grid holding every pixel it reads.
        When the grid quiet is given, each fold returns NaN for the pixels
        it reads outside quiet, so an offset that took any of those means
        is NaN."""
        reads = {"moments": [], "means": []}
        moments, fold = velocity.pixel_moments, velocity._lattice_means

        def spy_moments(series, pixels, *args, **kwargs):
            reads["moments"].append(pixels.copy())
            return moments(series, pixels, *args, **kwargs)

        def spy_fold(series, rows, cols):
            reads["means"].append(TestStaticLattice.lattice(series.frames.shape[1:], rows, cols))
            means = fold(series, rows, cols)
            if quiet is not None:
                means[~quiet[rows, cols]] = np.nan
            return means

        monkeypatch.setattr(velocity, "pixel_moments", spy_moments)
        monkeypatch.setattr(velocity, "_lattice_means", spy_fold)
        return reads

    @staticmethod
    def still(size, venc=10.0, encoding=Encoding.VELOCITY_CMPS, n_frames=2):
        return VelocitySeries(make_header(venc=venc, n_frames=n_frames, w=size, h=size,
                                          encoding=encoding),
                              np.zeros((n_frames, size, size), dtype=np.float32))

    @staticmethod
    def lattice(shape, rows, cols):
        """The grid of shape holding the lattice [rows, cols]."""
        grid = np.zeros(shape, dtype=bool)
        grid[rows, cols] = True
        return grid

    @staticmethod
    def assert_reads(reads, moments, means):
        """reads holds one moment pass of moments, none when it is None, and
        one mean fold of means, each as exactly that pixel grid."""
        assert len(reads["moments"]) == (moments is not None)
        if moments is not None:
            assert np.array_equal(reads["moments"][0], moments)
        assert len(reads["means"]) == 1 and np.array_equal(reads["means"][0], means)

    def test_default_mask_is_its_own_lattice(self, monkeypatch):
        static = self.static(64).pixels
        assert np.count_nonzero(static[::2, ::2]) < velocity._LATTICE
        # the mask's corners: its lattice rows and columns are the grid's
        assert static[0, 0] and static[-1, -1]
        series = self.still(64)
        # two static pixels, and one pixel off the mask, span 0.3 venc
        loud = np.zeros_like(static)
        rows, cols = np.nonzero(static)
        loud[rows[[0, -1]], cols[[0, -1]]] = True
        series.frames[1, loud] = 3.0
        series.frames[1, 32, 32] = 3.0
        assert not static[32, 32]
        reads = self.reads(monkeypatch, quiet=static & ~loud)
        with pytest.warns(StaticTissueWarning):
            offset = velocity.static_offset(series, RoiMask(static, RoiLabel.STATIC_TISSUE))
        self.assert_reads(reads, loud, np.ones_like(static))
        # the two loud pixels' means, 1.5 each, from their moments
        assert offset == 3.0 / np.count_nonzero(static)

    def test_192_grid_takes_every_fourth_row_and_column(self, monkeypatch):
        static = self.static(192).pixels
        reads = self.reads(monkeypatch, quiet=static)
        # a still series: no pixel spans anything, so no moment pass is made
        offset = velocity.static_offset(self.still(192), RoiMask(static, RoiLabel.STATIC_TISSUE))
        self.assert_reads(reads, None, self.lattice(static.shape, np.s_[::4], np.s_[::4]))
        assert offset == 0.0
        assert np.count_nonzero(static[::4, ::4]) >= velocity._LATTICE
        assert np.count_nonzero(static[::8, ::8]) < velocity._LATTICE

    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_pixels_spanning_a_fifth_of_venc_join(self, encoding, monkeypatch):
        # a 128x128 mask has a stride-2 lattice; (1, 1), (1, 3) and (3, 1)
        # lie off it and span 0.2, 0.19 and 0.21 venc, and (0, 2), (2, 0)
        # and (2, 2) lie on it and span 0.21, 0.19 and 0.2 venc
        venc = 5.0
        to_stored = np.pi / venc if encoding is Encoding.PHASE_RADIANS else 1.0
        series = self.still(128, venc, encoding, n_frames=3)
        spans = {(1, 1): 0.2, (1, 3): 0.19, (3, 1): 0.21, (0, 2): 0.21, (2, 0): 0.19,
                 (2, 2): 0.2}
        for frame, ((row, col), f) in enumerate(spans.items()):
            series.frames[1 + frame % 2, row, col] = np.float32(f * venc * to_stored)
        loud = np.zeros((128, 128), dtype=bool)
        loud[1, 1] = loud[3, 1] = loud[0, 2] = loud[2, 2] = True
        static = RoiMask(np.ones((128, 128), dtype=bool), RoiLabel.STATIC_TISSUE)
        expected, _ = whole_mask_rule(series, static, 0)
        reads = self.reads(monkeypatch, quiet=~loud)
        offset = velocity.static_offset(series, static)
        lattice = self.lattice((128, 128), np.s_[::2], np.s_[::2])
        assert np.count_nonzero(lattice) == 64 * 64
        self.assert_reads(reads, loud, lattice)
        assert np.float64(offset).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("encoding", list(Encoding))
    @pytest.mark.parametrize("size, top, left, bottom, right, ring, k", [
        (64, 10, 20, 31, 51, 4, 1), (192, 31, 51, 191, 181, 20, 2), (192, 1, 3, 150, 4, 1, 1),
    ], ids=["ring", "stride-2-ring", "column"])
    def test_fold_reads_the_lattice_rows_and_columns_of_the_mask(
            self, encoding, size, top, left, bottom, right, ring, k, monkeypatch):
        """A ring of static pixels, ring wide, away from the grid's edges:
        the fold reads the lattice's rows and columns from the first that
        holds a static pixel to the last, the ring's hole included, and
        the offset takes only the quiet static pixels' means from it."""
        static = np.zeros((size, size), dtype=bool)
        static[top:bottom, left:right] = True
        static[top + ring : bottom - ring, left + ring : right - ring] = False
        rng = np.random.default_rng(size + top)
        kinds = rng.choice(QUIET + LOUD, (size, size),
                           p=[0.7, 0.1, 0.05, 0.05, 0.03, 0.02, 0.03, 0.02])
        series = scan_series(kinds, 70, encoding, size * top)
        mask = RoiMask(static, RoiLabel.STATIC_TISSUE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected, _ = whole_mask_rule(series, mask, 0)
            reads = self.reads(monkeypatch, quiet=static & ~np.isin(kinds, LOUD))
            offset = velocity.static_offset(series, mask)
        rows = np.s_[top + -top % k : bottom : k]
        cols = np.s_[left + -left % k : right : k]
        assert np.count_nonzero(static[:: 2 * k, :: 2 * k]) < velocity._LATTICE
        assert k == 1 or np.count_nonzero(static[::k, ::k]) >= velocity._LATTICE
        self.assert_reads(reads, static & np.isin(kinds, LOUD),
                          self.lattice(static.shape, rows, cols))
        assert np.float64(offset).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("anchor", [-1, 5, 100000])
    def test_anchor_refused_before_any_pass(self, anchor, monkeypatch):
        # every pixel is quiet, so no pass would meet the anchor on its own
        passes = []
        for name in ("_spans", "_lattice_means", "pixel_moments", "_unwrapped", "_converted"):
            monkeypatch.setattr(velocity, name,
                                lambda *args, name=name, **kwargs: passes.append(name))
        static = RoiMask(np.ones((64, 64), dtype=bool), RoiLabel.STATIC_TISSUE)
        with pytest.raises(ValueOutOfRange, match=f"anchor frame {anchor} outside 0..4"):
            velocity.static_offset(self.still(64, n_frames=5), static, anchor)
        assert passes == []


def whole_mask_rule(series, static, anchor):
    """The offset and the warnings of static_offset from the moments of the
    whole mask: the mean, in row-major order, of pixel_moments(series,
    mask).mean over the lattice static[::k, ::k] with k the largest power
    of two that keeps _LATTICE pixels, and a warning quoting the worst
    pixel's temporal SD when it tops 10% of venc."""
    mask, venc = static.pixels, series.header.venc
    k = 1
    while np.count_nonzero(mask[:: 2 * k, :: 2 * k]) >= velocity._LATTICE:
        k *= 2
    lattice = np.zeros_like(mask)
    lattice[::k, ::k] = mask[::k, ::k]
    moments = pixel_moments(series, mask, anchor=anchor)
    worst_sd = np.sqrt(moments.m2.max() / moments.n_frames)
    messages = [f"static mask pixel varies by {worst_sd:.3g} cm/s over time "
                f"(> 10% of venc {venc:g}); offset may be biased"]
    return float(moments.mean[lattice[mask]].mean()), messages if worst_sd > 0.1 * venc else []


#: time courses of a static pixel, in units of venc around its own level:
#: quiet ones span at most 0.2 venc, loud ones more
QUIET = ("quiet", "constant", "edge-0.19")
LOUD = ("loud", "loud-small", "wrapping", "edge-0.2", "edge-0.21")


def scan_series(kinds, n_frames, encoding, seed):
    """A float32 series at venc 5 whose pixels follow the time courses that
    kinds (a grid of names from QUIET and LOUD) names, each around a level
    of its own: "wrapping" steps beyond venc, "loud" has an SD above 10% of
    venc, "loud-small" spans more than 0.2 venc with an SD below 10%, and
    "edge-f" steps between two values f venc apart."""
    venc, (h, w) = 5.0, kinds.shape
    rng = np.random.default_rng(seed)
    level = rng.uniform(-0.5, 0.5, (h, w))
    v = np.empty((n_frames, h, w))
    for r, c in np.ndindex(h, w):
        kind = kinds[r, c]
        if kind == "quiet":
            course = level[r, c] + rng.uniform(-0.09, 0.09, n_frames)
        elif kind == "constant":
            course = np.full(n_frames, level[r, c])
        elif kind == "loud":
            course = 0.3 * level[r, c] + rng.uniform(-0.4, 0.4, n_frames)
        elif kind == "loud-small":
            course = level[r, c] + rng.uniform(-0.13, 0.13, n_frames)
        elif kind == "wrapping":
            course = rng.uniform(-0.95, 0.95, n_frames)
        else:
            f = float(kind.split("-")[1])
            course = level[r, c] + f * (rng.random(n_frames) < 0.5)
            course[:2] = level[r, c], level[r, c] + f
        v[:, r, c] = course * venc
    to_stored = np.pi / venc if encoding is Encoding.PHASE_RADIANS else 1.0
    header = make_header(venc=venc, n_frames=n_frames, w=w, h=h, encoding=encoding)
    return VelocitySeries(header, (v * to_stored).astype(np.float32))


def scan_case(name, rng):
    """(kinds, static mask, quiet lattice pixels, loud pixels) of one layout;
    the pixel counts are None where the layout leaves them to chance."""
    if name == "lone-quiet":
        kinds = np.array([["quiet", "wrapping"], ["loud", "constant"]], dtype=object)
        static = np.array([[True, False], [False, False]])
        return kinds, static, 1, 0
    if name == "lone-each":
        kinds = np.array([["quiet", "wrapping"], ["loud", "constant"]], dtype=object)
        static = np.array([[True, True], [False, False]])
        return kinds, static, 1, 1
    if name.startswith("blocks-"):
        # 1023, 1024 or 1025 pixels in each pass: the last block is short,
        # full, or a lone pixel
        q, loud = (int(part) for part in name.split("-")[1:])
        kinds = np.empty((48, 48), dtype=object)
        order = rng.permutation(48 * 48)
        kinds.flat[order[:q]] = rng.choice(QUIET, q)
        kinds.flat[order[q : q + loud]] = rng.choice(LOUD, loud)
        kinds.flat[order[q + loud :]] = rng.choice(QUIET + LOUD, order.size - q - loud)
        static = np.zeros((48, 48), dtype=bool)
        static.flat[order[: q + loud]] = True
        return kinds, static, q, loud
    # a 96x96 mask reads a stride-2 lattice; loud, wrapping and constant
    # pixels fall on it and off it. "quiet-only" holds no loud pixel, and
    # "no-warning" only loud pixels whose SD stays under 10% of venc
    static = np.ones((96, 96), dtype=bool)
    if name == "quiet-only":
        return rng.choice(QUIET, (96, 96)), static, None, 0
    if name == "no-warning":
        return rng.choice(QUIET + ("loud-small",), (96, 96)), static, None, None
    kinds = rng.choice(QUIET + LOUD, (96, 96), p=[0.5, 0.1, 0.05, 0.1, 0.1, 0.05, 0.05, 0.05])
    return kinds, static, None, None


@pytest.mark.parametrize("n_frames", [65, 130])
@pytest.mark.parametrize("anchor", [0, 37])
@pytest.mark.parametrize("encoding", list(Encoding))
@pytest.mark.parametrize("name", ["lone-quiet", "lone-each", "blocks-1023-1025",
                                  "blocks-1024-1024", "blocks-1025-1023", "lattice",
                                  "quiet-only", "no-warning"])
def test_static_offset_is_the_whole_mask_rule(name, encoding, anchor, n_frames, monkeypatch):
    """static_offset gives, to the bit and with the same warning text, the
    rule it had when the moment pass read the whole mask, over a seeded
    scan of static time courses, block sizes, encodings, anchors and frame
    counts that are not a multiple of the 64-frame chunk. It does so at
    the default _BLOCK_VALUES and at budgets that cut the mean fold's
    lattices of 48 rows of 48 into blocks of 5 rows and a last of 3, and
    into single rows."""
    rng = np.random.default_rng(zlib.crc32(f"{name} {encoding.value} {anchor} {n_frames}".encode()))
    kinds, mask, n_quiet, n_loud = scan_case(name, rng)
    series = scan_series(kinds, n_frames, encoding, int(rng.integers(2**32)))
    static = RoiMask(mask, RoiLabel.STATIC_TISSUE)
    expected, theirs = whole_mask_rule(series, static, anchor)
    assert bool(theirs) == (name not in ("lone-quiet", "quiet-only", "no-warning"))
    loud = mask & np.isin(kinds, LOUD)
    for budget in (velocity._BLOCK_VALUES, 5 * 64 * 48, 64 * 48 - 1):
        with monkeypatch.context() as patch:
            patch.setattr(velocity, "_BLOCK_VALUES", budget)
            reads = TestStaticLattice.reads(patch, quiet=mask & ~loud)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                offset = velocity.static_offset(series, static, anchor)
        messages = [str(w.message) for w in caught if issubclass(w.category, StaticTissueWarning)]
        assert np.float64(offset).tobytes() == np.float64(expected).tobytes()
        assert messages == theirs

        (lattice,) = reads["means"]
        assert len(reads["moments"]) == loud.any()
        assert not loud.any() or np.array_equal(reads["moments"][0], loud)
        assert n_quiet is None or np.count_nonzero(lattice & mask & ~loud) == n_quiet
        assert n_loud is None or np.count_nonzero(loud) == n_loud
        if name == "lattice":
            stride_2 = np.zeros_like(mask)
            stride_2[::2, ::2] = True
            assert np.array_equal(lattice, stride_2)
            assert (loud & lattice).any() and (loud & ~lattice).any()
            wrapping = mask & (kinds == "wrapping")
            assert (wrapping & lattice).any() and (wrapping & ~lattice).any()


@pytest.mark.parametrize("n_frames", [1, 2, 63, 64, 65, 130])
@pytest.mark.parametrize("size", [1, 16, 24, 128])
@pytest.mark.parametrize("encoding", list(Encoding))
def test_spans_are_max_minus_min_over_every_frame(encoding, size, n_frames):
    """The span pass folds the frames of each band of rows in blocks of
    about _BLOCK_VALUES values: at the default 16k, 64 frames of a 16x16
    grid, 28 of 24x24 and one of 128x128, each grid one band; at 1000,
    bands of 7 rows of 128 (the last of 2) and 3 frames of 16x16. Each
    pixel's extremes fall on frames spread over the series, so a block
    skipped or cut short changes some span, and the spans come a row at a
    time, every row of the grid once, in order."""
    rng = np.random.default_rng(size * 1000 + n_frames)
    frames = rng.uniform(-3.0, 3.0, (n_frames, size, size)).astype(np.float32)
    series = VelocitySeries(make_header(n_frames=n_frames, w=size, h=size, encoding=encoding),
                            frames)
    scale = 10.0 / np.pi if encoding is Encoding.PHASE_RADIANS else 1.0
    expected = (frames.max(axis=0).astype(np.float64) - frames.min(axis=0)) * scale
    for budget in (1 << 14, 1000):
        with mock.patch.object(velocity, "_BLOCK_VALUES", budget):
            rows = [(row, spans.copy()) for row, spans in velocity._spans(series)]
        assert [row for row, _ in rows] == list(range(size))
        spans = np.stack([spans for _, spans in rows])
        assert spans.dtype == np.float64 and spans.tobytes() == expected.tobytes()
