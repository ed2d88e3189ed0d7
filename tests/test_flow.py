"""ROI flow extraction and correlation-based ROI refinement."""

import numpy as np
import pytest
from scipy import ndimage

from csfdyn import (
    Encoding,
    FlowSamples,
    PipelineParams,
    RoiLabel,
    RoiMask,
    SeriesHeader,
    VelocitySeries,
    as_velocity_field,
    extract_flow,
    refine_roi,
)
from csfdyn.errors import DimensionMismatch, InvalidThreshold
from csfdyn.flow import seed_reference
from csfdyn.pipeline import prepare_velocity
from csfdyn.velocity import pixel_moments


def make_field(frames, spacing=1.2):
    n, h, w = frames.shape
    hd = SeriesHeader(
        width=w, height=h, n_frames=n,
        pixel_spacing_x=spacing, pixel_spacing_y=spacing, slice_thickness=4.0,
        venc=10.0, frame_interval=88.0, encoding=Encoding.VELOCITY_CMPS,
    )
    return as_velocity_field(VelocitySeries(hd, np.asarray(frames, dtype=np.float64)))


def roi(h, w, rows, cols, label=RoiLabel.AQUEDUCT):
    pix = np.zeros((h, w), dtype=bool)
    pix[rows, cols] = True
    return RoiMask(pix, label)


def refined(f, seed, threshold=0.7):
    """refine_roi of the whole grid's moments of the velocity maps f, taken
    with the seed's reference."""
    moments = pixel_moments(f, np.ones(seed.pixels.shape, dtype=bool),
                            ref=seed_reference(f, seed))
    return refine_roi(moments, seed, threshold)


class TestExtractFlow:
    def test_units_single_pixel(self):
        frames = np.zeros((3, 4, 4))
        frames[:, 1, 1] = [2.0, -3.0, 0.5]  # cm/s
        f = make_field(frames, spacing=1.5)
        flow = extract_flow(f, roi(4, 4, 1, 1))
        # 1 px * 2.25 mm^2 * cm/s * 0.01 = mL/s
        assert np.allclose(flow.q, np.array([2.0, -3.0, 0.5]) * 2.25 * 0.01)
        assert flow.n_roi_pixels == 1
        assert flow.pixel_area == pytest.approx(2.25)

    def test_additive_over_disjoint_rois(self, rng):
        frames = rng.normal(0, 3, (12, 8, 8))
        f = make_field(frames)
        a = roi(8, 8, slice(0, 3), slice(0, 8))
        b = roi(8, 8, slice(3, 8), slice(0, 8))
        both = roi(8, 8, slice(0, 8), slice(0, 8))
        qa = extract_flow(f, a).q
        qb = extract_flow(f, b).q
        qab = extract_flow(f, both).q
        assert np.max(np.abs(qa + qb - qab)) < 1e-12 * np.max(np.abs(qab))

    def test_timestamps_carried(self):
        frames = np.zeros((3, 4, 4))
        frames[:, 0, 0] = 1.0
        f = make_field(frames)
        flow = extract_flow(f, roi(4, 4, 0, 0))
        assert np.allclose(flow.timestamps, [0.0, 88.0, 176.0])

    @pytest.mark.parametrize("t", [[0.0, 88.0, 88.0, 176.0], [0.0, 176.0, 88.0, 264.0],
                                   [0.0, np.nan, 176.0, 264.0]])
    def test_timestamps_must_increase(self, t):
        with pytest.raises(ValueError, match="strictly increasing"):
            FlowSamples(timestamps=t, q=np.zeros(4), roi_label=RoiLabel.AQUEDUCT,
                        pixel_area=1.44, n_roi_pixels=9)

    def test_grid_mismatch(self):
        f = make_field(np.zeros((3, 4, 4)) + 0.1)
        with pytest.raises(DimensionMismatch):
            extract_flow(f, roi(4, 5, 0, 0))


class TestRefineRoi:
    def build(self):
        """3 correlated pixels around the seed, one correlated touching it
        only diagonally, one anticorrelated, one correlated but
        disconnected."""
        rng = np.random.default_rng(5)
        n = 60
        pulse = np.sin(np.linspace(0, 12 * np.pi, n))
        frames = rng.normal(0, 0.05, (n, 9, 9))
        for r, c in [(4, 4), (4, 5), (5, 4), (3, 3)]:
            frames[:, r, c] += pulse
        frames[:, 3, 4] -= pulse          # anticorrelated neighbor
        frames[:, 0, 8] += pulse          # far corner, not 8-connected
        return make_field(frames)

    def test_keeps_connected_correlated(self):
        f = self.build()
        out = refined(f, roi(9, 9, 4, 4), threshold=0.7)
        assert out.pixels[4, 4] and out.pixels[4, 5] and out.pixels[5, 4]
        assert out.pixels[3, 3]  # 8-connected through the corner
        assert not out.pixels[3, 4]
        assert not out.pixels[0, 8]
        assert out.label is RoiLabel.AQUEDUCT

    def test_threshold_validation(self):
        f = self.build()
        with pytest.raises(InvalidThreshold):
            refined(f, roi(9, 9, 4, 4), threshold=1.5)
        with pytest.raises(InvalidThreshold):
            refined(f, roi(9, 9, 4, 4), threshold=-0.1)

    def test_constant_pixels_never_qualify(self):
        # a dead (constant) pixel has undefined correlation; it must not
        # be swept into the region
        f = self.build()
        f.frames[:, 5, 5] = 2.0
        out = refined(f, roi(9, 9, 4, 4), threshold=0.5)
        assert not out.pixels[5, 5]

    def test_inexact_constant_pixels_never_qualify(self):
        # 0.1 summed over a chunk of frames does not divide back to 0.1, so
        # its centred squares are rounding noise; its m2 must still be 0, or
        # that noise would correlate with the seed at any value (of one
        # sign or the other, so the test holds one pixel of each)
        f = self.build()
        f.frames[:, 5, 5] = 0.1
        f.frames[:, 5, 3] = -0.1
        out = refined(f, roi(9, 9, 4, 4), threshold=0.0)
        assert not out.pixels[5, 5] and not out.pixels[5, 3]

    def test_moments_give_the_series_result(self):
        """The ROI refined from the moments is the one the series' frames
        give by definition: each pixel's Pearson r against the seed pixels'
        mean time course, thresholded, in the 8-connected parts that hold
        a qualifying seed pixel."""
        f = self.build()
        seed = roi(9, 9, 4, 4)
        v = f.frames.reshape(f.frames.shape[0], -1)
        mean = v[:, seed.pixels.ravel()].mean(axis=1)
        r = np.corrcoef(mean, v, rowvar=False)[0, 1:].reshape(9, 9)
        parts, _ = ndimage.label(r >= 0.7, structure=np.ones((3, 3), dtype=bool))
        expected = np.isin(parts, parts[seed.pixels & (r >= 0.7)])
        assert np.array_equal(refined(f, seed).pixels, expected)

    def test_moments_of_another_grid_are_refused(self):
        f = self.build()
        moments = pixel_moments(f, np.ones((9, 9), dtype=bool),
                                ref=seed_reference(f, roi(9, 9, 4, 4)))
        with pytest.raises(DimensionMismatch):
            refine_roi(moments, roi(8, 8, 4, 4))

    def test_seed_retained_when_nothing_correlates(self):
        rng = np.random.default_rng(11)
        f = make_field(rng.normal(0, 1, (40, 6, 6)))
        seed = roi(6, 6, 2, 2)
        out = refined(f, seed, threshold=0.99)
        # a pixel correlates perfectly with itself, so the seed survives
        assert out.pixels[2, 2]


def test_aliased_pixel_joins_after_unwrapping():
    """The pipeline correlates raw phase, which only works for pixels that
    do not wrap: a neighbour whose velocity exceeds venc arrives wrapped,
    anticorrelated with the seed, and must be unwrapped first."""
    n, venc = 300, 1.0
    rng = np.random.default_rng(2)
    pulse = np.sin(2 * np.pi * np.arange(n) / 30)
    v = rng.normal(0, 0.01, (n, 9, 9))
    v[:, 4, 4] += 0.8 * pulse
    v[:, 4, 5] += 1.8 * pulse
    phase = np.mod(v * np.pi / venc + np.pi, 2 * np.pi) - np.pi
    assert np.corrcoef(phase[:, 4, 4], phase[:, 4, 5])[0, 1] < 0
    header = SeriesHeader(
        width=9, height=9, n_frames=n, pixel_spacing_x=1.2, pixel_spacing_y=1.2,
        slice_thickness=4.0, venc=venc, frame_interval=88.0,
        encoding=Encoding.PHASE_RADIANS,
    )
    series = VelocitySeries(header, phase.astype(np.float32))
    _, refined, _ = prepare_velocity(series, roi(9, 9, 4, 4), None,
                                     PipelineParams(refine_threshold=0.9))
    assert np.argwhere(refined.pixels).tolist() == [[4, 4], [4, 5]]
