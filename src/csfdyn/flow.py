"""ROI flow extraction: velocity maps in, flow waveform Q(t) out; or, in
the pipeline, the series in and the same flow out, summed from its
streamed velocity blocks with no velocity map built.

Positive flow is the systolic flush direction (craniocaudal). Units:
velocity cm/s, pixel area mm^2, flow mL/s; the 0.01 factor converts
mm^2 * cm/s to mL/s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import DimensionMismatch, InvalidThreshold, NoCorrelatedRegion
from .ingest import RoiLabel, RoiMask, VelocitySeries, ensure_same_grid
from .velocity import PixelMoments, add_columns, pixel_sums

#: ndimage structure for 8-connectivity, used by refine_roi and the pipeline's box test
EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


@dataclass
class FlowSamples:
    """Flow waveform over the original frame clock.

    timestamps ms (strictly increasing), q mL/s, pixel_area mm^2.
    """

    timestamps: np.ndarray
    q: np.ndarray
    roi_label: RoiLabel
    pixel_area: float
    n_roi_pixels: int

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.q = np.asarray(self.q, dtype=np.float64)
        if self.timestamps.shape != self.q.shape or self.timestamps.ndim != 1:
            raise ValueError("timestamps and q must be 1D and the same length")
        if not np.all(np.diff(self.timestamps) > 0):
            raise ValueError("timestamps must be strictly increasing")


def _samples(series: VelocitySeries, roi: RoiMask, sums: np.ndarray) -> FlowSamples:
    """The flow of per-frame velocity sums over roi."""
    area = series.header.pixel_area
    return FlowSamples(
        timestamps=series.timestamps,
        q=sums * (area * 0.01),
        roi_label=roi.label,
        pixel_area=area,
        n_roi_pixels=roi.n_pixels,
    )


def extract_flow(series: VelocitySeries, roi: RoiMask) -> FlowSamples:
    """Integrate velocity over the ROI per frame.

    q(t) = sum over ROI pixels of v_i(t) * pixel_area * 0.01  [mL/s]

    The sum adds the ROI's pixels one after another in row-major order
    (velocity.add_columns). The velocity maps should be background
    corrected first; an uncorrected offset turns into a spurious constant
    flow of n_pixels * area * offset / 100.
    """
    ensure_same_grid(roi, series.header)
    return _samples(series, roi, add_columns(series.frames[:, roi.pixels]))


def streamed_flow(
    series: VelocitySeries,
    roi: RoiMask,
    anchor: int = 0,
    offset: float | None = None,
) -> FlowSamples:
    """extract_flow, to the bit, of the series' velocity maps at the anchor
    frame, in its own sign (pipeline.prepare_velocity applies the
    convention), less offset when one is given, as background_correct
    leaves them. Summed as the streamed blocks come (velocity.pixel_sums)."""
    ensure_same_grid(roi, series.header)
    return _samples(series, roi, pixel_sums(series, roi.pixels, anchor, offset))


def _centred_mean(sums: np.ndarray, n_pixels: int) -> np.ndarray:
    ref = sums / n_pixels
    return ref - ref.mean()


def seed_reference(series: VelocitySeries, seed: RoiMask) -> np.ndarray:
    """The seed pixels' mean velocity time course, centred: the reference
    refine_roi correlates every pixel against."""
    ensure_same_grid(seed, series.header)
    return _centred_mean(add_columns(series.frames[:, seed.pixels]), seed.n_pixels)


def streamed_seed_reference(series: VelocitySeries, seed: RoiMask, anchor: int = 0) -> np.ndarray:
    """seed_reference, to the bit, of the series' velocity maps at the
    anchor frame (in its own sign, under which refinement correlates the
    same), from the seed pixels' streamed sums (velocity.pixel_sums)."""
    ensure_same_grid(seed, series.header)
    return _centred_mean(pixel_sums(series, seed.pixels, anchor), seed.n_pixels)


def refine_roi(moments: PixelMoments, seed: RoiMask, threshold: float = 0.7) -> RoiMask:
    """Grow the seed into the set of pixels that pulse with it.

    Each pixel's velocity-versus-time profile is correlated (Pearson)
    against the seed's reference: r = cross / (|ref| sqrt(m2)), from the
    pixel's moments. moments are velocity.pixel_moments on the seed's grid
    (DimensionMismatch otherwise), taken with the seed's reference as ref
    (seed_reference of velocity maps, or streamed_seed_reference of the
    series); only the pixels they cover can join. The pipeline takes them
    for a box around the seed, grown until no kept pixel has a neighbour
    outside it, which gives the whole grid's result to the bit. Pixels at
    or above the threshold that are 8-connected to qualifying seed pixels
    form the refined mask. Constant-in-time pixels (m2 = 0) have no
    defined correlation and never qualify, which is what keeps static
    background out even at threshold 0.
    """
    if not 0.0 <= threshold <= 1.0:
        raise InvalidThreshold(f"correlation threshold must be in [0, 1], got {threshold}")
    if moments.pixels.shape != seed.pixels.shape:
        raise DimensionMismatch(
            f"mask grid {seed.height}x{seed.width} does not match moments grid "
            f"{moments.pixels.shape[0]}x{moments.pixels.shape[1]}"
        )
    ref_norm = float(np.sqrt((moments.ref**2).sum()))
    if ref_norm == 0.0 or moments.n_frames < 2:
        raise NoCorrelatedRegion("seed region has no temporal variation to correlate against")

    corr = np.full(moments.m2.shape, -2.0)
    np.divide(moments.cross, ref_norm * np.sqrt(moments.m2), out=corr, where=moments.m2 > 0.0)
    eligible = np.zeros(seed.pixels.shape, dtype=bool)
    eligible[moments.pixels] = corr >= threshold

    # 8-connected components of the eligible pixels; keep those holding
    # an eligible seed pixel (label 0 is the ineligible background)
    components, _ = ndimage.label(eligible, structure=EIGHT_CONNECTED)
    kept = components[seed.pixels & eligible]
    if kept.size == 0:
        raise NoCorrelatedRegion("no pixel met the correlation threshold")
    return RoiMask(pixels=np.isin(components, kept), label=seed.label)
