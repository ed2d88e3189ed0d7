"""Phase-to-velocity conversion, temporal unwrapping of aliased
velocities, and static-tissue background offset removal.

Velocity maps are a VelocitySeries with VELOCITY_CMPS encoding and
float64 frames. Every function here returns a new series and leaves its
input unchanged. Each works on every pixel's time course on its own, so a
subset of the grid gets the same values, to the bit, as the same pixels
of the whole grid. The pipeline relies on that: it takes the static
offset from the static-mask pixels alone (gathered by ``static_pixels``)
and computes velocities only for the flow ROI's bounding box, or for the
whole grid when ROI refinement must correlate every pixel.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .errors import ValueOutOfRange, WrongEncoding, WrongKind
from .ingest import (
    Encoding,
    RoiLabel,
    RoiMask,
    VelocitySeries,
    ensure_same_grid,
)


#: frames per step of unwrap_temporal's scan for wrapped pixels
_DIFF_CHUNK = 64


class StaticTissueWarning(UserWarning):
    """The supplied static-tissue mask does not look static."""


def phase_to_velocity(series: VelocitySeries) -> VelocitySeries:
    """Scale phase maps into velocity maps: v = (phi / pi) * venc.

    Phase lives in [-pi, pi), so converted velocities lie in [-venc, venc).
    Values that truly exceeded venc arrive aliased; unwrap_temporal deals
    with those afterwards.
    """
    if series.header.encoding is not Encoding.PHASE_RADIANS:
        raise WrongEncoding(
            f"expected PHASE_RADIANS input, got {series.header.encoding.value}"
        )
    v = series.frames.astype(np.float64)
    v *= series.header.venc / np.pi
    return VelocitySeries(replace(series.header, encoding=Encoding.VELOCITY_CMPS), v)


def as_velocity_field(series: VelocitySeries) -> VelocitySeries:
    """Adopt an already velocity-encoded series (e.g. a gated product) as
    float64 velocity maps."""
    if series.header.encoding is not Encoding.VELOCITY_CMPS:
        raise WrongEncoding(
            f"expected VELOCITY_CMPS input, got {series.header.encoding.value}"
        )
    return VelocitySeries(series.header, series.frames.astype(np.float64))


def unwrap_temporal(series: VelocitySeries, anchor: int = 0) -> VelocitySeries:
    """Undo phase-wrap aliasing by scanning each pixel in time.

    Whenever the frame-to-frame jump exceeds venc, a multiple of 2*venc is
    subtracted (or added) from that frame onward so the corrected jump
    falls within [-venc, venc]. The anchor frame is trusted as unaliased;
    frames before it are corrected by the same rule scanned backwards.

    Total function: applying it to clean data is the identity, and it is
    idempotent. A velocity that is constantly aliased (no jump ever) is
    left as is; that ambiguity cannot be resolved from one series.
    """
    n = series.header.n_frames
    if not 0 <= anchor < n:
        raise ValueOutOfRange(f"anchor frame {anchor} outside 0..{n - 1}")
    venc = series.header.venc
    v = series.frames
    # pixels with any jump beyond venc, found a chunk of frames at a time
    # so that no full-size diff is built
    wrapped = np.zeros(v.shape[1:], dtype=bool)
    for start in range(0, n - 1, _DIFF_CHUNK):
        steps = np.diff(v[start : start + _DIFF_CHUNK + 1], axis=0)
        wrapped |= (np.abs(steps) > venc).any(axis=0)
    # any other pixel would only gain an offset of -0.0, which keeps its bits
    out = v.astype(np.float64, order="K")
    if wrapped.any():
        w = v[:, wrapped]
        d = np.diff(w, axis=0)
        # wrap count per step; 0 whenever |jump| <= venc
        k = np.zeros_like(d)
        jumps = (d > venc) | (d < -venc)
        k[jumps] = np.sign(d[jumps]) * np.ceil((np.abs(d[jumps]) - venc) / (2.0 * venc))
        cum = np.concatenate([np.zeros((1, w.shape[1])), np.cumsum(k, axis=0)], axis=0)
        offsets = -2.0 * venc * (cum - cum[anchor])
        out[:, wrapped] = w + offsets
    return VelocitySeries(series.header, out)


def static_pixels(series: VelocitySeries, static_mask: RoiMask) -> VelocitySeries:
    """The static-mask pixels of series as a 1 x n strip, in mask order.

    The strip keeps the layout numpy gives ``frames[:, mask]``, so a
    mean over it sums the values in the same order, and to the same
    bits, as a mean over the same pixels gathered from the whole grid.
    """
    if static_mask.label is not RoiLabel.STATIC_TISSUE:
        raise WrongKind(
            f"background correction needs a STATIC_TISSUE mask, got "
            f"{static_mask.label.value}"
        )
    ensure_same_grid(static_mask, series.header)
    pix = series.frames[:, static_mask.pixels]
    return VelocitySeries(replace(series.header, height=1, width=pix.shape[1]), pix[:, None, :])


def background_correct(
    series: VelocitySeries, static: RoiMask | VelocitySeries
) -> tuple[VelocitySeries, float]:
    """Subtract the global static-tissue offset; returns (series, offset).

    ``static`` is the STATIC_TISSUE mask on the grid of series, or the
    static pixels' velocities already gathered by static_pixels; the
    pipeline passes the latter, so that series need only hold the pixels
    whose velocities are kept.

    The offset is one scalar, the mean velocity over static pixels and
    over all frames. Per-frame subtraction would remove the real
    respiratory modulation, so it is deliberately not done here.

    Warns with StaticTissueWarning when any static pixel's temporal
    standard deviation exceeds 10% of venc, which usually means the mask
    leaks into moving fluid.
    """
    if isinstance(static, RoiMask):
        static = static_pixels(series, static)
    pix = static.frames
    offset = float(pix.mean())
    worst_sd = float(pix.std(axis=0).max())
    if worst_sd > 0.1 * static.header.venc:
        warnings.warn(
            f"static mask pixel varies by {worst_sd:.3g} cm/s over time "
            f"(> 10% of venc {static.header.venc:g}); offset may be biased",
            StaticTissueWarning,
            stacklevel=2,
        )
    return VelocitySeries(series.header, series.frames - offset), offset
