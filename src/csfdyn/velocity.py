"""Phase-to-velocity conversion, temporal unwrapping of aliased
velocities, and static-tissue background offset removal.

Velocity maps are a VelocitySeries with VELOCITY_CMPS encoding and
float64 frames. Every function here returns a new series and leaves its
input unchanged.
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
    v = series.frames.astype(np.float64) * (series.header.venc / np.pi)
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
    d = np.diff(v, axis=0)
    # wrap count per step; 0 whenever |jump| <= venc
    k = np.zeros_like(d)
    jumps = (d > venc) | (d < -venc)
    k[jumps] = np.sign(d[jumps]) * np.ceil((np.abs(d[jumps]) - venc) / (2.0 * venc))
    cum = np.concatenate([np.zeros((1,) + v.shape[1:]), np.cumsum(k, axis=0)], axis=0)
    offsets = -2.0 * venc * (cum - cum[anchor])
    return VelocitySeries(series.header, v + offsets)


def background_correct(
    series: VelocitySeries, static_mask: RoiMask
) -> tuple[VelocitySeries, float]:
    """Subtract the global static-tissue offset; returns (series, offset).

    The offset is one scalar, the mean velocity over static-mask pixels
    and over all frames. Per-frame subtraction would remove the real
    respiratory modulation, so it is deliberately not done here.

    Warns with StaticTissueWarning when any masked pixel's temporal
    standard deviation exceeds 10% of venc, which usually means the mask
    leaks into moving fluid.
    """
    if static_mask.label is not RoiLabel.STATIC_TISSUE:
        raise WrongKind(
            f"background correction needs a STATIC_TISSUE mask, got "
            f"{static_mask.label.value}"
        )
    ensure_same_grid(static_mask, series.header)
    pix = series.frames[:, static_mask.pixels]
    offset = float(pix.mean())
    worst_sd = float(pix.std(axis=0).max())
    if worst_sd > 0.1 * series.header.venc:
        warnings.warn(
            f"static mask pixel varies by {worst_sd:.3g} cm/s over time "
            f"(> 10% of venc {series.header.venc:g}); offset may be biased",
            StaticTissueWarning,
            stacklevel=2,
        )
    return VelocitySeries(series.header, series.frames - offset), offset
