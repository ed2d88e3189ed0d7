"""Phase-to-velocity conversion, temporal unwrapping of aliased
velocities, and static-tissue background offset removal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, ValueOutOfRange, WrongEncoding, WrongKind
from .ingest import (
    Encoding,
    RoiLabel,
    RoiMask,
    SeriesHeader,
    VelocitySeries,
    ensure_same_grid,
)


class StaticTissueWarning(UserWarning):
    """The supplied static-tissue mask does not look static."""


@dataclass
class VelocityField:
    """Velocity maps in cm/s.

    frames are float64, shape (n_frames, height, width), all finite.
    unwrap_temporal and background_correct each return a new field and
    leave their input unchanged.
    """

    header: SeriesHeader
    frames: np.ndarray

    def __post_init__(self):
        expected = (self.header.n_frames, self.header.height, self.header.width)
        if self.frames.shape != expected:
            raise DimensionMismatch(
                f"frames shape {self.frames.shape} != header geometry {expected}"
            )
        self.frames = np.ascontiguousarray(self.frames, dtype=np.float64)
        if not np.all(np.isfinite(self.frames)):
            raise ValueOutOfRange("velocity frames contain non-finite values")
        if self.header.encoding is not Encoding.VELOCITY_CMPS:
            object.__setattr__(
                self, "header", replace(self.header, encoding=Encoding.VELOCITY_CMPS)
            )

    @property
    def timestamps(self) -> np.ndarray:
        return self.header.timestamps()


def phase_to_velocity(series: VelocitySeries) -> VelocityField:
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
    return VelocityField(header=series.header, frames=v)


def as_velocity_field(series: VelocitySeries) -> VelocityField:
    """Adopt an already velocity-encoded series (e.g. a gated product)."""
    if series.header.encoding is not Encoding.VELOCITY_CMPS:
        raise WrongEncoding(
            f"expected VELOCITY_CMPS input, got {series.header.encoding.value}"
        )
    return VelocityField(header=series.header, frames=series.frames.astype(np.float64))


def field_to_series(field: VelocityField) -> VelocitySeries:
    """Downcast a field to a storable float32 series."""
    return VelocitySeries(
        header=field.header, frames=field.frames.astype(np.float32)
    )


def unwrap_temporal(field: VelocityField, anchor: int = 0) -> VelocityField:
    """Undo phase-wrap aliasing by scanning each pixel in time.

    Whenever the frame-to-frame jump exceeds venc, a multiple of 2*venc is
    subtracted (or added) from that frame onward so the corrected jump
    falls within [-venc, venc]. The anchor frame is trusted as unaliased;
    frames before it are corrected by the same rule scanned backwards.

    Total function: applying it to clean data is the identity, and it is
    idempotent. A velocity that is constantly aliased (no jump ever) is
    left as is; that ambiguity cannot be resolved from one series.
    """
    n = field.header.n_frames
    if not 0 <= anchor < n:
        raise ValueOutOfRange(f"anchor frame {anchor} outside 0..{n - 1}")
    venc = field.header.venc
    v = field.frames
    if n == 1:
        return VelocityField(header=field.header, frames=v.copy())
    d = np.diff(v, axis=0)
    # wrap count per step; 0 whenever |jump| <= venc
    k = np.zeros_like(d)
    up = d > venc
    down = d < -venc
    k[up] = np.ceil((d[up] - venc) / (2.0 * venc))
    k[down] = -np.ceil((-d[down] - venc) / (2.0 * venc))
    cum = np.concatenate([np.zeros((1,) + v.shape[1:]), np.cumsum(k, axis=0)], axis=0)
    offsets = -2.0 * venc * (cum - cum[anchor])
    return VelocityField(header=field.header, frames=v + offsets)


def background_correct(
    field: VelocityField, static_mask: RoiMask
) -> tuple[VelocityField, float]:
    """Subtract the global static-tissue offset; returns (field, offset).

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
    ensure_same_grid(static_mask, field.header)
    pix = field.frames[:, static_mask.pixels]
    offset = float(pix.mean())
    worst_sd = float(pix.std(axis=0).max())
    if worst_sd > 0.1 * field.header.venc:
        warnings.warn(
            f"static mask pixel varies by {worst_sd:.3g} cm/s over time "
            f"(> 10% of venc {field.header.venc:g}); offset may be biased",
            StaticTissueWarning,
            stacklevel=2,
        )
    return VelocityField(header=field.header, frames=field.frames - offset), offset
