"""Phase-to-velocity conversion, temporal unwrapping of aliased
velocities, per-pixel moments over time, and static-tissue background
offset removal.

Velocity maps are a VelocitySeries with VELOCITY_CMPS encoding and
float64 frames. Every function here returns a new result and leaves its
input unchanged. Each works on every pixel's time course on its own, so a
subset of the grid gets the same values, to the bit, as the same pixels
of the whole grid.

The pipeline relies on that. It reads the float32 input once, in chunks
of 64 frames, through ``pixel_moments``: each pixel's mean, centred sum
of squares and (when refining the ROI) cross moment with the seed's
time course, of the velocities converted and unwrapped on the fly, with
no full-size array built. The unwrap carries each pixel's wrap count
from chunk to chunk; it counts wraps only in the pixels that step beyond
venc, and shifts only blocks that hold such a pixel or a carried count.
The static offset, the StaticTissueWarning and the refinement's
correlation map come from those moments; full velocity maps are
computed only for the bounding box of the final ROI.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValueOutOfRange, WrongEncoding, WrongKind
from .ingest import (
    Encoding,
    RoiLabel,
    RoiMask,
    SeriesHeader,
    VelocitySeries,
    ensure_same_grid,
)


#: frames per step of the streamed scans (unwrap_temporal, pixel_moments)
_CHUNK = 64
#: pixels per step of pixel_moments: a float64 block of _CHUNK frames is 2 MB
_BLOCK = 4096


class StaticTissueWarning(UserWarning):
    """The supplied static-tissue mask does not look static."""


def _to_cmps(header: SeriesHeader) -> float:
    """Factor from stored values to cm/s: venc/pi for phase, 1 for velocity."""
    return header.venc / np.pi if header.encoding is Encoding.PHASE_RADIANS else 1.0


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
    v *= _to_cmps(series.header)
    return VelocitySeries(replace(series.header, encoding=Encoding.VELOCITY_CMPS), v)


def as_velocity_field(series: VelocitySeries) -> VelocitySeries:
    """Adopt an already velocity-encoded series (e.g. a gated product) as
    float64 velocity maps."""
    if series.header.encoding is not Encoding.VELOCITY_CMPS:
        raise WrongEncoding(
            f"expected VELOCITY_CMPS input, got {series.header.encoding.value}"
        )
    return VelocitySeries(series.header, series.frames.astype(np.float64))


def _check_anchor(anchor: int, n: int) -> None:
    if not 0 <= anchor < n:
        raise ValueOutOfRange(f"anchor frame {anchor} outside 0..{n - 1}")


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
    n, venc = series.header.n_frames, series.header.venc
    _check_anchor(anchor, n)
    v = series.frames
    # pixels with any jump beyond venc, found a chunk of frames at a time
    # so that no full-size diff is built
    wrapped = np.zeros(v.shape[1:], dtype=bool)
    for start in range(0, n - 1, _CHUNK):
        steps = np.diff(v[start : start + _CHUNK + 1], axis=0)
        wrapped |= (np.abs(steps) > venc).any(axis=0)
    # any other pixel would only gain an offset of -0.0, which keeps its bits
    out = v.astype(np.float64, order="K")
    if wrapped.any():
        w = v[:, wrapped]
        k = _wrap_counts(np.diff(w, axis=0), venc)
        cum = np.concatenate([np.zeros((1, w.shape[1])), np.cumsum(k, axis=0)], axis=0)
        offsets = -2.0 * venc * (cum - cum[anchor])
        out[:, wrapped] = w + offsets
    return VelocitySeries(series.header, out)


def _wrap_counts(d: np.ndarray, venc: float) -> np.ndarray:
    """Wraps at each frame-to-frame step d: the signed number of 2*venc
    turns that bring d back within [-venc, venc], 0 wherever it lies so."""
    k = np.zeros_like(d)
    jumps = (d > venc) | (d < -venc)
    k[jumps] = np.sign(d[jumps]) * np.ceil((np.abs(d[jumps]) - venc) / (2.0 * venc))
    return k


@dataclass(frozen=True)
class PixelMoments:
    """Moments over time of the pixels a mask selects, one entry per pixel
    in row-major mask order.

    mean and m2 (the centred sum of squares) are in cm/s and (cm/s)^2;
    cross is the sum over frames of ref times the pixel, when a reference
    time course ref was given.
    """

    pixels: np.ndarray
    n_frames: int
    mean: np.ndarray
    m2: np.ndarray
    ref: np.ndarray | None = None
    cross: np.ndarray | None = None

    def subset(self, mask: np.ndarray) -> PixelMoments:
        """The moments of the pixels of mask, which must lie within pixels."""
        at = mask[self.pixels]
        return PixelMoments(mask, self.n_frames, self.mean[at], self.m2[at], self.ref,
                            None if self.cross is None else self.cross[at])


def pixel_moments(
    series: VelocitySeries,
    pixels: np.ndarray,
    flip_sign: bool = False,
    ref: np.ndarray | None = None,
    anchor: int = 0,
) -> PixelMoments:
    """Per-pixel moments, equal to the bit to those of the float64 series
    that phase_to_velocity (or as_velocity_field), negation when flip_sign
    is set, and unwrap_temporal(..., anchor) give, for the pixels that the
    boolean grid pixels selects.

    One pass over chunks of _CHUNK frames: each chunk is converted to
    float64 a block of pixels at a time and unwrapped, and its mean and
    centred sum of squares are merged into the running ones (Chan, Golub
    & LeVeque 1983). Each pixel's wraps since the anchor frame (counted
    first over frames 0..anchor) are carried from chunk to chunk; they
    are counted only in the pixels that step beyond venc, and a block is
    shifted only when it holds such a pixel or carried wraps. A pixel
    whose unwrapped velocity never changes gets m2 = 0 exactly. Every sum
    runs down one pixel's column in frame order, so a pixel's moments do
    not depend on which other pixels are in the call.
    """
    n, venc = series.header.n_frames, series.header.venc
    _check_anchor(anchor, n)
    scale = -_to_cmps(series.header) if flip_sign else _to_cmps(series.header)
    idx = np.flatnonzero(pixels)
    # last: each pixel's last frame so far, converted; prev: the same,
    # unwrapped; wraps: its wraps since the anchor frame at that frame
    mean, m2, cross, last, prev, wraps = (np.zeros(idx.size) for _ in range(6))
    varies = np.zeros(idx.size, dtype=bool)
    x = np.empty((_CHUNK, max(min(idx.size, _BLOCK), 2)))
    tmp = np.empty_like(x)

    def blocks(stop: int):
        """(start, at, xb, d, step) per block of pixels at and chunk of frames
        from start, before stop: velocities, steps and largest |step|."""
        for start in range(0, stop, _CHUNK):
            chunk = series.frames[start : min(start + _CHUNK, stop)]
            m = chunk.shape[0]
            chunk = chunk.reshape(m, -1)
            for b in range(0, idx.size, _BLOCK):
                cols = idx[b : b + _BLOCK]
                k = cols.size
                at = slice(b, b + k)
                # numpy sums a lone column pairwise but two or more columns frame
                # by frame, so a pixel alone in its block is summed as two columns
                cols = np.resize(cols, max(k, 2))
                contiguous = cols[-1] - cols[0] == cols.size - 1
                block = chunk[:, cols[0] : cols[-1] + 1] if contiguous else chunk[:, cols]
                xb, d = x[:m, : cols.size], tmp[:m, : cols.size]
                np.multiply(block, scale, out=xb, dtype=np.float64)
                np.subtract(xb[1:], xb[:-1], out=d[1:])
                np.subtract(xb[0], last[at] if start else xb[0], out=d[0])
                last[at] = xb[-1, :k]
                yield start, at, xb, d, np.maximum(d.max(axis=0), -d.min(axis=0))[:k]

    # wraps before the anchor count against it, so the anchor frame keeps its value
    for _, at, _, d, step in blocks(anchor + 1) if anchor else ():
        jumps = np.flatnonzero(step > venc)
        wraps[at.start + jumps] -= _wrap_counts(d[:, jumps], venc).sum(axis=0)

    for start, at, xb, d, step in blocks(n):
        k, m, carried = step.size, xb.shape[0], wraps[at]
        touched = (step > venc) | (carried != 0.0)
        varies[at] |= (step > 0.0) & ~touched
        if touched.any():
            jumps = np.flatnonzero(step > venc)
            # 2 venc off per wrap since the anchor, as in unwrap_temporal: a
            # fixed offset for wraps carried in, a running one within the chunk
            cum = np.cumsum(_wrap_counts(d[:, jumps], venc), axis=0) + carried[jumps]
            unwrapped = xb[:, jumps] + -2.0 * venc * cum
            xb[:, :k] += -2.0 * venc * carried
            xb[:, jumps] = unwrapped
            carried[jumps] = cum[-1]
            # a pixel may step raw and yet hold still once unwrapped; one not
            # yet seen to vary has held one value until now
            todo = np.flatnonzero(touched & ~varies[at])
            held = prev[at][todo] if start else xb[0, todo]
            varies[at.start + todo] = (xb[:, todo] != held).any(axis=0)
        prev[at] = xb[-1, :k]

        if ref is not None:
            np.multiply(xb, ref[start : start + m, None], out=d)
            cross[at] += d.sum(axis=0)[:k]
        chunk_mean = xb.sum(axis=0) / m
        np.subtract(xb, chunk_mean, out=xb)
        np.square(xb, out=xb)
        delta = chunk_mean[:k] - mean[at]
        mean[at] += delta * (m / (start + m))
        m2[at] += xb.sum(axis=0)[:k] + delta * delta * (start * m / (start + m))
    m2[~varies] = 0.0
    return PixelMoments(pixels, n, mean, m2, ref, None if ref is None else cross)


def check_static_mask(mask: RoiMask, header: SeriesHeader) -> None:
    """Raise unless mask is a STATIC_TISSUE mask on the grid of header."""
    if mask.label is not RoiLabel.STATIC_TISSUE:
        raise WrongKind(
            f"background correction needs a STATIC_TISSUE mask, got {mask.label.value}"
        )
    ensure_same_grid(mask, header)


def background_correct(
    series: VelocitySeries, static: RoiMask | PixelMoments
) -> tuple[VelocitySeries, float]:
    """Subtract the global static-tissue offset; returns (series, offset).

    ``static`` is the STATIC_TISSUE mask on the grid of series, or the
    static pixels' moments already taken by pixel_moments; the pipeline
    passes the latter, so that series need only hold the pixels whose
    velocities are kept.

    The offset is one scalar, the mean velocity over static pixels and
    over all frames (the mean of the pixels' means). Per-frame
    subtraction would remove the real respiratory modulation, so it is
    deliberately not done here.

    Warns with StaticTissueWarning when any static pixel's temporal
    standard deviation, sqrt(m2 / n), exceeds 10% of venc, which usually
    means the mask leaks into moving fluid.

    series must be velocity-encoded (WrongEncoding otherwise): the offset
    is in cm/s, and so are the moments.
    """
    if series.header.encoding is not Encoding.VELOCITY_CMPS:
        raise WrongEncoding(
            f"expected VELOCITY_CMPS input, got {series.header.encoding.value}"
        )
    if isinstance(static, RoiMask):
        check_static_mask(static, series.header)
        static = pixel_moments(series, static.pixels)
    offset = float(static.mean.mean())
    worst_sd = float(np.sqrt(static.m2.max() / static.n_frames))
    venc = series.header.venc
    if worst_sd > 0.1 * venc:
        warnings.warn(
            f"static mask pixel varies by {worst_sd:.3g} cm/s over time "
            f"(> 10% of venc {venc:g}); offset may be biased",
            StaticTissueWarning,
            stacklevel=2,
        )
    return VelocitySeries(series.header, series.frames - offset), offset
