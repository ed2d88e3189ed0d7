"""Phase-to-velocity conversion, temporal unwrapping of aliased
velocities, per-pixel moments over time, per-frame sums over pixels, and
static-tissue background offset removal.

Velocity maps are a VelocitySeries with VELOCITY_CMPS encoding and
float64 frames. Every function here returns a new result and leaves its
input unchanged. Each works on every pixel's time course on its own, so a
subset of the grid gets the same values, to the bit, as the same pixels
of the whole grid.

A series' velocity maps at anchor frame a are unwrap_temporal(v, a) of
v, the series or, when it holds phase, phase_to_velocity of it: float64
cm/s in the series' own sign (pipeline.prepare_velocity applies the sign
convention). The streamed pass below gives their bits from either
encoding: it converts phase x to float64(x) * venc/pi, correctly rounded
as phase_to_velocity does, and scales velocity by exactly 1.0.

The pipeline relies on that. One reader, ``_converted``, reads the
float32 input in chunks of frames (64 for moments) and yields them
converted, a block of pixels at a time, in the series' own sign. One
generator, ``_unwrapped``, unwraps its blocks: it carries each pixel's
wrap count from chunk to chunk, counts wraps only in the pixels that step
beyond venc, and shifts only blocks that hold such a pixel or a carried
count. ``pixel_moments`` folds the unwrapped blocks into per-pixel
moments, with no full-size array built: the StaticTissueWarning and the
refinement's correlation map come from those. It tells a pixel that holds
still by comparing each block with the pixel's first unwrapped value.
``pixel_sums`` folds the blocks into per-frame sums over the pixels, the
ROI's flow and the seed's reference time course. Every pass holds blocks
of _BLOCK_VALUES float64 values (128 KB): 64 frames of 256 pixels for
moments and means, and for sums over few pixels more frames a step. So the pipeline holds one block
plus vectors with one value per frame or per pixel, and builds no
velocity map.
``unwrap_temporal`` writes the blocks into velocity maps.

Each pass reads only the pixels it needs, so the pipeline's cost follows
the ROI, not the field of view. static_offset splits the static mask by
one min/max pass over the stored values: the few static pixels whose
values span enough to step beyond venc or warn get full moments, and the
other pixels of a bounded lattice of the mask only their means, folded
from the converted blocks with the moments' own mean update. Refinement
reads a box around the seed (pipeline.prepare_velocity).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValueOutOfRange, WrongEncoding, WrongKind, warn
from .ingest import (
    Encoding,
    RoiLabel,
    RoiMask,
    SeriesHeader,
    VelocitySeries,
    ensure_same_grid,
)


#: frames per step of _unwrapped when it feeds pixel_moments
_CHUNK = 64
#: values in each block a streamed pass holds: a float64 block of frames
#: times pixels is 128 KB, and _unwrapped holds two (the block and its
#: steps); _spans' running minima and maxima hold as many stored values
_BLOCK_VALUES = 1 << 14
#: static pixels the lattice static[::k, ::k] of static_offset holds at least
_LATTICE = 2048


class StaticTissueWarning(UserWarning):
    """The supplied static-tissue mask does not look static."""


def _to_cmps(header: SeriesHeader) -> float:
    """Factor from stored values to cm/s: venc/pi for phase, 1 for velocity."""
    return header.venc / np.pi if header.encoding is Encoding.PHASE_RADIANS else 1.0


def _expect(series: VelocitySeries, encoding: Encoding) -> None:
    if series.header.encoding is not encoding:
        raise WrongEncoding(f"expected {encoding.value} input, got {series.header.encoding.value}")


def phase_to_velocity(series: VelocitySeries) -> VelocitySeries:
    """Scale phase maps into velocity maps: v = (phi / pi) * venc.

    Phase lives in [-pi, pi), so converted velocities lie in [-venc, venc).
    Values that truly exceeded venc arrive aliased; unwrap_temporal deals
    with those afterwards.
    """
    _expect(series, Encoding.PHASE_RADIANS)
    v = series.frames.astype(np.float64)
    v *= _to_cmps(series.header)
    return VelocitySeries(replace(series.header, encoding=Encoding.VELOCITY_CMPS), v)


def as_velocity_field(series: VelocitySeries) -> VelocitySeries:
    """Adopt an already velocity-encoded series (e.g. a gated product) as
    float64 velocity maps."""
    _expect(series, Encoding.VELOCITY_CMPS)
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

    series must be velocity-encoded, in cm/s like venc (WrongEncoding
    otherwise). Returns float64 velocity maps, written from the blocks of
    _unwrapped that the pipeline's moments and sums fold.
    """
    _expect(series, Encoding.VELOCITY_CMPS)
    n, h, w = series.frames.shape
    out = np.empty((n, h * w))
    steps = _unwrapped(series, np.ones((h, w), dtype=bool), anchor, _chunk_for(h * w))
    for start, at, xb, _ in steps:
        out[start : start + xb.shape[0], at] = xb[:, : at.stop - at.start]
    return VelocitySeries(series.header, out.reshape(n, h, w))


def _wrap_counts(d: np.ndarray, venc: float) -> np.ndarray:
    """Wraps at each frame-to-frame step d: the signed number of 2*venc
    turns that bring d back within [-venc, venc], 0 wherever it lies so."""
    k = np.zeros_like(d)
    jumps = (d > venc) | (d < -venc)
    k[jumps] = np.sign(d[jumps]) * np.ceil((np.abs(d[jumps]) - venc) / (2.0 * venc))
    return k


def _check_anchor(series: VelocitySeries, anchor: int) -> None:
    """ValueOutOfRange unless anchor is one of the series' frames."""
    n = series.header.n_frames
    if not 0 <= anchor < n:
        raise ValueOutOfRange(f"anchor frame {anchor} outside 0..{n - 1}")


def _converted(series: VelocitySeries, idx: np.ndarray, chunk: int, stop: int):
    """Yield (start, at, xb) per chunk of up to chunk frames from start,
    before frame stop, and block of up to _BLOCK_VALUES // chunk of the
    flat pixel indices idx; at is the block's slice of idx.

    xb holds the block's stored values, gathered by their pixel indices,
    in float64 cm/s, in one buffer that the next block overwrites. numpy
    sums a lone column pairwise but two or more columns frame by frame, so
    a pixel alone in its block fills two columns, of which the first
    counts.
    """
    scale = _to_cmps(series.header)
    width = _BLOCK_VALUES // chunk
    x = np.empty((min(chunk, stop), max(min(idx.size, width), 2)))
    for start in range(0, stop, chunk):
        frames = series.frames[start : min(start + chunk, stop)]
        m = frames.shape[0]
        frames = frames.reshape(m, -1)
        for b in range(0, idx.size, width):
            cols = idx[b : b + width]
            at = slice(b, b + cols.size)
            cols = np.resize(cols, max(cols.size, 2))
            xb = x[:m, : cols.size]
            # a gathered block is let go before the next one is gathered
            np.multiply(frames[:, cols], scale, out=xb, dtype=np.float64)
            yield start, at, xb


def _unwrapped(series: VelocitySeries, pixels: np.ndarray, anchor: int, chunk: int = _CHUNK):
    """Yield (start, at, xb, scratch) per chunk of up to chunk frames from
    start and block of up to _BLOCK_VALUES // chunk of the pixels that the
    boolean grid pixels selects; at is their slice in row-major order.

    xb holds the block as _converted reads it, unwrapped as
    unwrap_temporal describes; scratch has its shape. The caller may
    overwrite both. Each pixel's wraps since the anchor frame (counted
    first over frames 0..anchor) are carried from chunk to chunk.
    """
    _check_anchor(series, anchor)
    n, venc = series.header.n_frames, series.header.venc
    idx = np.flatnonzero(pixels)
    # last: each pixel's last frame so far, converted; wraps: its wraps
    # since the anchor frame at that frame
    last, wraps = (np.zeros(idx.size) for _ in range(2))
    tmp = np.empty((min(chunk, n), max(min(idx.size, _BLOCK_VALUES // chunk), 2)))

    def blocks(stop: int):
        """(start, at, xb, d, step) per block of _converted before stop:
        velocities, steps and largest |step|."""
        for start, at, xb in _converted(series, idx, chunk, stop):
            k, (m, width) = at.stop - at.start, xb.shape
            d = tmp[:m, :width]
            np.subtract(xb[1:], xb[:-1], out=d[1:])
            np.subtract(xb[0], last[at] if start else xb[0], out=d[0])
            last[at] = xb[-1, :k]
            yield start, at, xb, d, np.maximum(d.max(axis=0), -d.min(axis=0))[:k]

    # wraps before the anchor count against it, so the anchor frame keeps its value
    for _, at, _, d, step in blocks(anchor + 1) if anchor else ():
        jumps = np.flatnonzero(step > venc)
        wraps[at.start + jumps] -= _wrap_counts(d[:, jumps], venc).sum(axis=0)

    for start, at, xb, d, step in blocks(n):
        k, carried = step.size, wraps[at]
        jumps = np.flatnonzero(step > venc)
        if jumps.size or carried.any():
            # 2 venc off per wrap since the anchor: a fixed offset for wraps
            # carried in, a running one within the chunk
            cum = np.cumsum(_wrap_counts(d[:, jumps], venc), axis=0) + carried[jumps]
            unwrapped = xb[:, jumps] + -2.0 * venc * cum
            xb[:, :k] += -2.0 * venc * carried
            xb[:, jumps] = unwrapped
            carried[jumps] = cum[-1]
        yield start, at, xb, d


def _chunk_for(n_pixels: int) -> int:
    """Frames per step of _unwrapped when its blocks are kept whole: where
    chunks split does not change the unwrap, so few pixels take more
    frames a step, as many as one block of _BLOCK_VALUES holds."""
    return max(_CHUNK, _BLOCK_VALUES // max(n_pixels, 1))


def add_columns(columns: np.ndarray, sums: np.ndarray | None = None) -> np.ndarray:
    """Add the columns of a (frames, pixels) array onto the per-frame sums
    (zeros of the columns' dtype when None), one column after another, and
    return the sums.

    This is the sum numpy takes along the pixel axis of a gather such as
    frames[:, mask] of two or more frames: the gather is F-ordered, so
    numpy adds its pixels in turn, where the row sum of a C-ordered block
    would go pairwise and differ in the last bits. Blocks of columns added
    in pixel order give the same bits as all the columns at once.
    """
    if sums is None:
        sums = np.zeros(columns.shape[0], dtype=columns.dtype)
    for column in columns.T:
        sums += column
    return sums


def pixel_sums(
    series: VelocitySeries,
    pixels: np.ndarray,
    anchor: int = 0,
    offset: float | None = None,
) -> np.ndarray:
    """Per-frame sums, over the pixels that the boolean grid pixels
    selects, of the series' velocity maps v at the anchor frame, each less
    offset when one is given: to the bit, add_columns(v[:, pixels]).

    One pass over the blocks of _unwrapped, each block's pixels added in
    row-major order (add_columns) as it comes, so no velocity map is built.
    """
    sums = np.zeros(series.header.n_frames)
    steps = _unwrapped(series, pixels, anchor, _chunk_for(np.count_nonzero(pixels)))
    for start, at, xb, _ in steps:
        block = xb[:, : at.stop - at.start]
        if offset is not None:
            block -= offset
        add_columns(block, sums[start : start + block.shape[0]])
    return sums


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


def pixel_moments(
    series: VelocitySeries,
    pixels: np.ndarray,
    ref: np.ndarray | None = None,
    anchor: int = 0,
) -> PixelMoments:
    """Per-pixel moments of the series' velocity maps at the anchor frame,
    for the pixels that the boolean grid pixels selects; equal to the bit
    for every subset of pixels.

    One pass over the blocks of _unwrapped: each block's mean and centred
    sum of squares are merged into the running ones (Chan, Golub & LeVeque
    1983). A pixel whose unwrapped velocity never leaves its value at the
    first frame gets m2 = 0 exactly. Every sum runs down one pixel's column in frame order, so a
    pixel's moments do not depend on which other pixels are in the call.
    """
    mean, m2, first = (np.zeros(np.count_nonzero(pixels)) for _ in range(3))
    cross = None if ref is None else np.zeros(mean.size)
    varies = np.zeros(mean.size, dtype=bool)
    for start, at, xb, tmp in _unwrapped(series, pixels, anchor):
        k, m = at.stop - at.start, xb.shape[0]
        if not start:
            first[at] = xb[0, :k]
        varies[at] |= (xb[:, :k] != first[at]).any(axis=0)
        if cross is not None:
            np.multiply(xb, ref[start : start + m, None], out=tmp)
            cross[at] += tmp.sum(axis=0)[:k]
        chunk_mean, delta = _merge_mean(mean, at, start, xb)
        np.subtract(xb, chunk_mean, out=xb)
        np.square(xb, out=xb)
        m2[at] += xb.sum(axis=0)[:k] + delta * delta * (start * m / (start + m))
    m2[~varies] = 0.0
    return PixelMoments(pixels, series.header.n_frames, mean, m2, ref, cross)


def _merge_mean(mean: np.ndarray, at: slice, start: int, xb: np.ndarray):
    """Merge the means of the block xb, frames start.. of the pixels at,
    into their running means over frames 0..start-1 (Chan, Golub & LeVeque
    1983). Returns the block's own means, one per column of xb, and each
    pixel's difference delta from its running mean before the merge."""
    k, m = at.stop - at.start, xb.shape[0]
    chunk_mean = xb.sum(axis=0) / m
    delta = chunk_mean[:k] - mean[at]
    mean[at] += delta * (m / (start + m))
    return chunk_mean, delta


def _quiet_means(series: VelocitySeries, pixels: np.ndarray) -> np.ndarray:
    """Per-pixel means over time of the stored values in cm/s, not
    unwrapped, for the pixels that the boolean grid pixels selects, in
    row-major order.

    For a pixel that never steps beyond venc, which the unwrap leaves as it
    is, this is pixel_moments(series, pixels).mean to the bit: the same
    64-frame chunks, blocks and merge (_converted, _merge_mean). It holds
    one converted block, with no steps and no scratch block.
    """
    idx = np.flatnonzero(pixels)
    mean = np.zeros(idx.size)
    for start, at, xb in _converted(series, idx, _CHUNK, series.header.n_frames):
        _merge_mean(mean, at, start, xb)
    return mean


def background_correct(series: VelocitySeries, static: RoiMask) -> tuple[VelocitySeries, float]:
    """Subtract the static-tissue offset of series over the STATIC_TISSUE
    mask static (static_offset) from every velocity; returns (series,
    offset). One scalar: per-frame subtraction would remove the real
    respiratory modulation, so it is deliberately not done here.

    series must be velocity-encoded (WrongEncoding otherwise): the offset
    is in cm/s. The pipeline calls static_offset directly and subtracts
    the offset as it sums the ROI's velocities (velocity.pixel_sums).
    """
    _expect(series, Encoding.VELOCITY_CMPS)
    offset = static_offset(series, static)
    return VelocitySeries(series.header, series.frames - offset), offset


def check_static_mask(static: RoiMask, header: SeriesHeader) -> None:
    """WrongKind unless static is a STATIC_TISSUE mask, DimensionMismatch
    unless it is on the header's grid: static_offset's refusals, which
    read nothing of the series."""
    if static.label is not RoiLabel.STATIC_TISSUE:
        raise WrongKind(
            f"background correction needs a STATIC_TISSUE mask, got {static.label.value}"
        )
    ensure_same_grid(static, header)


def static_offset(series: VelocitySeries, static: RoiMask, anchor: int = 0) -> float:
    """The static-tissue offset in cm/s of the series' velocity maps at the
    anchor frame, over the STATIC_TISSUE mask static on the series' grid
    (check_static_mask refuses any other, and an anchor outside the
    series' frames is refused with ValueOutOfRange, before the series is
    read).

    The offset is the mean over all frames of the static pixels of the
    lattice static[::k, ::k], the lattice's means taken in row-major
    order: k is the largest power of two whose lattice still holds
    _LATTICE static pixels, 1 (the whole mask) when no larger power does,
    so the mask's spread is kept at a bounded cost.

    Warns with StaticTissueWarning when a static pixel's temporal standard
    deviation, sqrt(m2 / n), exceeds 10% of venc, which usually means the
    mask leaks into moving fluid; it quotes the worst pixel's SD.

    One min/max pass over the stored values (_spans), a band of rows at a
    time, splits the mask. A pixel is loud when its values span more than
    0.2 venc, within a relative 1e-6 for rounding. A quiet pixel never
    steps beyond venc, so the unwrap leaves it as it is, and its SD is at
    most half its span (Popoviciu's inequality): it can neither warn nor
    be the worst pixel. So pixel_moments reads the loud pixels alone, on
    the lattice or off it, and the warning is the whole mask's; the quiet
    lattice pixels need only their means (_quiet_means), which equal their
    moment means to the bit.
    """
    check_static_mask(static, series.header)
    _check_anchor(series, anchor)
    mask, venc = static.pixels, series.header.venc
    k = 1
    while np.count_nonzero(mask[:: 2 * k, :: 2 * k]) >= _LATTICE:
        k *= 2
    lattice = np.zeros_like(mask)
    lattice[::k, ::k] = mask[::k, ::k]
    loud = np.empty_like(mask)
    for rows, spans in _spans(series):
        np.greater(spans, 0.2 * venc * (1.0 - 1e-6), out=loud[rows])
    del spans  # the spans' buffer is let go before the means are read
    loud &= mask
    means = np.empty(np.count_nonzero(lattice))
    means[~loud[lattice]] = _quiet_means(series, lattice & ~loud)
    worst_sd = 0.0
    if loud.any():
        moments = pixel_moments(series, loud, anchor=anchor)
        means[loud[lattice]] = moments.mean[lattice[loud]]
        worst_sd = float(np.sqrt(moments.m2.max() / moments.n_frames))
    if worst_sd > 0.1 * venc:
        warn(f"static mask pixel varies by {worst_sd:.3g} cm/s over time "
             f"(> 10% of venc {venc:g}); offset may be biased", StaticTissueWarning)
    return float(means.mean())


def _spans(series: VelocitySeries):
    """Yield (rows, spans) per band of the grid's rows: spans holds each
    pixel of the band its span, max - min over the frames of its stored
    values, in float64 cm/s, in one buffer that the next band overwrites.

    A band's frames are folded elementwise into running minima and maxima
    of r frames each, of about _BLOCK_VALUES stored values, so a small grid
    takes many frames a step; numpy then reduces the r of each. The blocks
    after the first end on the last frame, so the first of them may take
    frames already folded in, which leaves a minimum or maximum as it is.
    """
    n, h, w = series.frames.shape
    rows = max(1, min(h, _BLOCK_VALUES // w))
    r = min(n, max(1, _BLOCK_VALUES // (rows * w)))
    lo, hi = (np.empty((r, rows, w), dtype=series.frames.dtype) for _ in range(2))
    spans = np.empty((rows, w))
    scale = _to_cmps(series.header)
    for top in range(0, h, rows):
        frames = series.frames[:, top : top + rows]
        k = frames.shape[1]
        lo_k, hi_k = lo[:, :k], hi[:, :k]
        np.copyto(lo_k, frames[:r])
        np.copyto(hi_k, frames[:r])
        for start in range(n % r or r, n, r):
            np.minimum(lo_k, frames[start : start + r], out=lo_k)
            np.maximum(hi_k, frames[start : start + r], out=hi_k)
        np.copyto(spans[:k], hi_k.max(axis=0))
        spans[:k] -= lo_k.min(axis=0)
        spans[:k] *= scale
        yield slice(top, top + k), spans[:k]
