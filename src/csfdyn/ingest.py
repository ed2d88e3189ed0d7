"""On-disk containers and validated in-memory model for velocity series,
ROI masks, and physiological traces.

File formats
------------
Series ``.csfd``
    8-byte magic ``CSFDYN01``, 4-byte little-endian header length N,
    N bytes of UTF-8 JSON (the :class:`SeriesHeader` fields), then
    ``n_frames * height * width`` float32 little-endian values,
    frame-major, row-major within each frame. The payload need not start
    on a multiple of 4 bytes.

    A series read from a file holds a read-only map of it, not a copy: a
    job's own memory does not grow with the recording's length, and the
    pages are shared page cache. write_series never rewrites a file in
    place (it writes a sibling and renames it over the old one), so a
    mapped series keeps its values. Another program that truncates a file
    while it is mapped makes the next read of the lost pages raise SIGBUS.
Mask ``.pgm``
    Binary PGM (P5), maxval 255, nonzero = inside the ROI. The ROI label
    round-trips through a ``# label: NAME`` comment.
Physio ``.csv``
    Header line ``t_ms,amplitude`` followed by numeric rows. Timestamps
    must be uniform; the reader rejects rather than resamples.
"""

from __future__ import annotations

import json
import math
import mmap
import numbers
import os
import re
import struct
import sys
import warnings
from dataclasses import asdict, dataclass, fields, is_dataclass
from enum import Enum
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyMask,
    InputError,
    IoFailure,
    MalformedHeader,
    MalformedRow,
    NonUniformSampling,
    ValueOutOfRange,
)

MAGIC = b"CSFDYN01"

#: Frames per reconstructed cardiac cycle in a gated series.
GATED_FRAMES = 32


class Encoding(str, Enum):
    PHASE_RADIANS = "PHASE_RADIANS"
    VELOCITY_CMPS = "VELOCITY_CMPS"


class SeriesKind(str, Enum):
    CONTINUOUS_EPI = "CONTINUOUS_EPI"
    GATED_CONV = "GATED_CONV"


class RoiLabel(str, Enum):
    AQUEDUCT = "AQUEDUCT"
    SPINAL_CANAL = "SPINAL_CANAL"
    STATIC_TISSUE = "STATIC_TISSUE"
    OTHER = "OTHER"


class PhysioKind(str, Enum):
    RESP_BELT = "RESP_BELT"
    CARDIAC_PLETHYSMO = "CARDIAC_PLETHYSMO"


_TAKES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def coerce(tp, value):
    """value as the annotation tp takes it, or ValueError saying what tp takes.

    int takes integers and float finite reals, neither a bool; bool takes
    only a bool, str only a str and an enum one of its values;
    tuple[float, ...] takes a list of finite reals, and X | None also
    None; a dataclass takes an instance or a dict of its own fields.
    """
    if get_origin(tp) in (Union, UnionType):
        if value is None:
            return None
        (tp,) = (arg for arg in get_args(tp) if arg is not type(None))
        return coerce(tp, value)
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"must be a list of finite numbers, got {value!r}")
        return tuple(coerce(get_args(tp)[0], v) for v in value)
    if is_dataclass(tp):
        if isinstance(value, dict):
            return tp(**value)
        if not isinstance(value, tp):
            raise ValueError(f"must be an object of {tp.__name__} fields, got {value!r}")
        return value
    if issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            choices = ", ".join(member.value for member in tp)
            raise ValueError(f"must be one of {choices}; got {value!r}") from None
    if isinstance(value, bool) == (tp is bool):
        # the bound refuses NaN and +-inf, and integers too large for a float
        if tp is float and isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max:
            return float(value)
        if tp is int and isinstance(value, numbers.Integral):
            return int(value)
        if tp in (bool, str) and isinstance(value, tp):
            return value
    raise ValueError(f"must be {_TAKES[tp]}, got {value!r}")


#: resolving a class's annotations costs more than checking its values
_type_hints = cache(get_type_hints)


def check_fields(obj, error: type[InputError]) -> None:
    """Coerce every field of the dataclass obj to its annotation in place
    (see coerce), or raise error naming the first field that does not fit.

    Called first in the __post_init__ of each dataclass built from outside
    input; range rules follow it there.
    """
    hints = _type_hints(type(obj))
    for f in fields(obj):
        try:
            value = coerce(hints[f.name], getattr(obj, f.name))
        except (TypeError, ValueError) as exc:
            raise error(f"{f.name}: {exc}") from None
        object.__setattr__(obj, f.name, value)


@dataclass(frozen=True)
class SeriesHeader:
    """Geometry, timing, and encoding metadata of one velocity-map series.

    Spacings are mm/pixel, slice thickness mm, venc cm/s, frame interval
    and t0 ms.
    """

    width: int
    height: int
    n_frames: int
    pixel_spacing_x: float
    pixel_spacing_y: float
    slice_thickness: float
    venc: float
    frame_interval: float
    t0: float = 0.0
    encoding: Encoding = Encoding.PHASE_RADIANS
    series_kind: SeriesKind = SeriesKind.CONTINUOUS_EPI

    def __post_init__(self):
        check_fields(self, MalformedHeader)
        if min(self.width, self.height, self.n_frames) < 1:
            raise ValueOutOfRange("width, height and n_frames must all be >= 1")
        if self.pixel_spacing_x <= 0 or self.pixel_spacing_y <= 0:
            raise ValueOutOfRange("pixel spacings must be positive")
        if self.slice_thickness <= 0:
            raise ValueOutOfRange("slice thickness must be positive")
        if self.venc <= 0:
            raise ValueOutOfRange("venc must be positive")
        if self.frame_interval <= 0:
            raise ValueOutOfRange("frame_interval must be positive")
        # consecutive timestamps() differ by frame_interval up to two
        # roundings, each at most one float64 spacing of the latest time;
        # from 2**53 frames on, that spacing exceeds frame_interval anyway
        latest = abs(self.t0) + min(self.n_frames, 2**53) * self.frame_interval
        if not self.frame_interval > 2 * math.ulp(latest):
            raise ValueOutOfRange(
                f"frame_interval {self.frame_interval:g} ms is within the float64 rounding "
                f"of t0 + k * frame_interval up to {latest:g} ms: frame times could collide"
            )
        if self.series_kind is SeriesKind.GATED_CONV and self.n_frames != GATED_FRAMES:
            raise ValueOutOfRange(
                f"gated series must hold exactly {GATED_FRAMES} frames, "
                f"got {self.n_frames}"
            )

    @property
    def pixel_area(self) -> float:
        """Pixel area in mm^2."""
        return self.pixel_spacing_x * self.pixel_spacing_y

    def timestamps(self) -> np.ndarray:
        """Frame timestamps in ms: t0 + k * frame_interval."""
        return self.t0 + np.arange(self.n_frames, dtype=np.float64) * self.frame_interval


@dataclass
class VelocitySeries:
    """A time-ordered stack of 2D maps plus its header.

    ``frames`` has shape (n_frames, height, width), holding phase in
    radians within [-pi, pi) or velocity in cm/s according to
    ``header.encoding``. float32 and float64 are both accepted in
    memory; the on-disk container always stores float32. Frames read
    from a file are a read-only map of it (map_series), so no stage may
    write into its input.
    """

    header: SeriesHeader
    frames: np.ndarray

    def __post_init__(self):
        expected = (self.header.n_frames, self.header.height, self.header.width)
        if self.frames.shape != expected:
            raise DimensionMismatch(
                f"frames shape {self.frames.shape} != header geometry {expected}"
            )
        if self.frames.dtype not in (np.float32, np.float64):
            self.frames = np.ascontiguousarray(self.frames, dtype=np.float64)
        # NaN and +-inf propagate into the extremes, so one min/max pair
        # checks finiteness and range; float() widens exactly, so the
        # phase bounds are compared in float64
        lo, hi = float(self.frames.min()), float(self.frames.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueOutOfRange("frames contain non-finite values")
        if self.header.encoding is Encoding.PHASE_RADIANS and (lo < -math.pi or hi >= math.pi):
            raise ValueOutOfRange("phase values must lie in [-pi, pi)")

    @property
    def timestamps(self) -> np.ndarray:
        return self.header.timestamps()


@dataclass
class RoiMask:
    """Boolean pixel grid naming one region of interest."""

    pixels: np.ndarray
    label: RoiLabel = RoiLabel.OTHER

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=bool)
        if self.pixels.ndim != 2:
            raise DimensionMismatch("mask must be a 2D grid")
        if not self.pixels.any():
            raise EmptyMask("mask has no pixels set")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def n_pixels(self) -> int:
        return int(np.count_nonzero(self.pixels))


@dataclass
class PhysioTrace:
    """Uniformly sampled 1D physiological signal with its own clock (ms)."""

    sample_interval: float
    t0: float
    samples: np.ndarray
    kind: PhysioKind = PhysioKind.RESP_BELT

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if not (math.isfinite(self.sample_interval) and self.sample_interval > 0):
            raise ValueOutOfRange(f"sample_interval must be positive and finite, "
                                  f"got {self.sample_interval}")
        if not math.isfinite(self.t0):
            raise ValueOutOfRange(f"t0 must be finite, got {self.t0}")
        if self.samples.size < 2:
            raise ValueOutOfRange("trace needs at least 2 samples")
        if not np.all(np.isfinite(self.samples)):
            raise ValueOutOfRange("trace contains non-finite values")

    @property
    def timestamps(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.size, dtype=np.float64) * self.sample_interval

    @property
    def duration(self) -> float:
        """Covered time span in ms (first to last sample)."""
        return (self.samples.size - 1) * self.sample_interval


def ensure_same_grid(mask: RoiMask, header: SeriesHeader) -> None:
    """Raise DimensionMismatch unless mask and series share one pixel grid.

    Called at pairing time (flow extraction, background correction), not at
    parse time: a mask file is valid on its own.
    """
    if (mask.height, mask.width) != (header.height, header.width):
        raise DimensionMismatch(
            f"mask grid {mask.height}x{mask.width} does not match series "
            f"grid {header.height}x{header.width}"
        )


# ---------------------------------------------------------------------------
# .csfd series container


def write_series(series: VelocitySeries, path) -> None:
    """Write a series to the .csfd container. Deterministic bytes.

    The bytes go to a temporary file beside path, which then replaces path
    in one rename, so a series mapped from the old file (read_series) keeps
    its values, even when it is the series being written. On failure the
    temporary file is removed and path is left as it was.
    """
    header_json = json.dumps(
        asdict(series.header), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    payload = np.ascontiguousarray(series.frames, dtype="<f4")
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            try:
                fh.write(MAGIC)
                fh.write(struct.pack("<I", len(header_json)))
                fh.write(header_json)
                fh.write(memoryview(payload).cast("B"))
                fh.flush()
                os.replace(tmp, path)
            except BaseException:
                os.remove(tmp)
                raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


@dataclass(frozen=True)
class SeriesFile:
    """A .csfd container mapped read-only by map_series: its header, size
    and map are checked, its values not yet."""

    header: SeriesHeader
    #: the whole file, header and payload; open as long as it or a view
    #: of it lives
    mapped: mmap.mmap
    #: the payload as a (n_frames, height, width) float32 view of mapped
    frames: np.ndarray

    def series(self) -> VelocitySeries:
        """The frames as a VelocitySeries, whose construction checks their
        values; nothing is copied."""
        return VelocitySeries(self.header, self.frames)


def map_series(path) -> SeriesFile:
    """Check the header and size of a .csfd container and map it read-only.

    The frames are a view of the map: nothing is copied, they are not
    writeable, and the map lives as long as they do. Their values are
    checked only by SeriesFile.series, so the map can be read (hashed,
    say) meanwhile. See the module docstring for what another program's
    truncation of the file does.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(len(MAGIC) + 4)
            if len(head) < len(MAGIC) + 4 or head[: len(MAGIC)] != MAGIC:
                raise MalformedHeader(f"{path}: not a CSFDYN01 container")
            (hlen,) = struct.unpack_from("<I", head, len(MAGIC))
            header_bytes = fh.read(hlen)
            if len(header_bytes) < hlen:
                raise MalformedHeader(f"{path}: truncated header")
            try:
                header_dict = json.loads(header_bytes.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                raise MalformedHeader(f"{path}: header is not valid JSON: {exc}") from exc
            if not isinstance(header_dict, dict):
                raise MalformedHeader(f"{path}: header JSON must be an object")
            names = [f.name for f in fields(SeriesHeader)]
            missing = [k for k in names if k not in header_dict]
            unknown = sorted(set(header_dict) - set(names))
            if missing or unknown:
                raise MalformedHeader(f"{path}: header keys missing: {missing}; unknown: {unknown}")
            header = SeriesHeader(**header_dict)

            offset = len(head) + hlen
            n_values = header.n_frames * header.height * header.width
            if size - offset != 4 * n_values:
                raise DimensionMismatch(
                    f"{path}: payload holds {(size - offset) // 4} values, "
                    f"header promises {n_values}"
                )
            try:
                # ValueError: the file shrank since fstat
                mapped = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)
            except (OSError, ValueError) as exc:
                raise IoFailure(f"cannot map {path}: {exc}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    frames = np.frombuffer(mapped, dtype="<f4", count=n_values, offset=offset)
    return SeriesFile(header, mapped,
                      frames.reshape(header.n_frames, header.height, header.width))


def read_series(path) -> VelocitySeries:
    """Read a .csfd container into a validated VelocitySeries whose frames
    are a read-only map of the file (map_series)."""
    return map_series(path).series()


# ---------------------------------------------------------------------------
# .pgm ROI masks


def write_mask(mask: RoiMask, path) -> None:
    """Write a mask as binary PGM (P5), 255 = inside, with a label comment."""
    body = np.where(mask.pixels, 255, 0).astype(np.uint8).tobytes()
    head = f"P5\n# label: {mask.label.value}\n{mask.width} {mask.height}\n255\n"
    try:
        with open(path, "wb") as fh:
            fh.write(head.encode("ascii"))
            fh.write(body)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _pgm_tokens(blob: bytes, n: int) -> tuple[list[bytes], int, str | None]:
    """First n whitespace-separated PGM header tokens, the offset one byte
    past the last one, and the label comment if present."""
    tokens: list[bytes] = []
    label = None
    i = 0
    while len(tokens) < n and i < len(blob):
        c = blob[i : i + 1]
        if c == b"#":
            j = blob.find(b"\n", i)
            j = len(blob) if j < 0 else j
            comment = blob[i + 1 : j].decode("ascii", "replace").strip()
            if comment.lower().startswith("label:"):
                label = comment.split(":", 1)[1].strip()
            i = j + 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(blob) and not blob[j : j + 1].isspace() and blob[j : j + 1] != b"#":
                j += 1
            tokens.append(blob[i:j])
            i = j
    if len(tokens) < n:
        raise MalformedHeader("truncated PGM header")
    return tokens, i + 1, label


def read_mask(path, label: RoiLabel | None = None) -> RoiMask:
    """Read a binary PGM mask; nonzero pixels are inside the ROI.

    The label comes from the explicit argument if given, else from the
    ``# label:`` comment, else OTHER. Grid compatibility with a series is
    checked at pairing time, not here.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    tokens, offset, file_label = _pgm_tokens(blob, 4)
    if tokens[0] != b"P5":
        raise MalformedHeader(f"{path}: expected binary PGM (P5)")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError as exc:
        raise MalformedHeader(f"{path}: non-numeric PGM header field") from exc
    if width < 1 or height < 1:
        raise MalformedHeader(f"{path}: bad PGM dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise MalformedHeader(f"{path}: PGM maxval must be in 1..255, got {maxval}")
    body = blob[offset : offset + width * height]
    if len(body) != width * height:
        raise DimensionMismatch(
            f"{path}: PGM payload holds {len(body)} pixels, expected {width * height}"
        )
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(height, width) > 0
    if label is None and file_label is not None:
        try:
            label = RoiLabel(file_label)
        except ValueError:
            label = RoiLabel.OTHER
    if not pixels.any():
        raise EmptyMask(f"{path}: mask has no pixels set")
    return RoiMask(pixels=pixels.copy(), label=label or RoiLabel.OTHER)


# ---------------------------------------------------------------------------
# .csv physio traces


def write_physio(trace: PhysioTrace, path) -> None:
    """Write a physio trace as a two-column CSV (t_ms, amplitude)."""
    times = trace.timestamps
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("t_ms,amplitude\n")
            for t, a in zip(times.tolist(), trace.samples.tolist()):
                fh.write(f"{t!r},{a!r}\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


#: bytes loadtxt reads otherwise than float() and str.splitlines: the
#: line breaks, besides "\n" and "\r", that text read with universal
#: newlines ("\r\n" and "\r" become "\n") can hold, at which loadtxt
#: does not end a line, and the unit separator, which loadtxt skips beside
#: a number and float() refuses
_LOOP_ONLY = b"\x0b\x0c\x1c\x1d\x1e\x1f"

#: the header line: up to the first "\n" or "\r", as read with universal
#: newlines
_HEADER_LINE = re.compile(b"[^\r\n]*")


def _loadtxt_rows(path) -> np.ndarray | None:
    """The rows below the header line as numpy parses them, or None where
    they may differ from _loop_rows: loadtxt refused, or found other than
    two columns, fewer than 2 rows or a non-finite value.

    The file is opened here, with universal newlines, and loadtxt reads
    its lines one by one. Given a path, loadtxt would read it in chunks,
    about 1 ms faster per 15,000 lines, but through numpy's datasource,
    which imports gzip into every job that reads a trace."""
    with warnings.catch_warnings():
        # a file without rows is _loop_rows' to refuse
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            with open(path, encoding="ascii") as fh:
                rows = np.loadtxt(fh, delimiter=",", comments=None, skiprows=1, ndmin=2)
        except (ValueError, OSError):
            return None
    if rows.shape[0] < 2 or rows.shape[1] != 2 or not np.isfinite(rows).all():
        return None
    return rows


def _loop_rows(path, text: str) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and amplitudes of the rows of text, parsed a line at a
    time: the reader of every file _loadtxt_rows declines, which raises
    for each malformed header or row."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "t_ms,amplitude":
        raise MalformedHeader(f"{path}: expected header line 't_ms,amplitude'")
    times = []
    amps = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise MalformedRow(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
        try:
            t = float(parts[0])
            a = float(parts[1])
        except ValueError:
            raise MalformedRow(f"{path}:{lineno}: non-numeric field") from None
        if not (math.isfinite(t) and math.isfinite(a)):
            raise MalformedRow(f"{path}:{lineno}: non-finite value")
        times.append(t)
        amps.append(a)
    if len(times) < 2:
        raise MalformedRow(f"{path}: trace needs at least 2 samples")
    return np.asarray(times, dtype=np.float64), np.asarray(amps)


def _ascii_bytes(path) -> bytes:
    """The bytes of the file at path, refused unless they are all ASCII."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if not blob.isascii():
        try:
            blob.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedRow(f"{path}: non-ASCII content: {exc}") from exc
    return blob


def read_physio(path, kind: PhysioKind = PhysioKind.RESP_BELT) -> PhysioTrace:
    """Read a two-column physio CSV into a uniformly sampled trace.

    Non-uniform timestamps (any gap deviating more than 1% from the median
    interval) are rejected, never resampled: resampling policy belongs to
    the gating stage.

    Rows below a valid header are parsed by np.loadtxt. A file it refuses
    or reads otherwise than the line-at-a-time parser could (see
    _loadtxt_rows) goes to that parser, so both accept the same files,
    with the same values, and refuse the rest with the same errors. The
    header and the characters only that parser reads right are checked on
    the file's bytes, which are let go before loadtxt reads the file and
    decoded only for that parser.
    """
    blob = _ascii_bytes(path)
    header = blob[: _HEADER_LINE.match(blob).end()]
    rows = None
    if header.strip() == b"t_ms,amplitude" and not any(c in blob for c in _LOOP_ONLY):
        del blob  # held through loadtxt: a cropped-long job's traced peak 0.72 -> 0.96 MB
        rows = _loadtxt_rows(path)
        if rows is None:
            blob = _ascii_bytes(path)
    if rows is None:
        t_arr, amps = _loop_rows(path, blob.decode("ascii"))
    else:
        t_arr, amps = rows[:, 0], rows[:, 1].copy()
    gaps = np.diff(t_arr)
    interval = float(np.median(gaps, overwrite_input=True))
    if interval <= 0:
        raise NonUniformSampling(f"{path}: timestamps not strictly increasing")
    # the gaps again, in order, as their deviations from the interval
    np.subtract(t_arr[1:], t_arr[:-1], out=gaps)
    gaps -= interval
    np.abs(gaps, out=gaps)
    worst = int(np.argmax(gaps))
    if gaps[worst] > 0.01 * interval:
        raise NonUniformSampling(
            f"{path}: gap at row {worst + 2} is {t_arr[worst + 1] - t_arr[worst]:g} ms, "
            f"median interval {interval:g} ms"
        )
    return PhysioTrace(
        sample_interval=interval, t0=float(t_arr[0]), samples=np.asarray(amps), kind=kind
    )
