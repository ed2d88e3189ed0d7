"""Container and physio file round-trips, header validation."""

import errno
import json
import math
import mmap
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csfdyn import (
    Encoding,
    PhysioKind,
    PhysioTrace,
    RoiLabel,
    RoiMask,
    SeriesHeader,
    SeriesKind,
    VelocitySeries,
    ensure_same_grid,
    read_mask,
    read_physio,
    read_series,
    write_mask,
    write_physio,
    write_series,
)
from csfdyn import ingest
from csfdyn.errors import (
    DimensionMismatch,
    EmptyMask,
    InputError,
    IoFailure,
    MalformedHeader,
    MalformedRow,
    NonUniformSampling,
    ValueOutOfRange,
)
from csfdyn.phantom import AcquisitionSpec, CardiacSpec, GridSpec, LumenSpec, RespSpec
from csfdyn.pipeline import PipelineParams


def make_header(**kw):
    base = dict(
        width=8, height=6, n_frames=5,
        pixel_spacing_x=1.2, pixel_spacing_y=1.2, slice_thickness=4.0,
        venc=10.0, frame_interval=88.0,
    )
    base.update(kw)
    return SeriesHeader(**base)


def make_series(header=None, seed=0):
    header = header or make_header()
    rng = np.random.default_rng(seed)
    if header.encoding is Encoding.PHASE_RADIANS:
        frames = rng.uniform(-np.pi, np.pi * (1 - 1e-7),
                             (header.n_frames, header.height, header.width))
    else:
        frames = rng.normal(0, 3, (header.n_frames, header.height, header.width))
    return VelocitySeries(header, frames.astype(np.float32))


class TestHeader:
    def test_pixel_area(self):
        h = make_header(pixel_spacing_x=1.5, pixel_spacing_y=2.0)
        assert h.pixel_area == pytest.approx(3.0)

    def test_timestamps(self):
        h = make_header(t0=100.0, frame_interval=88.0, n_frames=4)
        assert np.allclose(h.timestamps(), [100, 188, 276, 364])

    @pytest.mark.parametrize("field,value", [
        ("width", 0), ("n_frames", 0), ("venc", 0.0), ("venc", -1.0),
        ("frame_interval", 0.0), ("pixel_spacing_x", -0.5), ("slice_thickness", 0.0),
    ])
    def test_rejects_nonpositive(self, field, value):
        with pytest.raises(ValueOutOfRange):
            make_header(**{field: value})

    def test_gated_needs_32_frames(self):
        with pytest.raises(ValueOutOfRange):
            make_header(series_kind=SeriesKind.GATED_CONV, n_frames=30)
        make_header(series_kind=SeriesKind.GATED_CONV, n_frames=32)

    def test_t0_swamping_frame_interval_refused(self):
        # at 1e19 ms adjacent float64 values are 2048 ms apart, so frames
        # 88 ms apart would share timestamps
        with pytest.raises(ValueOutOfRange, match="frame_interval"):
            make_header(t0=1e19, frame_interval=88.0)
        h = make_header(t0=1e12, frame_interval=88.0, n_frames=1000)
        assert (np.diff(h.timestamps()) > 0).all()

    def test_json_round_trip(self):
        h = make_header(t0=42.5, encoding=Encoding.VELOCITY_CMPS)
        assert SeriesHeader(**json.loads(json.dumps(asdict(h)))) == h


class TestVelocitySeries:
    def test_accepts_float32_and_float64(self):
        h = make_header(encoding=Encoding.VELOCITY_CMPS)
        a = np.zeros((5, 6, 8), dtype=np.float32)
        assert VelocitySeries(h, a).frames.dtype == np.float32
        assert VelocitySeries(h, a.astype(np.float64)).frames.dtype == np.float64

    def test_casts_integers(self):
        h = make_header(encoding=Encoding.VELOCITY_CMPS)
        s = VelocitySeries(h, np.zeros((5, 6, 8), dtype=np.int32))
        assert s.frames.dtype == np.float64

    def test_shape_must_match_header(self):
        with pytest.raises(DimensionMismatch):
            VelocitySeries(make_header(), np.zeros((5, 6, 7), dtype=np.float32))

    def test_phase_range_enforced(self):
        bad = np.zeros((5, 6, 8), dtype=np.float32)
        bad[0, 0, 0] = 3.5
        with pytest.raises(ValueOutOfRange):
            VelocitySeries(make_header(), bad)
        # exactly +pi is out (the interval is half-open), -pi is in
        edge = np.zeros((5, 6, 8), dtype=np.float64)
        edge[0, 0, 0] = -np.pi
        VelocitySeries(make_header(), edge)
        edge[0, 0, 0] = np.pi
        with pytest.raises(ValueOutOfRange):
            VelocitySeries(make_header(), edge)

    def test_rejects_nan(self):
        bad = np.zeros((5, 6, 8), dtype=np.float32)
        bad[2, 3, 3] = np.nan
        with pytest.raises(ValueOutOfRange):
            VelocitySeries(make_header(), bad)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_rejects_inf(self, value, encoding):
        bad = np.zeros((5, 6, 8))
        bad[4, 5, 7] = value
        with pytest.raises(ValueOutOfRange, match="non-finite"):
            VelocitySeries(make_header(encoding=encoding), bad)


class TestSeriesFile:
    def test_round_trip(self, tmp_path):
        s = make_series()
        p = tmp_path / "s.csfd"
        write_series(s, p)
        back = read_series(p)
        assert back.header == s.header
        assert np.array_equal(back.frames, s.frames)
        assert back.frames.dtype == np.float32

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.csfd"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(MalformedHeader):
            read_series(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "s.csfd"
        p.write_bytes(b"CSFDYN01" + (1000).to_bytes(4, "little") + b'{"width": 8}')
        with pytest.raises(MalformedHeader, match="truncated header"):
            read_series(p)

    def test_deeply_nested_header(self, tmp_path):
        head = b"[" * 200_000
        p = tmp_path / "s.csfd"
        p.write_bytes(b"CSFDYN01" + len(head).to_bytes(4, "little") + head)
        with pytest.raises(MalformedHeader, match="not valid JSON"):
            read_series(p)

    def test_truncated_payload(self, tmp_path):
        s = make_series()
        p = tmp_path / "s.csfd"
        write_series(s, p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(DimensionMismatch):
            read_series(p)

    @pytest.mark.parametrize("edit,key", [
        (lambda d: {k: v for k, v in d.items() if k != "t0"}, "t0"),
        (lambda d: {**d, "extra": 1}, "extra"),
    ], ids=["missing", "unknown"])
    def test_header_keys_must_be_the_fields(self, tmp_path, edit, key):
        s = make_series()
        head = json.dumps(edit(asdict(s.header))).encode()
        p = tmp_path / "s.csfd"
        p.write_bytes(b"CSFDYN01" + len(head).to_bytes(4, "little") + head
                      + s.frames.astype("<f4").tobytes())
        with pytest.raises(MalformedHeader, match=key):
            read_series(p)

    def test_trailing_garbage(self, tmp_path):
        s = make_series()
        p = tmp_path / "s.csfd"
        write_series(s, p)
        p.write_bytes(p.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(DimensionMismatch):
            read_series(p)

    def test_round_trip_at_every_payload_alignment(self, tmp_path):
        # t0 1, 10, 100 and 1000 lengthen the header JSON a byte at a time
        offsets = set()
        for t0 in (1.0, 10.0, 100.0, 1000.0):
            s = make_series(make_header(t0=t0))
            p = tmp_path / f"{t0}.csfd"
            write_series(s, p)
            back = read_series(p)
            offsets.add((p.stat().st_size - s.frames.nbytes) % 4)
            assert back.header == s.header
            assert back.frames.tobytes() == s.frames.tobytes()
        assert offsets == {0, 1, 2, 3}

    def test_frames_are_a_read_only_map(self, tmp_path):
        p = tmp_path / "s.csfd"
        write_series(make_series(make_header(n_frames=400, height=64, width=64)), p)
        tracemalloc.start()
        try:
            back = read_series(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * back.frames.nbytes, f"reading copied {peak} bytes"
        assert not back.frames.flags.writeable
        with pytest.raises(ValueError):
            back.frames[0, 0, 0] = 0.0

    @pytest.mark.parametrize("error", [OSError(errno.ENODEV, "No such device"),
                                       ValueError("mmap length is greater than file size")])
    def test_unmappable_file_is_io_failure(self, tmp_path, monkeypatch, error):
        p = tmp_path / "s.csfd"
        write_series(make_series(), p)

        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(ingest.mmap, "mmap", refuse)
        with pytest.raises(IoFailure, match="s.csfd"):
            read_series(p)

    @pytest.mark.parametrize("n_frames", [5, 3], ids=["same-size", "shorter"])
    def test_overwriting_keeps_the_frames_read(self, tmp_path, n_frames):
        p = tmp_path / "s.csfd"
        write_series(make_series(seed=1), p)
        first = read_series(p)
        kept = first.frames.copy()
        write_series(make_series(make_header(n_frames=n_frames), seed=2), p)
        assert np.array_equal(first.frames, kept)
        assert read_series(p).header.n_frames == n_frames

    def test_map_series_maps_the_whole_file(self, tmp_path):
        # the map the frames view holds the header too: its bytes are the file's
        p = tmp_path / "s.csfd"
        write_series(make_series(make_header(t0=10.0)), p)
        mapped = ingest.map_series(p)
        assert isinstance(mapped.mapped, mmap.mmap) and not mapped.mapped.closed
        assert mapped.mapped[:] == p.read_bytes()
        series = mapped.series()
        assert series.header == mapped.header
        assert series.frames is mapped.frames
        assert np.shares_memory(series.frames, np.frombuffer(mapped.mapped, np.uint8))

    @pytest.mark.parametrize("value, text", [
        (np.nan, "non-finite"), (np.float32(np.pi), r"\[-pi, pi\)"),
    ], ids=["nan", "pi"])
    def test_map_series_leaves_the_values_to_the_series(self, tmp_path, value, text):
        # the last value of a valid file becomes a bad one
        p = tmp_path / "s.csfd"
        write_series(make_series(), p)
        blob = bytearray(p.read_bytes())
        blob[-4:] = np.float32(value).astype("<f4").tobytes()
        p.write_bytes(bytes(blob))
        mapped = ingest.map_series(p)
        assert mapped.mapped[:] == bytes(blob)
        for read in (mapped.series, lambda: read_series(p)):
            with pytest.raises(ValueOutOfRange, match=text):
                read()

    def test_series_written_over_its_own_file(self, tmp_path):
        s = make_series()
        p = tmp_path / "s.csfd"
        write_series(s, p)
        write_series(read_series(p), p)
        assert read_series(p).frames.tobytes() == s.frames.tobytes()

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        # a file cannot replace a non-empty directory
        target = tmp_path / "taken"
        target.mkdir()
        (target / "inside").write_text("x")
        with pytest.raises(IoFailure):
            write_series(make_series(), target)
        assert sorted(q.name for q in tmp_path.iterdir()) == ["taken"]


class TestMaskFile:
    def test_round_trip_with_label(self, tmp_path):
        pix = np.zeros((6, 8), dtype=bool)
        pix[2:4, 3:6] = True
        m = RoiMask(pix, RoiLabel.AQUEDUCT)
        p = tmp_path / "m.pgm"
        write_mask(m, p)
        back = read_mask(p)
        assert back.label is RoiLabel.AQUEDUCT
        assert np.array_equal(back.pixels, pix)

    def test_label_override(self, tmp_path):
        pix = np.ones((4, 4), dtype=bool)
        write_mask(RoiMask(pix, RoiLabel.OTHER), tmp_path / "m.pgm")
        back = read_mask(tmp_path / "m.pgm", label=RoiLabel.STATIC_TISSUE)
        assert back.label is RoiLabel.STATIC_TISSUE

    def test_empty_mask_refused(self):
        with pytest.raises(EmptyMask):
            RoiMask(np.zeros((4, 4), dtype=bool), RoiLabel.AQUEDUCT)

    def test_grid_check(self):
        m = RoiMask(np.ones((6, 8), dtype=bool), RoiLabel.AQUEDUCT)
        ensure_same_grid(m, make_header())
        with pytest.raises(DimensionMismatch):
            ensure_same_grid(m, make_header(width=9))


class TestPhysioFile:
    def test_round_trip(self, tmp_path):
        t = PhysioTrace(40.0, 12.5, np.sin(np.linspace(0, 6, 250)), PhysioKind.RESP_BELT)
        p = tmp_path / "belt.csv"
        write_physio(t, p)
        back = read_physio(p)
        assert back.kind is PhysioKind.RESP_BELT
        assert back.t0 == pytest.approx(12.5)
        assert back.sample_interval == pytest.approx(40.0)
        assert np.allclose(back.samples, t.samples, atol=1e-12)

    def test_nonuniform_refused(self, tmp_path):
        p = tmp_path / "belt.csv"
        p.write_text("t_ms,amplitude\n0,1\n40,2\n90,3\n120,4\n160,5\n")
        with pytest.raises(NonUniformSampling):
            read_physio(p)

    def test_bad_header_row(self, tmp_path):
        p = tmp_path / "belt.csv"
        p.write_text("time,amp\n0,1\n40,2\n")
        with pytest.raises(MalformedHeader):
            read_physio(p)

    def test_non_numeric_field_names_line(self, tmp_path):
        p = tmp_path / "belt.csv"
        p.write_text("t_ms,amplitude\n0,1\n40,oops\n")
        with pytest.raises(MalformedRow, match=r":3:"):
            read_physio(p)

    def test_trace_needs_two_samples(self):
        with pytest.raises(ValueOutOfRange):
            PhysioTrace(40.0, 0.0, np.array([1.0]), PhysioKind.RESP_BELT)

    @pytest.mark.parametrize("interval, t0", [
        (math.nan, 0.0), (math.inf, 0.0), (40.0, math.nan), (40.0, math.inf), (40.0, -math.inf),
    ])
    def test_trace_clock_must_be_finite(self, interval, t0):
        with pytest.raises(ValueOutOfRange):
            PhysioTrace(interval, t0, np.sin(np.linspace(0, 6, 250)), PhysioKind.RESP_BELT)


def loop_read_physio(path, kind=PhysioKind.RESP_BELT):
    """Reference physio reader: the whole text split into lines and each
    row parsed with float(), as read_physio did before it used loadtxt."""
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"{path}: non-ASCII content: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != "t_ms,amplitude":
        raise MalformedHeader(f"{path}: expected header line 't_ms,amplitude'")
    times, amps = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise MalformedRow(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
        try:
            t, a = float(parts[0]), float(parts[1])
        except ValueError:
            raise MalformedRow(f"{path}:{lineno}: non-numeric field") from None
        if not (math.isfinite(t) and math.isfinite(a)):
            raise MalformedRow(f"{path}:{lineno}: non-finite value")
        times.append(t)
        amps.append(a)
    if len(times) < 2:
        raise MalformedRow(f"{path}: trace needs at least 2 samples")
    t_arr = np.asarray(times, dtype=np.float64)
    gaps = np.diff(t_arr)
    interval = float(np.median(gaps))
    if interval <= 0:
        raise NonUniformSampling(f"{path}: timestamps not strictly increasing")
    if np.any(np.abs(gaps - interval) > 0.01 * interval):
        worst = int(np.argmax(np.abs(gaps - interval)))
        raise NonUniformSampling(f"{path}: gap at row {worst + 2} is {gaps[worst]:g} ms, "
                                 f"median interval {interval:g} ms")
    return PhysioTrace(interval, float(t_arr[0]), np.asarray(amps), kind)


def outcome(reader, path):
    """What reader makes of path: its trace's clock and sample bytes, or
    its exception's class and message."""
    try:
        trace = reader(path)
    except InputError as exc:
        return type(exc), str(exc)
    return trace.sample_interval, trace.t0, trace.samples.dtype, trace.samples.tobytes()


def belt_rows(n, fmt="{!r}"):
    rng = np.random.default_rng(n)
    return [f"{fmt.format(40.0 * k)},{fmt.format(float(a))}"
            for k, a in enumerate(rng.normal(0.0, 1.0, n))]


HEADER = "t_ms,amplitude"
PHYSIO_TEXTS = {
    "plain": "\n".join([HEADER] + belt_rows(30)) + "\n",
    "no-final-newline": "\n".join([HEADER] + belt_rows(5)),
    "formats": "\n".join([HEADER, "0,+1.5", " 40 ,-2e-3 ", "80.0,.5", "\t120,5.", "1.6e2,1E2",
                          "200,-0.0", "240,1e-400", "280,0.1000000000000000055511151231257827"]),
    "blank-lines": "\n".join([HEADER, "", "0,1", "", "", "40,2", "80,3", ""]),
    "whitespace-lines": "\n".join([HEADER, "0,1", "   ", "40,2", "\t", "80,3"]),
    "crlf": "\r\n".join([HEADER] + belt_rows(6)) + "\r\n",
    "cr": "\r".join([HEADER] + belt_rows(6)) + "\r",
    "vt-line-ends": "\x0b".join([HEADER] + belt_rows(6)) + "\n",
    "ff-line-ends": "\x0c".join([HEADER] + belt_rows(6)),
    "vt-after-rows": "\n".join([HEADER] + [row + "\x0b" for row in belt_rows(6)]),
    "ff-after-header": HEADER + "\x0c\n" + "\n".join(belt_rows(6)),
    "vt-header-end": HEADER + "\x0b" + "\n".join(belt_rows(6)),
    # loadtxt would read "0\x0b" as a number and join the two lines into one row
    "vt-before-comma": "\n".join([HEADER, "0\x0b,1", "40,2", "80,3"]),
    "fs-line-ends": "\x1c".join([HEADER] + belt_rows(6)),
    # loadtxt would read "\x1f1" as 1; float() refuses it
    "us-before-number": "\n".join([HEADER, "0,\x1f1", "40,2", "80,3"]),
    "us-after-number": "\n".join([HEADER, "0,1", "40\x1f,2", "80,3"]),
    "underscore": "\n".join([HEADER, "0,1_0", "40,2", "80,3"]),
    "underscore-time": "\n".join([HEADER, "0,1", "4_0,2", "80,3"]),
    "hex": "\n".join([HEADER, "0,0x10", "40,2", "80,3"]),
    "inf": "\n".join([HEADER, "0,1", "40,inf", "80,3"]),
    "minus-infinity": "\n".join([HEADER, "0,1", "40,-Infinity", "80,3"]),
    "overflow": "\n".join([HEADER, "0,1", "40,1e400", "80,3"]),
    "nan": "\n".join([HEADER, "0,nan", "40,2", "80,3"]),
    "one-row": HEADER + "\n0,1\n",
    "no-rows": HEADER + "\n",
    "only-blank-rows": HEADER + "\n\n  \n",
    "empty-file": "",
    "three-fields": "\n".join([HEADER, "0,1,2", "40,2,3", "80,3,4"]),
    "one-three-field-row": "\n".join([HEADER, "0,1", "40,2,3", "80,3"]),
    "one-field": "\n".join([HEADER, "0", "40", "80"]),
    "empty-field": "\n".join([HEADER, "0,", "40,2", "80,3"]),
    "empty-time": "\n".join([HEADER, "0,1", ",2", "80,3"]),
    "quoted": "\n".join([HEADER, '"0",1', "40,2", "80,3"]),
    "quoted-header": '"t_ms","amplitude"\n0,1\n40,2\n',
    "comment-line": "\n".join([HEADER, "# belt", "0,1", "40,2"]),
    "trailing-comment": "\n".join([HEADER, "0,1 # first", "40,2", "80,3"]),
    "padded-header": "  t_ms,amplitude \t\n" + "\n".join(belt_rows(4)),
    "wrong-header": "time,amp\n0,1\n40,2\n",
    "non-uniform": "\n".join([HEADER, "0,1", "40,2", "90,3", "120,4", "160,5"]),
    "decreasing": "\n".join([HEADER, "80,1", "40,2", "0,3"]),
}
PHYSIO_BYTES = {
    "latin-1": (HEADER + "\n0,1\n40,2\xe9\n").encode("latin-1"),
    "utf-8-header": ("t_ms,amplitude\u00b5\n0,1\n40,2\n").encode("utf-8"),
    "nul": (HEADER + "\n0,1\x00\n40,2\n80,3\n").encode("ascii"),
}


class TestPhysioReaders:
    """read_physio parses rows with np.loadtxt and hands every file that
    loadtxt refuses or may read otherwise to a line-at-a-time parser: the
    two must accept the same files with the same values, and refuse the
    rest with the same error."""

    @pytest.mark.parametrize("name", sorted(PHYSIO_TEXTS) + sorted(PHYSIO_BYTES))
    def test_agrees_with_loop(self, tmp_path, name):
        path = tmp_path / "belt.csv"
        if name in PHYSIO_BYTES:
            path.write_bytes(PHYSIO_BYTES[name])
        else:
            path.write_bytes(PHYSIO_TEXTS[name].encode("ascii"))
        assert outcome(read_physio, path) == outcome(loop_read_physio, path)

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.sampled_from(
        ["0", "40", "80", "120", " 160 ", "1.25", "-3e-2", "1_0", "0x10", "inf", "nan", "1e400",
         "", '"1"', "#", ",", " ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f"]),
        max_size=24), st.booleans())
    def test_agrees_with_loop_on_token_soup(self, tmp_path_factory, tokens, uniform_head):
        # a run of uniform rows first, so that many soups parse
        head = "\n".join([HEADER] + belt_rows(4 if uniform_head else 0))
        path = tmp_path_factory.mktemp("soup") / "belt.csv"
        path.write_bytes((head + "\n" + "".join(tokens)).encode("ascii"))
        assert outcome(read_physio, path) == outcome(loop_read_physio, path)

    def test_plain_file_is_read_by_loadtxt(self, tmp_path, monkeypatch):
        path = tmp_path / "belt.csv"
        path.write_text(PHYSIO_TEXTS["plain"], encoding="ascii")
        expected = outcome(loop_read_physio, path)

        def refuse(*args):
            raise AssertionError("the line-at-a-time parser ran")

        monkeypatch.setattr(ingest, "_loop_rows", refuse)
        assert outcome(read_physio, path) == expected

    def test_reading_a_trace_imports_no_gzip(self, tmp_path):
        # given a path, loadtxt opens it through numpy's datasource, which
        # imports gzip (about 0.07 MB) into the job; a fresh interpreter
        # shows what one read_physio call imports
        path = tmp_path / "belt.csv"
        path.write_text(PHYSIO_TEXTS["plain"], encoding="ascii")
        src = os.path.dirname(os.path.dirname(os.path.abspath(ingest.__file__)))
        code = (f"import sys; sys.path.insert(0, {src!r}); from csfdyn import read_physio; "
                f"read_physio({str(path)!r}); print('gzip' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.split() == ["False"]


# every dataclass built from outside input: file headers, phantom spec
# sections, pipeline parameters (PhantomSpec itself holds only sections
# and the seed, and is covered through its sections and test_phantom)
CHECKED = (SeriesHeader, LumenSpec, GridSpec, CardiacSpec, RespSpec, AcquisitionSpec,
           PipelineParams)


def _default(cls):
    return make_header() if cls is SeriesHeader else cls()


@pytest.mark.parametrize("cls,name", [(cls, f.name) for cls in CHECKED for f in fields(cls)],
                         ids=lambda x: getattr(x, "__name__", x))
def test_field_check_refuses_values_outside_its_type(cls, name):
    tp = get_type_hints(cls)[name]
    bad = [math.nan, math.inf, -math.inf, "1", 1 if tp is bool else True]
    if tp is int:
        bad.append(1.5)
    base = asdict(_default(cls))
    for value in bad:
        with pytest.raises(InputError, match=name):
            cls(**{**base, name: value})


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_defaults_round_trip_through_json(cls):
    obj = _default(cls)
    assert cls(**json.loads(json.dumps(asdict(obj)))) == obj
