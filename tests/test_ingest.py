"""Container and physio file round-trips, header validation."""

import errno
import json
import math
import tracemalloc
from dataclasses import asdict, fields
from typing import get_type_hints

import numpy as np
import pytest

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
