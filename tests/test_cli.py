"""Command line behavior: full phantom -> process -> cohort chain,
config-over-flags precedence, exit codes."""

import hashlib
import json
import math
import mmap
import os
import re
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

from csfdyn import VelocitySeries, cli, ingest, reporting, velocity
from csfdyn.cli import main


@pytest.fixture(scope="module")
def phantom_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("phantom")
    rc = main(["phantom", "--out", str(out), "--modulation", "0.09", "--gated"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def processed_dir(phantom_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("processed")
    rc = main([
        "process",
        "--series", str(phantom_dir / "series.csfd"),
        "--roi", str(phantom_dir / "lumen.pgm"),
        "--static", str(phantom_dir / "static.pgm"),
        "--belt", str(phantom_dir / "belt.csv"),
        "--out", str(out),
    ])
    assert rc == 0
    return out


class TestPhantom:
    def test_writes_dataset(self, phantom_dir):
        for name in ("series.csfd", "belt.csv", "plethysmo.csv",
                     "lumen.pgm", "static.pgm", "truth.json", "spec.json",
                     "gated.csfd"):
            assert (phantom_dir / name).is_file(), name

    def test_spec_echoes_modulation(self, phantom_dir):
        spec = json.loads((phantom_dir / "spec.json").read_text())
        assert spec["resp"]["modulation_insp"] == pytest.approx(0.09)

    def test_preset_spinal(self, tmp_path):
        rc = main(["phantom", "--out", str(tmp_path / "sp"), "--preset", "spinal"])
        assert rc == 0
        spec = json.loads((tmp_path / "sp" / "spec.json").read_text())
        assert spec["lumen"]["label"] == "SPINAL_CANAL"

    def test_cohort_generation(self, tmp_path):
        out = tmp_path / "coh"
        rc = main(["phantom", "--out", str(out), "--cohort", "3", "--seed", "5"])
        assert rc == 0
        listing = json.loads((out / "cohort_specs.json").read_text())
        assert [s["id"] for s in listing["subjects"]] == ["S01", "S02", "S03"]
        assert (out / "S02" / "series.csfd").is_file()

    @pytest.mark.parametrize("cohort", [[], ["--cohort", "2"]], ids=["one", "cohort"])
    def test_out_under_a_file_is_input_error(self, tmp_path, capsys, monkeypatch, cohort):
        # refused before any phantom is built
        def unreachable(spec):
            raise AssertionError("generate ran")

        monkeypatch.setattr(cli, "generate", unreachable)
        blocker = tmp_path / "afile"
        blocker.write_text("")
        assert main(["phantom", "--out", str(blocker / "x"), *cohort]) == 2
        assert f"csfdyn: input error: cannot write {blocker / 'x'}" in \
            capsys.readouterr().err

    def test_bad_spec_file(self, tmp_path):
        bad = tmp_path / "spec.json"
        bad.write_text("{not json")
        rc = main(["phantom", "--out", str(tmp_path / "x"), "--spec", str(bad)])
        assert rc == 2

    def test_infinite_duration_is_input_error(self, tmp_path, capsys):
        # the onset draw would never reach an infinite duration
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"acquisition": {"duration": math.inf}}))
        rc = main(["phantom", "--out", str(tmp_path / "x"), "--spec", str(spec)])
        assert rc == 2
        assert "duration" in capsys.readouterr().err

    def test_belt_interval_over_duration_is_input_error(self, tmp_path, capsys):
        # refused with the spec, before the truth or the output directory
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"resp": {"belt_interval": 1e6}}))
        rc = main(["phantom", "--out", str(tmp_path / "x"), "--spec", str(spec)])
        assert rc == 2
        assert "belt_interval" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("cohort", [[], ["--cohort", "2"]], ids=["one", "cohort"])
    def test_gated_series_kind_refused_before_any_directory(self, tmp_path, capsys,
                                                            cohort):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"acquisition": {"series_kind": "GATED_CONV"}}))
        out = tmp_path / "x"
        assert main(["phantom", "--out", str(out), "--spec", str(spec), *cohort]) == 2
        assert "series_kind GATED_CONV is refused" in capsys.readouterr().err
        assert not out.exists()

    def test_flowless_lumen_is_input_error(self, tmp_path, capsys):
        # every lumen pixel centre lies on the radius, where POISEUILLE
        # weights are 0: no series is written beside a truth it cannot hold
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"lumen": {
            "center_row": 10.5, "center_col": 10.5, "radius_px": 0.7071067811865476,
            "profile": "POISEUILLE"}}))
        rc = main(["phantom", "--out", str(tmp_path / "x"), "--spec", str(spec)])
        assert rc == 2
        assert "positive flow weight" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestProcess:
    def test_outputs(self, processed_dir):
        for name in ("report.json", "curves.csv", "curves.svg"):
            assert (processed_dir / name).is_file()

    def test_report_contents(self, processed_dir, phantom_dir):
        rep = json.loads((processed_dir / "report.json").read_text())
        assert rep["kind"] == "subject"
        assert rep["roi_label"] == "AQUEDUCT"
        assert rep["unit"] == "uL"
        assert 0.07 <= rep["sv_modulation"] <= 0.11
        assert rep["inputs"]["series"]["sha256"]
        assert rep["gating"]["method"] == "FLOW_PEAKS"

    def test_svg_is_xml(self, processed_dir):
        import xml.etree.ElementTree as ET

        root = ET.fromstring((processed_dir / "curves.svg").read_text())
        assert root.tag.endswith("svg")

    def test_rerun_byte_identical(self, phantom_dir, tmp_path):
        args = [
            "process",
            "--series", str(phantom_dir / "series.csfd"),
            "--roi", str(phantom_dir / "lumen.pgm"),
            "--static", str(phantom_dir / "static.pgm"),
            "--belt", str(phantom_dir / "belt.csv"),
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("report.json", "curves.csv", "curves.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_gated_series_processes(self, phantom_dir, tmp_path):
        rc = main([
            "process",
            "--series", str(phantom_dir / "gated.csfd"),
            "--roi", str(phantom_dir / "lumen.pgm"),
            "--static", str(phantom_dir / "static.pgm"),
            "--out", str(tmp_path / "g"),
        ])
        assert rc == 0
        rep = json.loads((tmp_path / "g" / "report.json").read_text())
        assert rep["gating"] is None
        assert rep["sv"]["global"]["sv"] > 0

    @pytest.mark.parametrize("refine", [[], ["--refine-threshold", "0.5"]],
                             ids=["box", "refine"])
    def test_flip_sign_negates_the_offset(self, phantom_dir, processed_dir, tmp_path, refine):
        # the sign is applied once, to the offset and the flow: the flipped
        # report's offset is the unflipped one's with its sign turned, with
        # or without refinement, which takes the same static moments
        rc = main([
            "process",
            "--series", str(phantom_dir / "series.csfd"),
            "--roi", str(phantom_dir / "lumen.pgm"),
            "--static", str(phantom_dir / "static.pgm"),
            "--belt", str(phantom_dir / "belt.csv"),
            "--flip-sign",
            "--out", str(tmp_path / "f"),
        ] + refine)
        assert rc == 0
        key = re.compile(r'"background_offset_cmps": ([^,\n]+)')
        plain, flipped = (key.search((d / "report.json").read_text()).group(1)
                          for d in (processed_dir, tmp_path / "f"))
        assert float(plain) != 0.0
        assert flipped == (plain[1:] if plain.startswith("-") else "-" + plain)

    def test_config_overrides_flags(self, phantom_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"unit": "mL", "interp": "linear"}))
        out = tmp_path / "cfgout"
        rc = main([
            "process",
            "--series", str(phantom_dir / "series.csfd"),
            "--roi", str(phantom_dir / "lumen.pgm"),
            "--belt", str(phantom_dir / "belt.csv"),
            "--unit", "uL",
            "--config", str(cfg),
            "--out", str(out),
        ])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["unit"] == "mL"
        assert rep["interpolation"] == "linear"

    def test_unknown_config_key(self, phantom_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_option": 1}))
        rc = main([
            "process",
            "--series", str(phantom_dir / "series.csfd"),
            "--roi", str(phantom_dir / "lumen.pgm"),
            "--belt", str(phantom_dir / "belt.csv"),
            "--config", str(cfg),
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("entry", [
        {"gate": "pleth"},
        {"flip_sign": "false"},
        {"anchor": 1.7},
        {"unit": "kL"},
    ], ids=lambda entry: next(iter(entry)))
    def test_bad_config_value_is_input_error(self, phantom_dir, tmp_path, capsys, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        rc = main([
            "process",
            "--series", str(phantom_dir / "series.csfd"),
            "--roi", str(phantom_dir / "lumen.pgm"),
            "--belt", str(phantom_dir / "belt.csv"),
            "--config", str(cfg),
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert next(iter(entry)) in capsys.readouterr().err

    @pytest.mark.parametrize("command,entry", [
        ("phantom", {"seed": "abc"}),
        ("phantom", {"seed": 1.5}),
        ("phantom", {"modulation": "x"}),
        ("phantom", {"cohort": 2.5}),
        ("phantom", {"preset": "x"}),
        ("phantom", {"gated": "no"}),
        ("cohort", {"spearman_exact": "false"}),
    ], ids=lambda x: x if isinstance(x, str) else json.dumps(x))
    def test_bad_config_value_of_other_commands(self, tmp_path, capsys, command, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "x")]
        if command == "cohort":
            argv += ["--pairs", str(tmp_path / "pairs.json")]
        assert main(argv) == 2
        assert next(iter(entry)) in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("frame_interval", math.nan), ("width", 16.9),
                                           ("t0", 1e19)])
    def test_bad_header_value_is_input_error(self, phantom_dir, tmp_path, capsys, key,
                                             value):
        blob = (phantom_dir / "series.csfd").read_bytes()
        hlen = int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12 : 12 + hlen])
        header[key] = value
        head = json.dumps(header).encode()
        series = tmp_path / "bad.csfd"
        series.write_bytes(blob[:8] + len(head).to_bytes(4, "little") + head
                           + blob[12 + hlen :])
        rc = main([
            "process",
            "--series", str(series),
            "--roi", str(phantom_dir / "lumen.pgm"),
            "--belt", str(phantom_dir / "belt.csv"),
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["-5", "0"])
    def test_non_positive_smoothing_window_is_input_error(self, phantom_dir, tmp_path,
                                                          capsys, window):
        rc = main([
            "process",
            "--series", str(phantom_dir / "series.csfd"),
            "--roi", str(phantom_dir / "lumen.pgm"),
            "--belt", str(phantom_dir / "belt.csv"),
            "--smoothing-window", window,
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert "smoothing_window" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, rc", [("--max-rr", 0), ("--smoothing-window", 3)])
    def test_window_longer_than_the_recording(self, phantom_dir, tmp_path, capsys, flag, rc):
        # a max_rr detrend that long removes only the mean; a belt smoothed
        # that long is flat, a refusal. Neither is an internal error
        assert main([
            "process",
            "--series", str(phantom_dir / "series.csfd"),
            "--roi", str(phantom_dir / "lumen.pgm"),
            "--belt", str(phantom_dir / "belt.csv"),
            flag, "1e300",
            "--out", str(tmp_path / "x"),
        ]) == rc
        assert "internal error" not in capsys.readouterr().err

    def test_missing_series_is_input_error(self, phantom_dir, tmp_path):
        rc = main([
            "process",
            "--series", str(tmp_path / "nope.csfd"),
            "--roi", str(phantom_dir / "lumen.pgm"),
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 2

    def test_missing_belt_is_input_error(self, phantom_dir, tmp_path, capsys):
        rc = main([
            "process",
            "--series", str(phantom_dir / "series.csfd"),
            "--roi", str(phantom_dir / "lumen.pgm"),
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert "gating" in capsys.readouterr().err

    def test_anchor_past_the_series_is_velocity_input_error(self, phantom_dir, tmp_path,
                                                            capsys, monkeypatch):
        # the static offset checks the anchor before any of its passes reads
        # the series; the spies stand in for the passes and read nothing
        passes = []
        for name in ("_spans", "_lattice_means", "pixel_moments"):
            monkeypatch.setattr(velocity, name,
                                lambda *args, name=name, **kwargs: passes.append(name))
        rc = main([
            "process",
            "--series", str(phantom_dir / "series.csfd"),
            "--roi", str(phantom_dir / "lumen.pgm"),
            "--static", str(phantom_dir / "static.pgm"),
            "--belt", str(phantom_dir / "belt.csv"),
            "--anchor", "100000",
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "csfdyn: input error [velocity]: anchor frame 100000 outside 0..")
        assert passes == []
        assert not (tmp_path / "x").exists()

    def test_out_that_is_a_file_is_input_error(self, phantom_dir, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        rc = main([
            "process",
            "--series", str(phantom_dir / "series.csfd"),
            "--roi", str(phantom_dir / "lumen.pgm"),
            "--belt", str(phantom_dir / "belt.csv"),
            "--out", str(blocker),
        ])
        assert rc == 2
        assert f"csfdyn: input error: cannot write {blocker}" in capsys.readouterr().err

    def test_refusal_exit_code(self, tmp_path, capsys):
        # a run too short for the requested cycle-length window cannot be
        # gated: that is a refusal, not an input error
        ph = tmp_path / "ph"
        assert main(["phantom", "--out", str(ph),
                     "--config", str(_write_duration_cfg(tmp_path))]) == 0
        rc = main([
            "process",
            "--series", str(ph / "series.csfd"),
            "--roi", str(ph / "lumen.pgm"),
            "--belt", str(ph / "belt.csv"),
            "--min-rr", "1500", "--max-rr", "2100",
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 3
        assert "refusing" in capsys.readouterr().err

    def test_refinement_finding_nothing_is_refusal(self, tmp_path, capsys):
        # at 0.6 rad of phase noise no seed pixel correlates at 0.5 with the
        # seed's mean: the files are well-formed, so this is a refusal
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"acquisition": {"noise_sd_phase": 0.6}}))
        ph = tmp_path / "ph"
        assert main(["phantom", "--out", str(ph), "--spec", str(spec), "--seed", "1"]) == 0
        rc = main([
            "process",
            "--series", str(ph / "series.csfd"),
            "--roi", str(ph / "lumen.pgm"),
            "--static", str(ph / "static.pgm"),
            "--belt", str(ph / "belt.csv"),
            "--refine-threshold", "0.5", "--anchor", "100",
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 3
        assert "refusing [flow]: no pixel met the correlation threshold" in \
            capsys.readouterr().err

    def test_series_is_mapped_once_and_hashed_from_its_map(self, phantom_dir, tmp_path,
                                                           monkeypatch):
        # each live map of the series file counts toward the resident set:
        # the hash reads the one map map_series made, and no other exists
        series_path = phantom_dir / "series.csfd"
        ident = (series_path.stat().st_dev, series_path.stat().st_ino)
        maps, at_hash = [], []
        real_hash = reporting.sha256_of

        class RecordingMmap(mmap.mmap):
            def __new__(cls, fileno, *args, **kwargs):
                mapped = super().__new__(cls, fileno, *args, **kwargs)
                st = os.fstat(fileno)
                if (st.st_dev, st.st_ino) == ident:
                    maps.append(weakref.ref(mapped))
                return mapped

        def checking_hash(source, **kwargs):
            live = [ref() for ref in maps if ref() is not None and not ref().closed]
            at_hash.append((len(live), live[0] is source if live else False))
            return real_hash(source, **kwargs)

        monkeypatch.setattr(mmap, "mmap", RecordingMmap)
        monkeypatch.setattr(reporting, "sha256_of", checking_hash)
        out = tmp_path / "x"
        rc = main([
            "process",
            "--series", str(series_path),
            "--roi", str(phantom_dir / "lumen.pgm"),
            "--belt", str(phantom_dir / "belt.csv"),
            "--out", str(out),
        ])
        assert rc == 0
        assert len(maps) == 1, "the series file was not mapped exactly once"
        assert at_hash == [(1, True)]
        report = json.loads((out / "report.json").read_text())
        assert report["inputs"]["series"]["sha256"] == \
            hashlib.sha256(series_path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def noisy_dir(tmp_path_factory):
    """At 0.6 rad of phase noise no seed pixel correlates at 0.5 with the
    seed's mean, so --refine-threshold 0.5 is refused (exit 3)."""
    base = tmp_path_factory.mktemp("noisy")
    spec = base / "spec.json"
    spec.write_text(json.dumps({"acquisition": {"noise_sd_phase": 0.6}}))
    assert main(["phantom", "--out", str(base / "ph"), "--spec", str(spec),
                 "--seed", "1"]) == 0
    return base / "ph"


class TestSeriesHashThread:
    """The series is hashed in one worker thread; every exit waits for it."""

    REFUSAL = "csfdyn: refusing [flow]: no pixel met the correlation threshold\n"

    @staticmethod
    def _argv(ph, out, case):
        argv = ["process", "--series", str(ph / "series.csfd"),
                "--roi", str(ph / "lumen.pgm"), "--static", str(ph / "static.pgm"),
                "--belt", str(ph / "belt.csv"), "--out", str(out)]
        if case == "unreadable-belt":
            argv[argv.index("--belt") + 1] = str(out.parent / "missing.csv")
        elif case == "refusal":
            argv += ["--refine-threshold", "0.5", "--anchor", "100"]
        return argv

    @staticmethod
    def _timed_hash(monkeypatch, delay_s=0.0):
        """Record the start and end of each hash the worker makes."""
        events = []
        real_hash = reporting.sha256_of

        def hash_(source, **kwargs):
            events.append("start")
            time.sleep(delay_s)
            digest = real_hash(source, **kwargs)
            events.append("end")
            return digest

        monkeypatch.setattr(reporting, "sha256_of", hash_)
        return events

    @pytest.mark.parametrize("case, rc", [("ok", 0), ("unreadable-belt", 2),
                                          ("refusal", 3)])
    def test_no_thread_outlives_the_command(self, phantom_dir, noisy_dir, tmp_path,
                                            monkeypatch, capsys, case, rc):
        events = self._timed_hash(monkeypatch)
        ph = noisy_dir if case == "refusal" else phantom_dir
        before = threading.active_count()
        assert main(self._argv(ph, tmp_path / "x", case)) == rc
        assert threading.active_count() == before
        assert events == ["start", "end"]
        err = capsys.readouterr().err
        if case == "unreadable-belt":
            assert err.startswith("csfdyn: input error: cannot read ") and "missing.csv" in err
        elif case == "refusal":
            assert err == self.REFUSAL

    def test_refusal_waits_for_a_slow_hash(self, noisy_dir, tmp_path, monkeypatch, capsys):
        events = self._timed_hash(monkeypatch, delay_s=0.5)
        before = threading.active_count()
        t0 = time.perf_counter()
        assert main(self._argv(noisy_dir, tmp_path / "x", "refusal")) == 3
        assert time.perf_counter() - t0 >= 0.5
        assert threading.active_count() == before
        assert events == ["start", "end"]
        assert capsys.readouterr().err == self.REFUSAL
        assert not (tmp_path / "x").exists()


class TestSeriesFileOrder:
    """The series is hashed from the moment map_series has checked its
    header and size and mapped it. Those faults exit 2 before any hash
    starts; a bad value exits 2 after the hash is submitted, before any
    mask is read, and writes no output."""

    @staticmethod
    def _recorded(monkeypatch):
        """Record each hash and each mask read, in the order they start."""
        events = []
        real_hash, real_mask = reporting.sha256_of, cli.read_mask

        def hash_(source, **kwargs):
            events.append("hash")
            return real_hash(source, **kwargs)

        def read_mask(*args, **kwargs):
            events.append("mask")
            return real_mask(*args, **kwargs)

        monkeypatch.setattr(reporting, "sha256_of", hash_)
        monkeypatch.setattr(cli, "sha256_of", hash_)
        monkeypatch.setattr(cli, "read_mask", read_mask)
        return events

    @staticmethod
    def _argv(ph, series, out):
        return ["process", "--series", str(series), "--roi", str(ph / "lumen.pgm"),
                "--static", str(ph / "static.pgm"), "--belt", str(ph / "belt.csv"),
                "--out", str(out)]

    @pytest.mark.parametrize("value, message", [
        (math.nan, "frames contain non-finite values"),
        (math.pi, "phase values must lie in [-pi, pi)"),
    ], ids=["nan", "pi"])
    def test_bad_value_refused_before_any_mask(self, phantom_dir, tmp_path, monkeypatch,
                                               capsys, value, message):
        # 4 payload bytes of the valid phase series become a bad float32
        blob = bytearray((phantom_dir / "series.csfd").read_bytes())
        at = len(blob) - 4 * 1000
        blob[at : at + 4] = np.float32(value).astype("<f4").tobytes()
        series = tmp_path / "bad.csfd"
        series.write_bytes(bytes(blob))
        events = self._recorded(monkeypatch)
        out = tmp_path / "x"
        assert main(self._argv(phantom_dir, series, out)) == 2
        assert capsys.readouterr().err == f"csfdyn: input error: {message}\n"
        assert events == ["hash"]
        assert not out.exists()

    def test_refused_series_is_not_hashed_to_the_end(self, phantom_dir, tmp_path,
                                                     monkeypatch, capsys):
        # 1 MiB slices, and the first one is digested only once the command
        # has stopped the hash, so the refusal always lands mid-digest
        blob = bytearray((phantom_dir / "series.csfd").read_bytes())
        blob[-4000:-3996] = np.float32(math.nan).astype("<f4").tobytes()
        series = tmp_path / "bad.csfd"
        series.write_bytes(bytes(blob))
        stops, digested = [], []

        class RecordingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stops.append(kwargs["stop"])
                return super().submit(fn, *args, **kwargs)

        class Digest:
            def __init__(self):
                self.real = hashlib.sha256()

            def update(self, data):
                assert stops[0].wait(timeout=30)
                digested.append(len(data))
                self.real.update(data)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(reporting, "hashlib", type("hashlib", (), {"sha256": Digest}))
        monkeypatch.setattr(reporting, "_HASH_SLICE", 1 << 20)
        before = threading.active_count()
        assert main(self._argv(phantom_dir, series, tmp_path / "x")) == 2
        assert capsys.readouterr().err == \
            "csfdyn: input error: frames contain non-finite values\n"
        assert threading.active_count() == before
        assert digested == [1 << 20] and len(blob) > 2 << 20

    @pytest.mark.parametrize("case, message", [
        ("bad-magic", "not a CSFDYN01 container"),
        ("truncated-header", "truncated header"),
        ("not-json", "header is not valid JSON"),
        ("short-payload", "header promises"),
        ("unmappable", "cannot map"),
    ])
    def test_file_fault_refused_before_any_hash(self, phantom_dir, tmp_path, monkeypatch,
                                                capsys, case, message):
        blob = (phantom_dir / "series.csfd").read_bytes()
        hlen = int.from_bytes(blob[8:12], "little")
        blob = {
            "bad-magic": b"NOTMAGIC" + blob[8:],
            "truncated-header": blob[: 12 + hlen // 2],
            "not-json": blob[:12] + b"{" * hlen + blob[12 + hlen :],
            "short-payload": blob[:-4],
            "unmappable": blob,
        }[case]
        series = tmp_path / "bad.csfd"
        series.write_bytes(blob)
        if case == "unmappable":
            def refuse(*args, **kwargs):
                raise OSError("No such device")

            monkeypatch.setattr(ingest.mmap, "mmap", refuse)
        events = self._recorded(monkeypatch)
        out = tmp_path / "x"
        assert main(self._argv(phantom_dir, series, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("csfdyn: input error: ") and message in err
        assert events == []
        assert not out.exists()

    def test_hash_submitted_before_the_value_check(self, phantom_dir, tmp_path, monkeypatch):
        # the order of the calls, not their timing: the worker's own hash
        # may start at any point after its submission, so it is left out
        events = self._recorded(monkeypatch)

        class RecordingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                events.append("submit")
                return super().submit(fn, *args, **kwargs)

        check = VelocitySeries.__post_init__

        def checking(series):
            events.append("check")
            check(series)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(VelocitySeries, "__post_init__", checking)
        argv = self._argv(phantom_dir, phantom_dir / "series.csfd", tmp_path / "x")
        assert main(argv) == 0
        assert [e for e in events if e != "hash"][:4] == ["submit", "check", "mask", "mask"]


def _write_duration_cfg(tmp_path):
    """Phantom spec with a 6 s run: valid to generate, too short to gate
    once min_rr is pushed up."""
    spec_path = tmp_path / "short_spec.json"
    import csfdyn

    spec = csfdyn.PhantomSpec()
    d = asdict(spec)
    d["acquisition"]["duration"] = 6000.0
    spec_path.write_text(json.dumps(d))
    cfg = tmp_path / "phantom_cfg.json"
    cfg.write_text(json.dumps({"spec": str(spec_path)}))
    return cfg


class TestCohort:
    @pytest.fixture(scope="class")
    @staticmethod
    def cohort_out(tmp_path_factory):
        base = tmp_path_factory.mktemp("cohortchain")
        ph = base / "ph"
        assert main(["phantom", "--out", str(ph), "--cohort", "5",
                     "--modulation", "0.09", "--gated", "--seed", "3"]) == 0
        entries = []
        for sid in ("S01", "S02", "S03", "S04", "S05"):
            sub = ph / sid
            epi_out = base / f"{sid}_epi"
            conv_out = base / f"{sid}_conv"
            assert main(["process", "--series", str(sub / "series.csfd"),
                         "--roi", str(sub / "lumen.pgm"),
                         "--static", str(sub / "static.pgm"),
                         "--belt", str(sub / "belt.csv"),
                         "--out", str(epi_out)]) == 0
            assert main(["process", "--series", str(sub / "gated.csfd"),
                         "--roi", str(sub / "lumen.pgm"),
                         "--static", str(sub / "static.pgm"),
                         "--out", str(conv_out)]) == 0
            entries.append({"id": sid,
                            "conv": str(conv_out / "report.json"),
                            "epi": str(epi_out / "report.json")})
        manifest = base / "pairs.json"
        manifest.write_text(json.dumps({"subjects": entries}))
        out = base / "cohort"
        assert main(["cohort", "--pairs", str(manifest), "--out", str(out),
                     "--paired-t"]) == 0
        return out

    def test_cohort_report(self, cohort_out):
        rep = json.loads((cohort_out / "cohort.json").read_text())
        assert rep["kind"] == "cohort"
        block = rep["per_roi"]["AQUEDUCT"]
        assert block["n"] == 5
        assert block["spearman"]["n"] == 5
        assert 0 <= block["wilcoxon"]["p_value"] <= 1
        assert "paired_t" in block
        assert block["modulation_mean"] == pytest.approx(0.08, abs=0.03)
        assert (cohort_out / "scatter_aqueduct.svg").is_file()

    def test_agreement_between_routes(self, cohort_out):
        rep = json.loads((cohort_out / "cohort.json").read_text())
        block = rep["per_roi"]["AQUEDUCT"]
        # both routes measure the same subjects: strong rank agreement
        assert block["spearman"]["statistic"] >= 0.9

    def test_unpaired_subject(self, cohort_out, tmp_path):
        manifest = tmp_path / "pairs.json"
        manifest.write_text(json.dumps({"subjects": [
            {"id": "S01", "conv": str(tmp_path / "missing.json"),
             "epi": str(tmp_path / "missing.json")}]}))
        rc = main(["cohort", "--pairs", str(manifest), "--out", str(tmp_path / "o")])
        assert rc == 2


    @pytest.mark.parametrize("bad_sv", ["big", None])
    def test_non_numeric_sv_is_input_error(self, tmp_path, capsys, bad_sv):
        entries = []
        for k in range(5):
            report = tmp_path / f"S{k}.json"
            report.write_text(json.dumps({
                "kind": "subject", "roi_label": "AQUEDUCT", "unit": "uL",
                "sv": {"global": {"sv": bad_sv if k == 2 else 100.0 + k}}}))
            entries.append({"id": f"S{k}", "conv": str(report), "epi": str(report)})
        manifest = tmp_path / "pairs.json"
        manifest.write_text(json.dumps({"subjects": entries}))
        rc = main(["cohort", "--pairs", str(manifest), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "S2" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_sv", ["true", "NaN", "1e309"])
    def test_bad_sv_names_the_report_key(self, tmp_path, capsys, bad_sv):
        # JSON text written as is: 1e309 reads as inf, NaN as nan
        entries = []
        for k in range(6):
            report = tmp_path / f"S{k}.json"
            report.write_text(
                '{"kind": "subject", "roi_label": "AQUEDUCT", "unit": "uL", '
                f'"sv": {{"global": {{"sv": {bad_sv if k == 2 else 100.0 + k}}}}}}}')
            entries.append({"id": f"S{k}", "conv": str(tmp_path / "S0.json"),
                            "epi": str(report)})
        manifest = tmp_path / "pairs.json"
        manifest.write_text(json.dumps({"subjects": entries}))
        rc = main(["cohort", "--pairs", str(manifest), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "subject S2:" in err and str(tmp_path / "S2.json") in err
        assert "sv.global.sv" in err and "b:" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad_mod", ["abc", True, math.nan])
    def test_bad_sv_modulation_is_input_error(self, tmp_path, capsys, bad_mod):
        entries = []
        for k in range(6):
            report = tmp_path / f"S{k}.json"
            report.write_text(json.dumps({
                "kind": "subject", "roi_label": "AQUEDUCT", "unit": "uL",
                "sv": {"global": {"sv": 100.0 + k}},
                "sv_modulation": bad_mod if k == 2 else 0.08}))
            entries.append({"id": f"S{k}", "conv": str(report), "epi": str(report)})
        manifest = tmp_path / "pairs.json"
        manifest.write_text(json.dumps({"subjects": entries}))
        rc = main(["cohort", "--pairs", str(manifest), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "S2" in err and "sv_modulation" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("hole", ["sv.global", "roi_label", "unit"])
    def test_report_without_key_is_input_error(self, tmp_path, capsys, hole):
        entries = []
        for k in range(5):
            report = {"kind": "subject", "roi_label": "AQUEDUCT", "unit": "uL",
                      "sv": {"global": {"sv": 100.0 + k}}}
            if k == 2 and hole == "sv.global":
                report["sv"]["global"] = None
            elif k == 2:
                del report[hole]
            path = tmp_path / f"S{k}.json"
            path.write_text(json.dumps(report))
            entries.append({"id": f"S{k}", "conv": str(path), "epi": str(path)})
        manifest = tmp_path / "pairs.json"
        manifest.write_text(json.dumps({"subjects": entries}))
        rc = main(["cohort", "--pairs", str(manifest), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "S2" in err and hole in err

    @pytest.mark.parametrize("key, value", [("roi_label", "AQUEDUCT/x"), ("unit", "furlongs")])
    def test_report_with_unknown_enum_value_is_input_error(self, tmp_path, capsys, key, value):
        # a ROI label names an output file, and the unit is written into
        # cohort.json: either is refused before anything is made
        entries = []
        for k in range(6):
            report = {"kind": "subject", "roi_label": "AQUEDUCT", "unit": "uL",
                      "sv": {"global": {"sv": 100.0 + k}}}
            if k == 2:
                report[key] = value
            path = tmp_path / f"S{k}.json"
            path.write_text(json.dumps(report))
            entries.append({"id": f"S{k}", "conv": str(path), "epi": str(path)})
        manifest = tmp_path / "pairs.json"
        manifest.write_text(json.dumps({"subjects": entries}))
        out = tmp_path / "out"
        assert main(["cohort", "--pairs", str(manifest), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "subject S2:" in err and f"{key} must be one of" in err and value in err
        assert not out.exists()

    @pytest.mark.parametrize("n_spinal, flags, rc", [
        (2, [], 3),                      # too few pairs for Spearman
        (15, ["--spearman-exact"], 2),   # above the exact Spearman limit
    ])
    def test_stats_refusal_names_roi_and_writes_nothing(self, tmp_path, capsys,
                                                        n_spinal, flags, rc):
        # AQUEDUCT sorts first and can be analysed; SPINAL_CANAL cannot
        entries = []
        for k, roi in enumerate(["AQUEDUCT"] * 5 + ["SPINAL_CANAL"] * n_spinal):
            for route, sv in (("conv", 100.0 + k), ("epi", 101.0 + 1.5 * k)):
                path = tmp_path / f"S{k}_{route}.json"
                path.write_text(json.dumps({"kind": "subject", "roi_label": roi,
                                            "unit": "uL", "sv": {"global": {"sv": sv}}}))
            entries.append({"id": f"S{k}", "conv": str(tmp_path / f"S{k}_conv.json"),
                            "epi": str(tmp_path / f"S{k}_epi.json")})
        manifest = tmp_path / "pairs.json"
        manifest.write_text(json.dumps({"subjects": entries}))
        out = tmp_path / "o"
        assert main(["cohort", "--pairs", str(manifest), "--out", str(out), *flags]) == rc
        assert "SPINAL_CANAL" in capsys.readouterr().err
        assert not out.exists()

    def test_mixed_units_within_a_roi_are_refused(self, tmp_path, capsys, monkeypatch):
        # S0 reports in mL, the other AQUEDUCT subjects in uL; SPINAL_CANAL
        # is in mL throughout, which is no refusal on its own
        def write(k, roi, unit):
            for route, sv in (("conv", 100.0 + k), ("epi", 101.0 + 1.5 * k)):
                (tmp_path / f"S{k}_{route}.json").write_text(json.dumps(
                    {"kind": "subject", "roi_label": roi, "unit": unit,
                     "sv": {"global": {"sv": sv}}}))

        rois = ["AQUEDUCT"] * 6 + ["SPINAL_CANAL"] * 5
        for k, roi in enumerate(rois):
            write(k, roi, "mL" if k == 0 or roi == "SPINAL_CANAL" else "uL")
        manifest = tmp_path / "pairs.json"
        manifest.write_text(json.dumps({"subjects": [
            {"id": f"S{k}", "conv": str(tmp_path / f"S{k}_conv.json"),
             "epi": str(tmp_path / f"S{k}_epi.json")} for k in range(len(rois))]}))
        ran = []
        monkeypatch.setattr(cli, "spearman", lambda *args, **kwargs: ran.append(args))
        out = tmp_path / "o"
        assert main(["cohort", "--pairs", str(manifest), "--out", str(out)]) == 2
        assert ("ROI AQUEDUCT mixes units: S0 in mL; S1, S2, S3, S4, S5 in uL"
                in capsys.readouterr().err)
        assert ran == []
        assert not out.exists()
        monkeypatch.undo()
        write(0, "AQUEDUCT", "uL")
        assert main(["cohort", "--pairs", str(manifest), "--out", str(out)]) == 0
        per_roi = json.loads((out / "cohort.json").read_text())["per_roi"]
        assert {roi: block["unit"] for roi, block in per_roi.items()} == {
            "AQUEDUCT": "uL", "SPINAL_CANAL": "mL"}

    def test_digest_is_of_the_parsed_bytes(self, tmp_path, monkeypatch):
        # a report rewritten while the statistics run: the digest recorded
        # is of the bytes whose SV was used
        entries = []
        for k in range(5):
            for route, sv in (("conv", 100.0 + k), ("epi", 101.0 + 1.5 * k)):
                (tmp_path / f"S{k}_{route}.json").write_text(json.dumps(
                    {"kind": "subject", "roi_label": "AQUEDUCT", "unit": "uL",
                     "sv": {"global": {"sv": sv}}}))
            entries.append({"id": f"S{k}", "conv": str(tmp_path / f"S{k}_conv.json"),
                            "epi": str(tmp_path / f"S{k}_epi.json")})
        manifest = tmp_path / "pairs.json"
        manifest.write_text(json.dumps({"subjects": entries}))
        report = tmp_path / "S2_epi.json"
        parsed = report.read_bytes()
        spearman = cli.spearman

        def rewriting_spearman(*args, **kwargs):
            report.write_text(json.dumps({"kind": "subject", "roi_label": "AQUEDUCT",
                                          "unit": "uL", "sv": {"global": {"sv": 1.0}}}))
            return spearman(*args, **kwargs)

        monkeypatch.setattr(cli, "spearman", rewriting_spearman)
        assert main(["cohort", "--pairs", str(manifest), "--out", str(tmp_path / "o")]) == 0
        assert report.read_bytes() != parsed
        rep = json.loads((tmp_path / "o" / "cohort.json").read_text())
        assert rep["per_roi"]["AQUEDUCT"]["epi_sv"][2] == 104.0
        assert rep["inputs"][2]["epi"] == {"path": str(report),
                                           "sha256": hashlib.sha256(parsed).hexdigest()}

    def test_out_that_is_a_file_is_input_error(self, cohort_out, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        rc = main(["cohort", "--pairs", str(cohort_out.parent / "pairs.json"),
                   "--out", str(blocker)])
        assert rc == 2
        assert f"csfdyn: input error: cannot write {blocker}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["conv", "epi"])
    @pytest.mark.parametrize("value", [5, None, ["x"]], ids=["int", "null", "list"])
    def test_manifest_path_must_be_a_string(self, tmp_path, capsys, key, value):
        report = tmp_path / "S0.json"
        report.write_text(json.dumps({"kind": "subject", "roi_label": "AQUEDUCT",
                                      "unit": "uL", "sv": {"global": {"sv": 100.0}}}))
        entry = {"id": "S0", "conv": str(report), "epi": str(report), key: value}
        manifest = tmp_path / "pairs.json"
        manifest.write_text(json.dumps({"subjects": [entry] * 5}))
        rc = main(["cohort", "--pairs", str(manifest), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"subject S0: {key} must be a report path" in err
        assert "internal error" not in err

    def test_manifest_entries_must_be_objects(self, tmp_path):
        manifest = tmp_path / "pairs.json"
        manifest.write_text(json.dumps({"subjects": [1, 2, 3, 4, 5]}))
        rc = main(["cohort", "--pairs", str(manifest), "--out", str(tmp_path / "o")])
        assert rc == 2


class TestNonUtf8Json:
    """A JSON input that is not UTF-8 is an input error (exit 2)."""

    BLOB = b"\xff\xfe{\x00}\x00"  # UTF-16 with its byte-order mark

    def test_config(self, phantom_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(self.BLOB)
        rc = main(["process", "--series", str(phantom_dir / "series.csfd"),
                   "--roi", str(phantom_dir / "lumen.pgm"), "--config", str(cfg),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_phantom_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(self.BLOB)
        assert main(["phantom", "--out", str(tmp_path / "x"), "--spec", str(spec)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_cohort_pairs(self, tmp_path, capsys):
        manifest = tmp_path / "pairs.json"
        manifest.write_bytes(self.BLOB)
        assert main(["cohort", "--pairs", str(manifest), "--out", str(tmp_path / "o")]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_subject_report(self, tmp_path, capsys):
        report = tmp_path / "S01.json"
        report.write_bytes(self.BLOB)
        manifest = tmp_path / "pairs.json"
        manifest.write_text(json.dumps({"subjects": [
            {"id": "S01", "conv": str(report), "epi": str(report)}]}))
        assert main(["cohort", "--pairs", str(manifest), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "subject S01" in err and "not valid JSON" in err


class TestDeeplyNestedJson:
    """JSON nested too deeply to decode is an input error (exit 2), not
    an internal RecursionError (exit 4)."""

    @pytest.fixture
    def deep(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["phantom", "--spec", "{deep}", "--out", "{tmp}/o"],
        ["phantom", "--config", "{deep}", "--out", "{tmp}/o"],
        ["cohort", "--pairs", "{deep}", "--out", "{tmp}/o"],
    ], ids=["spec", "config", "pairs"])
    def test_exit_2(self, deep, tmp_path, capsys, argv):
        assert main([a.format(deep=deep, tmp=tmp_path) for a in argv]) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        assert "csfdyn" in capsys.readouterr().out

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2
