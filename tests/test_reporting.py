"""Report helpers that read and write files."""

import hashlib
import mmap
import threading
import tracemalloc

import numpy as np
import pytest

from csfdyn import reporting
from csfdyn.ensemble import EnsembleCurves
from csfdyn.errors import IoFailure
from csfdyn.reporting import make_dir, sha256_of

#: the size of sha256_of's reads
READ = 1 << 16


def test_sha256_of_matches_whole_file_digest(tmp_path):
    # three and a half 1 MiB blocks
    blob = np.random.default_rng(0).bytes(7 << 19)
    p = tmp_path / "blob.bin"
    p.write_bytes(blob)
    assert sha256_of(p) == hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("size", [0, 1, READ - 1, READ, READ + 1],
                         ids=["empty", "one-byte", "one-short-of-a-read", "one-read",
                              "one-past-a-read"])
def test_sha256_of_either_side_of_a_read(tmp_path, size):
    blob = np.random.default_rng(size).bytes(size)
    p = tmp_path / "blob.bin"
    p.write_bytes(blob)
    assert sha256_of(p) == hashlib.sha256(blob).hexdigest()


def test_sha256_of_copies_no_half_megabyte_file(tmp_path):
    """A 0.5 MB file, the size of a long recording's belt trace, is hashed
    a read at a time: what the call allocates stays far below the file."""
    blob = np.random.default_rng(1).bytes(1 << 19)
    p = tmp_path / "belt.bin"
    p.write_bytes(blob)
    tracemalloc.start()
    try:
        digest = sha256_of(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(blob).hexdigest()
    assert peak < 0.1e6, f"{peak / 1e6:.3f} MB"


def test_sha256_of_a_buffer_is_the_digest_of_its_bytes(tmp_path):
    blob = np.random.default_rng(2).bytes(3 << 18)
    p = tmp_path / "blob.bin"
    p.write_bytes(blob)
    with open(p, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
        assert sha256_of(mapped) == sha256_of(p) == hashlib.sha256(blob).hexdigest()
    assert sha256_of(blob) == sha256_of(memoryview(blob)) == sha256_of(str(p))


@pytest.mark.parametrize("size", [0, 1, 4095, 4096, 4097, 3 * 4096 + 5])
def test_sha256_of_a_buffer_in_slices(monkeypatch, size):
    monkeypatch.setattr(reporting, "_HASH_SLICE", 4096)
    blob = np.random.default_rng(size).bytes(size)
    assert sha256_of(blob, stop=threading.Event()) == hashlib.sha256(blob).hexdigest()


def test_sha256_of_a_buffer_stops_between_slices(monkeypatch):
    monkeypatch.setattr(reporting, "_HASH_SLICE", 4096)
    stop, seen = threading.Event(), []
    real = hashlib.sha256

    class Digest:
        def __init__(self):
            self.real = real()

        def update(self, data):
            seen.append(len(data))
            self.real.update(data)
            stop.set()

    monkeypatch.setattr(reporting, "hashlib", type("hashlib", (), {"sha256": Digest}))
    assert sha256_of(bytes(5 * 4096), stop=stop) is None
    assert seen == [4096]
    assert sha256_of(b"x", stop=stop) is None and seen == [4096]


def _curves():
    flat = np.zeros(32)
    return EnsembleCurves(global_mean=flat, global_sd=flat, n_global=3, mean_rr_global=1000.0,
                          insp_mean=None, insp_sd=None, n_insp=0, mean_rr_insp=None,
                          exp_mean=None, exp_sd=None, n_exp=0, mean_rr_exp=None, n_mixed=0)


@pytest.mark.parametrize("write", [
    lambda path: reporting.write_json(path, {"a": 1}),
    lambda path: reporting.write_curves_csv(path, _curves()),
    lambda path: reporting.write_curves_svg(path, _curves(), "t"),
    lambda path: reporting.write_scatter_svg(path, [1.0, 2.0], [1.0, 2.0], "t", "x", "y"),
    make_dir,
], ids=["json", "csv", "curves-svg", "scatter-svg", "make_dir"])
def test_unwritable_path_is_io_failure(tmp_path, write):
    # a file where a directory should be
    blocker = tmp_path / "afile"
    blocker.write_text("")
    with pytest.raises(IoFailure, match="cannot write .*afile"):
        write(blocker / "out")


def test_make_dir_over_a_file_is_io_failure(tmp_path):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    with pytest.raises(IoFailure, match="File exists"):
        make_dir(blocker)
    assert make_dir(tmp_path / "a" / "b").is_dir()
