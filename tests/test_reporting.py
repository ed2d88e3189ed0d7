"""Report helpers that read files."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from csfdyn.reporting import _MAP_FROM, sha256_of


def test_sha256_of_matches_whole_file_digest(tmp_path):
    # three and a half 1 MiB blocks
    blob = np.random.default_rng(0).bytes(7 << 19)
    p = tmp_path / "blob.bin"
    p.write_bytes(blob)
    assert sha256_of(p) == hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("size", [0, 1, _MAP_FROM - 1, _MAP_FROM],
                         ids=["empty", "one-byte", "read-below-the-cutoff", "mapped-from-it"])
def test_sha256_of_either_side_of_the_map_cutoff(tmp_path, size):
    # an empty file cannot be mapped; it is read, as every file under _MAP_FROM
    blob = np.random.default_rng(size).bytes(size)
    p = tmp_path / "blob.bin"
    p.write_bytes(blob)
    assert sha256_of(p) == hashlib.sha256(blob).hexdigest()


def test_sha256_of_copies_no_half_megabyte_file(tmp_path):
    """A 0.5 MB file, the size of a long recording's belt trace, is hashed
    from a map: what the call allocates stays far below the file."""
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
