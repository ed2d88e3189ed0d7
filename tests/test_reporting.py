"""Report helpers that read files."""

import hashlib

import numpy as np
import pytest

from csfdyn.reporting import sha256_of


def test_sha256_of_matches_whole_file_digest(tmp_path):
    # three and a half 1 MiB blocks
    blob = np.random.default_rng(0).bytes(7 << 19)
    p = tmp_path / "blob.bin"
    p.write_bytes(blob)
    assert sha256_of(p) == hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20],
                         ids=["empty", "one-byte", "read-below-the-cutoff", "mapped-from-it"])
def test_sha256_of_either_side_of_the_map_cutoff(tmp_path, size):
    # an empty file cannot be mapped; it is read, as every file under 1 MiB
    blob = np.random.default_rng(size).bytes(size)
    p = tmp_path / "blob.bin"
    p.write_bytes(blob)
    assert sha256_of(p) == hashlib.sha256(blob).hexdigest()
