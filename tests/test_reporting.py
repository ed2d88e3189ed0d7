"""Report helpers that read files."""

import hashlib

import numpy as np

from csfdyn.reporting import sha256_of


def test_sha256_of_matches_whole_file_digest(tmp_path):
    # three and a half 1 MiB blocks
    blob = np.random.default_rng(0).bytes(7 << 19)
    p = tmp_path / "blob.bin"
    p.write_bytes(blob)
    assert sha256_of(p) == hashlib.sha256(blob).hexdigest()
