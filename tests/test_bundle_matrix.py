"""Every byte the harness writes on the bundle matrix of
scripts/bundle_matrix.py (72 bundles, 661 files), against the digests
recorded in tests/bundle_matrix.txt.

The digests do not depend on the output directory, but they may depend
on numpy's build and its SIMD dispatch, so the file is the record of the
host that wrote it. A change meant to move bits rewrites the file with

    python scripts/bundle_matrix.py OUT_DIR > tests/bundle_matrix.txt

and states the files that moved.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).with_name("bundle_matrix.txt")


def _digests(text: str) -> dict:
    return dict(line.split(" ") for line in text.splitlines())


def test_bundle_matrix_is_byte_identical(tmp_path):
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "bundle_matrix.py"),
                          str(tmp_path)], capture_output=True, text=True, check=True)
    got, want = _digests(out.stdout), _digests(RECORD.read_text())
    differ = sorted(n for n in got.keys() | want.keys() if got.get(n) != want.get(n))
    assert not differ, (f"{len(differ)} of {len(want)} files differ from the record "
                        f"(numpy {np.__version__}); first: {differ[:5]}")
    assert out.stdout.splitlines() == RECORD.read_text().splitlines()  # and in order
