"""Importing admitsim keeps freed heap mapped, so same-sized tables reuse their pages."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Three 8 MiB tables allocated, touched and freed, ten times over; prints the
# minor faults of rounds 2-10.  Each round touches about 6100 pages.
_ROUNDS = """
import resource
import numpy as np
import admitsim

def one_round():
    tables = [np.ones(1 << 20) for _ in range(3)]
    del tables

one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(9):
    one_round()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc only")
def test_freed_tables_are_not_faulted_in_again():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", _ROUNDS], capture_output=True, text=True, env=env, check=True
    )
    # glibc's defaults hand part of them back and fault it in again: about 9500
    assert int(proc.stdout) < 1000
