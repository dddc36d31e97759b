"""Memory: freed heap stays mapped once the CLI module is imported, and only
then; the CLI's replication stacks stay small, a large market's scratch
tables are gone before it ranks, and its student side reads the places the
market keeps."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Imports the module named by its argument, then allocates, touches and frees
# three 8 MiB tables, ten times over; prints the minor faults of rounds 2-10.
# Each round touches about 6100 pages.
_ROUNDS = """
import importlib
import resource
import sys
import numpy as np
importlib.import_module(sys.argv[1])

def one_round():
    tables = [np.ones(1 << 20) for _ in range(3)]
    del tables

one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(9):
    one_round()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


# Prints the peak traced memory, in MB above the start, of one CLI command: the
# benchmark's stable-partner census (20 markets of 10 000 applications) or its
# sweep (1500 markets of n = 100, in 18 stacks).
_CLI_PEAK = """
import sys
import tracemalloc
from admitsim.cli import main

tracemalloc.start()
start = tracemalloc.get_traced_memory()[0]
assert main(sys.argv[1:]) == 0
print((tracemalloc.get_traced_memory()[1] - start) / 2**20)
"""


# Prints the peak traced memory, in MB above the start, of sampling the
# benchmark's n = 10^5, k = 5 market, of completing its seeded plan and of
# running student-proposing DA on the sampled market.
_LARGE = """
import tracemalloc
from admitsim import (
    MarketConfig, SignalSpec, build_seeded_plan, complete_instance, sample_market, solve_iid,
    student_proposing_da,
)

config = MarketConfig(n=100_000, m_ratio=0.5, capacity=2, k=5, seed=1)
plan = build_seeded_plan(solve_iid(config).rank_fractions.fractions, config)
sample = lambda: sample_market(
    MarketConfig(n=100_000, m_ratio=1.0, k=5, signal=SignalSpec.gaussian(1.0), seed=1)
)
market = sample()
steps = (sample, lambda: complete_instance(plan), lambda: student_proposing_da(market))
for step in steps:
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    instance = step()
    print((tracemalloc.get_traced_memory()[1] - start) / 1e6)
    del instance
    tracemalloc.stop()
"""


def _run(code: str, *args: str) -> str:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True
    ).stdout


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc only")
def test_freed_tables_are_not_faulted_in_again():
    assert int(_run(_ROUNDS, "admitsim.cli")) < 1000


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="reads glibc's malloc only")
def test_bare_import_leaves_the_allocator_alone():
    # glibc's defaults hand part of the tables back and fault it in again: about 9500
    assert int(_run(_ROUNDS, "admitsim")) >= 1000


def test_stable_partner_stacks_stay_within_their_memory_bound(tmp_path):
    # 4.7 MB at 2^14 applications per stack, 5.1 MB at 2^16, 7.6 MB at 2^17;
    # 6.2 MB at 2^16 with int64 places and order
    argv = ["stable-partners", "--n", "2000", "--k", "5", "--reps", "20"]
    assert float(_run(_CLI_PEAK, *argv, "--out", str(tmp_path / "partners.csv"))) < 5.4


def test_sweep_stacks_stay_within_the_census_memory_bound(tmp_path):
    # 4.6 MB with the delta cells of each k sharing stacks, as more of them
    # reach 2^16 applications; 5.8 MB with int64 places and order
    argv = ["sweep", "--n", "100", "--k-min", "1", "--k-max", "10", "--deltas", "0,1,2",
            "--reps", "50", "--seed", "8675309"]
    assert float(_run(_CLI_PEAK, *argv, "--out", str(tmp_path / "sweep.csv"))) < 4.9


def test_large_market_scratch_is_freed_before_ranking():
    # 18.2 MB sampling and 18.0 MB completing with int32 ids; int64 places
    # and order read 24.1 and 23.3 MB, and a scratch table alive as the
    # instance ranks breaks the bound too.
    # Student-proposing DA takes 13.2 MB reading the instance's int32 places
    # as its offers; 17.2 MB with int64 places and order
    sample, complete, student = map(float, _run(_LARGE).split())
    assert sample <= 19.1
    assert complete <= 18.9
    assert student <= 13.9
