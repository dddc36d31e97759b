"""Memory: freed heap stays mapped once the CLI module is imported, and only
then; the CLI's replication stacks stay small, all run in one process, a large market's scratch
tables are gone before it ranks, deferred acceptance, the repair and the
census read the tables the market keeps and drop each array once read, and a
large benchmark item's seeded step stays within its bound."""

from __future__ import annotations

import functools
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
# sweep (1500 markets of n = 100, in 18 stacks).  The tests run it on one CPU,
# where every stack runs in this process: a forked worker's stacks are traced
# in the worker's copy only.
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
# benchmark's n = 10^5, k = 5 market, of completing its seeded plan, of running
# DA from either side on the sampled market, of repairing the completed plan
# by rejection chains, of the census of the sampled market, of building the
# seeded plan and of checking the school-optimal matching for blocking pairs.
_LARGE = """
import tracemalloc
from admitsim import (
    MarketConfig, SignalSpec, build_seeded_plan, complete_instance, continue_rejection_chains,
    extra_stable_partner_reports, find_blocking_pairs, sample_market, school_proposing_da,
    solve_iid, student_proposing_da,
)

config = MarketConfig(n=100_000, m_ratio=0.5, capacity=2, k=5, seed=1)
fractions = solve_iid(config).rank_fractions.fractions
plan = build_seeded_plan(fractions, config)
sample = lambda: sample_market(
    MarketConfig(n=100_000, m_ratio=1.0, k=5, signal=SignalSpec.gaussian(1.0), seed=1)
)
market, seeded = sample(), complete_instance(plan)
school = school_proposing_da(market)
steps = (
    sample, lambda: complete_instance(plan), lambda: school_proposing_da(market),
    lambda: student_proposing_da(market), lambda: continue_rejection_chains(seeded, plan),
    lambda: extra_stable_partner_reports(market), lambda: build_seeded_plan(fractions, config),
    lambda: find_blocking_pairs(market, school),
)
for step in steps:
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    instance = step()
    print((tracemalloc.get_traced_memory()[1] - start) / 1e6)
    del instance
    tracemalloc.stop()
"""


# Prints the peak traced memory, in MB above the start, of the seeded step of
# one large_n1e5 benchmark item (its first, at root seed 8675309), run as the
# benchmark runs it: after the DA step, whose outputs stay alive through it.
_ITEM = """
import tracemalloc
from admitsim import (
    MarketConfig, SignalSpec, build_seeded_plan, child_seed, compare_matchings,
    complete_instance, continue_rejection_chains, find_blocking_pairs, make_record,
    sample_market, school_proposing_da, solve_iid, student_proposing_da,
)

seed = child_seed(8675309, 0)
tracemalloc.start()
start = tracemalloc.get_traced_memory()[0]
market = sample_market(
    MarketConfig(n=100_000, m_ratio=1.0, k=5, signal=SignalSpec.gaussian(1.0), seed=seed)
)
school, student = school_proposing_da(market), student_proposing_da(market)
da = (market, school, student, find_blocking_pairs(market, school),
      find_blocking_pairs(market, student), make_record(market, school),
      compare_matchings(school, student))
tracemalloc.reset_peak()
config = MarketConfig(n=100_000, m_ratio=0.5, capacity=2, k=5, seed=seed)
plan = build_seeded_plan(solve_iid(config).rank_fractions.fractions, config)
seeded = complete_instance(plan)
repaired = continue_rejection_chains(seeded, plan)
print((tracemalloc.get_traced_memory()[1] - start) / 1e6)
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


def test_stable_partner_stacks_stay_within_their_memory_bound(tmp_path, one_cpu):
    # 4.7 MB at 2^14 applications per stack, 5.1 MB at 2^16, 7.6 MB at 2^17;
    # 6.2 MB at 2^16 with int64 places and order
    argv = ["stable-partners", "--n", "2000", "--k", "5", "--reps", "20"]
    assert float(_run(_CLI_PEAK, *argv, "--out", str(tmp_path / "partners.csv"))) < 5.4


def test_sweep_stacks_stay_within_the_census_memory_bound(tmp_path, one_cpu):
    # 4.6 MB with the delta cells of each k sharing stacks, as more of them
    # reach 2^16 applications; 5.8 MB with int64 places and order
    argv = ["sweep", "--n", "100", "--k-min", "1", "--k-max", "10", "--deltas", "0,1,2",
            "--reps", "50", "--seed", "8675309"]
    assert float(_run(_CLI_PEAK, *argv, "--out", str(tmp_path / "sweep.csv"))) < 4.9


@functools.cache
def _large_peaks() -> dict[str, float]:
    names = ("sample", "complete", "school", "student", "repair", "census", "plan", "blocking")
    return dict(zip(names, map(float, _run(_LARGE).split())))


def test_large_market_scratch_is_freed_before_ranking():
    # 16.8 MB sampling and 16.5 MB completing, where the ranking builds its
    # key and places in place by chunks; 18.2 and 18.0 MB with N-sized
    # temporaries beside the key, 24.1 and 23.3 MB with int64 places and
    # order, and a scratch table alive as the instance ranks breaks the
    # bound too.
    peaks = _large_peaks()
    assert peaks["sample"] <= 17.6
    assert peaks["complete"] <= 17.3


def test_deferred_acceptance_builds_no_application_sized_map():
    # Each round reads its receivers and proposers off the market's own
    # tables and drops each of its arrays once read: the school side peaks
    # at 6.5 MB, the student side at 5.5, the repair at 3.6 and the census
    # at 7.3.  Rounds that keep their arrays until the next round read 9.1,
    # 8.6, 5.6 and 9.9 MB; proposer and receiver maps of all 5 * 10^5
    # applications, rebuilt per call, 11.1, 13.2, 11.3 and 13.2 MB.
    peaks = _large_peaks()
    assert peaks["school"] <= 7.0
    assert peaks["student"] <= 5.9
    assert peaks["repair"] <= 3.9
    assert peaks["census"] <= 7.8


def test_plan_and_blocking_check_keep_their_scratch_small():
    # 13.3 MB building the plan, with its ranks in the id dtype, and 5.1 MB
    # checking for blocking pairs by chunks of students; 14.1 MB with int64
    # ranks and 6.4 MB with every student's cells at once.
    peaks = _large_peaks()
    assert peaks["plan"] <= 14.0
    assert peaks["blocking"] <= 5.5


def test_benchmark_item_peaks_in_the_seeded_step_within_its_bound():
    # 40.7 MB above the item's start, the DA step's 16.4 MB of outputs among
    # them; 43.3 MB with the repair's, the rounds' and the ranking's spare
    # transients.
    assert float(_run(_ITEM)) <= 42.5
