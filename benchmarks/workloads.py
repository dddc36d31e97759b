"""The two benchmark workloads: their inputs, one item of work, its checks.

Each workload is a closed loop run by one process and thread: the next item
starts when the previous one has finished.  Item ``i`` takes its seed as
``child_seed(root, i)``, so a root seed fixes every input.  ``steps`` gives
the item's timed work as a few steps of one to four seconds, run in turn;
``check`` runs untimed on their outputs and returns the problems it finds.

The direct API calls below go through this module's own bindings, which the
traced run wraps (see ``spans.LAYERS``).  The checks use the unwrapped
functions in ``checks``.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path
from typing import Any, Callable

from admitsim import (
    MarketConfig,
    SignalSpec,
    build_seeded_plan,
    child_seed,
    compare_matchings,
    complete_instance,
    continue_rejection_chains,
    find_blocking_pairs,
    make_record,
    sample_market,
    school_proposing_da,
    solve_iid,
    student_proposing_da,
)
from admitsim import cli

import checks

# More items than any run of at most 60 seconds reaches.
MAX_ITEMS = 200


class CliSmall:
    """Small markets through the CLI: a sweep, stable-partner verdicts, a solve.

    One item runs the three commands a sweep study issues, in turn:
    thousands of tiny markets, a stable-partner census at n = 2000, and a
    Monte Carlo fixed point for shifted signals.
    """

    name = "cli_small"
    SWEEP = dict(n=100, k_min=1, k_max=10, deltas=(0.0, 1.0, 2.0), reps=50)
    PARTNERS = dict(n=2000, k=5, reps=20)
    TOL = 0.01  # the CLI default for solve --method general
    # Largest allowed gap per rank between the solver's match fractions and
    # the stored n = 10^5 simulation profile; the gap is about 0.010 at rank 1.
    PROFILE_TOL = 0.03

    def __init__(self, root: int, workdir: Path) -> None:
        s, p = self.SWEEP, self.PARTNERS
        self.sweep_out = workdir / "sweep.csv"
        self.partners_out = workdir / "verdicts.csv"
        self.solve_out = workdir / "solve.json"
        self.reference = json.loads(
            (Path(__file__).parent / "reference_profile.json").read_text(encoding="utf-8")
        )
        ref = self.reference["config"]
        self.seeds = [child_seed(root, i) for i in range(MAX_ITEMS)]
        deltas = ",".join(f"{d:g}" for d in s["deltas"])
        self.argv = [
            (
                ["sweep", "--n", str(s["n"]), "--k-min", str(s["k_min"]),
                 "--k-max", str(s["k_max"]), "--deltas", deltas,
                 "--reps", str(s["reps"]), "--seed", str(seed),
                 "--out", str(self.sweep_out)],
                ["stable-partners", "--n", str(p["n"]), "--k", str(p["k"]),
                 "--reps", str(p["reps"]), "--seed", str(seed),
                 "--out", str(self.partners_out)],
                ["solve", "--n", "100", "--k", str(ref["k"]), "--delta", str(ref["delta"]),
                 "--m-ratio", str(ref["m_ratio"]), "--capacity", str(ref["capacity"]),
                 "--method", "general", "--n-sim", "40000", "--trials", "8",
                 "--seed", str(seed), "--out", str(self.solve_out)],
            )
            for seed in self.seeds
        ]

    def steps(self, i: int) -> list[Callable[[], int]]:
        return [partial(cli.main, argv) for argv in self.argv[i]]

    def check(self, i: int, codes: list[int]) -> list[str]:
        if codes != [0, 0, 0]:
            return [f"exit codes {codes}"]
        s, p = self.SWEEP, self.PARTNERS
        return (
            checks.sweep_problems(
                self.sweep_out, self.seeds[i], s["n"],
                tuple(range(s["k_min"], s["k_max"] + 1)), s["deltas"], s["reps"],
            )
            + checks.partner_problems(self.partners_out, p["n"], p["reps"])
            + checks.solver_problems(
                json.loads(self.solve_out.read_text(encoding="utf-8")), self.TOL,
                self.reference["match_fractions"], self.PROFILE_TOL,
            )
        )


class LargeMarket:
    """Two markets at n = 10^5: one through both DA engines and the
    accounting, and one built from a seeded plan and repaired by rejection
    chains."""

    name = "large_n1e5"

    def __init__(self, root: int, workdir: Path) -> None:
        seeds = [child_seed(root, i) for i in range(MAX_ITEMS)]
        self.configs = [
            MarketConfig(n=100_000, m_ratio=1.0, capacity=1, k=5,
                         signal=SignalSpec.gaussian(1.0), seed=seed)
            for seed in seeds
        ]
        self.seeded_configs = [
            MarketConfig(n=100_000, m_ratio=0.5, capacity=2, k=5,
                         signal=SignalSpec.iid(), seed=seed)
            for seed in seeds
        ]

    def steps(self, i: int) -> list[Callable[[], Any]]:
        return [partial(self.da, i), partial(self.seeded, i)]

    def da(self, i: int) -> dict[str, Any]:
        instance = sample_market(self.configs[i])
        school = school_proposing_da(instance)
        student = student_proposing_da(instance)
        return {
            "instance": instance,
            "school": school,
            "student": student,
            "blocking": (find_blocking_pairs(instance, school),
                         find_blocking_pairs(instance, student)),
            "record": make_record(instance, school),
            "difference": compare_matchings(school, student),
        }

    def seeded(self, i: int) -> tuple[Any, Any]:
        config = self.seeded_configs[i]
        fractions = solve_iid(config).rank_fractions.fractions
        plan = build_seeded_plan(fractions, config)
        seeded = complete_instance(plan)
        return seeded, continue_rejection_chains(seeded, plan)

    def check(self, i: int, out: list[Any]) -> list[str]:
        da, seeded = out
        return checks.da_pair_problems(**da) + checks.stability_problems(*seeded)


WORKLOADS = {w.name: w for w in (CliSmall, LargeMarket)}
