"""End-to-end acceptance checks at their stated tolerances.

Each criterion prints one PASS/FAIL line; run with

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from admitsim import (
    MarketConfig,
    Matching,
    SignalSpec,
    build_seeded_plan,
    compare_matchings,
    complete_instance,
    continue_rejection_chains,
    estimate_acceptance,
    extra_stable_partner_reports,
    find_blocking_pairs,
    make_record,
    rank_profile,
    sample_market,
    school_proposing_da,
    solve_general,
    solve_iid,
    student_proposing_da,
)
from conftest import (
    enumerate_stable_matchings,
    own_ranks,
    random_mixed_config,
    random_tiny_config,
    stable_partner_sets,
)


BUDGET_SECONDS = {1: 60, 2: 60, 3: 120, 4: 60, 5: 300, 6: 300, 7: 300, 8: 300, 9: 180, 10: 600, 11: 180}

_STARTED: dict[int, float] = {}


def start(number: int) -> None:
    _STARTED[number] = time.perf_counter()


def report(number: int, ok: bool, detail: str, extra_seconds: float = 0.0) -> None:
    elapsed = extra_seconds + time.perf_counter() - _STARTED.get(number, time.perf_counter())
    in_budget = elapsed < BUDGET_SECONDS[number]
    status = "PASS" if ok and in_budget else "FAIL"
    print(
        f"[criterion {number:2d}] {status} - {detail} "
        f"[{elapsed:.1f}s / budget {BUDGET_SECONDS[number]}s]"
    )
    assert ok, f"criterion {number}: {detail}"
    assert in_budget, f"criterion {number}: took {elapsed:.1f}s over budget"


def mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    se = arr.std(ddof=1) / math.sqrt(arr.size) if arr.size > 1 else 0.0
    return float(arr.mean()), float(se)


@pytest.fixture(scope="module")
def figure_grid():
    """Shared sweep for criteria 7 and 8: n=100, L=1, delta=0, K in 1..10."""
    began = time.perf_counter()
    reps = 500
    cells = {}
    for k in range(1, 11):
        rank1, matched, utility = [], [], []
        for rep in range(reps):
            cfg = MarketConfig(n=100, k=k, seed=hash((k, rep)) % 2**63)
            inst = sample_market(cfg)
            record = make_record(inst, school_proposing_da(inst))
            rank1.append(record.rank_counts[0])
            matched.append(record.matched)
            utility.append(record.student_utility)
        cells[k] = {
            "rank1": mean_se(rank1),
            "matched": mean_se(matched),
            "utility": mean_se(utility),
        }
    return {"cells": cells, "elapsed": time.perf_counter() - began}


def test_criterion_01_stability_suite():
    start(1)
    rng = np.random.default_rng(101)
    worst = 0
    for _ in range(1000):
        cfg = random_mixed_config(rng, max_n=50)
        inst = sample_market(cfg)
        worst = max(
            worst,
            len(find_blocking_pairs(inst, student_proposing_da(inst))),
            len(find_blocking_pairs(inst, school_proposing_da(inst))),
        )
    report(1, worst == 0, f"1000 mixed instances, max blocking pairs = {worst}")


def test_criterion_02_order_invariance():
    start(2)
    rng = np.random.default_rng(202)
    failures = 0
    for _ in range(100):
        cfg = random_mixed_config(rng, max_n=50)
        inst = sample_market(cfg)
        base = school_proposing_da(inst)
        for _ in range(10):
            if school_proposing_da(inst, order=rng.permutation(inst.m)) != base:
                failures += 1
    report(2, failures == 0, f"100 instances x 10 proposal orders, mismatches = {failures}")


def test_criterion_03_oracle_equivalence():
    start(3)
    rng = np.random.default_rng(303)
    da_bad = verdict_bad = 0
    for _ in range(200):
        cfg = random_tiny_config(rng)
        inst = sample_market(cfg)
        stable = enumerate_stable_matchings(inst)
        result = student_proposing_da(inst)
        if result not in stable:
            da_bad += 1
        else:
            ranks = own_ranks(inst, result)
            for other in stable:
                other_ranks = own_ranks(inst, other)
                if any(r > o for r, o in zip(ranks, other_ranks)):
                    da_bad += 1
                    break
        sets = stable_partner_sets(inst, stable)
        verdicts = extra_stable_partner_reports(inst).verdict
        for u, verdict in enumerate(verdicts):
            if verdict != (len(sets[u]) > inst.capacity):
                verdict_bad += 1
    report(
        3,
        da_bad == 0 and verdict_bad == 0,
        f"200 tiny instances: student-optimality violations = {da_bad}, "
        f"verdict mismatches = {verdict_bad}",
    )


def test_criterion_04_closed_form_anchor():
    start(4)
    fractions = []
    for seed in range(50):
        cfg = MarketConfig(n=10_000, k=1, seed=seed)
        inst = sample_market(cfg)
        fractions.append(student_proposing_da(inst).matched_count / cfg.n)
    mean = float(np.mean(fractions))
    target = 1 - math.exp(-1)
    report(
        4,
        abs(mean - target) < 0.01,
        f"K=1 matched fraction over 50 seeds: {mean:.4f} vs 1-1/e = {target:.4f} (tol 0.01)",
    )


def test_criterion_05_fixed_point_vs_simulation():
    start(5)
    worst_profile_gap = 0.0
    worst_method_gap = 0.0
    worst_bound = 0.0
    tol = 0.004
    for k in (2, 3, 5):
        cfg = MarketConfig(n=10_000, k=k, seed=k)
        closed = solve_iid(cfg)
        predicted = closed.match_fractions()
        profiles = []
        for seed in range(3):
            inst = sample_market(dataclasses.replace(cfg, seed=seed))
            profiles.append(rank_profile(inst, student_proposing_da(inst)).fractions())
        simulated = np.mean(profiles, axis=0)
        worst_profile_gap = max(
            worst_profile_gap, max(abs(p - s) for p, s in zip(predicted, simulated))
        )

        small = dataclasses.replace(cfg, n=100)
        general = solve_general(small, n_sim=40_000)
        est = estimate_acceptance(
            general.rank_fractions.fractions, small, n_sim=40_000, trials=8
        )
        bound = 2 * (max(est.std_errors) + tol)
        gap = max(
            abs(a - b)
            for a, b in zip(
                closed.rank_fractions.fractions, general.rank_fractions.fractions
            )
        )
        worst_method_gap = max(worst_method_gap, gap)
        worst_bound = max(worst_bound, bound)
    ok = worst_profile_gap < 0.02 and worst_method_gap <= worst_bound
    report(
        5,
        ok,
        f"K in (2,3,5): solver vs simulation gap {worst_profile_gap:.4f} (tol 0.02); "
        f"general vs closed-form gap {worst_method_gap:.4f} (bound {worst_bound:.4f})",
    )


def test_criterion_06_two_sided_near_coincidence():
    start(6)
    means = {}
    for n in (200, 1000):
        diffs = []
        for seed in range(50):
            inst = sample_market(MarketConfig(n=n, k=5, seed=seed))
            diffs.append(
                compare_matchings(student_proposing_da(inst), school_proposing_da(inst))
            )
        means[n] = float(np.mean(diffs))
    ok = means[1000] < 0.05 and means[1000] < means[200]
    report(
        6,
        ok,
        f"mean student/school difference: n=1000 -> {means[1000]:.4f} (< 0.05), "
        f"n=200 -> {means[200]:.4f} (must exceed n=1000)",
    )


def test_criterion_07_application_rate_tradeoff(figure_grid):
    start(7)
    grid = figure_grid["cells"]
    ok = True
    notes = []
    ks = sorted(grid)
    for a, b in zip(ks, ks[1:]):
        r_a, se_a = grid[a]["rank1"]
        r_b, se_b = grid[b]["rank1"]
        slack = math.sqrt(se_a**2 + se_b**2)
        if r_b > r_a + slack:
            ok = False
            notes.append(f"rank1 rose {a}->{b}")
        m_a, se_ma = grid[a]["matched"]
        m_b, se_mb = grid[b]["matched"]
        if m_b < m_a - math.sqrt(se_ma**2 + se_mb**2):
            ok = False
            notes.append(f"matched fell {a}->{b}")
    rank1s = [round(grid[k]["rank1"][0], 1) for k in ks]
    matcheds = [round(grid[k]["matched"][0], 1) for k in ks]
    report(
        7,
        ok,
        f"rank-1 means {rank1s} nonincreasing, matched means {matcheds} nondecreasing"
        + (f"; violations: {notes}" if notes else ""),
        extra_seconds=figure_grid["elapsed"],
    )


def test_criterion_08_optimal_application_count(figure_grid):
    start(8)
    grid = figure_grid["cells"]
    ks = sorted(grid)
    utilities = {k: grid[k]["utility"] for k in ks}
    best = max(ks, key=lambda k: utilities[k][0])
    table = ", ".join(f"K={k}: {u:.2f}+-{se:.2f}" for k, (u, se) in utilities.items())
    report(
        8,
        best in (2, 3, 4),
        f"argmax of mean student utility is K={best} (accepted: 2..4); {table}",
        extra_seconds=figure_grid["elapsed"],
    )


def test_criterion_09_shift_monotone_synergy():
    start(9)
    means = []
    for delta in (0.0, 1.0, 2.0):
        signal = SignalSpec.gaussian(delta) if delta else SignalSpec.iid()
        synergies = []
        for rep in range(500):
            cfg = MarketConfig(
                n=100, k=5, signal=signal, seed=hash((delta, rep)) % 2**63
            )
            inst = sample_market(cfg)
            record = make_record(inst, school_proposing_da(inst))
            synergies.append(record.synergy)
        means.append(float(np.mean(synergies)))
    ok = means[0] <= means[1] <= means[2]
    report(9, ok, f"mean synergy across delta 0,1,2: {[round(m, 2) for m in means]}")


def test_criterion_10_extra_partner_rarity():
    start(10)
    means = {}
    for n in (200, 1000):
        fractions = []
        for seed in range(30):
            inst = sample_market(MarketConfig(n=n, k=5, seed=1000 + seed))
            reports = extra_stable_partner_reports(inst)
            fractions.append(int(reports.verdict.sum()) / inst.m)
        means[n] = float(np.mean(fractions))
    ok = means[1000] < means[200]
    report(
        10,
        ok,
        f"YES fraction: n=200 -> {means[200]:.4f}, n=1000 -> {means[1000]:.4f} (must shrink)",
    )


def test_criterion_11_seeded_plan_stability():
    start(11)
    changed = []
    stray_pairs = 0
    for seed in (1, 2, 3):
        cfg = MarketConfig(n=10_000, k=3, seed=seed)
        y = solve_iid(cfg).rank_fractions.fractions
        plan = build_seeded_plan(y, cfg)
        inst = complete_instance(plan)
        seeded = Matching(plan.accepted_partner_array(), cfg.m)
        inconsistent = set(np.flatnonzero(plan.inconsistent).tolist())
        stray_pairs += sum(
            bp.student not in inconsistent for bp in find_blocking_pairs(inst, seeded)
        )
        final = continue_rejection_chains(inst, plan)
        assert find_blocking_pairs(inst, final) == []
        changed.append(compare_matchings(seeded, final))
    mean_changed = float(np.mean(changed))
    ok = stray_pairs == 0 and mean_changed < 0.05
    report(
        11,
        ok,
        f"blocking pairs with consistent students = {stray_pairs}; "
        f"repair changed {mean_changed:.4f} of matches (per-seed {[round(c, 4) for c in changed]}, tol 0.05)",
    )
