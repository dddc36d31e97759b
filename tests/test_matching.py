"""Deferred-acceptance engines, blocking pairs, and rejection-chain repair."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from admitsim import (
    InvalidMatchingError,
    MarketConfig,
    MarketInstance,
    Matching,
    SeededProposalPlan,
    SignalSpec,
    build_seeded_plan,
    compare_matchings,
    complete_instance,
    continue_rejection_chains,
    extra_stable_partner_reports,
    find_blocking_pairs,
    match_rank_indices,
    rank_profile,
    sample_market,
    school_proposing_da,
    solve_iid,
    student_proposing_da,
)
from admitsim import market
from admitsim.market import _sample_stack
from conftest import (
    brute_force_blocking_pairs,
    enumerate_stable_matchings,
    own_ranks,
    rejection_chains_oracle,
    random_mixed_config,
    random_tiny_config,
    school_proposing_oracle,
    stable_partner_sets,
    student_proposing_oracle,
    students_of,
    university_ranks,
)


def seeded_matching(plan):
    """The matching that follows a plan's assigned accepted proposals."""
    return Matching(plan.accepted_partner_array(), plan.config.m)


def small_instance(prefs, signals, n=None, m=None, capacity=1):
    prefs = np.asarray(prefs)
    n = n or prefs.shape[0]
    m = m or int(prefs.max()) + 1
    cfg = MarketConfig(n=n, m_ratio=m / n, capacity=capacity, k=prefs.shape[1], seed=0)
    ties = np.arange(prefs.size, dtype=float).reshape(prefs.shape) / prefs.size
    return MarketInstance(cfg, prefs, np.asarray(signals, dtype=float), ties)


class TestSchoolProposingDA:
    def test_single_pair(self):
        inst = small_instance([[0]], [[1.0]])
        assert school_proposing_da(inst).partner.tolist() == [0]

    def test_two_students_one_seat_better_signal_wins(self):
        inst = small_instance([[0], [0]], [[2.0], [1.0]], m=1)
        matching = school_proposing_da(inst)
        assert matching.partner.tolist() == [0, -1]

    def test_three_students_two_schools_unique_stable(self):
        # student 2's signal at school 0 outranks both rivals; enumeration
        # confirms the stable matching is unique
        prefs = [[0, 1], [0, 1], [0, 1]]
        signals = [[3.0, 1.0], [2.0, 5.0], [4.0, 2.0]]
        inst = small_instance(prefs, signals, m=2)
        stable = enumerate_stable_matchings(inst)
        assert len(stable) == 1
        assert school_proposing_da(inst) == stable[0]
        assert student_proposing_da(inst) == stable[0]

    def test_order_invariance(self, rng):
        for _ in range(20):
            cfg = random_mixed_config(rng, max_n=30)
            inst = sample_market(cfg)
            base = school_proposing_da(inst)
            for _ in range(10):
                order = rng.permutation(inst.m)
                assert school_proposing_da(inst, order=order) == base

    def test_rejects_bad_order(self):
        inst = small_instance([[0]], [[1.0]])
        with pytest.raises(ValueError):
            school_proposing_da(inst, order=[0, 0])
        with pytest.raises(ValueError, match="^order holds an id outside the int64 range$"):
            school_proposing_da(inst, order=[2**70, 0])

    @pytest.mark.parametrize(
        "order,entry",
        [([0.5, 1, 2, 3], "0.5"), ([True, False, 2, 3], "True"), (["0", "1", "2", "3"], "'0'")],
    )
    def test_order_entries_are_not_truncated(self, order, entry):
        # each would read as the permutation 0, 1, 2, 3 if cast to integers
        inst = small_instance([[0], [1], [2], [3]], [[1.0]] * 4)
        with pytest.raises(ValueError, match=f"^order entry must be an integer, got {entry}$"):
            school_proposing_da(inst, order=order)
        base = school_proposing_da(inst)
        for ids in (iter(range(4)), [3.0, 2, 1, 0], np.array([1, 0, 3, 2], dtype=np.int32)):
            assert school_proposing_da(inst, order=ids) == base


class TestStudentProposingDA:
    def test_single_pair(self):
        inst = small_instance([[0]], [[1.0]])
        assert student_proposing_da(inst).partner.tolist() == [0]

    def test_student_optimal_among_enumerated(self, rng):
        for _ in range(40):
            cfg = random_tiny_config(rng)
            inst = sample_market(cfg)
            result = student_proposing_da(inst)
            stable = enumerate_stable_matchings(inst)
            assert result in stable
            ranks = own_ranks(inst, result)
            for other in stable:
                other_ranks = own_ranks(inst, other)
                assert all(r <= o for r, o in zip(ranks, other_ranks))

    def test_university_side_gets_worst_among_enumerated(self, rng):
        # mirror image: the school-proposing run matches every university
        # with its favorite stable partners
        for _ in range(25):
            cfg = random_tiny_config(rng)
            inst = sample_market(cfg)
            stable = enumerate_stable_matchings(inst)
            sets = stable_partner_sets(inst, stable)
            school = school_proposing_da(inst)
            ranks = university_ranks(inst)
            for u in range(inst.m):
                partners = sets[u]
                if not partners:
                    assert students_of(school, u) == set()
                    continue
                by_pref = sorted(
                    partners,
                    key=lambda s: ranks[s][inst.prefs[s].tolist().index(u)],
                )
                expected = set(by_pref[: inst.capacity])
                assert students_of(school, u) == expected


def oracle_mix_configs(rng, count):
    """Random mixed configs with capacities 1-3 and, every fourth one, k = m."""
    for i in range(count):
        cfg = random_mixed_config(rng, max_n=60)
        k = cfg.m if i % 4 == 0 and cfg.m <= 8 else cfg.k
        yield dataclasses.replace(cfg, capacity=1 + i % 3, k=k)


def seeded_oracle_plans(rng, count, capacity=None):
    """(plan, completed instance) pairs over m_ratio 0.1-2 and capacities 1-3.

    Every other plan uses the solver's fractions, the rest random
    nonincreasing ones; every fourth plan has m_ratio 0.1 and slack <= 2.
    A given ``capacity`` replaces the drawn one.
    """
    for i in range(count):
        m_ratio = 0.1 if i % 4 == 0 else float(rng.choice([0.5, 1.0, 2.0]))
        n = 10 * int(rng.integers(2, 31))
        m = round(m_ratio * n)
        k = int(rng.integers(1, min(5, m) + 1))
        signal = SignalSpec.iid() if i % 2 == 0 else SignalSpec.gaussian(float(rng.choice([1.0, 2.0])))
        drawn = int(rng.integers(1, 4))
        cfg = MarketConfig(n=n, m_ratio=m_ratio, capacity=capacity or drawn, k=k,
                           signal=signal, seed=int(rng.integers(2**63)))
        if i % 2 == 0:
            fractions = solve_iid(cfg).rank_fractions.fractions
        else:
            fractions = np.concatenate(([1.0], np.sort(rng.random(k - 1))[::-1]))
        slack = float(rng.uniform(0.0, 2.0)) if i % 4 == 0 or rng.random() < 0.5 else None
        plan = build_seeded_plan(fractions, cfg, slack=slack)
        yield plan, complete_instance(plan)


class TestEngineAgainstOracles:
    @pytest.mark.parametrize("name", [
        "uni_rank", "_uni_place", "_uni_order", "_uni_offsets", "_rank_within_universities",
        "accepted_partner_array", "assigned_rank_counts", "inconsistent",
    ])
    def test_oracles_read_no_state_the_package_derived(self, name):
        # an oracle that read the package's ranking or plan state would agree
        # with the engines even when that state is wrong
        source = (Path(__file__).parent / "conftest.py").read_text()
        assert not re.search(rf"\b{name}\b", source)

    def test_school_side_matches_queue_oracle(self, rng):
        seen = set()
        for cfg in oracle_mix_configs(rng, 500):
            inst = sample_market(cfg)
            want = school_proposing_oracle(inst).partner.tobytes()
            assert school_proposing_da(inst).partner.tobytes() == want
            order = rng.permutation(inst.m)
            assert school_proposing_da(inst, order=order).partner.tobytes() == want
            seen.add((cfg.capacity, cfg.k == cfg.m))
        assert {(3, True), (3, False)} <= seen

    def test_student_side_matches_heap_oracle(self, rng):
        seen = set()
        for cfg in oracle_mix_configs(rng, 500):
            inst = sample_market(cfg)
            want = student_proposing_oracle(inst).partner.tobytes()
            assert student_proposing_da(inst).partner.tobytes() == want
            seen.add((cfg.capacity, cfg.k == cfg.m))
        assert {(3, True), (3, False)} <= seen

    def test_repair_matches_seeded_state_oracle(self, rng):
        repaired = 0
        for plan, inst in seeded_oracle_plans(rng, 200):
            got = continue_rejection_chains(inst, plan)
            assert got.partner.tobytes() == rejection_chains_oracle(inst, plan).partner.tobytes()
            repaired += got != seeded_matching(plan)
        assert repaired >= 50

    def test_inconsistent_students_are_the_unheld_with_ranks_left(self, rng):
        # the repair cuts lists at the assigned prefix and never reads the
        # flags, so they must mark exactly the students that still propose:
        # walked here proposal by proposal, not through the plan's helpers
        for plan, _ in seeded_oracle_plans(rng, 200):
            n, k = plan.config.n, plan.config.k
            held, assigned = [False] * n, [0] * n
            for s, accepted in zip(plan.proposal_student.tolist(),
                                   plan.proposal_accepted.tolist()):
                if s >= 0:
                    held[s] = held[s] or accepted
                    assigned[s] += 1
            free = [not held[s] and assigned[s] < k for s in range(n)]
            assert plan.inconsistent.tolist() == free


class TestOneSeatReceivers:
    """Receivers with one seat keep the least offer id; checked against the oracles."""

    @pytest.mark.parametrize("capacity", [2, 3])
    def test_school_side_with_multi_slot_proposers(self, rng, capacity):
        for _ in range(150):
            cfg = dataclasses.replace(random_mixed_config(rng, max_n=60), capacity=capacity)
            inst = sample_market(cfg)
            assert school_proposing_da(inst) == school_proposing_oracle(inst)

    def test_few_universities_of_large_capacity(self):
        # ten universities with 100 seats: over a thousand school-side rounds
        inst = sample_market(MarketConfig(n=1000, m_ratio=0.01, capacity=100, k=10, seed=5))
        assert school_proposing_da(inst) == school_proposing_oracle(inst)
        assert student_proposing_da(inst) == student_proposing_oracle(inst)

    def test_repair_lets_pre_seated_holders_go(self, rng):
        # at capacity 1 the plan's holds fill the one-seat state before any offer
        displaced = 0
        for plan, inst in seeded_oracle_plans(rng, 120, capacity=1):
            got = continue_rejection_chains(inst, plan)
            assert got == rejection_chains_oracle(inst, plan)
            seeded = plan.accepted_partner_array()
            displaced += int(((seeded >= 0) & (got.partner != seeded)).sum())
        assert displaced > 0

    def test_stack_block_by_block(self, rng):
        extra = 0
        for _ in range(40):
            cfg = dataclasses.replace(random_tiny_config(rng), capacity=1)
            seeds = [int(s) for s in rng.integers(2**63, size=int(rng.integers(2, 6)))]
            stack = _sample_stack(cfg, seeds)
            n, m = cfg.n, cfg.m
            school = school_proposing_da(stack).partner.reshape(len(seeds), n)
            student = student_proposing_da(stack).partner.reshape(len(seeds), n)
            reports = extra_stable_partner_reports(stack)
            for b, seed in enumerate(seeds):
                alone = sample_market(dataclasses.replace(cfg, seed=seed))
                optimal = school_proposing_oracle(alone).partner
                pessimal = student_proposing_oracle(alone).partner
                for got, want in ((school[b], optimal), (student[b], pessimal)):
                    assert np.array_equal(got, np.where(want >= 0, want + b * m, -1))
                sets = stable_partner_sets(alone)
                verdict = reports.verdict[b * m:(b + 1) * m]
                witness = reports.witness[b * m:(b + 1) * m]
                for u in range(m):
                    assert verdict[u] == (len(sets[u]) > 1)
                    if verdict[u]:
                        assert witness[u] - b * n == np.flatnonzero(optimal == u)[0]
                extra += int(verdict.sum())
        assert extra > 0


class TestStacks:
    def test_da_on_a_stack_is_da_on_each_block(self, rng):
        seen = set()
        for cfg in oracle_mix_configs(rng, 60):
            seeds = [int(s) for s in rng.integers(2**63, size=int(rng.integers(1, 6)))]
            stack = _sample_stack(cfg, seeds)
            n, m = cfg.n, cfg.m
            sides = (school_proposing_da, student_proposing_da)
            whole = [da(stack).partner.reshape(len(seeds), n) for da in sides]
            reports = extra_stable_partner_reports(stack)
            for b, seed in enumerate(seeds):
                alone = sample_market(dataclasses.replace(cfg, seed=seed))
                for da, got in zip(sides, whole):
                    want = da(alone).partner
                    assert np.array_equal(got[b], np.where(want >= 0, want + b * m, -1))
                own = extra_stable_partner_reports(alone)
                block = slice(b * m, (b + 1) * m)
                assert np.array_equal(reports.verdict[block], own.verdict)
                witness = reports.witness[block]
                assert np.array_equal(np.where(witness >= 0, witness - b * n, -1), own.witness)
            seen.add((cfg.capacity, cfg.k == cfg.m, len(seeds) > 1))
        assert {(3, True, True), (3, False, True)} <= seen


class TestBlockingPairs:
    def test_da_outputs_stable_random_mix(self, rng):
        for _ in range(100):
            cfg = random_mixed_config(rng, max_n=50)
            inst = sample_market(cfg)
            assert find_blocking_pairs(inst, student_proposing_da(inst)) == []
            assert find_blocking_pairs(inst, school_proposing_da(inst)) == []

    def test_agrees_with_brute_force_oracle(self, rng):
        for _ in range(30):
            cfg = random_tiny_config(rng)
            inst = sample_market(cfg)
            partner = np.full(inst.n, -1, dtype=np.int64)
            free = {u: inst.capacity for u in range(inst.m)}
            for s in range(inst.n):
                if rng.random() < 0.6:
                    u = int(inst.prefs[s, rng.integers(inst.k)])
                    if free[u]:
                        partner[s] = u
                        free[u] -= 1
            matching = Matching(partner, inst.m)
            got = {(bp.student, bp.university) for bp in find_blocking_pairs(inst, matching)}
            assert got == set(brute_force_blocking_pairs(inst, matching))

    def test_unmatched_student_free_seat(self):
        inst = small_instance([[0], [0]], [[2.0], [1.0]], m=1, capacity=2)
        matching = Matching([0, -1], 1)
        pairs = find_blocking_pairs(inst, matching)
        assert (pairs[0].student, pairs[0].university) == (1, 0)

    def test_matched_without_application_rejected(self):
        inst = small_instance([[0], [0]], [[2.0], [1.0]], m=2)
        with pytest.raises(InvalidMatchingError):
            find_blocking_pairs(inst, Matching([1, 0], 2))

    def test_capacity_violation_rejected(self):
        inst = small_instance([[0], [0]], [[2.0], [1.0]], m=1)
        with pytest.raises(InvalidMatchingError):
            find_blocking_pairs(inst, Matching([0, 0], 1))


class TestRankProfile:
    def test_everyone_first_choice(self):
        inst = small_instance([[0], [1]], [[1.0], [1.0]], m=2)
        profile = rank_profile(inst, student_proposing_da(inst))
        assert profile.counts == (2,)
        assert profile.unmatched == 0

    def test_empty_matching(self):
        inst = small_instance([[0, 1], [1, 0]], [[1.0, 1.0], [1.0, 1.0]], m=2)
        profile = rank_profile(inst, Matching([-1, -1], 2))
        assert profile.counts == (0, 0)
        assert profile.unmatched == 2

    def test_counts_sum_to_n(self, rng):
        for _ in range(20):
            cfg = random_mixed_config(rng, max_n=40)
            inst = sample_market(cfg)
            profile = rank_profile(inst, school_proposing_da(inst))
            assert profile.total == inst.n


class TestTwoSidedComparison:
    def test_near_coincidence_shrinks_with_n(self, rng):
        means = {}
        for n in (200, 1000):
            diffs = []
            for seed in range(15):
                cfg = MarketConfig(n=n, k=5, seed=seed)
                inst = sample_market(cfg)
                diffs.append(
                    compare_matchings(student_proposing_da(inst), school_proposing_da(inst))
                )
            means[n] = float(np.mean(diffs))
        assert means[1000] < 0.05
        assert means[1000] < means[200]


class TestSeededContinuation:
    def test_zero_inconsistent_plan_returned_unchanged(self):
        cfg = MarketConfig(n=400, k=1, seed=3)
        plan = build_seeded_plan((1.0,), cfg, slack=0.0)
        assert plan.inconsistent.sum() == 0
        inst = complete_instance(plan)
        assert continue_rejection_chains(inst, plan) == seeded_matching(plan)

    def test_seeded_blocking_pairs_all_inconsistent(self):
        cfg = MarketConfig(n=4000, k=3, seed=17)
        y = solve_iid(cfg).rank_fractions.fractions
        plan = build_seeded_plan(y, cfg)
        inst = complete_instance(plan)
        pairs = find_blocking_pairs(inst, seeded_matching(plan))
        assert pairs, "expected some blocking pairs around inconsistent students"
        inconsistent = set(np.flatnonzero(plan.inconsistent).tolist())
        assert all(bp.student in inconsistent for bp in pairs)

    def test_continuation_is_stable_and_local(self):
        cfg = MarketConfig(n=4000, k=3, seed=23)
        y = solve_iid(cfg).rank_fractions.fractions
        plan = build_seeded_plan(y, cfg)
        inst = complete_instance(plan)
        final = continue_rejection_chains(inst, plan)
        assert find_blocking_pairs(inst, final) == []
        # repair should touch few students even at this moderate size
        assert compare_matchings(seeded_matching(plan), final) < 0.10

    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_more_accepted_holds_than_seats_rejected(self, capacity):
        # capacity + 1 students each hold an accepted rank-1 proposal to university 0
        n = capacity + 1
        cfg = MarketConfig(n=n, m_ratio=2 / n, capacity=capacity, k=1, seed=0)
        plan = SeededProposalPlan(
            config=cfg, proposal_uni=np.zeros(n, dtype=np.int64),
            proposal_rank=np.ones(n, dtype=np.int64), proposal_signal=np.arange(n, dtype=float),
            proposal_tiebreak=np.zeros(n), proposal_accepted=np.ones(n, dtype=bool),
            proposal_student=np.arange(n),
        )
        with pytest.raises(ValueError, match="^more holds than seats at a university$"):
            continue_rejection_chains(complete_instance(plan), plan)

    def test_full_universities_of_three_seats_hold_their_plan(self, rng):
        # one sort of the holds' places seats up to three per university
        full = 0
        for plan, inst in seeded_oracle_plans(rng, 120, capacity=3):
            assert continue_rejection_chains(inst, plan) == rejection_chains_oracle(inst, plan)
            seeded = plan.accepted_partner_array()
            full += int((np.bincount(seeded[seeded >= 0], minlength=inst.m) == 3).sum())
        assert full > 0

    def test_config_mismatch_rejected(self):
        cfg = MarketConfig(n=100, k=2, seed=1)
        plan = build_seeded_plan((1.0, 0.5), cfg)
        other = sample_market(dataclasses.replace(cfg, seed=2))
        with pytest.raises(ValueError):
            continue_rejection_chains(other, plan)

    def test_repaired_plan_reproduces_solver_profile(self):
        # the whole seeded pipeline should land on the same per-rank match
        # fractions as the analytic solution
        cfg = MarketConfig(n=10_000, k=3, seed=31)
        result = solve_iid(cfg)
        plan = build_seeded_plan(result.rank_fractions.fractions, cfg)
        inst = complete_instance(plan)
        final = continue_rejection_chains(inst, plan)
        profile = rank_profile(inst, final)
        for got, want in zip(profile.fractions(), result.match_fractions()):
            assert abs(got - want) < 0.02


class TestDiscreteSignals:
    def test_stable_under_tied_signals(self, rng):
        # integer-valued custom signals produce many ties; the fixed
        # per-application tiebreak must keep both engines consistent
        from admitsim import SignalSpec

        spec = SignalSpec.custom(
            lambda g, size: g.integers(0, 3, size), lambda g, size: g.integers(0, 3, size)
        )
        for seed in range(20):
            cfg = MarketConfig(n=12, m_ratio=0.5, capacity=2, k=3, signal=spec, seed=seed)
            inst = sample_market(cfg)
            for matching in (student_proposing_da(inst), school_proposing_da(inst)):
                assert find_blocking_pairs(inst, matching) == []
                assert brute_force_blocking_pairs(inst, matching) == []


class TestMatchRanks:
    def test_unmatched_rank_is_k(self):
        inst = small_instance([[0], [0]], [[2.0], [1.0]], m=1)
        matching = school_proposing_da(inst)
        assert matching.partner.tolist() == [0, -1]
        assert match_rank_indices(inst, matching).tolist() == [0, 1]

    @pytest.mark.parametrize("partner,n_universities", [([0], 2), ([0, 1, -1], 2), ([0, 1], 3)])
    def test_matching_of_another_size_is_refused(self, partner, n_universities):
        inst = small_instance([[0], [1]], [[1.0], [1.0]])
        with pytest.raises(InvalidMatchingError,
                           match="^matching size does not fit the instance$"):
            match_rank_indices(inst, Matching(partner, n_universities))


class TestMatchingIds:
    """A matching keeps the ids it is given, or refuses them by name."""

    @pytest.mark.parametrize(
        "partner,entry",
        [([0, 1.7, -1], "1.7"), (["2", True], "'2'"), ([0, True], "True"),
         ([0, float("nan")], "nan"), (np.array([0.0, np.inf]), "inf"),
         (np.array([True, False]), "True"), ([0, None], "None")],
    )
    def test_entries_that_are_not_integers_are_refused(self, partner, entry):
        with pytest.raises(InvalidMatchingError,
                           match=f"^partner table entry must be an integer, got {entry}$"):
            Matching(partner, 3)

    @pytest.mark.parametrize("n_universities", [2.5, True, "3", None])
    def test_university_count_must_be_an_integer(self, n_universities):
        with pytest.raises(InvalidMatchingError, match="^n_universities must be an integer"):
            Matching([0, -1], n_universities)

    @pytest.mark.parametrize(
        "partner,message",
        [([[0, 1]], "partner table must be one-dimensional"),
         ([0, 3], "university ids out of range"), ([-2, 0], "university ids out of range"),
         ([2**70], "partner table holds an id outside the int64 range"),
         (np.array([0, 2**64 - 1], dtype=np.uint64),
          "partner table holds an id outside the int64 range")],
    )
    def test_tables_that_are_not_ids_in_range_are_refused(self, partner, message):
        with pytest.raises(InvalidMatchingError, match=f"^{message}$"):
            Matching(partner, 3)

    def test_university_count_must_be_nonnegative(self):
        message = "^n_universities must be nonnegative, got -1$"
        with pytest.raises(InvalidMatchingError, match=message):
            Matching([], -1)
        assert Matching([-1], 0).n_universities == 0

    def test_integral_ids_pass_unchanged(self):
        for partner in ([0, 1.0, -1], np.array([0, 1, -1], dtype=np.int32), np.array([0, 1, -1])):
            matching = Matching(partner, 3.0)
            assert matching.partner.tolist() == [0, 1, -1] and matching.n_universities == 3
            assert matching.partner.dtype == np.int64 and type(matching.n_universities) is int


# the one-seat and the sorting rule, at sizes with YES verdicts in the census
@pytest.mark.parametrize("capacity,m_ratio", [(1, 1.0), (2, 0.5)])
def test_int32_and_int64_tables_give_one_market_and_int64_results(capacity, m_ratio):
    # markets keep int32 ids; what callers get stays int64, whatever came in
    base = sample_market(MarketConfig(n=200, m_ratio=m_ratio, capacity=capacity, k=40,
                                      signal=SignalSpec.gaussian(1.0), seed=11))
    markets = [MarketInstance(base.config, base.prefs.astype(dtype), base.signals, base.tiebreaks)
               for dtype in (np.int64, np.int32)]
    assert markets[0] == markets[1] == base
    results = []
    for inst in markets:
        assert inst.prefs.dtype == inst._uni_place.dtype == inst._uni_order.dtype == np.int32
        school, student = school_proposing_da(inst), student_proposing_da(inst)
        # every third student cut loose: the matching has blocking pairs
        loose = Matching(np.where(np.arange(inst.n) % 3, school.partner, -1), inst.m)
        reports = extra_stable_partner_reports(inst)
        for table in (school.partner, student.partner, match_rank_indices(inst, student),
                      reports.witness):
            assert table.dtype == np.int64
        results.append((school, student, find_blocking_pairs(inst, loose),
                        rank_profile(inst, student), reports.witness.tolist()))
    assert results[0] == results[1]
    assert results[0][2] and max(results[0][4]) >= 0  # blocking pairs and a YES verdict


def test_int64_ids_give_the_oracles_matchings(rng, monkeypatch):
    # only markets of 2^31 applications or more keep int64 ids; forced here,
    # every read of the engine, the holds and the blocking check is int64
    monkeypatch.setattr(market, "_id_dtype", lambda *sizes: np.dtype(np.int64))
    seen = set()
    for cfg in oracle_mix_configs(rng, 150):
        inst = sample_market(cfg)
        assert inst.prefs.dtype == inst._uni_place.dtype == inst._uni_order.dtype == np.int64
        school = school_proposing_da(inst)
        assert school == school_proposing_oracle(inst) and not find_blocking_pairs(inst, school)
        assert student_proposing_da(inst) == student_proposing_oracle(inst)
        seen.add(("market", cfg.capacity))
    for plan, inst in seeded_oracle_plans(rng, 90):
        assert plan.proposal_student.dtype == inst.prefs.dtype == np.int64
        assert continue_rejection_chains(inst, plan) == rejection_chains_oracle(inst, plan)
        seen.add(("plan", plan.config.capacity))
    assert seen == {(side, capacity) for side in ("market", "plan") for capacity in (1, 2, 3)}
