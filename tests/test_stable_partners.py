"""Extra-stable-partner detection against the enumeration oracle."""

from __future__ import annotations

import numpy as np
import pytest

from admitsim import (
    MarketConfig,
    MarketInstance,
    extra_stable_partner_reports,
    sample_market,
    school_proposing_da,
    student_proposing_da,
)
from conftest import (
    MarketSizeError,
    enumerate_stable_matchings,
    random_mixed_config,
    random_tiny_config,
    stable_partner_sets,
    students_of,
    university_ranks,
)


def cyclic_instance() -> MarketInstance:
    """3x3 market with rotational preferences and two stable matchings.

    Student i lists u_i, u_{i+1}, u_{i+2}; university u_i ranks s_{i+1}
    above s_{i+2} above s_i.
    """
    cfg = MarketConfig(n=3, m_ratio=1.0, capacity=1, k=3, seed=0)
    prefs = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    signals = np.array([[1.0, 3.0, 2.0]] * 3)
    ties = np.arange(9, dtype=float).reshape(3, 3) / 10.0
    return MarketInstance(cfg, prefs, signals, ties)


def scanned_reports(instance: MarketInstance) -> list[tuple[int, bool, int | None]]:
    """Per-university scan of the two extreme matchings: the plain-loop reference."""
    pessimal = student_proposing_da(instance)
    optimal = school_proposing_da(instance)
    ranks = university_ranks(instance)
    out: list[tuple[int, bool, int | None]] = []
    for u in range(instance.m):
        admits = students_of(pessimal, u)
        extras = students_of(optimal, u) - admits
        if len(admits) < instance.capacity or not extras:
            out.append((u, False, None))
            continue
        witness = min(extras, key=lambda s: ranks[s][list_rank(instance, s, u)])
        out.append((u, True, witness))
    return out


def list_rank(instance: MarketInstance, student: int, university: int) -> int:
    return instance.prefs[student].tolist().index(university)


def verdict_rows(reports) -> list[tuple[int, bool, int | None]]:
    """(university, verdict, witness or None) per university, read off the arrays."""
    return [
        (u, verdict, witness if witness >= 0 else None)
        for u, (verdict, witness) in enumerate(
            zip(reports.verdict.tolist(), reports.witness.tolist())
        )
    ]


class TestEnumeration:
    def test_single_pair_single_matching(self):
        inst = sample_market(MarketConfig(n=1, m_ratio=1.0, k=1, seed=0))
        assert len(enumerate_stable_matchings(inst)) == 1

    def test_cyclic_market_has_multiple(self):
        matchings = enumerate_stable_matchings(cyclic_instance())
        assert len(matchings) >= 2

    def test_size_guard(self):
        inst = sample_market(MarketConfig(n=11, m_ratio=1.0, k=2, seed=0))
        with pytest.raises(MarketSizeError):
            enumerate_stable_matchings(inst)

    def test_unmatched_in_one_unmatched_in_all(self, rng):
        # students left out of one stable matching are left out of every one
        checked = 0
        instances = [cyclic_instance()]
        # multiplicity is rare in small markets; bias toward square tight ones
        for _ in range(150):
            n = int(rng.integers(4, 8))
            cfg = MarketConfig(n=n, m_ratio=1.0, k=3, seed=int(rng.integers(2**63)))
            instances.append(sample_market(cfg))
        for inst in instances:
            matchings = enumerate_stable_matchings(inst)
            if len(matchings) < 2:
                continue
            checked += 1
            unmatched_sets = [
                frozenset(int(s) for s in np.flatnonzero(m.partner < 0)) for m in matchings
            ]
            assert len(set(unmatched_sets)) == 1
        assert checked > 0


class TestVerdicts:
    def test_single_pair_is_no(self):
        inst = sample_market(MarketConfig(n=1, m_ratio=1.0, k=1, seed=0))
        (report,) = verdict_rows(extra_stable_partner_reports(inst))
        assert report == (0, False, None)

    def test_reports_are_read_only_arrays(self):
        inst = sample_market(MarketConfig(n=40, k=3, capacity=2, m_ratio=0.5, seed=3))
        reports = extra_stable_partner_reports(inst)
        assert len(reports) == inst.m
        assert reports.verdict.dtype == bool and reports.witness.dtype == np.int64
        assert np.array_equal(reports.verdict, reports.witness >= 0)
        for arr in (reports.verdict, reports.witness):
            with pytest.raises(ValueError):
                arr[0] = arr[1]

    def test_cyclic_market_yes_everywhere(self):
        reports = verdict_rows(extra_stable_partner_reports(cyclic_instance()))
        assert [r[0] for r in reports] == [0, 1, 2]
        assert all(r[1] for r in reports)

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(60):
            cfg = random_tiny_config(rng)
            inst = sample_market(cfg)
            sets = stable_partner_sets(inst)
            for u, verdict, _ in verdict_rows(extra_stable_partner_reports(inst)):
                assert verdict == (len(sets[u]) > inst.capacity)

    def test_matches_per_university_scan(self, rng):
        instances = [cyclic_instance()]
        for _ in range(60):
            instances.append(sample_market(random_mixed_config(rng, max_n=200)))
        # long lists in tight markets, where extra stable partners do occur
        for seed in range(12):
            instances.append(sample_market(MarketConfig(
                n=100, m_ratio=(1.0, 0.5)[seed % 2], capacity=1 + seed % 3, k=5, seed=seed
            )))
        yes = 0
        for inst in instances:
            got = verdict_rows(extra_stable_partner_reports(inst))
            assert got == scanned_reports(inst)
            yes += sum(r[1] for r in got)
        assert yes >= 10

    def test_witness_preferred_to_worst_admit(self, rng):
        found = 0
        instances = [cyclic_instance()]
        for _ in range(80):
            instances.append(sample_market(random_tiny_config(rng)))
        for inst in instances:
            base = student_proposing_da(inst)
            ranks = university_ranks(inst)
            for u, verdict, witness in verdict_rows(extra_stable_partner_reports(inst)):
                if not verdict:
                    continue
                found += 1
                witness_rank = ranks[witness][list_rank(inst, witness, u)]
                worst = max(ranks[s][list_rank(inst, s, u)] for s in students_of(base, u))
                assert witness_rank < worst
        assert found > 0

    def test_under_capacity_university_is_no(self, rng):
        # a university that does not fill its seats keeps the same partners
        # in every stable matching
        for _ in range(30):
            cfg = random_tiny_config(rng)
            inst = sample_market(cfg)
            base = student_proposing_da(inst)
            for u, verdict, _ in verdict_rows(extra_stable_partner_reports(inst)):
                if len(students_of(base, u)) < inst.capacity:
                    assert not verdict

    def test_yes_fraction_shrinks_with_market_size(self):
        means = {}
        for n in (200, 500, 1000):
            fractions = []
            for seed in range(20):
                inst = sample_market(MarketConfig(n=n, k=5, seed=7000 + seed))
                reports = extra_stable_partner_reports(inst)
                fractions.append(int(reports.verdict.sum()) / inst.m)
            means[n] = float(np.mean(fractions))
        assert means[1000] < means[200]
        assert means[500] <= means[200] and means[1000] <= means[500]
