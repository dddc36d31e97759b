"""Extra-stable-partner detection against the enumeration oracle."""

from __future__ import annotations

import numpy as np
import pytest

from admitsim import (
    MarketConfig,
    MarketInstance,
    MarketSizeError,
    enumerate_stable_matchings,
    extra_stable_partner_reports,
    sample_market,
    school_proposing_da,
    stable_partner_sets,
    student_proposing_da,
)
from conftest import random_mixed_config, random_tiny_config


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
    out: list[tuple[int, bool, int | None]] = []
    for u in range(instance.m):
        admits = set(pessimal.students_of(u))
        extras = set(optimal.students_of(u)) - admits
        if len(admits) < instance.capacity or not extras:
            out.append((u, False, None))
            continue
        witness = min(
            extras, key=lambda s: instance.uni_rank[s, instance.student_rank_of(s, u) - 1]
        )
        out.append((u, True, witness))
    return out


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
        (report,) = extra_stable_partner_reports(inst)
        assert not report.verdict and report.witness is None

    def test_cyclic_market_yes_everywhere(self):
        reports = extra_stable_partner_reports(cyclic_instance())
        assert [r.university for r in reports] == [0, 1, 2]
        assert all(r.verdict for r in reports)

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(60):
            cfg = random_tiny_config(rng)
            inst = sample_market(cfg)
            sets = stable_partner_sets(inst)
            for report in extra_stable_partner_reports(inst):
                assert report.verdict == (len(sets[report.university]) > inst.capacity)

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
            reports = extra_stable_partner_reports(inst)
            got = [(r.university, r.verdict, r.witness) for r in reports]
            assert got == scanned_reports(inst)
            yes += sum(r.verdict for r in reports)
        assert yes >= 10

    def test_witness_preferred_to_worst_admit(self, rng):
        found = 0
        instances = [cyclic_instance()]
        for _ in range(80):
            instances.append(sample_market(random_tiny_config(rng)))
        for inst in instances:
            base = student_proposing_da(inst)
            for report in extra_stable_partner_reports(inst):
                if not report.verdict:
                    continue
                found += 1
                u = report.university
                witness_rank = inst.uni_rank[
                    report.witness, inst.student_rank_of(report.witness, u) - 1
                ]
                worst = max(
                    inst.uni_rank[s, inst.student_rank_of(s, u) - 1]
                    for s in base.students_of(u)
                )
                assert witness_rank < worst
        assert found > 0

    def test_under_capacity_university_is_no(self, rng):
        # a university that does not fill its seats keeps the same partners
        # in every stable matching
        for _ in range(30):
            cfg = random_tiny_config(rng)
            inst = sample_market(cfg)
            base = student_proposing_da(inst)
            for report in extra_stable_partner_reports(inst):
                if len(base.students_of(report.university)) < inst.capacity:
                    assert not report.verdict

    def test_yes_fraction_shrinks_with_market_size(self):
        means = {}
        for n in (200, 500, 1000):
            fractions = []
            for seed in range(20):
                inst = sample_market(MarketConfig(n=n, k=5, seed=7000 + seed))
                reports = extra_stable_partner_reports(inst)
                fractions.append(sum(r.verdict for r in reports) / inst.m)
            means[n] = float(np.mean(fractions))
        assert means[1000] < means[200]
        assert means[500] <= means[200] and means[1000] <= means[500]
