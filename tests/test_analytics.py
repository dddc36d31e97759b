"""Utility accounting, comparisons, and record serialization."""

from __future__ import annotations

import io

import numpy as np
import pytest

from admitsim import (
    ExperimentRecord,
    MarketConfig,
    Matching,
    UtilityModel,
    compare_matchings,
    compute_utilities,
    make_record,
    sample_market,
    school_proposing_da,
    write_records_csv,
)
from admitsim.analytics import _records_header, format_number
from conftest import own_ranks, random_mixed_config


class TestComputeUtilities:
    def test_empty_matching(self):
        inst = sample_market(MarketConfig(n=5, m_ratio=1.0, k=2, seed=0))
        totals = compute_utilities(inst, Matching([-1] * 5, 5))
        assert totals == (0.0, 0.0, 0)

    def test_everyone_first_choice(self):
        n = 6
        inst = sample_market(MarketConfig(n=n, m_ratio=1.0, k=1, seed=2))
        # force a perfect assignment by matching each student to her listed school
        partner = inst.prefs[:, 0].copy()
        # collisions possible with k=1 sampling; rebuild a clean instance instead
        if len(set(partner.tolist())) == n:
            matching = Matching(partner, n)
            totals = compute_utilities(inst, matching, UtilityModel(bonus=1.0))
            assert totals == (2 * n, 2 * n, n)

    def test_everyone_first_choice_fixture(self):
        from test_matching import small_instance

        inst = small_instance([[0], [1], [2]], [[1.0], [1.0], [1.0]], m=3)
        totals = compute_utilities(inst, Matching([0, 1, 2], 3), UtilityModel(bonus=1.0))
        assert totals == (6.0, 6.0, 3)

    def test_decomposition_exact(self, rng):
        # student total minus bonus * synergy equals the base sum exactly
        for _ in range(15):
            cfg = random_mixed_config(rng, max_n=30)
            inst = sample_market(cfg)
            matching = school_proposing_da(inst)
            base = lambda r: 1.0 + 1.0 / r
            model = UtilityModel(base=base, bonus=2.5)
            student_total, _, synergy = compute_utilities(inst, matching, model)
            ranks = [r + 1 for r in own_ranks(inst, matching) if r < inst.k]
            expected_base = sum(base(r) for r in ranks)
            assert student_total == pytest.approx(expected_base + 2.5 * synergy)

    def test_increasing_base_rejected(self):
        inst = sample_market(MarketConfig(n=4, m_ratio=1.0, k=2, seed=1))
        model = UtilityModel(base=lambda r: float(r))
        with pytest.raises(ValueError):
            compute_utilities(inst, school_proposing_da(inst), model)

    def test_university_override(self):
        from test_matching import small_instance

        inst = small_instance([[0], [1]], [[1.0], [1.0]], m=2)
        model = UtilityModel(bonus=1.0, university_base=lambda r: 3.0, university_bonus=0.0)
        totals = compute_utilities(inst, Matching([0, 1], 2), model)
        assert totals.student_total == 4.0
        assert totals.university_total == 6.0


class TestCompareMatchings:
    def test_identical(self):
        m = Matching([0, 1, -1], 2)
        assert compare_matchings(m, m) == 0.0

    def test_full_versus_empty(self):
        a = Matching([0, 1], 2)
        b = Matching([-1, -1], 2)
        assert compare_matchings(a, b) == 1.0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare_matchings(Matching([0], 1), Matching([0, 1], 2))


class TestRecords:
    def test_header_and_row_format(self):
        inst = sample_market(MarketConfig(n=3, m_ratio=1.0, k=2, seed=3))
        record = make_record(inst, school_proposing_da(inst), seed=42)
        buf = io.StringIO()
        write_records_csv([record], buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "k,delta,seed,n,m,l,matched,rank1,rank2,unmatched,synergy,u_student,u_university"
        fields = lines[1].split(",")
        assert fields[0] == "2"
        assert fields[2] == "42"

    def test_rank_padding(self):
        inst = sample_market(MarketConfig(n=3, m_ratio=1.0, k=2, seed=3))
        record = make_record(inst, school_proposing_da(inst))
        buf = io.StringIO()
        write_records_csv([record], buf, k_max=4)
        header = buf.getvalue().split("\n")[0]
        assert header.split(",")[7:11] == ["rank1", "rank2", "rank3", "rank4"]

    def test_k_max_below_a_record_k_is_refused(self, tmp_path):
        inst = sample_market(MarketConfig(n=20, m_ratio=1.0, k=5, seed=3))
        record = make_record(inst, school_proposing_da(inst))
        out = tmp_path / "records.csv"
        with pytest.raises(ValueError, match="k_max = 3"):
            write_records_csv([record], out, k_max=3)
        assert not out.exists()

    def test_fields_of_other_types_print_as_format_number_prints_them(self):
        base = dict(k=2, delta=1.0, seed=2**64 - 1, n=3, m=3, capacity=1, rank_counts=(2, 1),
                    unmatched=0, synergy=2, student_utility=5.0, university_utility=5.5)
        records = [
            ExperimentRecord(**base),
            ExperimentRecord(**{**base, "delta": None, "student_utility": 1234567.0}),
            ExperimentRecord(**{**base, "k": np.int64(2), "rank_counts": (np.int32(2), True),
                                "university_utility": np.float32(0.1)}),
            ExperimentRecord(**{**base, "k": 2.0, "n": 3.0, "student_utility": 4}),
        ]
        buf = io.StringIO()
        write_records_csv(records, buf, k_max=3)
        expected = [
            ",".join(format_number(v) for v in (
                r.k, r.delta, r.seed, r.n, r.m, r.capacity, r.matched, *r.rank_counts, 0,
                r.unmatched, r.synergy, r.student_utility, r.university_utility))
            for r in records
        ]
        assert buf.getvalue().split("\n")[1:] == expected + [""]

    def test_six_significant_digits(self):
        assert format_number(0.12345678) == "0.123457"
        assert format_number(1234567.0) == "1.23457e+06"
        assert format_number(3) == "3"
        assert format_number(None) == "custom"

    def test_record_invariants(self):
        inst = sample_market(MarketConfig(n=10, m_ratio=1.0, k=3, seed=8))
        record = make_record(inst, school_proposing_da(inst))
        assert sum(record.rank_counts) + record.unmatched == record.n
        assert record.synergy <= record.rank_counts[0]

    def test_header_builder(self):
        assert _records_header(1) == [
            "k", "delta", "seed", "n", "m", "l", "matched",
            "rank1", "unmatched", "synergy", "u_student", "u_university",
        ]
