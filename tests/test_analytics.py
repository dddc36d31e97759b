"""Utility accounting, comparisons, and record serialization."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from admitsim import (
    ExperimentRecord,
    MarketConfig,
    Matching,
    SignalSpec,
    UtilityModel,
    compare_matchings,
    make_record,
    sample_market,
    school_proposing_da,
    write_records_csv,
)
from admitsim.analytics import _records_header, _utility_totals, format_number
from conftest import own_ranks, random_mixed_config


def utilities(instance, matching, model=None):
    """(student, university, synergy) totals, as the matching's record holds them."""
    record = make_record(instance, matching, model)
    return record.student_utility, record.university_utility, record.synergy


class TestUtilities:
    def test_empty_matching(self):
        inst = sample_market(MarketConfig(n=5, m_ratio=1.0, k=2, seed=0))
        totals = utilities(inst, Matching([-1] * 5, 5))
        assert totals == (0.0, 0.0, 0)

    def test_everyone_first_choice(self):
        n = 6
        inst = sample_market(MarketConfig(n=n, m_ratio=1.0, k=1, seed=2))
        # force a perfect assignment by matching each student to her listed school
        partner = inst.prefs[:, 0].copy()
        # collisions possible with k=1 sampling; rebuild a clean instance instead
        if len(set(partner.tolist())) == n:
            matching = Matching(partner, n)
            totals = utilities(inst, matching, UtilityModel(bonus=1.0))
            assert totals == (2 * n, 2 * n, n)

    def test_everyone_first_choice_fixture(self):
        from test_matching import small_instance

        inst = small_instance([[0], [1], [2]], [[1.0], [1.0], [1.0]], m=3)
        totals = utilities(inst, Matching([0, 1, 2], 3), UtilityModel(bonus=1.0))
        assert totals == (6.0, 6.0, 3)

    def test_decomposition_exact(self, rng):
        # student total minus bonus * synergy equals the base sum exactly
        for _ in range(15):
            cfg = random_mixed_config(rng, max_n=30)
            inst = sample_market(cfg)
            matching = school_proposing_da(inst)
            base = lambda r: 1.0 + 1.0 / r
            model = UtilityModel(base=base, bonus=2.5)
            student_total, _, synergy = utilities(inst, matching, model)
            ranks = [r + 1 for r in own_ranks(inst, matching) if r < inst.k]
            expected_base = sum(base(r) for r in ranks)
            assert student_total == pytest.approx(expected_base + 2.5 * synergy)

    @pytest.mark.parametrize(
        "model",
        [
            UtilityModel(),
            UtilityModel(base=lambda r: 12 - r, bonus=3, university_base=lambda r: -2.0 * r),
            # fractions, whose sums round, and sums past 2^53
            UtilityModel(base=lambda r: 1.0 + 1.0 / r, bonus=2.5),
            UtilityModel(base=lambda r: 0.1 * (11 - r), bonus=0.3, university_bonus=1e-3),
            UtilityModel(base=lambda r: 2.0**52, bonus=1.0),
            # a -0.0 bonus leaves zero totals at 0.0
            UtilityModel(base=lambda r: -1.0, bonus=-0.0),
        ],
    )
    def test_totals_equal_the_per_row_sums(self, rng, model):
        counts = rng.integers(0, 60, size=(3000, 10))
        counts[::5] = 0
        base = [model.base(r) for r in range(1, 11)]
        uni = base if model.university_base is None else [
            model.university_base(r) for r in range(1, 11)]
        uni_bonus = model.bonus if model.university_bonus is None else model.university_bonus

        def row_sum(row, values, bonus):
            total = 0.0
            for count, value in zip(row, values):
                total += count * value
            return total + bonus * row[0]

        expected = [(row_sum(row, base, model.bonus), row_sum(row, uni, uni_bonus))
                    for row in counts.tolist()]
        # the two total columns, row by row; repr tells -0.0 from 0.0, which == does not
        columns = [column.tolist() for column in _utility_totals(counts, model)]
        assert repr(list(zip(*columns))) == repr(expected)

    def test_records_do_not_depend_on_the_rows_summed_with_them(self):
        # each market's record holds the totals of its row in a table of many markets
        model = UtilityModel(base=lambda r: 0.1 * (11 - r) + 1.0 / 3, bonus=0.7,
                             university_base=lambda r: math.pi / r, university_bonus=1e-3)
        records = [
            make_record(instance, school_proposing_da(instance), model)
            for seed in range(40)
            for instance in [sample_market(MarketConfig(n=30, k=1 + seed % 5, seed=seed))]
        ]
        counts = np.array([(*r.rank_counts, *[0] * (5 - r.k)) for r in records])
        columns = [column.tolist() for column in _utility_totals(counts, model)]
        assert [(r.student_utility, r.university_utility) for r in records] == list(
            zip(*columns))

    def test_increasing_base_rejected(self):
        inst = sample_market(MarketConfig(n=4, m_ratio=1.0, k=2, seed=1))
        model = UtilityModel(base=lambda r: float(r))
        with pytest.raises(ValueError):
            make_record(inst, school_proposing_da(inst), model)

    @pytest.mark.parametrize("field", ["bonus", "university_bonus"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, "1"])
    def test_bonus_must_be_finite_and_nonnegative(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number >= 0, got"):
            UtilityModel(**{field: value})

    @pytest.mark.parametrize("field", ["bonus", "university_bonus"])
    def test_bonus_must_not_be_a_boolean(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number >= 0, got True$"):
            UtilityModel(**{field: True})

    @pytest.mark.parametrize("field", ["base", "university_base"])
    @pytest.mark.parametrize("value", [5, "x"])
    def test_base_must_be_callable(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be callable, got {value!r}$"):
            UtilityModel(**{field: value})

    @pytest.mark.parametrize("field", ["base", "university_base"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1", True, None])
    def test_base_values_must_be_finite(self, field, value):
        # a NaN also slips past the nonincreasing check; -inf passes it outright;
        # a string or None would fail the sums with a bare TypeError, a bool count as 1
        inst = sample_market(MarketConfig(n=4, m_ratio=1.0, k=3, seed=1))
        model = UtilityModel(**{field: lambda r: value if r == 3 else 1.0})
        with pytest.raises(ValueError, match=f"^{field} utility must be finite"):
            make_record(inst, school_proposing_da(inst), model)

    def test_university_override(self):
        from test_matching import small_instance

        inst = small_instance([[0], [1]], [[1.0], [1.0]], m=2)
        model = UtilityModel(bonus=1.0, university_base=lambda r: 3.0, university_bonus=0.0)
        record = make_record(inst, Matching([0, 1], 2), model)
        assert record.student_utility == 4.0
        assert record.university_utility == 6.0


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
        matching = school_proposing_da(inst)
        # a record carries the seed that rebuilds its market, and no other
        with pytest.raises(ValueError, match="^seed 42 is not the market's seed 3$"):
            make_record(inst, matching, seed=42)
        record = make_record(inst, matching, seed=3)
        buf = io.StringIO()
        write_records_csv([record], buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "k,delta,seed,n,m,l,matched,rank1,rank2,unmatched,synergy,u_student,u_university"
        fields = lines[1].split(",")
        assert fields[0] == "2"
        assert fields[2] == "3"

    def test_rank_padding(self):
        # rank columns pad to the widest k, a narrower record's with zeros
        records = [make_record(inst, school_proposing_da(inst)) for inst in (
            sample_market(MarketConfig(n=3, m_ratio=1.0, k=k, seed=3)) for k in (2, 3))]
        buf = io.StringIO()
        write_records_csv(records, buf)
        header, narrow, wide = (line.split(",") for line in buf.getvalue().splitlines())
        assert header[7:10] == ["rank1", "rank2", "rank3"]
        assert narrow[7:10] == [str(v) for v in (*records[0].rank_counts, 0)]
        assert wide[7:10] == [str(v) for v in records[1].rank_counts]

    def test_rank_columns_past_the_widest_k_are_refused(self, tmp_path):
        record = ExperimentRecord(k=3, delta=0.0, seed=1, n=5, m=5, capacity=1,
                                  rank_counts=(1,) * 5, unmatched=0, student_utility=6.0,
                                  university_utility=6.0)
        out = tmp_path / "records.csv"
        with pytest.raises(ValueError, match="^the widest k = 3 is below a record's 5 rank"):
            write_records_csv([record], out)
        assert not out.exists()

    def test_width_is_the_widest_integral_k(self):
        base = dict(delta=0.0, seed=1, n=3, m=3, capacity=1, rank_counts=(2, 1), unmatched=0,
                    student_utility=5.0, university_utility=5.0)
        texts = []
        for k in (2.0, 2):
            buf = io.StringIO()
            write_records_csv([ExperimentRecord(k=k, **base)], buf)
            texts.append(buf.getvalue())
        assert texts[0] == texts[1]
        with pytest.raises(ValueError, match="^k must be an integer, got 2.5$"):
            write_records_csv([ExperimentRecord(k=2.5, **base)], io.StringIO())

    def test_fields_of_other_types_print_as_format_number_prints_them(self):
        base = dict(k=2, delta=1.0, seed=2**64 - 1, n=3, m=3, capacity=1, rank_counts=(2, 1),
                    unmatched=0, student_utility=5.0, university_utility=5.5)
        records = [
            ExperimentRecord(**base),
            ExperimentRecord(**{**base, "delta": None, "student_utility": 1234567.0}),
            ExperimentRecord(**{**base, "k": np.int64(2), "rank_counts": (np.int32(2), True),
                                "university_utility": np.float32(0.1)}),
            ExperimentRecord(**{**base, "k": 2.0, "n": 3.0, "student_utility": 4}),
        ]
        buf = io.StringIO()
        write_records_csv(records, buf)
        expected = [
            ",".join(format_number(v) for v in (
                r.k, r.delta, r.seed, r.n, r.m, r.capacity, r.matched, *r.rank_counts,
                r.unmatched, r.synergy, r.student_utility, r.university_utility))
            for r in records
        ]
        assert buf.getvalue().split("\n")[1:] == expected + [""]

    def test_negative_zero_shift_prints_as_zero(self):
        inst = sample_market(MarketConfig(n=4, k=2, signal=SignalSpec.gaussian(-0.0)))
        buf = io.StringIO()
        write_records_csv([make_record(inst, school_proposing_da(inst))], buf)
        assert buf.getvalue().splitlines()[1].startswith("2,0,0,4,4,1,")
        # -0.0 is the unshifted market, one value however it is spelled
        assert SignalSpec.iid() == SignalSpec.gaussian(0.0) == SignalSpec.gaussian(-0.0) \
            == SignalSpec()

    def test_six_significant_digits(self):
        assert format_number(0.12345678) == "0.123457"
        assert format_number(1234567.0) == "1.23457e+06"
        assert format_number(3) == "3"
        assert format_number(None) == "custom"

    def test_record_invariants(self):
        inst = sample_market(MarketConfig(n=10, m_ratio=1.0, k=3, seed=8))
        record = make_record(inst, school_proposing_da(inst))
        assert sum(record.rank_counts) + record.unmatched == record.n
        # synergy, a match with the favorite school, is the rank-1 count
        assert record.synergy == record.rank_counts[0]
        empty = ExperimentRecord(k=1, delta=0.0, seed=1, n=3, m=3, capacity=1, rank_counts=(),
                                 unmatched=3, student_utility=0.0, university_utility=0.0)
        assert empty.synergy == 0

    @pytest.mark.parametrize(
        "fields,message",
        [({"unmatched": 1}, "rank counts plus unmatched must equal n"),
         ({"rank_counts": (1, 2), "unmatched": 1}, "rank counts plus unmatched must equal n")],
    )
    def test_records_breaking_an_invariant_are_refused(self, fields, message):
        base = dict(k=2, delta=0.0, seed=1, n=3, m=3, capacity=1, rank_counts=(2, 1),
                    unmatched=0, student_utility=5.0, university_utility=5.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentRecord(**{**base, **fields})

    def test_header_builder(self):
        assert _records_header(1) == [
            "k", "delta", "seed", "n", "m", "l", "matched",
            "rank1", "unmatched", "synergy", "u_student", "u_university",
        ]
