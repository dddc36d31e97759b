"""Market sampling, signal distributions, and seeded proposal plans."""

from __future__ import annotations

import dataclasses
import inspect
import math
import re

import numpy as np
import pytest

import admitsim
from admitsim import (
    ConfigurationError,
    MarketConfig,
    MarketInstance,
    SeededProposalPlan,
    SignalSpec,
    build_seeded_plan,
    child_seed,
    complete_instance,
    continue_rejection_chains,
    estimate_acceptance,
    extra_stable_partner_reports,
    match_rank_indices,
    sample_market,
    solve_general,
    solve_iid,
    student_proposing_da,
)
from admitsim import analytics, fixed_point, market, matching, stable_partners
from admitsim.market import _rank_within_universities
from conftest import nth_unlisted, random_mixed_config, seeded_plan_oracle, university_ranks


def kept_ranks(instance: MarketInstance) -> np.ndarray:
    """The ranks the instance keeps: each application's place less its university's offset."""
    return instance._uni_place.reshape(instance.prefs.shape) - instance._uni_offsets[instance.prefs]


def plan_with_prefixes(config: MarketConfig, prefixes: list[list[int]]) -> SeededProposalPlan:
    """A seeded plan in which student s holds rank 1.. proposals to ``prefixes[s]``.

    Held proposals carry signal -100 and tiebreak 0.5, which no fresh draw gives.
    """
    cells = [(s, r + 1, u) for s, row in enumerate(prefixes) for r, u in enumerate(row)]
    students, ranks, unis = (np.array([c[i] for c in cells], dtype=np.int64) for i in range(3))
    return SeededProposalPlan(
        config=config,
        proposal_uni=unis,
        proposal_rank=ranks,
        proposal_signal=np.full(unis.size, -100.0),
        proposal_tiebreak=np.full(unis.size, 0.5),
        proposal_accepted=np.zeros(unis.size, dtype=bool),
        proposal_student=students,
    )


class TestConfigValidation:
    def test_rejects_non_integral_university_count(self):
        with pytest.raises(ConfigurationError):
            MarketConfig(n=3, m_ratio=0.5)

    def test_rejects_k_above_m(self):
        with pytest.raises(ConfigurationError):
            MarketConfig(n=2, m_ratio=1.0, k=3)

    @pytest.mark.parametrize("field,value", [("n", 0), ("capacity", 0), ("k", 0), ("seed", -1)])
    def test_rejects_nonpositive_scalars(self, field, value):
        kwargs = dict(n=4, m_ratio=1.0, capacity=1, k=2, seed=0)
        kwargs[field] = value
        with pytest.raises(ConfigurationError):
            MarketConfig(**kwargs)

    @pytest.mark.parametrize(
        "field,value",
        [("n", True), ("capacity", True), ("k", True), ("seed", False),
         ("m_ratio", "1"), ("m_ratio", True)],
    )
    def test_rejects_booleans_and_strings_by_name(self, field, value):
        kwargs = dict(n=4, m_ratio=1.0, capacity=1, k=2, seed=0)
        kwargs[field] = value
        with pytest.raises(ConfigurationError, match=f"^{field} must be .*got {value!r}$"):
            MarketConfig(**kwargs)

    @pytest.mark.parametrize("m_ratio", [math.inf, -math.inf, math.nan, 1e308])
    def test_rejects_non_finite_university_count(self, m_ratio):
        with pytest.raises(ConfigurationError):
            MarketConfig(n=10, m_ratio=m_ratio)

    def test_gaussian_negative_shift_rejected(self):
        with pytest.raises(ConfigurationError):
            SignalSpec.gaussian(-1.0)

    @pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan])
    def test_gaussian_non_finite_shift_rejected(self, delta):
        with pytest.raises(ConfigurationError):
            SignalSpec.gaussian(delta)

    @pytest.mark.parametrize("delta", [True, np.bool_(False), "1", None, [1.0]])
    def test_shift_must_be_a_real_number(self, delta):
        message = f"^signal shift must be a number, got {re.escape(repr(delta))}$"
        with pytest.raises(ConfigurationError, match=message):
            SignalSpec(delta=delta)

    def test_shift_is_stored_as_a_float(self):
        for delta in (1, np.float32(0.5), np.int64(2), 0, -0.0, np.float64(-0.0)):
            spec = SignalSpec(delta=delta)
            assert type(spec.delta) is float and spec.delta == delta
            assert math.copysign(1.0, spec.delta) == 1.0

    @pytest.mark.parametrize("fields", [{"kind": "iid"}, {"kind": "gaussian", "delta": 1.0}])
    def test_kind_is_not_a_field(self, fields):
        with pytest.raises(TypeError, match="kind"):
            SignalSpec(**fields)

    def test_json_shift_must_be_finite(self):
        for delta in (math.inf, -1.0):
            with pytest.raises(ConfigurationError, match="^gaussian signal shift must be finite"):
                MarketConfig.from_json_dict({"n": 5, "delta": delta})

    @pytest.mark.parametrize(
        "field,value",
        [("n", 100.7), ("k", "3"), ("seed", 2.9), ("capacity", "2"), ("m_ratio", "1.0")],
    )
    def test_json_fields_are_not_truncated(self, field, value):
        doc = {"n": 100, "k": 3, "seed": 2, field: value}
        with pytest.raises(ConfigurationError, match=f"^{field} must be .*got {value!r}$"):
            MarketConfig.from_json_dict(doc)

    def test_json_integral_values_load_unchanged(self):
        config = MarketConfig.from_json_dict({"n": 100.0, "k": 3, "m_ratio": 1, "seed": 2})
        assert (config.n, config.k, config.m_ratio, config.seed) == (100, 3, 1.0, 2)
        assert isinstance(config.n, int) and isinstance(config.m_ratio, float)

    @pytest.mark.parametrize("field", ["n", "k", "seed", "capacity", "m_ratio"])
    def test_json_booleans_are_not_numbers(self, field):
        # int(True) == True, so a boolean would otherwise load as 1
        doc = {"n": 100, "k": 3, "seed": 2, field: True}
        with pytest.raises(ConfigurationError, match=f"^{field} must be .*got True$"):
            MarketConfig.from_json_dict(doc)
        with pytest.raises(ConfigurationError, match="^n must be an integer, got True$"):
            MarketConfig.from_json_dict({"n": True, "k": True})
        with pytest.raises(ConfigurationError, match="^delta must be a number, got False$"):
            MarketConfig.from_json_dict({"n": 5, "delta": False})

    def test_json_shift_is_not_parsed(self):
        with pytest.raises(ConfigurationError, match="^delta must be a number, got '1'$"):
            MarketConfig.from_json_dict({"n": 5, "delta": "1"})

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({}, '"n"'),
            ({"n": 5, "capactiy": 2}, "'capactiy'"),
            ({"n": 5, "shift": 1}, "'shift'"),
            ([5], "market configuration"),
        ],
    )
    def test_json_errors_name_the_field(self, doc, field):
        with pytest.raises(ConfigurationError, match=re.escape(field)):
            MarketConfig.from_json_dict(doc)

    @pytest.mark.parametrize("signal", ["iid", "gaussian", {"kind": "gaussian", "delta": 1}])
    def test_json_signal_is_an_unknown_field(self, signal):
        message = "^unknown market configuration field 'signal'$"
        with pytest.raises(ConfigurationError, match=message):
            MarketConfig.from_json_dict({"n": 5, "signal": signal, "delta": 1})

    @pytest.mark.parametrize(
        "doc,signal",
        [({}, SignalSpec()), ({"delta": 0}, SignalSpec.iid()),
         ({"delta": 2}, SignalSpec.gaussian(2.0)), ({"delta": 1.5}, SignalSpec.gaussian(1.5))],
    )
    def test_json_shift(self, doc, signal):
        assert MarketConfig.from_json_dict({"n": 5, **doc}).signal == signal

    def test_iid_shift_is_positive_zero(self):
        # a -0.0 shift would print as "-0" in the records' delta column
        spec = MarketConfig.from_json_dict({"n": 5, "delta": -0.0})
        assert math.copysign(1.0, spec.signal.delta) == 1.0

    def test_custom_needs_both_samplers(self):
        ones = lambda rng, size: np.ones(size)  # noqa: E731
        for fields, message in (
            ({"special_sampler": ones}, "regular sampler is not callable: None"),
            ({"regular_sampler": ones}, "special sampler is not callable: None"),
            ({"special_sampler": 5, "regular_sampler": ones}, "special sampler is not callable: 5"),
        ):
            with pytest.raises(ConfigurationError, match=f"^{message}$"):
                SignalSpec(**fields)

    def test_custom_takes_no_shift(self):
        ones = lambda rng, size: np.ones(size)  # noqa: E731
        with pytest.raises(ConfigurationError, match="^custom signals take no shift, got 2.0$"):
            SignalSpec(delta=2.0, special_sampler=ones, regular_sampler=ones)
        assert SignalSpec(-0.0, ones, ones) == SignalSpec.custom(ones, ones)

    @pytest.mark.parametrize(
        "prefs,entry",
        [([[0.9], [1.2]], "0.9"), ([["0"], ["1"]], "'0'"), ([[0], [True]], "True"),
         (np.array([[0.0], [np.nan]]), "nan"), (np.array([[True], [False]]), "True"),
         ([[0], [None]], "None"), ([[0], [1, 2]], r"\[0\]")],
    )
    def test_preference_ids_must_be_integers(self, prefs, entry):
        config, table = MarketConfig(n=2, m_ratio=1.5, k=1), np.zeros((2, 1))
        message = f"^preference table entry must be an integer, got {entry}$"
        with pytest.raises(ConfigurationError, match=message):
            MarketInstance(config, prefs, table, table)

    @pytest.mark.parametrize("table", ["signal", "tiebreak"])
    @pytest.mark.parametrize(
        "values,entry",
        [([["1.5"], [0.5]], "'1.5'"), ([[0.5], [True]], "True"), ([[0.5], [None]], "None"),
         (np.array([[0.5], [False]], dtype=object), "False"), ([[0.5], [{}]], r"\{\}"),
         ([[0.5], [0.5, 1.0]], r"\[0.5\]")],
    )
    def test_signal_and_tiebreak_entries_must_be_numbers(self, table, values, entry):
        config, prefs, zeros = MarketConfig(n=2, m_ratio=1.5, k=1), [[0], [1]], np.zeros((2, 1))
        tables = {"signal": zeros, "tiebreak": zeros, table: values}
        message = f"^{table} table entry must be a number, got {entry}$"
        with pytest.raises(ConfigurationError, match=message):
            MarketInstance(config, prefs, tables["signal"], tables["tiebreak"])

    def test_numeric_signal_and_tiebreak_entries_pass(self):
        config, prefs = MarketConfig(n=2, m_ratio=1.5, k=1), [[0], [1]]
        inst = MarketInstance(config, prefs, [[2], [math.nan]], np.array([[1], [0]], np.int32))
        assert inst.signals.dtype == inst.tiebreaks.dtype == np.float64
        assert inst.signals[0, 0] == 2.0 and math.isnan(inst.signals[1, 0])
        assert inst.tiebreaks.tolist() == [[1.0], [0.0]]
        assert kept_ranks(inst).tolist() == university_ranks(inst) == [[0], [0]]
        # a float64 table is taken as it is, with no pass over its entries
        values = np.array([[0.5], [math.nan]])
        assert market._id_table("signal table", values, kind=float) is values

    @pytest.mark.parametrize(
        "tables,message",
        [({"prefs": [[0]]}, "preference/signal tables must be \\(n, k\\)"),
         ({"prefs": [[0, 1], [1, 2]]}, "preference/signal tables must be \\(n, k\\)"),
         ({"signals": np.zeros((2, 2))}, "preference/signal tables must be \\(n, k\\)"),
         ({"tiebreaks": np.zeros(2)}, "preference/signal tables must be \\(n, k\\)"),
         ({"prefs": [[0], [3]]}, "university ids out of range"),
         ({"prefs": [[-1], [0]]}, "university ids out of range"),
         ({"prefs": [[0], [2**70]]}, "preference table holds an id outside the int64 range"),
         ({"prefs": np.array([[0], [2**64 - 1]], dtype=np.uint64)},
          "preference table holds an id outside the int64 range")],
    )
    def test_tables_must_be_n_by_k_ids_in_range(self, tables, message):
        config = MarketConfig(n=2, m_ratio=1.5, k=1)
        given = {"prefs": [[0], [2]], "signals": np.zeros((2, 1)), "tiebreaks": np.zeros((2, 1))}
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            MarketInstance(config, **{**given, **tables})

    def test_integral_preference_ids_pass(self):
        config, table = MarketConfig(n=2, m_ratio=1.5, k=1), np.zeros((2, 1))
        for prefs in ([[0.0], [2.0]], np.array([[0], [2]], dtype=np.uint8)):
            assert MarketInstance(config, prefs, table, table).prefs.tolist() == [[0], [2]]
        # a signed integer table is taken as it is, with no pass over its entries
        for dtype in (np.int8, np.int32, np.int64):
            ids = np.array([[0], [2]], dtype=dtype)
            assert market._id_table("preference table", ids) is ids


class TestSampling:
    def test_single_student_single_school(self):
        inst = sample_market(MarketConfig(n=1, m_ratio=1.0, capacity=1, k=1, seed=5))
        assert inst.prefs.tolist() == [[0]]
        assert inst.signals.shape == (1, 1)
        assert inst.prefs[:, 0].tolist() == [0]  # student 0's favorite is university 0

    def test_full_lists_are_permutations(self):
        inst = sample_market(MarketConfig(n=3, m_ratio=1.0, k=3, seed=1))
        for row in inst.prefs:
            assert sorted(row.tolist()) == [0, 1, 2]

    def test_lists_are_distinct_and_in_range(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 30))
            m_ratio = float(rng.choice([1.0, 2.0]))
            m = round(m_ratio * n)
            k = int(rng.integers(1, m + 1))
            inst = sample_market(
                MarketConfig(n=n, m_ratio=m_ratio, k=k, seed=int(rng.integers(2**63)))
            )
            for row in inst.prefs:
                assert len(set(row.tolist())) == k
                assert row.min() >= 0 and row.max() < m

    def test_first_choice_miss_fraction_matches_exact_probability(self):
        # Chance that a given university is nobody's favorite, computed
        # directly: every student independently picks elsewhere first.
        n = 10_000
        exact = (1 - 1 / n) ** n
        fractions = []
        for seed in range(20):
            inst = sample_market(MarketConfig(n=n, m_ratio=1.0, k=1, seed=seed))
            hit = np.zeros(n, dtype=bool)
            hit[inst.prefs[:, 0]] = True
            fractions.append(1.0 - hit.mean())
        assert abs(np.mean(fractions) - exact) < 0.02

    def test_determinism_bit_identical(self):
        cfg = MarketConfig(n=40, m_ratio=2.0, capacity=2, k=4, seed=99)
        a, b = sample_market(cfg), sample_market(cfg)
        assert a == b

    def test_list_distribution_uniform_index_path(self):
        # m=16, k=2 takes the index path; all 240 ordered pairs should be
        # equally likely (chi-square, fixed seed, 0.001 critical ~ 306)
        m, k, rows = 16, 2, 24_000
        inst = sample_market(MarketConfig(n=rows, m_ratio=m / rows, k=k, seed=14))
        counts = np.zeros((m, m))
        for a, b in inst.prefs:
            counts[a, b] += 1
        cells = counts[~np.eye(m, dtype=bool)]
        expected = rows / (m * (m - 1))
        chi2 = float(((cells - expected) ** 2 / expected).sum())
        assert chi2 < 320

    def test_list_distribution_uniform_key_sort_path(self, monkeypatch):
        # m=4, k=3 has k(k-1) > m, which at a ratio of 1 takes the random-key
        # sort; 24 ordered triples, 0.001 critical for 23 dof ~ 49.7
        monkeypatch.setattr(market, "_KEY_SORT_RATIO", 1)
        m, k, rows = 4, 3, 12_000
        inst = sample_market(MarketConfig(n=rows, m_ratio=m / rows, k=k, seed=15))
        counts: dict[tuple[int, ...], int] = {}
        for row in inst.prefs:
            counts[tuple(row.tolist())] = counts.get(tuple(row.tolist()), 0) + 1
        assert len(counts) == 24
        expected = rows / 24
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 52

    def test_different_seeds_differ(self):
        cfg = MarketConfig(n=40, m_ratio=1.0, k=3, seed=0)
        other = dataclasses.replace(cfg, seed=1)
        assert sample_market(cfg) != sample_market(other)

    def test_child_seed_split_is_stable_and_spread(self):
        seeds = {child_seed(7, i) for i in range(100)}
        assert len(seeds) == 100
        assert child_seed(7, 3) == child_seed(7, 3)
        assert child_seed(7, 3) != child_seed(8, 3)

    @pytest.mark.parametrize("signal", [SignalSpec.iid(), SignalSpec.gaussian(1.5), SignalSpec.custom(
        lambda g, size: g.integers(0, 3, size), lambda g, size: g.integers(0, 2, size))])
    def test_stack_blocks_are_the_markets_sampled_alone(self, signal):
        config = MarketConfig(n=30, m_ratio=1.0, capacity=2, k=4, signal=signal, seed=8)
        seeds, words = market._child_streams(config.seed, 0, 5)
        stack = market._sample_stack(config, [market._seeded_generator(w) for w in words])
        for b, seed in enumerate(seeds):
            alone = sample_market(dataclasses.replace(config, seed=seed))
            block = slice(b * config.n, (b + 1) * config.n)
            assert np.array_equal(stack.prefs[block] - b * config.m, alone.prefs)
            assert np.array_equal(stack.signals[block], alone.signals)
            assert np.array_equal(stack.tiebreaks[block], alone.tiebreaks)

    def test_signal_lookup_and_applicant_order(self):
        inst = sample_market(MarketConfig(n=8, m_ratio=1.0, capacity=2, k=3, seed=6))
        assert all(len(set(row)) == inst.k for row in inst.prefs.tolist())
        counts = np.bincount(inst.prefs.ravel(), minlength=inst.m)
        table = np.array(university_ranks(inst))
        assert np.array_equal(kept_ranks(inst), table)
        for u in range(inst.m):
            here = inst.prefs == u
            ranks = table[here]
            assert sorted(ranks.tolist()) == list(range(counts[u]))
            sigs = inst.signals[here][np.argsort(ranks)].tolist()
            assert sigs == sorted(sigs, reverse=True) or len(set(sigs)) < len(sigs)


class RecordingGenerator(np.random.Generator):
    """``default_rng(seed)`` that logs each call with the shape it draws."""

    def __init__(self, seed: int) -> None:
        super().__init__(np.random.PCG64(seed))
        self.calls: list[tuple[str, tuple[int, ...]]] = []

    def integers(self, *args, **kwargs):
        drawn = super().integers(*args, **kwargs)
        self.calls.append(("integers", np.shape(drawn)))
        return drawn

    def random(self, size=None, dtype=np.float64, out=None):
        drawn = super().random(size, dtype, out)
        self.calls.append(("random", np.shape(drawn)))
        return drawn

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        drawn = super().standard_normal(size, dtype, out)
        self.calls.append(("standard_normal", np.shape(drawn)))
        return drawn


def three_calls(config: MarketConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The calls that sampling one market of ``config`` makes: its list
    uniforms, rank-major, or on the key sort its m keys per student; its
    tiebreaks; its signals."""
    n, m, k = config.n, config.m, config.k
    lists = (n, m) if k * (k - 1) > market._KEY_SORT_RATIO * m else (k, n)
    return [("random", lists), ("random", (n, k)), ("standard_normal", (n, k))]


class TestStack:
    """A stacked instance is its replications' markets side by side."""

    @pytest.mark.parametrize(
        "config",
        [
            # index path: sparse lists, then dense ones (k(k-1) > m), up to m = k
            MarketConfig(n=4, m_ratio=3.0, k=4, seed=0),
            MarketConfig(n=40, m_ratio=1.0, capacity=3, k=6,
                         signal=SignalSpec.gaussian(1.5), seed=0),
            MarketConfig(n=10, m_ratio=0.5, capacity=2, k=4, seed=0),
            MarketConfig(n=6, m_ratio=1.0, k=6, seed=0),
            # key-sort path, k(k-1) > 32m
            MarketConfig(n=36, m_ratio=1.0, capacity=2, k=36, seed=0),
            # custom samplers draw each kind in one call
            MarketConfig(n=12, m_ratio=1.0, capacity=2, k=3, seed=0, signal=SignalSpec.custom(
                lambda g, size: g.integers(0, 3, size), lambda g, size: g.exponential(size=size))),
        ],
    )
    def test_every_block_is_the_market_its_seed_samples(self, config):
        seeds = [child_seed(9, i) for i in range(9)]
        stack = market._sample_stack(config, seeds)
        n, m = config.n, config.m
        assert (stack.n, stack.m) == (9 * n, 9 * m)
        for b, seed in enumerate(seeds):
            alone = sample_market(dataclasses.replace(config, seed=seed))
            rows = slice(b * n, (b + 1) * n)
            assert np.array_equal(stack.prefs[rows] - b * m, alone.prefs)
            assert stack.signals[rows].tobytes() == alone.signals.tobytes()
            assert stack.tiebreaks[rows].tobytes() == alone.tiebreaks.tobytes()
            assert np.array_equal(kept_ranks(stack)[rows], university_ranks(alone))

    @pytest.mark.parametrize("m,k", [(12, 4), (5, 4), (36, 36)])
    def test_blocks_make_the_calls_they_make_alone(self, m, k):
        # every block, stacked or alone, makes exactly its three calls, on
        # the index path (12, 4), (5, 4) and the key sort (36, 36) alike
        config = MarketConfig(n=3, m_ratio=m / 3, k=k, seed=0)
        seeds = list(range(12))
        stacked = [RecordingGenerator(seed) for seed in seeds]
        stack = market._sample_stack(config, stacked)
        for b, seed in enumerate(seeds):
            alone = RecordingGenerator(seed)
            block = market._sample_stack(config, [alone])
            assert np.array_equal(stack.prefs[3 * b : 3 * b + 3] - b * m, block.prefs)
            assert stacked[b].calls == alone.calls == three_calls(config)


def fill_lists(prefixes, k, m, draw):
    """Rows holding ``prefixes``, their other ranks filled by ``_fill_distinct``
    from the codes ``_codes`` makes of the uniforms ``draw(j, rows)`` of each
    rank j; returns the (rows, k) lists and the uniforms."""
    uniforms = np.array([draw(j, len(prefixes)) for j in range(k)], dtype=np.float64)
    codes = market._codes(uniforms.copy(), m)
    first = np.array([len(prefix) for prefix in prefixes], dtype=np.int64)
    for s, prefix in enumerate(prefixes):
        codes[: len(prefix), s] = prefix
    return market._fill_distinct(codes, market._id_dtype(codes.size, m), first), uniforms


def assert_holes_are_the_scan(prefixes, lists, uniforms, m):
    """Each hole j of row s is the x-th unlisted university after ranks 0..j-1,
    x = floor(u * (m - j)) for its uniform u, and each prefix is kept."""
    for s, prefix in enumerate(prefixes):
        assert lists[s, : len(prefix)].tolist() == list(prefix)
        for j in range(len(prefix), lists.shape[1]):
            x = int(float(uniforms[j, s]) * (m - j))
            assert x <= m - j - 1
            assert lists[s, j] == nth_unlisted(lists[s, :j].tolist(), x, m)
            if m <= 50:  # the scan is the x-th of the unlisted ids, listed in full
                assert lists[s, j] == [u for u in range(m) if u not in lists[s, :j]][x]


class TestListKernel:
    """``_fill_distinct`` against the plain scan ``nth_unlisted``, cell by cell."""

    @staticmethod
    def random_prefixes(rng, rows, k, m):
        lengths = rng.integers(0, k + 1, size=rows)
        return [rng.choice(m, size=length, replace=False).tolist() for length in lengths]

    def test_random_partial_rows(self, rng):
        for _ in range(60):
            k = int(rng.integers(1, 13))
            m = int(np.exp(rng.uniform(np.log(k), np.log(10**4))).round())
            m = max(m, k)
            prefixes = self.random_prefixes(rng, 30, k, m)
            lists, uniforms = fill_lists(prefixes, k, m, lambda j, size: rng.random(size))
            assert_holes_are_the_scan(prefixes, lists, uniforms, m)

    @pytest.mark.parametrize("m,k", [(34, 34), (50, 45), (100, 60)])
    def test_key_sort_regime(self, rng, m, k):
        # k(k-1) > 32m, where sampling takes the key sort: the kernel still
        # gives the scan's answer, with lists that overlap on most draws
        assert k * (k - 1) > market._KEY_SORT_RATIO * m
        for _ in range(5):
            prefixes = self.random_prefixes(rng, 40, k, m)
            lists, uniforms = fill_lists(prefixes, k, m, lambda j, size: rng.random(size))
            assert_holes_are_the_scan(prefixes, lists, uniforms, m)
            assert (np.sort(lists, axis=1)[:, 1:] != np.sort(lists, axis=1)[:, :-1]).all()

    @pytest.mark.parametrize("m", [3, 100, 1000, 2**31, 2**31 + 11])
    def test_code_bias_is_below_its_bound(self, m):
        # the uniforms are a * 2^-53 for a < 2^53; code v takes the a from the
        # first whose code reaches v to the first whose code reaches v + 1, so
        # its probability is that count over 2^53, which stays within a
        # relative m * 2^-53 of 1/m (the docstring's proven bound is twice that)
        def first_reaching(v):
            lo, hi = 0, 2**53
            while lo < hi:
                mid = (lo + hi) // 2
                if market._codes(np.array([[mid * 2.0**-53]]), m)[0, 0] >= v:
                    hi = mid
                else:
                    lo = mid + 1
            return lo

        values = range(m) if m <= 1000 else np.random.default_rng(m).integers(0, m, 40).tolist()
        for v in values:
            count = (first_reaching(v + 1) if v + 1 < m else 2**53) - first_reaching(v)
            assert abs(count * m / 2**53 - 1) < m * 2.0**-53

    @pytest.mark.parametrize("m", [12, 128, 1000, 2**15, 2**31 - 1, 2**31, 2**31 + 11])
    @pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
    def test_edge_uniforms(self, m, u):
        # the largest uniform below 1 takes the last unlisted university,
        # with m - j up to 2^31 (m = 2^31 + 11 at j = 11), and 0 the first,
        # at the edges of the code dtypes (int8 to m = 128, int16 to 2^15, ...);
        # the given cells sit at both ends of the ids
        k = 12
        prefixes = [[], [0], [m - 1], [m - 1, 0], [m - 2, m - 1, 0, 1], [1, m - 1, 3, m - 3, 0]]
        codes = market._codes(np.full((k, 1), u), m)[:, 0]
        assert codes.tolist() == [0 if u == 0.0 else m - j - 1 for j in range(k)]
        lists, uniforms = fill_lists(prefixes, k, m, lambda j, size: np.full(size, u))
        assert_holes_are_the_scan(prefixes, lists, uniforms, m)
        fresh = lists[0]  # the row with no prefix
        listed = 0 if u == 0.0 else m - k
        assert sorted(fresh.tolist()) == list(range(listed, listed + k))


def assert_ranking_is_lexsort(uni, signals, ties, m, instance=None):
    """The ranking gives the order, offsets and places of the three-key
    lexsort, and an instance of the same applications (by default one per
    student) keeps them."""
    if instance is None and uni.size:
        config = MarketConfig(n=uni.size, m_ratio=m / uni.size, k=1)
        instance = MarketInstance(config, uni[:, None], signals[:, None], ties[:, None])
    place, order, offsets = _rank_within_universities(uni, signals, ties, m)
    want = np.lexsort((ties, -signals, uni))
    assert np.array_equal(order, want)
    counts = np.bincount(uni, minlength=m)
    assert np.array_equal(offsets, np.concatenate(([0], np.cumsum(counts))))
    assert np.array_equal(place[order], np.arange(uni.size))
    expected = np.empty(uni.size, dtype=np.int64)
    expected[want] = np.arange(uni.size) - offsets[uni[want]]
    assert np.array_equal(place - offsets[uni], expected)
    if instance is not None:
        kept = instance._uni_place, instance._uni_order, instance._uni_offsets
        assert all(np.array_equal(a, b) for a, b in zip(kept, (place, order, offsets)))
        assert np.array_equal(instance._uni_place[instance._uni_order], np.arange(uni.size))


class TestRanking:
    @pytest.mark.parametrize("signal_kind", ["continuous", "three_levels", "with_nan"])
    def test_matches_three_key_lexsort(self, rng, signal_kind):
        # equal signals must fall to the tiebreak at every university
        for _ in range(30):
            size, m = int(rng.integers(0, 300)), int(rng.integers(1, 40))
            uni = rng.integers(0, m, size=size)
            if signal_kind == "three_levels":
                signals = rng.integers(0, 3, size=size).astype(np.float64)
            else:
                signals = rng.standard_normal(size)
                if signal_kind == "with_nan":  # NaNs compare unequal but tie in the lexsort
                    signals[rng.random(size) < 0.2] = np.nan
            assert_ranking_is_lexsort(uni, signals, rng.random(size), m)

    def test_signals_one_ulp_apart_are_repaired(self, rng):
        # one university sees a ladder of adjacent doubles (equal once the key
        # cuts them) in shuffled order, some of them twice; the others see
        # well-spread signals
        ladder = [0.3]
        for _ in range(199):
            ladder.append(np.nextafter(ladder[-1], np.inf))
        near = np.concatenate((ladder, ladder[::7], -np.array(ladder[:50])))
        size = 20_000
        uni = rng.integers(1, 500, size=size)
        uni[: near.size] = 0
        signals = rng.standard_normal(size)
        signals[: near.size] = near
        perm = rng.permutation(size)
        assert_ranking_is_lexsort(uni[perm], signals[perm], rng.random(size), 500)

    @pytest.mark.parametrize("with_nan", [False, True])
    def test_signed_zeros_and_infinities(self, rng, with_nan):
        # -0.0 and 0.0 are equal signals and tie to the tiebreak; infinities
        # rank first and last; any NaN sends everything to the lexsort
        values = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 5e-324, -5e-324]
                          + ([np.nan] if with_nan else []))
        for m in (1, 3, 1000):
            size = 5000
            uni = rng.integers(0, m, size=size)
            signals = values[rng.integers(0, values.size, size=size)]
            assert_ranking_is_lexsort(uni, signals, rng.random(size), m)
            # equal tiebreaks too: the lexsort then keeps index order
            assert_ranking_is_lexsort(uni, signals, np.zeros(size), m)

    @pytest.mark.parametrize(
        "size", [0, 1, *(c * market._CHUNK + d for c in (1, 2) for d in (-1, 0, 1))]
    )
    def test_chunk_edges(self, rng, size):
        # the key and the places are built by chunks: sizes on either side of a
        # chunk boundary, with exact signal ties (-0.0 beside 0.0 among them)
        # and with or without tiebreak ties, continuous signals, and NaN
        # signals, which take the lexsort
        m = 37
        uni = rng.integers(0, m, size=size)
        tied = np.array([0.0, -0.0, 1.5, -2.0])[rng.integers(0, 4, size=size)]
        for ties in (rng.random(size), rng.integers(0, 3, size=size) / 3.0):
            assert_ranking_is_lexsort(uni, tied, ties, m)
        assert_ranking_is_lexsort(uni, rng.standard_normal(size), rng.random(size), m)
        tied[rng.random(size) < 0.01] = np.nan
        assert_ranking_is_lexsort(uni, tied, rng.integers(0, 3, size=size) / 3.0, m)

    def test_many_universities_and_applications(self, rng):
        # 18 university bits and 20 index bits leave 26 signal bits: 14 bits of
        # mantissa, so near signals at one university share a cut key
        m, size = 2**17 + 1, 2**19 + 1
        uni = rng.integers(0, m, size=size)
        uni[-1] = m - 1
        signals = rng.standard_normal(size)
        close = rng.random(size) < 0.3
        signals[close] = np.round(signals[close], 3) * (1 + 2e-16 * rng.integers(-3, 4, close.sum()))
        assert_ranking_is_lexsort(uni, signals, rng.random(size), m)

    @pytest.mark.parametrize("signal", [SignalSpec.gaussian(1.0), SignalSpec.custom(
        lambda g, size: g.integers(0, 3, size), lambda g, size: g.integers(0, 2, size))])
    def test_stack_ranks_every_block_by_its_offset_ids(self, signal):
        config = MarketConfig(n=60, m_ratio=0.5, capacity=2, k=4, signal=signal)
        stack = market._sample_stack(config, [child_seed(5, r) for r in range(7)])
        uni, signals, ties = (a.ravel() for a in (stack.prefs, stack.signals, stack.tiebreaks))
        assert_ranking_is_lexsort(uni, signals, ties, stack.m, stack)

    def test_ranking_tables_are_read_only(self):
        # a write to any of them would change what both DA engines read
        inst = sample_market(MarketConfig(n=50, k=3, seed=4))
        for table in (inst._uni_place, inst._uni_order, inst._uni_offsets):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0


class TestIdDtype:
    """A market's id tables are int32 whenever max(n*k, m) < 2**31, on every path."""

    def test_the_dtype_widens_at_2_to_the_31(self):
        # sizes only: nothing of that size is allocated
        for sizes in ((2**31 - 1, 1), (1, 2**31 - 1), (2**31 - 1, 2**31 - 1)):
            assert market._id_dtype(*sizes) == np.int32
        for sizes in ((2**31, 1), (1, 2**31), (2**31, 2**31 - 1)):
            assert market._id_dtype(*sizes) == np.int64

    @staticmethod
    def assert_narrow(inst: MarketInstance) -> None:
        for table in (inst.prefs, inst._uni_place, inst._uni_order):
            assert table.dtype == np.int32
        assert inst._uni_offsets.dtype == np.int64

    # (m_ratio, k) of the list codes and of the key sort, k(k-1) > 32m
    PATHS = pytest.mark.parametrize("m_ratio,k", [(0.5, 3), (0.85, 34)], ids=["codes", "keys"])

    @PATHS
    def test_sampled_lists(self, m_ratio, k):
        config = MarketConfig(n=40, m_ratio=m_ratio, k=k, seed=2)
        assert (k * (k - 1) > market._KEY_SORT_RATIO * config.m) == (k == 34)
        self.assert_narrow(sample_market(config))
        self.assert_narrow(market._sample_stack(config, [child_seed(2, r) for r in range(3)]))

    @PATHS
    def test_completion(self, m_ratio, k):
        config = MarketConfig(n=40, m_ratio=m_ratio, capacity=2, k=k, seed=3)
        plan = build_seeded_plan(np.linspace(1.0, 0.5, k), config)
        assert plan.proposal_uni.dtype == plan.proposal_student.dtype == np.int32
        assert plan.accepted_partner_array().dtype == np.int64
        self.assert_narrow(complete_instance(plan))


# Roots at the edges of one and two 32-bit words, where the seed hash
# switches from one entropy word to two.
_ROOTS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


class TestChildStreams:
    """The vectorised seeding against numpy's SeedSequence and default_rng."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("root", _ROOTS)
    def test_matches_seed_sequence(self, root):
        seeds, words = market._child_streams(root, 0, 5000)
        assert seeds == [child_seed(root, i) for i in range(5000)]
        assert words.dtype == np.uint64 and words.shape == (5000, 4)
        for seed, row in zip(seeds, words):
            assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))
            got = market._seeded_generator(row).bit_generator.random_raw(100)
            assert np.array_equal(got, np.random.default_rng(seed).bit_generator.random_raw(100))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("root", _ROOTS)
    def test_indices_past_one_word(self, root):
        first = 2**32 - 2
        seeds, _ = market._child_streams(root, first, 4)
        assert seeds == [child_seed(root, first + i) for i in range(4)]

    @pytest.mark.parametrize("n_words,dtype", [(5, np.uint64), (4, np.uint32)])
    def test_state_words_serve_only_those_computed(self, n_words, dtype):
        _, words = market._child_streams(3, 4, 1)
        with pytest.raises(ValueError, match="only 4 uint64 state words"):
            market._StateWords(words[0]).generate_state(n_words, dtype)


def test_public_names_are_declared_once_in_their_modules():
    # the package re-exports each module's __all__, and nothing else
    modules = (analytics, fixed_point, market, matching, stable_partners)
    assert admitsim.__all__ == [name for module in modules for name in module.__all__]
    assert sorted(admitsim.__all__) == sorted([
        "AcceptanceEstimate", "BlockingPair", "ConfigurationError", "ConvergenceError",
        "ExperimentRecord", "InvalidMatchingError", "MarketConfig", "MarketInstance",
        "Matching", "RankProfile", "RankVector", "SeededProposalPlan", "SignalSpec",
        "SolverResult", "StablePartnerReports", "UtilityModel", "build_seeded_plan",
        "child_seed", "compare_matchings", "complete_instance", "continue_rejection_chains",
        "estimate_acceptance", "expected_accepted_mass", "extra_stable_partner_reports",
        "find_blocking_pairs", "make_record", "match_rank_indices", "rank_profile",
        "sample_market", "school_proposing_da", "solve_general", "solve_iid",
        "student_proposing_da", "write_records_csv",
    ])
    assert "format_number" not in admitsim.__all__
    for module in modules:
        assert all(getattr(admitsim, name) is getattr(module, name) for name in module.__all__)


def test_no_public_callable_takes_a_generator():
    # a result's seed is its only stream, so every row comes back from its seed
    for name in admitsim.__all__:
        obj = getattr(admitsim, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
            assert "rng" not in inspect.signature(obj).parameters, name


class TestSignals:
    def test_gaussian_zero_shift_matches_iid(self):
        special = np.arange(1000) % 3 == 0
        a = SignalSpec.gaussian(0.0).draw_batch(special, np.random.default_rng(3))
        b = SignalSpec.iid().draw_batch(special, np.random.default_rng(3))
        assert a.tobytes() == b.tobytes()

    def test_gaussian_special_mean(self):
        rng = np.random.default_rng(11)
        draws = SignalSpec.gaussian(2.0).draw_batch(np.ones(100_000, dtype=bool), rng)
        assert abs(draws.mean() - 2.0) < 0.02

    def test_iid_branches_identically_distributed(self):
        rng = np.random.default_rng(4)
        spec = SignalSpec.iid()
        special = spec.draw_batch(np.ones(10_000, dtype=bool), rng)
        regular = spec.draw_batch(np.zeros(10_000, dtype=bool), rng)
        stats = pytest.importorskip("scipy.stats")
        stat = stats.ks_2samp(special, regular).statistic
        critical_1pct = 1.628 * math.sqrt(2 / 10_000)
        assert stat < critical_1pct

    def test_special_signal_gap_at_shift_three(self):
        spec = SignalSpec.gaussian(3.0)
        rank1, other = [], []
        for seed in range(5):
            inst = sample_market(MarketConfig(n=1000, k=3, signal=spec, seed=seed))
            rank1.extend(inst.signals[:, 0].tolist())
            other.extend(inst.signals[:, 1:].ravel().tolist())
        assert abs(np.mean(rank1) - np.mean(other) - 3.0) < 0.1

    def test_custom_sampler_used(self):
        spec = SignalSpec.custom(lambda rng, size: np.full(size, 10.0),
                                 lambda rng, size: rng.random(size))
        draws = spec.draw_batch(np.array([True, False, True, False]), np.random.default_rng(0))
        assert draws[0] == draws[2] == 10.0
        assert (draws[[1, 3]] < 1.5).all()


def normal_sampler(shift: float, log: list[int] | None = None):
    """A batch Normal(shift, 1) sampler that appends each call's size to ``log``."""

    def draw(rng, size):
        if log is not None:
            log.append(size)
        return shift + rng.standard_normal(size)

    return draw


_Y = (1.0, 0.5, 0.2)


class TestCustomSamplers:
    """Custom samplers draw each kind in one call, and what they return is checked."""

    # each caller of draw_batch, and how many times it calls it
    @pytest.mark.parametrize(
        "run,batches",
        [
            (lambda cfg: market._sample_stack(cfg, [child_seed(1, b) for b in range(4)]), 4),
            (lambda cfg: build_seeded_plan(_Y, cfg), 1),
            (lambda cfg: complete_instance(build_seeded_plan(_Y, cfg)), 2),
            (lambda cfg: estimate_acceptance(_Y, cfg, n_sim=1000, trials=3), 3),
            (lambda cfg: solve_general(cfg, n_sim=1000), 1),
        ],
        ids=["stack", "seeded plan", "completion", "estimate", "sampled solve"],
    )
    def test_each_sampler_is_called_once_per_batch(self, monkeypatch, run, batches):
        special, regular, batch_calls = [], [], []
        draw_batch = SignalSpec.draw_batch

        def counted(spec, mask, rng):
            batch_calls.append(np.count_nonzero(mask))
            return draw_batch(spec, mask, rng)

        monkeypatch.setattr(SignalSpec, "draw_batch", counted)
        signal = SignalSpec.custom(normal_sampler(1.0, special), normal_sampler(0.0, regular))
        run(MarketConfig(n=40, m_ratio=0.5, capacity=2, k=3, signal=signal, seed=3))
        assert len(batch_calls) == batches
        assert len(special) <= batches and len(regular) <= batches
        assert sum(special) == sum(batch_calls)  # each call draws its kind in full

    @pytest.mark.parametrize(
        "bad",
        [
            lambda rng, size: np.zeros((size, 1)),
            lambda rng, size: np.zeros(size + 1),
            lambda rng, size: 0.0,
            lambda rng, size: ["high"] * size,
            lambda rng, size: [[0.0, 1.0]] + [0.0] * (size - 1),
        ],
        ids=["shape", "length", "scalar", "non-numeric", "ragged"],
    )
    @pytest.mark.parametrize("kind", ["special", "regular"])
    def test_output_must_be_one_number_per_signal(self, kind, bad):
        samplers = {"special": normal_sampler(1.0), "regular": normal_sampler(0.0), kind: bad}
        config = MarketConfig(n=10, k=2, signal=SignalSpec.custom(**samplers))
        message = f"^{kind} sampler must give a flat array of 10 numbers$"
        with pytest.raises(ConfigurationError, match=message):
            sample_market(config)

    def test_nan_signals_pass(self):
        nan = SignalSpec.custom(lambda rng, size: np.full(size, math.nan), normal_sampler(0.0))
        inst = sample_market(MarketConfig(n=10, k=2, signal=nan))
        assert np.isnan(inst.signals[:, 0]).all() and np.isfinite(inst.signals[:, 1]).all()

    @pytest.mark.parametrize("kind", ["special", "regular"])
    def test_sampler_must_be_callable(self, kind):
        samplers = {"special": normal_sampler(1.0), "regular": normal_sampler(0.0), kind: 1.0}
        with pytest.raises(ConfigurationError, match=f"^{kind} sampler is not callable: 1.0$"):
            SignalSpec.custom(**samplers)


class TestRepeatedUniversity:
    """A list that names a university twice is refused, and never sampled."""

    # few rows sort each row, many rows compare columns
    @pytest.mark.parametrize("n", [3, 2000])
    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_every_column_pair_is_checked(self, n, k):
        config = MarketConfig(n=n, m_ratio=4.0, k=k, seed=k)
        inst = sample_market(config)
        for i in range(k):
            for j in range(i + 1, k):
                prefs = inst.prefs.copy()
                prefs[n - 1, j] = prefs[n - 1, i]
                with pytest.raises(ConfigurationError, match="twice"):
                    MarketInstance(config, prefs, inst.signals, inst.tiebreaks)

    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_every_column_pair_is_checked_in_a_stack(self, k):
        config = MarketConfig(n=50, m_ratio=1.0, k=k, seed=0)
        stack = market._sample_stack(config, list(range(4)))
        for i in range(k):
            for j in range(i + 1, k):
                prefs = stack.prefs.copy()
                prefs[120, j] = prefs[120, i]  # a student of block 2
                with pytest.raises(ConfigurationError, match="twice"):
                    MarketInstance(stack.config, prefs, stack.signals, stack.tiebreaks)

    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_sampling_at_m_equal_to_k_k_minus_1_leaves_no_repeat(self, k):
        # at m = k(k-1) most rows' uniform draws would repeat a university;
        # the index path still makes its three calls
        n = 3000
        config = MarketConfig(n=n, m_ratio=k * (k - 1) / n, k=k, seed=k)
        gen = RecordingGenerator(k)
        prefs = market._sample_stack(config, [gen]).prefs
        assert gen.calls == three_calls(config)
        assert gen.calls[0] == ("random", (k, n))
        stack = market._sample_stack(config, [1, 2])
        for table in (prefs, sample_market(config).prefs, stack.prefs):
            srt = np.sort(table, axis=1)
            assert (srt[:, 1:] != srt[:, :-1]).all()
        # a completion keeps each student's prefix and draws the rest distinct
        prefixes = [list(range(r % k)) for r in range(n)]
        completed = complete_instance(plan_with_prefixes(config, prefixes)).prefs
        srt = np.sort(completed, axis=1)
        assert (srt[:, 1:] != srt[:, :-1]).all()
        assert all(completed[s, : len(p)].tolist() == p for s, p in enumerate(prefixes))


class TestSeededPlan:
    def test_rank_one_only_plan(self):
        cfg = MarketConfig(n=1000, k=3, seed=5)
        plan = build_seeded_plan((1.0, 0.0, 0.0), cfg)
        counts = np.bincount(plan.proposal_rank, minlength=cfg.k + 1)[1:]
        assert counts[1] == counts[2] == 0
        assert counts[0] == math.floor(1000 - 1000**0.6)
        rejected = plan.proposal_student[
            (~plan.proposal_accepted) & (plan.proposal_student >= 0)
        ]
        inconsistent = set(np.flatnonzero(plan.inconsistent).tolist())
        # with k > 1, every rejected rank-1 student lacks a follow-up
        assert set(rejected.tolist()) <= inconsistent

    def test_plan_ranks_are_ids_of_unchanged_value(self):
        # the ranks take the plan's id dtype; a plan with int64 ids, as one
        # built by hand, completes and repairs to the same instance and
        # matching, and every result a caller reads stays int64
        cfg = MarketConfig(n=3000, m_ratio=0.5, capacity=2, k=4, seed=11)
        plan = build_seeded_plan(solve_iid(cfg).rank_fractions.fractions, cfg)
        assert plan.proposal_rank.dtype == plan.proposal_uni.dtype == np.int32
        counts = np.bincount(plan.proposal_rank, minlength=cfg.k + 1)
        assert counts[0] == 0
        assert np.array_equal(plan.proposal_rank, np.repeat(np.arange(cfg.k + 1), counts))
        wide = dataclasses.replace(plan, **{
            name: getattr(plan, name).astype(np.int64)
            for name in ("proposal_uni", "proposal_rank", "proposal_student")
        })
        seeded = complete_instance(plan)
        assert complete_instance(wide) == seeded
        repaired = continue_rejection_chains(seeded, plan)
        assert continue_rejection_chains(seeded, wide) == repaired
        assert plan.accepted_partner_array().dtype == repaired.partner.dtype == np.int64
        assert match_rank_indices(seeded, repaired).dtype == np.int64
        assert extra_stable_partner_reports(seeded).witness.dtype == np.int64

    def test_plan_without_proposals_completes_and_repairs(self):
        # a slack of n leaves every rank without proposals, so the throw ranks
        # none; the completion is a fresh market and the repair plain DA
        cfg = MarketConfig(n=300, m_ratio=0.5, capacity=2, k=3, seed=2)
        plan = build_seeded_plan((1.0, 0.0, 0.0), cfg, slack=300.0)
        assert plan.proposal_uni.size == 0 and plan.inconsistent.all()
        seeded = complete_instance(plan)
        assert continue_rejection_chains(seeded, plan) == student_proposing_da(seeded)

    def test_accepted_labels_respect_capacity(self, rng):
        for _ in range(20):
            n = int(rng.integers(20, 200))
            k = int(rng.integers(1, 5))
            capacity = int(rng.integers(1, 3))
            cfg = MarketConfig(
                n=n, m_ratio=1.0, capacity=capacity, k=k, seed=int(rng.integers(2**63))
            )
            tail = np.sort(rng.random(k - 1))[::-1] if k > 1 else np.array([])
            y = tuple([1.0] + tail.tolist())
            plan = build_seeded_plan(y, cfg, slack=float(rng.integers(0, 10)))
            accepted_at = {}
            for p in np.flatnonzero(plan.proposal_accepted):
                accepted_at[plan.proposal_uni[p]] = accepted_at.get(plan.proposal_uni[p], 0) + 1
            assert all(v <= capacity for v in accepted_at.values())

    def test_at_most_one_proposal_per_rank_per_student(self, rng):
        cfg = MarketConfig(n=300, k=4, seed=13)
        plan = build_seeded_plan((1.0, 0.8, 0.5, 0.3), cfg)
        seen = set()
        for p in range(plan.proposal_uni.size):
            s = plan.proposal_student[p]
            if s < 0:
                continue
            key = (int(s), int(plan.proposal_rank[p]))
            assert key not in seen
            seen.add(key)

    def test_consistency_flags(self, rng):
        # consistent students hold a rank-i proposal exactly when their
        # rank-(i-1) proposal was rejected
        for trial in range(10):
            n = int(rng.integers(50, 400))
            k = int(rng.integers(2, 5))
            cfg = MarketConfig(n=n, m_ratio=1.0, k=k, seed=int(rng.integers(2**63)))
            tail = np.sort(rng.random(k - 1))[::-1]
            plan = build_seeded_plan(tuple([1.0] + tail.tolist()), cfg)
            held: dict[int, dict[int, bool]] = {}
            for p in range(plan.proposal_uni.size):
                s = int(plan.proposal_student[p])
                if s >= 0:
                    held.setdefault(s, {})[int(plan.proposal_rank[p])] = bool(
                        plan.proposal_accepted[p]
                    )
            inconsistent = set(np.flatnonzero(plan.inconsistent).tolist())
            for s in range(n):
                if s in inconsistent:
                    continue
                ranks = held.get(s, {})
                assert 1 in ranks, f"consistent student {s} lacks a rank-1 proposal"
                for i in range(2, k + 1):
                    expected = (i - 1 in ranks) and not ranks[i - 1]
                    assert (i in ranks) == expected

    def test_inconsistent_fraction_small_at_scale(self):
        cfg = MarketConfig(n=10_000, k=3, seed=2)
        y = solve_iid(cfg).rank_fractions.fractions
        plan = build_seeded_plan(y, cfg)
        assert plan.inconsistent.mean() < 0.05

    def test_invalid_rank_fractions_rejected(self):
        cfg = MarketConfig(n=100, k=3, seed=0)
        with pytest.raises(ValueError):
            build_seeded_plan((0.9, 0.5, 0.2), cfg)  # first entry must be 1
        with pytest.raises(ValueError):
            build_seeded_plan((1.0, 0.5, 0.7), cfg)  # must be nonincreasing

    @pytest.mark.parametrize("fractions", [(1.0, math.nan, 0.1), (math.nan,) * 3,
                                           (1.0, 0.5, -math.inf), (1.0, math.inf, 0.1)])
    def test_non_finite_rank_fractions_rejected(self, fractions):
        with pytest.raises(ValueError, match="finite"):
            build_seeded_plan(fractions, MarketConfig(n=100, k=3, seed=0))

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -1.0])
    def test_bad_slack_rejected(self, slack):
        with pytest.raises(ValueError, match="slack"):
            build_seeded_plan((1.0, 0.5, 0.1), MarketConfig(n=100, k=3, seed=0), slack=slack)

    @pytest.mark.parametrize("slack", [True, np.bool_(True), "1", [1.0]])
    def test_slack_must_be_a_number(self, slack):
        message = f"^slack must be a number, got {re.escape(repr(slack))}$"
        with pytest.raises(ValueError, match=message):
            build_seeded_plan((1.0, 0.5, 0.1), MarketConfig(n=100, k=3, seed=0), slack=slack)

    def test_completion_extends_prefixes(self):
        cfg = MarketConfig(n=500, k=3, seed=9)
        y = solve_iid(cfg).rank_fractions.fractions
        plan = build_seeded_plan(y, cfg)
        inst = complete_instance(plan)
        assigned = plan.proposal_student >= 0
        for p in np.flatnonzero(assigned):
            s = int(plan.proposal_student[p])
            r = int(plan.proposal_rank[p]) - 1
            assert inst.prefs[s, r] == plan.proposal_uni[p]
            assert inst.signals[s, r] == plan.proposal_signal[p]
        for row in inst.prefs:
            assert len(set(row.tolist())) == cfg.k

    def test_matches_per_pair_oracle(self, rng):
        # byte-identical to the per-pair loop of conftest; every fourth
        # config is collision-heavy (m_ratio 0.1, little slack), where most
        # pairs clash and some swaps run out of attempts
        for trial in range(240):
            if trial % 4 == 0:
                n = 10 * int(rng.integers(2, 15))
                cfg = MarketConfig(n=n, m_ratio=0.1, capacity=int(rng.integers(1, 3)),
                                   k=int(rng.integers(1, min(4, n // 10) + 1)),
                                   seed=int(rng.integers(2**63)))
                slack = float(rng.choice([0.0, 1.0, 2.0]))
            else:
                cfg = random_mixed_config(rng, max_n=120)
                slack = None if trial % 3 else float(rng.integers(0, 4))
            tail = np.sort(rng.random(cfg.k - 1))[::-1]
            y = (1.0, *tail.tolist())
            plan = build_seeded_plan(y, cfg, slack=slack)
            want = seeded_plan_oracle(y, cfg, slack=slack)
            for field in dataclasses.fields(SeededProposalPlan):
                got, exp = getattr(plan, field.name), getattr(want, field.name)
                if isinstance(exp, np.ndarray):
                    assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes(), field.name
                else:
                    assert got == exp, field.name

    def test_dropped_pair_is_never_a_swap_partner(self, rng):
        # a pair whose swap repair failed has student -1; a later clash that
        # took it as partner read the last student's list and dropped its own
        # proposal, so a proposal with a valid student went unassigned (the
        # oracle asserts that every unassigned pair was dropped by its repair)
        stats = {"failed_partners": 0, "dropped": 0}
        for _ in range(150):
            n = 10 * int(rng.integers(2, 15))
            cfg = MarketConfig(n=n, m_ratio=0.1, capacity=int(rng.integers(1, 3)),
                               k=int(rng.integers(2, min(4, n // 10) + 1)),
                               seed=int(rng.integers(2**63)))
            y = (1.0, *np.sort(rng.random(cfg.k - 1))[::-1].tolist())
            slack = float(rng.choice([0.0, 1.0, 2.0]))
            plan = build_seeded_plan(y, cfg, slack=slack)
            want = seeded_plan_oracle(y, cfg, slack=slack, stats=stats)
            assert plan.proposal_student.tobytes() == want.proposal_student.tobytes()
        assert stats["failed_partners"] > 0 and stats["dropped"] > 0

    def test_collision_heavy_small_market_plan(self, rng):
        # with few universities most assignments collide with the student's
        # existing list, exercising the swap-repair path hard
        for seed in range(5):
            cfg = MarketConfig(n=60, m_ratio=0.1, k=3, seed=seed)
            plan = build_seeded_plan((1.0, 0.7, 0.5), cfg, slack=2.0)
            assigned = plan.proposal_student >= 0
            per_student: dict[int, list[int]] = {}
            for p in np.flatnonzero(assigned):
                s = int(plan.proposal_student[p])
                per_student.setdefault(s, []).append(int(plan.proposal_uni[p]))
            for targets in per_student.values():
                assert len(set(targets)) == len(targets)
            inst = complete_instance(plan)
            for row in inst.prefs:
                assert len(set(row.tolist())) == cfg.k


class TestCompletion:
    @pytest.mark.parametrize("m,k", [(12, 3), (5, 4)])  # index path; sparse, dense lists
    def test_fresh_picks_uniform_over_unlisted(self, m, k):
        # student s holds university s % m at rank 1; relabelled relative to
        # it, the fresh ordered picks must be uniform over the (m-1)!/(m-k)!
        # tuples of unlisted universities (chi-square, 0.001 critical)
        n = 12_000 if m == 5 else 11_000
        cfg = MarketConfig(n=n, m_ratio=m / n, k=k, seed=17)
        inst = complete_instance(plan_with_prefixes(cfg, [[s % m] for s in range(n)]))
        held = (np.arange(n) % m)[:, None]
        relabelled = (inst.prefs[:, 1:] - held - 1) % m
        assert (inst.prefs[:, 1:] != held).all()
        _, counts = np.unique(relabelled, axis=0, return_counts=True)
        cells = math.perm(m - 1, k - 1)
        assert counts.size == cells
        expected = n / cells
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        stats = pytest.importorskip("scipy.stats")
        assert chi2 < stats.chi2.ppf(0.999, cells - 1)

    def test_key_sort_fresh_picks_uniform_over_unlisted(self, monkeypatch):
        # the (5, 4) case on the key sort, where a ratio of 1 sends it
        monkeypatch.setattr(market, "_KEY_SORT_RATIO", 1)
        self.test_fresh_picks_uniform_over_unlisted(5, 4)

    def test_fresh_rank_one_slot_draws_the_special_signal(self):
        cfg = MarketConfig(n=200, m_ratio=1.0, k=3, signal=SignalSpec.gaussian(50.0), seed=3)
        prefixes = [[s, (s + 1) % 200] if s % 2 else [] for s in range(200)]
        inst = complete_instance(plan_with_prefixes(cfg, prefixes))
        held = np.array([[r < len(p) for r in range(3)] for p in prefixes])
        assert (inst.signals[held] == -100.0).all() and (inst.tiebreaks[held] == 0.5).all()
        fresh_first = ~held[:, 0]
        assert (inst.signals[fresh_first, 0] > 40.0).all()
        assert (inst.signals[~held & ~np.eye(1, 3, dtype=bool)] < 10.0).all()
        assert ((inst.tiebreaks[~held] >= 0.0) & (inst.tiebreaks[~held] < 1.0)).all()

    def test_key_sort_fills_full_lists_with_permutations(self, rng, monkeypatch):
        # m = k (the key sort at a ratio of 1): every completed row is a
        # permutation of all universities, whatever prefix the student holds
        monkeypatch.setattr(market, "_KEY_SORT_RATIO", 1)
        n, k = 500, 5
        cfg = MarketConfig(n=n, m_ratio=k / n, k=k, seed=8)
        prefixes = [rng.permutation(k)[: int(rng.integers(0, k + 1))].tolist() for _ in range(n)]
        inst = complete_instance(plan_with_prefixes(cfg, prefixes))
        assert (np.sort(inst.prefs, axis=1) == np.arange(k)).all()
        for s, prefix in enumerate(prefixes):
            assert inst.prefs[s, : len(prefix)].tolist() == prefix
