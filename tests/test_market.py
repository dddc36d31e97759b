"""Market sampling, signal distributions, and seeded proposal plans."""

from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from admitsim import (
    ConfigurationError,
    MarketConfig,
    MarketInstance,
    SeededProposalPlan,
    SignalSpec,
    build_seeded_plan,
    child_seed,
    complete_instance,
    make_rng,
    sample_market,
    solve_iid,
)
from admitsim import market
from admitsim.market import _rank_within_universities
from conftest import random_mixed_config, seeded_plan_oracle


def plan_with_prefixes(config: MarketConfig, prefixes: list[list[int]]) -> SeededProposalPlan:
    """A seeded plan in which student s holds rank 1.. proposals to ``prefixes[s]``.

    Held proposals carry signal -100 and tiebreak 0.5, which no fresh draw gives.
    """
    cells = [(s, r + 1, u) for s, row in enumerate(prefixes) for r, u in enumerate(row)]
    students, ranks, unis = (np.array([c[i] for c in cells], dtype=np.int64) for i in range(3))
    return SeededProposalPlan(
        config=config,
        rank_fractions=(1.0,) + (0.0,) * (config.k - 1),
        slack=0.0,
        proposal_uni=unis,
        proposal_rank=ranks,
        proposal_signal=np.full(unis.size, -100.0),
        proposal_tiebreak=np.full(unis.size, 0.5),
        proposal_accepted=np.zeros(unis.size, dtype=bool),
        proposal_student=students,
        inconsistent=np.zeros(config.n, dtype=bool),
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

    def test_json_shift_must_be_finite(self):
        with pytest.raises(ConfigurationError):
            SignalSpec.from_json_dict({"kind": "gaussian", "delta": math.inf})

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
        with pytest.raises(ConfigurationError, match="^signal delta must be a number"):
            SignalSpec.from_json_dict({"kind": "gaussian", "delta": False})

    def test_json_shift_is_not_parsed(self):
        with pytest.raises(ConfigurationError, match="^signal delta must be a number"):
            SignalSpec.from_json_dict({"kind": "gaussian", "delta": "1"})

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({}, '"n"'),
            ({"n": 5, "signal": {"delta": 1}}, '"kind"'),
            ({"n": 5, "signal": 5}, "signal"),
            ({"n": 5, "signal": ["gaussian"]}, "signal"),
            ({"n": 5, "capactiy": 2}, "'capactiy'"),
            ({"n": 5, "signal": {"kind": "gaussian", "shift": 1}}, "'shift'"),
            ([5], "market configuration"),
        ],
    )
    def test_json_errors_name_the_field(self, doc, field):
        with pytest.raises(ConfigurationError, match=re.escape(field)):
            MarketConfig.from_json_dict(doc)

    def test_json_signal_must_be_an_object(self):
        with pytest.raises(ConfigurationError, match="^signal must be a JSON object"):
            SignalSpec.from_json_dict("gaussian")

    @pytest.mark.parametrize(
        "doc,signal",
        [
            ({"signal": "gaussian"}, SignalSpec.gaussian(0.0)),
            ({"signal": "iid", "delta": 0}, SignalSpec.iid()),
            ({"delta": 1.5}, SignalSpec.gaussian(1.5)),
            ({"delta": 0}, SignalSpec.iid()),
            ({"signal": None}, SignalSpec.iid()),
            ({"signal": {"kind": "gaussian"}, "delta": 2}, SignalSpec.gaussian(2.0)),
            ({"signal": {"kind": "gaussian", "delta": 1}, "delta": 3}, SignalSpec.gaussian(1.0)),
        ],
    )
    def test_json_signal_shorthands(self, doc, signal):
        assert MarketConfig.from_json_dict({"n": 5, **doc}).signal == signal

    def test_iid_shift_is_positive_zero(self):
        # a -0.0 shift would print as "-0" in the records' delta column
        spec = MarketConfig.from_json_dict({"n": 5, "signal": {"kind": "iid", "delta": -0.0}})
        assert math.copysign(1.0, spec.signal.delta) == 1.0

    def test_custom_needs_both_samplers(self):
        with pytest.raises(ConfigurationError):
            SignalSpec(kind="custom", special_sampler=lambda rng: 1.0)


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
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_list_distribution_uniform_rejection_path(self):
        # m=16, k=2 uses duplicate rejection; all 240 ordered pairs should be
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

    def test_list_distribution_uniform_key_sort_path(self):
        # m=4, k=3 has k(k-1) > m and takes the random-key sort; 24 ordered
        # triples, 0.001 critical for 23 dof ~ 49.7
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
        lambda g: float(g.integers(0, 3)), lambda g: float(g.integers(0, 2)))])
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
        for u in range(inst.m):
            here = inst.prefs == u
            ranks = inst.uni_rank[here]
            assert sorted(ranks.tolist()) == list(range(counts[u]))
            sigs = inst.signals[here][np.argsort(ranks)].tolist()
            assert sigs == sorted(sigs, reverse=True) or len(set(sigs)) < len(sigs)


class RecordingGenerator:
    """Delegates to a generator and logs each call with its size."""

    def __init__(self, seed: int) -> None:
        self.rng = make_rng(seed)
        self.calls: list[tuple[str, object]] = []

    def integers(self, *args, **kwargs):
        self.calls.append(("integers", kwargs.get("size")))
        return self.rng.integers(*args, **kwargs)

    def random(self, size):
        self.calls.append(("random", size))
        return self.rng.random(size)


class TestStack:
    """A stacked instance is its replications' markets side by side."""

    @pytest.mark.parametrize(
        "config",
        [
            # rejection path, k(k-1) <= m: rows are redrawn in rounds
            MarketConfig(n=4, m_ratio=3.0, k=4, seed=0),
            MarketConfig(n=40, m_ratio=1.0, capacity=3, k=6,
                         signal=SignalSpec.gaussian(1.5), seed=0),
            # key-sort path, k(k-1) > m
            MarketConfig(n=10, m_ratio=0.5, capacity=2, k=4, seed=0),
            MarketConfig(n=6, m_ratio=1.0, k=6, seed=0),
            # custom samplers draw one signal at a time
            MarketConfig(n=12, m_ratio=1.0, capacity=2, k=3, seed=0, signal=SignalSpec.custom(
                lambda g: float(g.integers(0, 3)), lambda g: float(g.exponential()))),
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
            assert np.array_equal(stack.uni_rank[rows], alone.uni_rank)

    @pytest.mark.parametrize("m,k", [(12, 4), (5, 4)])
    def test_blocks_make_the_calls_they_make_alone(self, m, k):
        # the rejection rounds run in step, and only blocks with rows to
        # redraw draw; the key sort draws per block
        seeds = list(range(12))
        stacked = [RecordingGenerator(seed) for seed in seeds]
        prefs = np.empty((len(seeds) * 3, k), dtype=np.int64)
        market._fill_distinct(prefs, np.zeros(len(seeds) * 3, dtype=np.int64), m, stacked)
        rounds = set()
        for b, seed in enumerate(seeds):
            alone = RecordingGenerator(seed)
            block = market._fill_distinct(
                np.empty((3, k), dtype=np.int64), np.zeros(3, dtype=np.int64), m, [alone]
            )
            assert np.array_equal(prefs[3 * b : 3 * b + 3], block)
            assert stacked[b].calls == alone.calls
            rounds.add(len(alone.calls))
        if k * (k - 1) <= m:
            assert len(rounds) > 1  # some blocks still drew after others were done
        else:
            assert rounds == {1}  # one key draw per block

    def test_mixed_blocks_rejected(self):
        config = MarketConfig(n=4, m_ratio=1.0, k=1, seed=0)
        table = np.zeros((4, 1))
        with pytest.raises(ConfigurationError):
            MarketInstance(config, np.array([[0], [1], [2], [1]]), table, table, blocks=2)


def assert_ranking_is_lexsort(uni, signals, ties, m, got=None):
    """The ranking gives the order, offsets and ranks of the three-key lexsort."""
    ranks, order, offsets = got or _rank_within_universities(uni, signals, ties, m)
    want = np.lexsort((ties, -signals, uni))
    assert np.array_equal(order, want)
    counts = np.bincount(uni, minlength=m)
    assert np.array_equal(offsets, np.concatenate(([0], np.cumsum(counts))))
    expected = np.empty(uni.size, dtype=np.int64)
    expected[want] = np.arange(uni.size) - offsets[uni[want]]
    assert np.array_equal(ranks, expected)


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
        lambda g: float(g.integers(0, 3)), lambda g: float(g.integers(0, 2)))])
    def test_stack_ranks_every_block_by_its_offset_ids(self, signal):
        config = MarketConfig(n=60, m_ratio=0.5, capacity=2, k=4, signal=signal)
        stack = market._sample_stack(config, [child_seed(5, r) for r in range(7)])
        uni, signals, ties = (a.ravel() for a in (stack.prefs, stack.signals, stack.tiebreaks))
        got = stack.uni_rank.ravel(), stack._uni_order, stack._uni_offsets
        assert_ranking_is_lexsort(uni, signals, ties, stack.m, got)


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

    def test_state_words_as_uint32(self):
        seed = child_seed(3, 4)
        _, words = market._child_streams(3, 4, 1)
        got = market._StateWords(words[0]).generate_state(5)
        assert np.array_equal(got, np.random.SeedSequence(seed).generate_state(5))
        with pytest.raises(ValueError, match="only 8 state words"):
            market._StateWords(words[0]).generate_state(9)


class TestSignals:
    def test_gaussian_zero_shift_matches_iid(self):
        rng_a, rng_b = make_rng(3), make_rng(3)
        a = [SignalSpec.gaussian(0.0).draw(True, rng_a) for _ in range(1000)]
        b = [SignalSpec.iid().draw(True, rng_b) for _ in range(1000)]
        assert a == b

    def test_gaussian_special_mean(self):
        rng = make_rng(11)
        draws = SignalSpec.gaussian(2.0).draw_batch(np.ones(100_000, dtype=bool), rng)
        assert abs(draws.mean() - 2.0) < 0.02

    def test_iid_branches_identically_distributed(self):
        rng = make_rng(4)
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
        rng = make_rng(8)
        for seed in range(5):
            inst = sample_market(MarketConfig(n=1000, k=3, signal=spec, seed=seed), rng)
            rank1.extend(inst.signals[:, 0].tolist())
            other.extend(inst.signals[:, 1:].ravel().tolist())
        assert abs(np.mean(rank1) - np.mean(other) - 3.0) < 0.1

    def test_custom_sampler_used(self):
        spec = SignalSpec.custom(lambda rng: 10.0, lambda rng: float(rng.random()))
        rng = make_rng(0)
        assert spec.draw(True, rng) == 10.0
        assert spec.draw(False, rng) < 1.5


class TestSerialization:
    def test_round_trip_preserves_preferences_and_signals(self):
        inst = sample_market(MarketConfig(n=12, m_ratio=1.0, capacity=2, k=3, seed=21))
        doc = json.loads(json.dumps(inst.to_json_dict()))
        back = MarketInstance.from_json_dict(doc)
        assert np.array_equal(back.prefs, inst.prefs)
        assert np.array_equal(back.signals, inst.signals)
        assert back.config == inst.config

    def test_schema_keys(self):
        inst = sample_market(MarketConfig(n=2, m_ratio=1.0, k=1, seed=0))
        doc = inst.to_json_dict()
        assert set(doc) == {"config", "preferences", "signals"}
        assert all(len(t) == 3 for t in doc["signals"])

    def test_custom_signals_not_serializable(self):
        spec = SignalSpec.custom(lambda rng: 1.0, lambda rng: 0.0)
        cfg = MarketConfig(n=2, m_ratio=1.0, k=1, signal=spec, seed=0)
        with pytest.raises(ConfigurationError):
            sample_market(cfg).to_json_dict()

    @staticmethod
    def _doc():
        inst = sample_market(MarketConfig(n=4, m_ratio=1.0, k=2, seed=21))
        return json.loads(json.dumps(inst.to_json_dict())), inst

    def test_missing_signal_names_the_pair(self):
        doc, inst = self._doc()
        u, s, _ = doc["signals"].pop(5)
        with pytest.raises(ConfigurationError, match=f"no signal for university {u}, student {s}"):
            MarketInstance.from_json_dict(doc)

    def test_ragged_preferences_name_the_row(self):
        doc, _ = self._doc()
        doc["preferences"][2].pop()
        with pytest.raises(ConfigurationError, match="preference row 2 lists 1 "):
            MarketInstance.from_json_dict(doc)

    def test_repeated_signal_names_the_pair(self):
        doc, _ = self._doc()
        u, s, v = doc["signals"][3]
        doc["signals"].append([u, s, v + 1.0])
        message = f"two signals for university {u}, student {s}$"
        with pytest.raises(ConfigurationError, match=message):
            MarketInstance.from_json_dict(doc)

    def test_signal_for_unlisted_pair_names_the_pair(self):
        doc, inst = self._doc()
        u = next(u for u in range(inst.m) if u not in inst.prefs[1])
        doc["signals"].append([u, 1, 0.5])
        with pytest.raises(ConfigurationError, match=f"university {u}, student 1, not on her"):
            MarketInstance.from_json_dict(doc)

    def test_short_signal_triple_names_the_entry(self):
        doc, _ = self._doc()
        doc["signals"][4] = doc["signals"][4][:2]
        with pytest.raises(ConfigurationError, match="^signal entry 4 is not a .* triple"):
            MarketInstance.from_json_dict(doc)

    def test_fractional_university_in_both_places_names_the_entry(self):
        doc, _ = self._doc()
        u = doc["preferences"][1][0]
        triple = next(t for t in doc["signals"] if t[:2] == [u, 1])
        doc["preferences"][1][0] = triple[0] = u + 0.5
        message = f"^preference row 1 entry 0 must be an integer, got {u + 0.5}$"
        with pytest.raises(ConfigurationError, match=message):
            MarketInstance.from_json_dict(doc)

    @pytest.mark.parametrize(
        "field,column,bad",
        [
            ("university", 0, 0.5),
            ("student", 1, 1.5),
            ("university", 0, True),
            ("signal", 2, "0.25"),
            ("signal", 2, math.nan),
        ],
    )
    def test_unconvertible_signal_triple_names_the_entry(self, field, column, bad):
        # JSON has no NaN, so a NaN signal cannot have come from a saved instance
        doc, _ = self._doc()
        doc["signals"][3][column] = bad
        expected = "an integer" if column < 2 else "a number"
        message = f"signal entry 3 {field} must be {expected}, got {bad!r}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            MarketInstance.from_json_dict(doc)

    @pytest.mark.parametrize("field", ["config", "preferences", "signals"])
    def test_missing_field_is_named(self, field):
        doc, _ = self._doc()
        del doc[field]
        with pytest.raises(ConfigurationError, match=f'^market instance needs "{field}"$'):
            MarketInstance.from_json_dict(doc)

    def test_unknown_field_is_named(self):
        doc, _ = self._doc()
        doc["tiebreaks"] = []
        with pytest.raises(ConfigurationError, match="^unknown market instance field 'tiebreaks'$"):
            MarketInstance.from_json_dict(doc)

    def test_document_must_be_an_object(self):
        with pytest.raises(ConfigurationError, match="^market instance must be a JSON object"):
            MarketInstance.from_json_dict([])

    def test_numeric_preference_row_names_the_row(self):
        doc, _ = self._doc()
        doc["preferences"][3] = 7
        with pytest.raises(ConfigurationError, match="^preference row 3 is not a list: 7$"):
            MarketInstance.from_json_dict(doc)


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
                    MarketInstance(stack.config, prefs, stack.signals, stack.tiebreaks, blocks=4)

    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_sampling_at_m_equal_to_k_k_minus_1_leaves_no_repeat(self, k):
        # m = k(k-1) still takes the rejection rounds, with the most rows to redraw
        n = 3000
        config = MarketConfig(n=n, m_ratio=k * (k - 1) / n, k=k, seed=k)
        gen = RecordingGenerator(k)
        prefs = market._fill_distinct(
            np.empty((n, k), dtype=np.int64), np.zeros(n, dtype=np.int64), config.m, [gen]
        )
        assert {name for name, _ in gen.calls} == {"integers"}
        assert len(gen.calls) > (3 if k > 2 else 1)
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
            assert np.array_equal(plan.inconsistent, want.inconsistent)
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
    @pytest.mark.parametrize("m,k", [(12, 3), (5, 4)])  # rejection; key sort (k(k-1) > m)
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

    def test_key_sort_fills_full_lists_with_permutations(self, rng):
        # m = k: every completed row is a permutation of all universities,
        # whatever prefix the student already holds
        n, k = 500, 5
        cfg = MarketConfig(n=n, m_ratio=k / n, k=k, seed=8)
        prefixes = [rng.permutation(k)[: int(rng.integers(0, k + 1))].tolist() for _ in range(n)]
        inst = complete_instance(plan_with_prefixes(cfg, prefixes))
        assert (np.sort(inst.prefs, axis=1) == np.arange(k)).all()
        for s, prefix in enumerate(prefixes):
            assert inst.prefs[s, : len(prefix)].tolist() == prefix

    @pytest.mark.parametrize("rounds", [0, 1])
    def test_rejection_rounds_are_bounded(self, monkeypatch, rounds):
        # with k(k-1) = m about half the rows repeat a university after a
        # round; rows left over when the rounds run out take the key sort
        monkeypatch.setattr(market, "_REJECTION_ROUNDS", rounds)
        cfg = MarketConfig(n=400, m_ratio=0.05, k=5, seed=4)
        plan = build_seeded_plan((1.0, 0.6, 0.4, 0.2, 0.1), cfg, slack=0.0)
        inst = complete_instance(plan)
        assigned = plan.proposal_student >= 0
        students, ranks = plan.proposal_student[assigned], plan.proposal_rank[assigned] - 1
        assert np.array_equal(inst.prefs[students, ranks], plan.proposal_uni[assigned])
        for prefs in (inst.prefs, sample_market(cfg).prefs):
            srt = np.sort(prefs, axis=1)
            assert (srt[:, 1:] != srt[:, :-1]).all()
