"""Acceptance-rate estimation and the rank-fraction solvers."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from admitsim import (
    ConvergenceError,
    MarketConfig,
    RankVector,
    SignalSpec,
    build_seeded_plan,
    estimate_acceptance,
    expected_accepted_mass,
    rank_profile,
    sample_market,
    solve_general,
    solve_iid,
    student_proposing_da,
)
from admitsim import fixed_point
from admitsim.fixed_point import _large_market_acceptance, _rank_chain, _sampled_acceptance
from admitsim.market import _rank_within_universities, _throw_proposals


def simulated_rank_fractions(config: MarketConfig, seeds: range) -> np.ndarray:
    """Fraction of students proposing at each rank in full student-proposing runs."""
    totals = np.zeros(config.k)
    for seed in seeds:
        inst = sample_market(dataclasses.replace(config, seed=seed))
        profile = rank_profile(inst, student_proposing_da(inst))
        # a student matched at rank r proposed at ranks 1..r; an unmatched
        # student proposed everywhere
        proposing = np.zeros(config.k)
        for r, count in enumerate(profile.counts):
            proposing[: r + 1] += count
        proposing += profile.unmatched
        totals += proposing / config.n
    return totals / len(seeds)


class TestRankVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            RankVector((0.9, 0.5))
        with pytest.raises(ValueError):
            RankVector((1.0, 0.5, 0.7))
        with pytest.raises(ValueError):
            RankVector(())
        assert RankVector((1.0, 0.4)).fractions == (1.0, 0.4)

    @pytest.mark.parametrize("fractions", [(1.0, math.nan, 0.1), (math.nan,) * 3, (1.0, -math.inf)])
    def test_non_finite_entries_rejected(self, fractions):
        with pytest.raises(ValueError, match="finite"):
            RankVector(fractions)


class TestEstimateAcceptance:
    def test_zero_plan_gives_zero(self):
        cfg = MarketConfig(n=100, k=3, seed=0)
        est = estimate_acceptance((0.0, 0.0, 0.0), cfg, n_sim=500, trials=2)
        assert est.fractions == (0.0, 0.0, 0.0)

    def test_single_rank_matches_occupancy_formula(self):
        # every university with at least one proposal accepts exactly one;
        # the chance a given slot is hit is 1 - (1 - 1/m)^n
        cfg = MarketConfig(n=100, k=2, seed=4)
        n_sim = 10_000
        exact = 1 - (1 - 1 / n_sim) ** n_sim
        est = estimate_acceptance((1.0, 0.0), cfg, n_sim=n_sim, trials=8)
        assert abs(est.fractions[0] - exact) < 0.01

    def test_strong_signal_wins_head_to_head(self):
        # universities receiving one favorite-school and one later-rank
        # proposal almost always admit the former when the shift is 10:
        # P(N(10,1) < N(0,1)) = Phi(-10/sqrt(2)) ~ 8e-13
        cfg = MarketConfig(
            n=100, m_ratio=1.0, capacity=1, k=2, signal=SignalSpec.gaussian(10.0), seed=7
        )
        rng = np.random.default_rng(7)
        n_sim = 20_000
        counts = np.array([n_sim, n_sim])
        uni = rng.integers(0, n_sim, size=2 * n_sim)
        types = np.repeat(np.arange(2), counts)
        signals = cfg.signal.draw_batch(types == 0, rng)
        ties = rng.random(2 * n_sim)
        place, _, offsets = _rank_within_universities(uni, signals, ties, n_sim)
        ranks = place - offsets[uni]
        wins = duels = 0
        for u in range(n_sim):
            members = np.flatnonzero(uni == u)
            if members.size == 2 and set(types[members]) == {0, 1}:
                duels += 1
                winner = members[ranks[members] == 0][0]
                wins += int(types[winner] == 0)
        assert duels > 1000
        assert wins / duels >= 0.999

    def test_accepted_never_exceeds_thrown(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 5))
            cfg = MarketConfig(
                n=100,
                m_ratio=float(rng.choice([0.5, 1.0, 2.0])),
                capacity=int(rng.integers(1, 3)),
                k=k,
                seed=int(rng.integers(2**63)),
            )
            tail = np.sort(rng.random(k - 1))[::-1] if k > 1 else np.array([])
            y = np.concatenate(([1.0], tail))
            est = estimate_acceptance(y, cfg, n_sim=2000, trials=3)
            assert all(f <= yi + 1e-12 for f, yi in zip(est.fractions, y))

    def test_input_validation(self):
        cfg = MarketConfig(n=100, k=2, seed=0)
        with pytest.raises(ValueError):
            estimate_acceptance((1.0, 0.5), cfg, n_sim=50)
        with pytest.raises(ValueError):
            estimate_acceptance((0.5, 1.0), cfg)
        with pytest.raises(ValueError):
            estimate_acceptance((1.0,), cfg)

    @pytest.mark.parametrize("fractions", [(1.0, math.nan), (math.nan, math.nan), (math.inf, 0.5)])
    def test_non_finite_fractions_rejected(self, fractions):
        cfg = MarketConfig(n=100, k=2, seed=0)
        with pytest.raises(ValueError, match="finite"):
            estimate_acceptance(fractions, cfg, n_sim=500, trials=2)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda c: estimate_acceptance((1.0, 0.5, 0.2), c, n_sim=100.5),
         "n_sim must be an integer, got 100.5"),
        (lambda c: solve_general(c, n_sim="20000"), "n_sim must be an integer, got '20000'"),
        (lambda c: estimate_acceptance((1.0, 0.5, 0.2), c, trials=True),
         "trials must be an integer, got True"),
        (lambda c: expected_accepted_mass(1.0, 1.0, True), "capacity must be an integer, got True"),
        (lambda c: expected_accepted_mass("1.0", 1.0, 1),
         "proposals_per_student must be a number, got '1.0'"),
        (lambda c: expected_accepted_mass(1.0, True, 1), "m_ratio must be a number, got True"),
        (lambda c: expected_accepted_mass(1.0, "1", 1), "m_ratio must be a number, got '1'"),
    ],
    ids=["n_sim", "n_sim-general", "trials", "capacity", "proposals_per_student",
         "m_ratio-bool", "m_ratio-str"],
)
def test_integer_arguments_are_checked_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(MarketConfig(n=100, k=3, seed=0))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda c: estimate_acceptance((1.0, 0.5, 0.2), c, trials=0), "trials must be positive"),
        (lambda c: estimate_acceptance((1.2, 0.5, 0.2), c), "rank fractions must lie in [0, 1]"),
        (lambda c: estimate_acceptance((0.5, 0.2, -0.1), c), "rank fractions must lie in [0, 1]"),
        (lambda c: build_seeded_plan((1.0, 1.5, 0.2), c), "rank fractions must lie in [0, 1]"),
        (lambda c: RankVector((1.0, 0.5, -0.5)), "rank fractions must lie in [0, 1]"),
    ],
    ids=["trials", "estimate-above", "estimate-below", "plan-above", "rank-vector-below"],
)
def test_out_of_range_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(MarketConfig(n=100, k=3, seed=0))


def test_integral_arguments_pass_as_integers():
    cfg = MarketConfig(n=100, k=3, seed=0)
    estimate = estimate_acceptance((1.0, 0.5, 0.2), cfg, n_sim=500.0, trials=np.int64(2))
    assert type(estimate.n_sim) is int and type(estimate.trials) is int
    assert estimate == estimate_acceptance((1.0, 0.5, 0.2), cfg, n_sim=500, trials=2)
    assert expected_accepted_mass(1.0, 1.0, 2.0) == expected_accepted_mass(1.0, 1.0, 2)


class TestAcceptedMassClosedForm:
    def test_zero(self):
        assert expected_accepted_mass(0.0, 1.0, 1) == 0.0

    def test_capacity_one_unit_ratio(self):
        assert abs(expected_accepted_mass(1.0, 1.0, 1) - (1 - math.exp(-1))) < 1e-12

    @pytest.mark.parametrize("m_ratio,capacity", [(1.0, 1), (0.5, 2), (2.0, 3)])
    def test_saturates_at_total_capacity(self, m_ratio, capacity):
        assert abs(expected_accepted_mass(1e3, m_ratio, capacity) - m_ratio * capacity) < 1e-6

    @pytest.mark.parametrize("m_ratio,capacity", [(0.001, 1000), (0.01, 100)])
    def test_matches_scipy_at_large_poisson_means(self, m_ratio, capacity):
        # Poisson means x / m_ratio up to 5000, where exp(-mean) underflows
        stats = pytest.importorskip("scipy.stats")
        j = np.arange(capacity)
        for x in (0.05, 0.5, 0.8, 1.0, 1.5, 5.0):
            exact = m_ratio * stats.poisson.sf(j, x / m_ratio).sum()  # E[min(N, L)]
            assert abs(expected_accepted_mass(x, m_ratio, capacity) - exact) <= 1e-12

    @pytest.mark.parametrize(
        "x,m_ratio,capacity",
        [
            (1.0, 0.0, 1),
            (1.0, -0.5, 1),
            (1.0, math.nan, 1),
            (1.0, math.inf, 1),
            (math.nan, 1.0, 1),
            (math.inf, 1.0, 1),
            (-1.0, 1.0, 1),
            (1.0, 1.0, 0),
            (1.0, 1.0, -2),
            (1.0, 1.0, 1.5),
        ],
    )
    def test_bad_inputs_rejected(self, x, m_ratio, capacity):
        with pytest.raises(ValueError):
            expected_accepted_mass(x, m_ratio, capacity)

    @pytest.mark.parametrize("capacity", [1, 10, 1000, 5000])
    @pytest.mark.parametrize("m_ratio", [1.0, 10.0, 100.0])
    def test_matches_scipy_far_below_capacity(self, m_ratio, capacity):
        # with the Poisson mean far below the capacity the mass is nearly the
        # whole proposal mass x, which L - shortfall, both near L, cannot resolve
        stats = pytest.importorskip("scipy.stats")
        for x in (0.5, 1.0, 2.0, 11.0, 0.9 * m_ratio * capacity):
            mass = expected_accepted_mass(x, m_ratio, capacity)
            assert mass <= min(x, m_ratio * capacity)
            exact = m_ratio * math.fsum(stats.poisson.sf(np.arange(capacity), x / m_ratio))
            assert mass == pytest.approx(exact, rel=1e-13, abs=0.0), x

    def test_matches_monte_carlo_occupancy(self):
        # independent oracle: average min(count, L) over multinomial throws
        rng = np.random.default_rng(12)
        m, L = 500, 2
        x = 1.7
        total = int(x * m)
        filled = []
        for _ in range(400):
            counts = np.bincount(rng.integers(0, m, size=total), minlength=m)
            filled.append(np.minimum(counts, L).sum() / m)
        mc = float(np.mean(filled))
        # m_ratio = 1: proposals per student x, m = n
        assert abs(expected_accepted_mass(x, 1.0, L) - mc) < 0.01


class TestSolveIid:
    def test_k1_is_unit_mass(self):
        result = solve_iid(MarketConfig(n=100, k=1, seed=0))
        assert result.proposals_per_student == pytest.approx(1.0, abs=1e-9)
        assert result.rank_fractions.fractions == (1.0,)
        assert 1.0 - result.unmatched_fraction == pytest.approx(1 - math.exp(-1), abs=1e-9)

    def test_k2_residual_and_simulation(self):
        cfg = MarketConfig(n=10_000, k=2, seed=0)
        result = solve_iid(cfg)
        assert max(map(abs, result.residuals)) <= 1e-10
        sim = simulated_rank_fractions(cfg, range(3)).sum()
        assert abs(sim - result.proposals_per_student) < 0.02

    def test_k5_ratio_two_shape(self):
        result = solve_iid(MarketConfig(n=100, m_ratio=2.0, k=5, seed=0))
        f = result.rank_fractions.fractions
        assert f[0] == 1.0
        assert all(a >= b for a, b in zip(f, f[1:]))
        g = expected_accepted_mass(result.proposals_per_student, 2.0, 1)
        first_choice = g / result.proposals_per_student
        assert result.match_fractions()[0] == pytest.approx(first_choice, abs=1e-9)

    def test_rejects_shifted_signals(self):
        cfg = MarketConfig(n=100, k=2, signal=SignalSpec.gaussian(1.0), seed=0)
        with pytest.raises(ValueError):
            solve_iid(cfg)

    def test_gaussian_zero_shift_accepted(self):
        cfg = MarketConfig(n=100, k=2, signal=SignalSpec.gaussian(0.0), seed=0)
        assert max(map(abs, solve_iid(cfg).residuals)) <= 1e-10

    @pytest.mark.parametrize("k", range(1, 11))
    def test_total_mass_closes_the_consistency_equation(self, k):
        # independent of the solver's rank chain: the accepted mass g at the
        # total proposal mass x must equal the matched fraction
        # 1 - (1 - g / x)^k that geometric rank fractions imply
        for m_ratio in (0.001, 0.1, 0.5, 1.0, 2.0):
            for capacity in (1, 2, 3, 10, 100, 1000):
                cfg = MarketConfig(n=100_000, m_ratio=m_ratio, capacity=capacity, k=k, seed=0)
                result = solve_iid(cfg)
                assert result.method == "closed-form-iid"
                x = result.proposals_per_student
                g = expected_accepted_mass(x, m_ratio, capacity)
                assert abs(g - (1.0 - (1.0 - g / x) ** k)) <= 1e-12, (m_ratio, capacity)

    def test_total_mass_increases_with_k(self):
        masses = [
            solve_iid(MarketConfig(n=100, k=k, seed=0)).proposals_per_student
            for k in range(1, 6)
        ]
        assert all(b > a for a, b in zip(masses, masses[1:]))


class TestEquationMonotonicity:
    @pytest.mark.parametrize("m_ratio", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("capacity", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_bracket_monotone(self, m_ratio, capacity, k):
        # the accepted-mass side rises with total proposals while the
        # matched-fraction side falls, so the crossing is unique
        xs = np.linspace(0.05, k, 60)
        lhs = [expected_accepted_mass(x, m_ratio, capacity) for x in xs]
        rhs = [
            1.0 - (1.0 - expected_accepted_mass(x, m_ratio, capacity) / x) ** k for x in xs
        ]
        assert all(b >= a - 1e-12 for a, b in zip(lhs, lhs[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(rhs, rhs[1:]))


def gaussian_as_custom(delta: float) -> SignalSpec:
    """Gaussian signals through the custom-sampler interface."""
    return SignalSpec.custom(
        lambda rng, size: delta + rng.standard_normal(size),
        lambda rng, size: rng.standard_normal(size),
    )


def jumping_rates(s: float) -> tuple[float, float]:
    """Rates (rank 1, ranks >= 2) under which S = G(S) has no root at k = 3:
    G(S) = 0.2 * (2 - p_r) falls from 0.38 to 0.22 as p_r jumps at S = 0.3."""
    return 0.8, (0.1 if s < 0.3 else 0.9)


def integer_custom() -> SignalSpec:
    """Signals 0, 1 or 2 for both kinds: identically distributed and often tied."""
    return SignalSpec.custom(
        lambda g, size: g.integers(0, 3, size),
        lambda g, size: g.integers(0, 3, size),
    )


def assert_chain_agrees_with_monte_carlo(y, config: MarketConfig) -> None:
    """Each rank fraction is the previous one minus its accepted fraction,
    as ``estimate_acceptance`` measures it at y, within 4 standard errors
    plus the finite market's bias."""
    est = estimate_acceptance(y, dataclasses.replace(config, seed=8), n_sim=40_000, trials=8)
    for i in range(1, config.k):
        assert abs(y[i] - (y[i - 1] - est.fractions[i - 1])) <= 4 * est.std_errors[i - 1] + 5e-4


def assert_excess_has_one_root(acceptance, m_ratio: float, capacity: int,
                               dip: float = 0.0) -> None:
    """p_r * (S - G(S)) = A(S) - M(S): the accepted mass A = p_1 + S p_r is
    the seats filled by Poisson(1 + S) arrivals whatever the signals, so it
    rises with S, while the matched fraction M = 1 - (1 - p_1)(1 - p_r)^(k-1)
    falls; S - G(S) therefore changes sign once on [0, k-1].  A step of A may
    fall by ``dip`` where the exact mass rises by less than the rule's error."""
    for k in (2, 3, 5, 8, 10):
        excess, accepted, matched = [], [], []
        for s in np.linspace(0.0, k - 1, 60):
            first, later = acceptance(s)
            excess.append(s - _rank_chain(first, later, k)[1:].sum())
            accepted.append(first + s * later)
            matched.append(1.0 - (1.0 - first) * (1.0 - later) ** (k - 1))
            assert accepted[-1] == pytest.approx(
                expected_accepted_mass(1.0 + s, m_ratio, capacity), abs=1e-7
            )
        assert all(b > a - dip for a, b in zip(accepted, accepted[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(matched, matched[1:]))
        assert excess[0] <= 0.0 <= excess[-1]
        assert np.count_nonzero(np.diff(np.sign(excess))) == 1


class TestLargeMarketAcceptance:
    """The quadrature model of ``solve_general`` against its oracles."""

    @pytest.mark.parametrize(
        "delta,capacity,k,m_ratio",
        [
            (0.0, 1, 3, 1.0),
            (1.0, 1, 2, 0.5),
            (2.0, 1, 5, 1.0),
            (1.0, 2, 4, 0.5),
            (2.0, 2, 3, 2.0),
            (4.0, 1, 3, 1.0),
            (0.5, 3, 5, 0.5),
            (3.0, 2, 2, 1.0),
        ],
    )
    def test_agrees_with_monte_carlo(self, delta, capacity, k, m_ratio):
        cfg = MarketConfig(n=100, m_ratio=m_ratio, capacity=capacity, k=k,
                           signal=SignalSpec.gaussian(delta), seed=0)
        # an arbitrary rank vector, not a solution: the model holds for any y
        y = 0.7 ** np.arange(k)
        first, later = _large_market_acceptance(delta, m_ratio, capacity)(y[1:].sum())
        model = y * np.array([first] + [later] * (k - 1))
        est = estimate_acceptance(y, dataclasses.replace(cfg, seed=21), n_sim=40_000, trials=6)
        for a, mc, se in zip(model, est.fractions, est.std_errors):
            assert abs(a - mc) <= 4 * se + 5e-4

    @pytest.mark.parametrize("m_ratio", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_zero_shift_reproduces_accepted_mass(self, m_ratio, capacity):
        acceptance = _large_market_acceptance(0.0, m_ratio, capacity)
        for s in np.linspace(0.0, 4.0, 17):
            first, later = acceptance(s)
            x = 1.0 + s
            assert abs(first - later) <= 1e-10
            assert abs(x * first - expected_accepted_mass(x, m_ratio, capacity)) <= 1e-10

    @pytest.mark.parametrize("mean", [100.0, 400.0])
    @pytest.mark.parametrize("m_ratio", [0.01, 0.05])
    @pytest.mark.parametrize("capacity", [1, 3])
    def test_zero_shift_exact_at_large_poisson_means(self, mean, m_ratio, capacity):
        s = mean * m_ratio - 1.0
        first, later = _large_market_acceptance(0.0, m_ratio, capacity)(s)
        exact = expected_accepted_mass(1.0 + s, m_ratio, capacity) / (1.0 + s)
        assert abs(first - exact) <= 1e-12
        assert abs(later - exact) <= 1e-12

    @pytest.mark.parametrize(
        "m_ratio,capacity,s,tol",
        [
            (0.01, 100, 0.0, 1e-12),
            (0.01, 100, 0.5, 1e-12),
            (0.01, 100, 1.0, 1e-11),
            (0.001, 1000, 0.0, 1e-12),
            # mean 2000, twice the capacity: the bound of the rule before it was
            # split at the step (test_zero_shift_exact_past_large_capacities
            # holds the split rule to 1e-12)
            (0.001, 1000, 1.0, 2e-4),
        ],
    )
    def test_zero_shift_matches_scipy_at_large_capacity(self, m_ratio, capacity, s, tol):
        # every proposal's rivals are Poisson(c u) with c = (1 + S) / m_ratio and
        # u uniform, so the rate is E[min(Poisson(c), L)] / c
        stats = pytest.importorskip("scipy.stats")
        c = (1.0 + s) / m_ratio
        exact = stats.poisson.sf(np.arange(capacity), c).sum() / c
        first, later = _large_market_acceptance(0.0, m_ratio, capacity)(s)
        assert abs(first - exact) <= tol
        assert abs(later - exact) <= tol

    @pytest.mark.parametrize(
        "delta,capacity,m_ratio,s",
        [
            (0.5, 1, 1.0, 0.5),
            (2.0, 2, 0.1, 3.0),
            (4.0, 3, 0.05, 4.0),
            (8.0, 1, 2.0, 0.0),
            (2.0, 2, 0.01, 3.0),
            (1.0, 5, 0.02, 7.0),
            (1.0, 1000, 0.001, 0.0),
            (2.0, 100, 0.01, 0.5),
        ],
    )
    def test_shifted_rates_match_adaptive_quadrature(self, delta, capacity, m_ratio, s):
        # the Monte Carlo tests cannot see errors below ~1e-3; an adaptive
        # integral over the signal v itself pins the shifted rates to 1e-12
        integrate = pytest.importorskip("scipy.integrate")
        stats = pytest.importorskip("scipy.stats")

        def rate(own_shift: float) -> float:
            def integrand(v: float) -> float:
                lam = (stats.norm.sf(v - delta) + s * stats.norm.sf(v)) / m_ratio
                return stats.norm.pdf(v - own_shift) * stats.poisson.cdf(capacity - 1, lam)

            return integrate.quad(integrand, -40.0, 40.0, points=[0.0, delta, 2.0, 3.0],
                                  epsabs=1e-15, epsrel=1e-13, limit=2000)[0]

        first, later = _large_market_acceptance(delta, m_ratio, capacity)(s)
        assert abs(first - rate(delta)) <= 1e-12
        assert abs(later - rate(0.0)) <= 1e-12

    @pytest.mark.parametrize("capacity", [4, 10, 100, 1000])
    def test_zero_shift_exact_past_large_capacities(self, capacity):
        # past the capacity the rate is a step in u at u* = L m_ratio / (1 + S),
        # and the rule runs on both sides of it; Poisson means up to 2000
        for mean in sorted({min(f * capacity, 2000.0) for f in (0.5, 1.0, 1.5, 2.0)} | {2000.0}):
            m_ratio, s = 2.0 / mean, 1.0
            first, later = _large_market_acceptance(0.0, m_ratio, capacity)(s)
            exact = expected_accepted_mass(1.0 + s, m_ratio, capacity) / (1.0 + s)
            assert abs(first - exact) <= 1e-12, mean
            assert abs(later - exact) <= 1e-12, mean

    @pytest.mark.parametrize(
        "delta,capacity,m_ratio,s",
        [
            (1.0, 1000, 0.001, 1.0),  # mean 2000
            (2.0, 1000, 0.001, 0.5),  # mean 1500
            (2.0, 100, 0.01, 3.0),  # mean 400
            (0.5, 30, 0.02, 9.0),  # mean 500
            (3.0, 10, 0.05, 4.0),  # mean 100
            (1.0, 4, 0.01, 2.0),  # mean 300
        ],
    )
    def test_shifted_rates_exact_past_large_capacities(self, delta, capacity, m_ratio, s):
        integrate = pytest.importorskip("scipy.integrate")
        optimize = pytest.importorskip("scipy.optimize")
        stats = pytest.importorskip("scipy.stats")

        def mean(v: float) -> float:
            return (stats.norm.sf(v - delta) + s * stats.norm.sf(v)) / m_ratio

        # the adaptive integral over the signal v gets the step as a breakpoint
        step = optimize.brentq(lambda v: mean(v) - capacity, -40.0, 40.0, xtol=1e-14)

        def rate(own_shift: float) -> float:
            def integrand(v: float) -> float:
                return stats.norm.pdf(v - own_shift) * stats.poisson.cdf(capacity - 1, mean(v))

            return integrate.quad(integrand, -40.0, 40.0, points=[step, 0.0, delta],
                                  epsabs=1e-15, epsrel=1e-13, limit=4000)[0]

        first, later = _large_market_acceptance(delta, m_ratio, capacity)(s)
        assert abs(first - rate(delta)) <= 1e-12
        assert abs(later - rate(0.0)) <= 1e-12

    @pytest.mark.parametrize("delta", [0.0, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("m_ratio", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_excess_has_one_root(self, delta, m_ratio, capacity):
        assert_excess_has_one_root(
            _large_market_acceptance(delta, m_ratio, capacity), m_ratio, capacity
        )


class TestSampledAcceptance:
    """The sample-based model that ``solve_general`` runs for custom samplers."""

    @pytest.mark.parametrize(
        "signal",
        [gaussian_as_custom(0.0), gaussian_as_custom(2.0), integer_custom()],
        ids=["normal", "shifted", "tied"],
    )
    @pytest.mark.parametrize("m_ratio,capacity", [(0.5, 1), (1.0, 2), (2.0, 3)])
    def test_excess_has_one_root(self, signal, m_ratio, capacity):
        # the accepted-mass identity holds for the sampled tails as well, to
        # about 2e-8; near saturation (m_ratio 0.5, S near 9) the exact mass
        # rises by only 4e-10 per step, so a step may dip by that error
        cfg = MarketConfig(n=100, m_ratio=m_ratio, capacity=capacity, k=2, signal=signal, seed=0)
        acceptance = _sampled_acceptance(cfg, 20_000)
        assert_excess_has_one_root(acceptance, m_ratio, capacity, dip=1e-9)


class TestSolveGeneral:
    def test_agrees_with_closed_form_on_iid(self):
        cfg = MarketConfig(n=100, k=3, seed=5)
        iid = solve_iid(cfg)
        general = solve_general(cfg, n_sim=20_000)
        est = estimate_acceptance(
            general.rank_fractions.fractions, cfg, n_sim=20_000, trials=6
        )
        bound = 2 * (max(est.std_errors) + 0.005)
        for a, b in zip(iid.rank_fractions.fractions, general.rank_fractions.fractions):
            assert abs(a - b) <= bound

    def test_quadrature_agrees_with_closed_form_at_large_capacity(self):
        # Poisson means near 1000: exp(-mean) alone underflows to zero
        cfg = MarketConfig(n=100_000, m_ratio=0.001, capacity=1000, k=3, seed=0)
        iid = solve_iid(cfg).rank_fractions.fractions
        general = solve_general(cfg).rank_fractions.fractions
        assert iid[1] == pytest.approx(0.0622650574, abs=1e-9)
        for a, b in zip(iid, general):
            assert abs(a - b) <= 1e-9

    def test_zero_shift_same_as_iid_signal(self):
        base = MarketConfig(n=100, k=3, seed=9)
        shifted = dataclasses.replace(base, signal=SignalSpec.gaussian(0.0))
        a = solve_general(base, n_sim=20_000)
        b = solve_general(shifted, n_sim=20_000)
        for x, y in zip(a.rank_fractions.fractions, b.rank_fractions.fractions):
            assert abs(x - y) <= 0.02

    def test_shifted_signal_profile_matches_simulation(self):
        cfg = MarketConfig(n=10_000, k=3, signal=SignalSpec.gaussian(2.0), seed=2)
        result = solve_general(cfg, n_sim=40_000)
        predicted = result.match_fractions()
        profiles = []
        for seed in range(3):
            inst = sample_market(dataclasses.replace(cfg, seed=seed))
            profiles.append(rank_profile(inst, student_proposing_da(inst)).fractions())
        simulated = np.mean(profiles, axis=0)
        for p, s in zip(predicted, simulated):
            assert abs(p - s) < 0.02

    def test_conservation_at_solution(self):
        cfg = MarketConfig(n=100, k=4, seed=1)
        result = solve_general(cfg, n_sim=20_000)
        y = result.rank_fractions.fractions
        est = estimate_acceptance(y, dataclasses.replace(cfg, seed=77), n_sim=40_000, trials=8)
        for i in range(1, cfg.k):
            assert abs(y[i] - (y[i - 1] - est.fractions[i - 1])) < 0.01
        # accepted mass stays within feasibility bounds at the fixed point
        total = sum(est.fractions)
        assert total <= min(1.0, cfg.m_ratio * cfg.capacity) + 0.01

    @pytest.mark.parametrize(
        "signal,model",
        [(SignalSpec.iid(), "_large_market_acceptance"),
         (gaussian_as_custom(0.0), "_sampled_acceptance")],
        ids=["quadrature", "sampled"],
    )
    def test_nonconvergence_raises_with_payload(self, monkeypatch, signal, model):
        monkeypatch.setattr(fixed_point, model, lambda *args: jumping_rates)
        cfg = MarketConfig(n=100, k=3, signal=signal, seed=0)
        with pytest.raises(ConvergenceError, match="did not close the system") as err:
            solve_general(cfg, n_sim=500)
        assert err.value.fractions[:2] == pytest.approx((1.0, 0.2))
        assert len(err.value.fractions) == 3
        assert max(abs(r) for r in err.value.residuals) > 0.1
        assert len(err.value.residuals) == 3

    @pytest.mark.parametrize(
        "signal", [SignalSpec.gaussian(1.0), gaussian_as_custom(1.0)], ids=["bisection", "sampled"]
    )
    def test_arguments_validated_on_both_paths(self, signal):
        with pytest.raises(ValueError):
            solve_general(MarketConfig(n=100, k=3, signal=signal, seed=0), n_sim=50)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 10])
    def test_bisection_closes_the_system(self, k):
        for delta in (0.0, 1.0, 2.0, 4.0):
            for m_ratio in (0.5, 1.0, 2.0):
                for capacity in (1, 2, 3):
                    cfg = MarketConfig(n=100, m_ratio=m_ratio, capacity=capacity, k=k,
                                       signal=SignalSpec.gaussian(delta), seed=0)
                    result = solve_general(cfg)
                    assert result.method == "quadrature-bisection"
                    assert max(map(abs, result.residuals)) <= 1e-9
                    assert result.iterations <= 60
                    if delta == 0.0:
                        iid = solve_iid(cfg).rank_fractions.fractions
                        assert result.rank_fractions.fractions == pytest.approx(iid, abs=1e-9)

    @pytest.mark.parametrize(
        "delta,capacity,k,m_ratio",
        [(1.5, 1, 3, 1.0), (0.0, 1, 3, 1.0), (1.0, 2, 4, 0.5), (3.0, 2, 2, 1.0)],
    )
    def test_custom_gaussian_runs_the_sampled_bisection(self, delta, capacity, k, m_ratio):
        # custom samplers drawing Normal(delta, 1) and Normal(0, 1) solve on a
        # sample of each distribution; they must land on the quadrature's solution
        base = MarketConfig(n=100, m_ratio=m_ratio, capacity=capacity, k=k,
                            signal=SignalSpec.gaussian(delta), seed=3)
        custom = dataclasses.replace(base, signal=gaussian_as_custom(delta))
        sampled = solve_general(custom)
        assert sampled.method == "sampled-bisection"
        assert max(map(abs, sampled.residuals)) <= 1e-12
        y = sampled.rank_fractions.fractions
        assert y == pytest.approx(solve_general(base).rank_fractions.fractions, abs=2e-3)
        assert_chain_agrees_with_monte_carlo(y, custom)
        # deterministic for a given config, and its seed is its stream
        assert solve_general(custom) == sampled
        again = solve_general(dataclasses.replace(custom, seed=11))
        assert again == solve_general(dataclasses.replace(custom, seed=11)) != sampled

    def test_tied_custom_signals_solve_consistently(self):
        # the sampler of test_matching's tie test; ties break by tiebreak, as in a market
        cfg = MarketConfig(n=12, m_ratio=0.5, capacity=2, k=3, signal=integer_custom(), seed=0)
        result = solve_general(cfg)
        assert result.method == "sampled-bisection"
        assert max(map(abs, result.residuals)) <= 1e-12
        assert_chain_agrees_with_monte_carlo(result.rank_fractions.fractions, cfg)

    def test_iid_unreachable_tolerance_raises_with_payload(self, monkeypatch):
        # every rank accepted at 0.5 below a total mass of 1.3 and at 0.9 above
        # takes G(S) from 0.75 to 0.11 at S = 0.3, so S = G(S) has no root
        monkeypatch.setattr(fixed_point, "expected_accepted_mass",
                            lambda x, m_ratio, capacity: x * (0.5 if x < 1.3 else 0.9))
        with pytest.raises(ConvergenceError, match="did not close the system") as err:
            solve_iid(MarketConfig(n=100, k=3, seed=0))
        assert err.value.fractions[0] == 1.0
        assert err.value.fractions[1] in (pytest.approx(0.5), pytest.approx(0.1))
        assert max(abs(r) for r in err.value.residuals) > 0.01
        assert len(err.value.residuals) == 3

    @pytest.mark.parametrize("m_ratio", [0.5, 2.0, 10.0, 100.0])
    @pytest.mark.parametrize("capacity", [1, 100, 1000, 5000])
    @pytest.mark.parametrize("k", [2, 10])
    def test_solvers_close_the_system_at_every_capacity(self, k, capacity, m_ratio):
        # the bisection closes the equation to rounding wherever the mean
        # (1 + S) / m_ratio sits against the capacity, far from the 1e-10 gate
        cfg = MarketConfig(n=1000, m_ratio=m_ratio, capacity=capacity, k=k, seed=0)
        result = solve_iid(cfg)
        assert max(map(abs, result.residuals)) <= 1e-13
        assert result.iterations <= 80
        if (k, capacity, m_ratio) == (10, 1000, 10.0):
            general = solve_general(cfg).rank_fractions.fractions
            assert result.rank_fractions.fractions == pytest.approx(general, abs=1e-12)

    def test_json_round_trip_fields(self):
        result = solve_iid(MarketConfig(n=100, k=2, seed=0))
        doc = result.to_json_dict()
        assert set(doc) == {
            "rank_fractions",
            "residuals",
            "iterations",
            "method",
            "proposals_per_student",
            "unmatched_fraction",
            "match_fractions",
        }


class TestThrowProposals:
    @pytest.mark.parametrize(
        "signal", [SignalSpec.iid(), SignalSpec.gaussian(2.0)], ids=["iid", "gaussian"]
    )
    def test_counts_empty_draw_nothing(self, signal):
        cfg = MarketConfig(n=100, k=2, signal=signal, seed=0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        uni, ranks, _, _, accepted = _throw_proposals(np.array([0, 0]), 100, cfg, rng)
        assert uni.size == ranks.size == accepted.size == 0
        assert rng.bit_generator.state == state

    def test_estimate_and_seeded_plan_share_the_throw(self):
        # one trial at n_sim = n throws exactly the zero-slack plan's proposals
        cfg = MarketConfig(n=500, m_ratio=0.5, capacity=2, k=3,
                           signal=SignalSpec.gaussian(1.0), seed=0)
        y = (1.0, 0.6, 0.3)
        seeded = dataclasses.replace(cfg, seed=5)
        est = estimate_acceptance(y, seeded, n_sim=cfg.n, trials=1)
        plan = build_seeded_plan(y, seeded, slack=0.0)
        accepted = np.bincount(plan.proposal_rank[plan.proposal_accepted] - 1, minlength=3)
        assert est.fractions == tuple(float(c) for c in accepted / cfg.n)
