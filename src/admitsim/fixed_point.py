"""Acceptance-rate estimation and solvers for the per-rank proposal fractions.

The central object is the vector of rank fractions: entry i is the fraction
of students who ever propose to their rank-(i+1) school under
student-proposing deferred acceptance.  Consistency requires each entry to
equal the previous one minus the fraction of previous-rank proposals that
get accepted, which yields a fixed-point system.

In the large-market limit a proposal keeps its seat when fewer than
``capacity`` rival proposals at its university carry a higher signal, and
that rival count is Poisson.  The acceptance rates then depend on the rank
fractions only through the mass S of proposals beyond rank 1, so the system
is one scalar equation in S, which both analytic solvers bisect.  With
identically distributed signals every rank is accepted at one closed-form
rate (``solve_iid``); for Gaussian signals ``solve_general`` evaluates the
acceptance rates by tanh-sinh quadrature, and for custom samplers it
averages them over one fixed sample of each signal distribution.
``estimate_acceptance``, the finite-market Monte Carlo oracle, tests them.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from .market import (
    MarketConfig,
    _convert,
    _rank_within_universities,
    _throw_proposals,
    _validate_rank_fractions,
)

__all__ = [
    "RankVector",
    "AcceptanceEstimate",
    "SolverResult",
    "ConvergenceError",
    "estimate_acceptance",
    "expected_accepted_mass",
    "solve_iid",
    "solve_general",
]


@dataclass(frozen=True)
class RankVector:
    """Fractions of students proposing at each rank: starts at 1, nonincreasing."""

    fractions: tuple[float, ...]

    def __post_init__(self) -> None:
        _validate_rank_fractions(self.fractions)


@dataclass(frozen=True)
class AcceptanceEstimate:
    """Monte Carlo estimate of the accepted fraction per proposal rank."""

    fractions: tuple[float, ...]
    std_errors: tuple[float, ...]
    trials: int
    n_sim: int


class ConvergenceError(RuntimeError):
    """A solution leaves a gap above ``_MAX_RESIDUAL``; carries it and its residuals."""

    def __init__(self, message: str, fractions: tuple[float, ...], residuals: tuple[float, ...]):
        super().__init__(message)
        self.fractions = fractions
        self.residuals = residuals


@dataclass(frozen=True)
class SolverResult:
    """Solution of the rank-fraction system.

    ``residuals[i]`` is the consistency gap at rank i+1, closed to rounding.
    ``method`` is "closed-form-iid", "quadrature-bisection" or
    "sampled-bisection"; ``iterations`` counts the bisection steps in S.
    """

    rank_fractions: RankVector
    residuals: tuple[float, ...]
    iterations: int
    method: str
    proposals_per_student: float
    unmatched_fraction: float

    def match_fractions(self) -> tuple[float, ...]:
        """Fraction of students matched at each rank."""
        f = self.rank_fractions.fractions
        tail = f[1:] + (self.unmatched_fraction,)
        return tuple(a - b for a, b in zip(f, tail))

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "rank_fractions": list(self.rank_fractions.fractions),
            "residuals": list(self.residuals),
            "iterations": self.iterations,
            "method": self.method,
            "proposals_per_student": self.proposals_per_student,
            "unmatched_fraction": self.unmatched_fraction,
            "match_fractions": list(self.match_fractions()),
        }


def _check_sampling(n_sim: int, trials: int = 1) -> tuple[int, int]:
    n_sim = _convert(int, "n_sim", n_sim, ValueError)
    trials = _convert(int, "trials", trials, ValueError)
    if n_sim < 100:
        raise ValueError("n_sim must be at least 100")
    if trials < 1:
        raise ValueError("trials must be positive")
    return n_sim, trials


def estimate_acceptance(
    rank_fractions: Sequence[float],
    config: MarketConfig,
    n_sim: int = 10_000,
    trials: int = 8,
) -> AcceptanceEstimate:
    """Estimate the accepted fraction of each proposal rank by Monte Carlo.

    Each trial throws ``floor(fraction_i * n_sim)`` rank-i proposals at
    ``m_ratio * n_sim`` uniformly random universities, draws their signals
    (rank-1 proposals from the special distribution), and lets every
    university accept its top-``capacity`` proposals.  Fractions are
    normalized by ``n_sim``.  The trials draw in turn from
    ``default_rng(config.seed)``.

    Unlike a full rank vector, the input may be all-zero; it only has to
    be nonincreasing with entries in [0, 1].
    """
    fractions = _validate_rank_fractions(rank_fractions, config.k, leading_one=False)
    n_sim, trials = _check_sampling(n_sim, trials)
    rng = np.random.default_rng(config.seed)

    m_sim = max(1, round(config.m_ratio * n_sim))
    counts = np.floor(fractions * n_sim).astype(np.int64)
    samples = np.empty((trials, config.k), dtype=np.float64)
    for t in range(trials):
        _, ranks, _, _, accepted = _throw_proposals(counts, m_sim, config, rng)
        samples[t] = np.bincount(ranks[accepted], minlength=config.k) / n_sim
        del _, ranks, accepted  # free this trial's proposals before the next throw
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(trials) if trials > 1 else np.zeros(config.k)
    return AcceptanceEstimate(
        fractions=tuple(float(v) for v in mean),
        std_errors=tuple(float(v) for v in se),
        trials=trials,
        n_sim=n_sim,
    )


def expected_accepted_mass(
    proposals_per_student: float, m_ratio: float, capacity: int
) -> float:
    """Expected accepted proposals per student with indistinguishable signals.

    With x proposals per student thrown uniformly at m_ratio * n
    universities, each university's proposal count is Poisson(x / m_ratio)
    in the large-market limit and it fills min(count, capacity) seats:

        accepted per student = m_ratio * E[min(Poisson(x / m_ratio), capacity)]

    For capacity 1 this is m_ratio * (1 - exp(-x / m_ratio)).  The value
    approaches m_ratio * capacity as x grows.  Each Poisson probability is
    taken from its logarithm: exp(-x / m_ratio) alone underflows to zero for
    means above ~745.
    """
    x = _convert(float, "proposals_per_student", proposals_per_student, ValueError)
    if not 0.0 <= x < math.inf:
        raise ValueError("proposal mass must be finite and nonnegative")
    m_ratio = _convert(float, "m_ratio", m_ratio, ValueError)
    if not 0.0 < m_ratio < math.inf:
        raise ValueError("m_ratio must be finite and positive")
    capacity = _convert(int, "capacity", capacity, ValueError)
    if capacity < 1:
        raise ValueError("capacity must be a positive integer")
    if x == 0.0:
        return 0.0
    lam = x / m_ratio
    log_lam = math.log(lam)

    def poisson(j: int) -> float:
        return math.exp(j * log_lam - lam - math.lgamma(j + 1))

    if lam < capacity:
        # E[min(N, L)] = lam - E[(N - L)+]: with L - shortfall both terms would
        # be near L and lose the small mass.  The tail terms (j - L) P(N = j)
        # rise and then fall, so the first that leaves the sum unchanged ends it.
        excess, j = 0.0, capacity + 1
        while excess + (term := (j - capacity) * poisson(j)) != excess:
            excess, j = excess + term, j + 1
        return x - m_ratio * excess
    # E[min(N, L)] = L - sum_{j<L} (L - j) P(N = j)
    shortfall = 0.0
    for j in range(capacity):
        shortfall += (capacity - j) * poisson(j)
    return m_ratio * (capacity - shortfall)


def _poisson_below(lam: np.ndarray, capacity: int) -> np.ndarray:
    """P(Poisson(lam) < capacity), elementwise.

    Each term comes from its logarithm, so means past ~745, where
    exp(-lam) underflows, are safe.
    """
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)
    # a zero mean has log -inf, which leaves only the j = 0 term
    out = np.exp(-lam)
    for j in range(1, capacity):
        out += np.exp(j * log_lam - lam - math.lgamma(j + 1))
    return out


# Up to this capacity P(Poisson < capacity) has no step that the 120-node
# rule misses: within 4e-14 of the closed form at every mean up to 2000.
_SMOOTH_CAPACITY = 3


def _large_market_acceptance(
    delta: float, m_ratio: float, capacity: int
) -> Callable[[float], tuple[float, float]]:
    """Acceptance rates (rank 1, ranks >= 2) as a function of the mass S beyond rank 1.

    A proposal with signal v keeps its seat when fewer than ``capacity``
    rival proposals at its university signal above v.  In the large-market
    limit that count is Poisson with mean

        ((1 - F_special(v)) + S * (1 - F_regular(v))) / m_ratio,

    where rank-1 proposals draw from F_special = Normal(delta, 1) and later
    ranks from F_regular = Normal(0, 1).  Each rate averages
    P(Poisson < capacity) over the proposal's own signal, integrated in its
    uniform own tail u = 1 - F_own(v), where the other kind's tail is
    Phi(Phi^-1(u) -+ delta), with a 120-node tanh-sinh rule.  Past a
    capacity above ``_SMOOTH_CAPACITY`` P(Poisson < capacity) is a step in
    u, at the u* where the mean is the capacity (L * m_ratio / (1 + S) at
    delta = 0, bisected otherwise), and the rule runs on [0, u*] and on
    [u*, 1].  The rates are within about 1e-13 of exact for capacities up
    to 1000 and means up to 2000.
    """
    # imported here so that importing the package does not load statistics
    from statistics import NormalDist

    # Tanh-sinh rule on [0, 1]: nodes 1 / (1 + exp(-pi sinh t)), t on an even
    # grid in [-3.3, 3.3], crowd towards both ends, where exp(-c u) for
    # Poisson means c in the hundreds and the shifted tails have their features.
    t = (np.arange(120) - 59.5) * (6.6 / 119)
    x = 0.5 * math.pi * np.sinh(t)
    nodes, upper_nodes = 1.0 / (1.0 + np.exp(-2.0 * x)), 1.0 / (1.0 + np.exp(2.0 * x))
    weights = (t[1] - t[0]) * 0.25 * math.pi * np.cosh(t) / np.cosh(x) ** 2
    inv = NormalDist().inv_cdf  # Phi^-1(u) = -Phi^-1(1 - u), exact where u rounds to 1

    def below(z: float, shift: float) -> float:
        """Phi(z + shift)."""
        return 0.5 * math.erfc(-(z + shift) / math.sqrt(2.0))

    def rule(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Weights of the rule on [lo, hi] and, at its nodes, the special and
        regular rivals' tails over m_ratio: row 0 for rank 1, row 1 for later ranks."""
        u = lo + (hi - lo) * nodes
        upper = (1.0 - hi) + (hi - lo) * upper_nodes  # 1 - u without cancellation
        z = [inv(a) if a < 0.5 else -inv(b) for a, b in zip(u, upper)]
        up, down = (np.array([below(q, shift) for q in z]) for shift in (delta, -delta))
        special, regular = np.stack([u, up]), np.stack([down, u])
        return (hi - lo) * weights, special / m_ratio, regular / m_ratio

    def step(row: int, s: float) -> float:
        """The u where the row's Poisson mean is the capacity."""
        if delta == 0.0:
            return capacity * m_ratio / (1.0 + s)
        lo, hi = 0.0, 1.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            other = below(inv(mid) if mid < 0.5 else -inv(1.0 - mid), (-delta, delta)[row])
            if (mid + s * other if row == 0 else other + s * mid) < capacity * m_ratio:
                lo = mid
            else:
                hi = mid
        return mid

    whole = rule(0.0, 1.0)

    def acceptance(s: float) -> tuple[float, float]:
        if capacity > _SMOOTH_CAPACITY and (1.0 + s) / m_ratio > capacity:
            first, later = (
                sum(float(_poisson_below(special[row] + s * regular[row], capacity) @ w)
                    for w, special, regular in (rule(0.0, cut), rule(cut, 1.0)))
                for row, cut in ((0, step(0, s)), (1, step(1, s)))
            )
            return first, later
        w, special, regular = whole
        first, later = _poisson_below(special + s * regular, capacity) @ w
        return float(first), float(later)

    return acceptance


def _sampled_acceptance(
    config: MarketConfig, n_sim: int
) -> Callable[[float], tuple[float, float]]:
    """The rates of ``_large_market_acceptance`` from ``n_sim`` draws of each signal
    kind, taken from ``default_rng(config.seed)``.

    One university ranks the pooled draws, so ties break as in a market.  A
    draw's rival tails count the draws of each kind ranked above it, itself
    as one half, over ``n_sim``; each rate averages P(Poisson < capacity)
    over its own kind's draws.  The half makes the accepted mass p_1 + S p_r
    a midpoint sum, equal to ``expected_accepted_mass`` to O(n_sim**-2).
    """
    rng = np.random.default_rng(config.seed)
    special = np.repeat([True, False], n_sim)
    signals = config.signal.draw_batch(special, rng)
    tiebreaks = rng.random(2 * n_sim)
    _, order, _ = _rank_within_universities(
        np.zeros(2 * n_sim, dtype=np.int64), signals, tiebreaks, 1
    )
    ranked = special[order]
    tails = np.empty((2, 2 * n_sim))
    for row, kind in enumerate((ranked, ~ranked)):
        tails[row, order] = (np.cumsum(kind) - 0.5 * kind) / (n_sim * config.m_ratio)
    # [rival kind, own kind, draw]: own kind 0 is special (rank 1), 1 regular
    special_tail, regular_tail = tails.reshape(2, 2, n_sim)

    def acceptance(s: float) -> tuple[float, float]:
        first, later = _poisson_below(special_tail + s * regular_tail, config.capacity).mean(axis=1)
        return float(first), float(later)

    return acceptance


def _rank_chain(first: float, later: float, k: int) -> np.ndarray:
    """Rank fractions when rank 1 is accepted at rate ``first`` and later ranks at ``later``."""
    y = np.ones(k, dtype=np.float64)
    y[1:] = (1.0 - first) * (1.0 - later) ** np.arange(k - 1)
    return y


_MAX_RESIDUAL = 1e-10  # largest gap a solution may leave; only an equation with no root does


def _solve_by_bisection(config: MarketConfig, acceptance: Callable[[float], tuple[float, float]],
                        method: str) -> SolverResult:
    """Bisect S = G(S) for the rates (rank 1, ranks >= 2) that ``acceptance``
    gives at mass S beyond rank 1, down to rounding."""
    k = config.k
    lo, hi = 0.0, float(k - 1)
    s, iterations = 0.0, 0
    while k > 1:
        iterations += 1
        s = 0.5 * (lo + hi)
        excess = s - float(_rank_chain(*acceptance(s), k)[1:].sum())
        if excess == 0.0 or hi - lo <= 1e-14 * max(1.0, s):
            break
        if excess < 0:
            lo = s
        else:
            hi = s

    y = _rank_chain(*acceptance(s), k)
    # residuals re-derive the rates from the solution's own mass, so they
    # expose how well the bisection closed the equation
    first, later = acceptance(float(y[1:].sum()))
    accepted = y * np.array([first] + [later] * (k - 1))
    residuals = y - (1.0 - np.concatenate(([0.0], np.cumsum(accepted[:-1]))))
    worst = float(np.abs(residuals).max())
    if not worst <= _MAX_RESIDUAL:
        raise ConvergenceError(
            f"bisection did not close the system: worst residual {worst:.3g} "
            f"above {_MAX_RESIDUAL:g} after {iterations} steps",
            fractions=tuple(float(v) for v in y),
            residuals=tuple(float(r) for r in residuals),
        )
    return SolverResult(
        rank_fractions=RankVector(tuple(float(v) for v in y)),
        residuals=tuple(float(r) for r in residuals),
        iterations=iterations,
        method=method,
        proposals_per_student=float(y.sum()),
        unmatched_fraction=float(y[-1] - accepted[-1]),
    )


def solve_iid(config: MarketConfig) -> SolverResult:
    """Solve the rank-fraction system for identically distributed signals.

    Every proposal is equally likely to win a seat, so every rank is
    accepted at the closed-form rate expected_accepted_mass(1 + S) / (1 + S)
    and the rank fractions are geometric.  S is bisected as in
    ``solve_general``, down to rounding (method "closed-form-iid";
    ``iterations`` counts the bisection steps); raises ConvergenceError as it does.
    """
    if not config.signal.is_iid_equivalent:
        raise ValueError("solve_iid requires identically distributed signals")

    def acceptance(s: float) -> tuple[float, float]:
        rate = expected_accepted_mass(1.0 + s, config.m_ratio, config.capacity) / (1.0 + s)
        return rate, rate

    return _solve_by_bisection(config, acceptance, "closed-form-iid")


def solve_general(config: MarketConfig, n_sim: int = 20_000) -> SolverResult:
    """Solve the rank-fraction system for any signal model.

    The large-market acceptance rates depend on the rank fractions y only
    through S = y_2 + ... + y_k, so the chain y_2 = 1 - p_1(S),
    y_(i+1) = y_i * (1 - p_r(S)) turns the system into the scalar equation
    S = G(S).  p_r * (S - G(S)) is the accepted mass p_1 + S * p_r, which
    rises with S, minus the matched fraction
    1 - (1 - p_1) * (1 - p_r)**(k-1), which falls, so the root is unique.
    It is bisected on [0, k - 1] down to rounding (``iterations`` counts
    the bisection steps), and the residuals are below 1e-12.

    For iid and Gaussian signals the rates come from the quadrature of
    ``_large_market_acceptance`` (method "quadrature-bisection"), and
    ``n_sim`` is unused.  Custom samplers get the same rates from ``n_sim``
    draws of each signal distribution (``_sampled_acceptance``, method
    "sampled-bisection"), taken from the config seed; the solution is
    deterministic for a given configuration and carries sampling error of
    order n_sim**-0.5.

    Raises ConvergenceError, with the solution, if a gap is above
    ``_MAX_RESIDUAL``: only rates that jump in S, so that no root exists, do that.
    """
    n_sim, _ = _check_sampling(n_sim)
    if config.signal.kind == "custom":
        acceptance = _sampled_acceptance(config, n_sim)
        return _solve_by_bisection(config, acceptance, "sampled-bisection")
    acceptance = _large_market_acceptance(config.signal.delta, config.m_ratio, config.capacity)
    return _solve_by_bisection(config, acceptance, "quadrature-bisection")
