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
is one scalar equation in S.  With identically distributed signals it has
a closed form (``solve_iid``); for Gaussian signals ``solve_general``
evaluates the acceptance rates by Gauss-Hermite quadrature and bisects.
Custom samplers have no such model: their acceptance rates are estimated by
Monte Carlo and the system is solved by damped iteration.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from .market import MarketConfig, _throw_proposals, _validate_rank_fractions, make_rng

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

    def __len__(self) -> int:
        return len(self.fractions)

    def __getitem__(self, i: int) -> float:
        return self.fractions[i]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.fractions, dtype=np.float64)


@dataclass(frozen=True)
class AcceptanceEstimate:
    """Monte Carlo estimate of the accepted fraction per proposal rank."""

    fractions: tuple[float, ...]
    std_errors: tuple[float, ...]
    trials: int
    n_sim: int


class ConvergenceError(RuntimeError):
    """A solver did not reach its tolerance; carries the last iterate."""

    def __init__(self, message: str, fractions: tuple[float, ...], residuals: tuple[float, ...]):
        super().__init__(message)
        self.fractions = fractions
        self.residuals = residuals


@dataclass(frozen=True)
class SolverResult:
    """Solution of the rank-fraction system.

    ``residuals[i]`` is the consistency gap at rank i+1; for the Monte
    Carlo method it includes sampling noise.  ``method`` is
    "closed-form-iid", "quadrature-bisection" or "damped-iteration";
    ``iterations`` counts bisection steps or damped iterations.
    """

    rank_fractions: RankVector
    residuals: tuple[float, ...]
    iterations: int
    method: str
    proposals_per_student: float
    unmatched_fraction: float

    @property
    def max_residual(self) -> float:
        return max(abs(r) for r in self.residuals)

    def match_fractions(self) -> tuple[float, ...]:
        """Fraction of students matched at each rank."""
        f = self.rank_fractions.fractions
        tail = f[1:] + (self.unmatched_fraction,)
        return tuple(a - b for a, b in zip(f, tail))

    def matched_fraction(self) -> float:
        return 1.0 - self.unmatched_fraction

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


def _check_sampling(n_sim: int, trials: int) -> None:
    if n_sim < 100:
        raise ValueError("n_sim must be at least 100")
    if trials < 1:
        raise ValueError("trials must be positive")


def estimate_acceptance(
    rank_fractions: Sequence[float],
    config: MarketConfig,
    n_sim: int = 10_000,
    trials: int = 8,
    rng: np.random.Generator | None = None,
) -> AcceptanceEstimate:
    """Estimate the accepted fraction of each proposal rank by Monte Carlo.

    Each trial throws ``floor(fraction_i * n_sim)`` rank-i proposals at
    ``m_ratio * n_sim`` uniformly random universities, draws their signals
    (rank-1 proposals from the special distribution), and lets every
    university accept its top-``capacity`` proposals.  Fractions are
    normalized by ``n_sim``.

    Unlike a full rank vector, the input may be all-zero; it only has to
    be nonincreasing with entries in [0, 1].
    """
    fractions = _validate_rank_fractions(rank_fractions, config.k, leading_one=False)
    _check_sampling(n_sim, trials)
    if rng is None:
        rng = make_rng(config.seed)

    m_sim = max(1, round(config.m_ratio * n_sim))
    counts = np.floor(fractions * n_sim).astype(np.int64)
    samples = np.empty((trials, config.k), dtype=np.float64)
    for t in range(trials):
        _, ranks, _, _, accepted = _throw_proposals(counts, m_sim, config, rng)
        samples[t] = np.bincount(ranks[accepted], minlength=config.k) / n_sim
        del _, ranks, accepted  # free this trial's proposals before the next throw
    mean = samples.mean(axis=0)
    if trials > 1:
        se = samples.std(axis=0, ddof=1) / math.sqrt(trials)
    else:
        se = np.zeros(config.k)
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
    approaches m_ratio * capacity as x grows.
    """
    x = float(proposals_per_student)
    if x < 0:
        raise ValueError("proposal mass must be nonnegative")
    if x == 0.0:
        return 0.0
    lam = x / m_ratio
    # E[min(N, L)] = L - sum_{j<L} (L - j) P(N = j)
    pmf = math.exp(-lam)
    shortfall = 0.0
    for j in range(capacity):
        shortfall += (capacity - j) * pmf
        pmf *= lam / (j + 1)
    return m_ratio * (capacity - shortfall)


def _consistency_gap(x: float, m_ratio: float, capacity: int, k: int) -> float:
    """Accepted mass minus matched fraction implied by x total proposals.

    Zero exactly when x solves the scalar consistency equation; increasing
    in x on the left side and decreasing on the right, so the root is
    unique and bracketed by (0, k].
    """
    g = expected_accepted_mass(x, m_ratio, capacity)
    return g - (1.0 - (1.0 - g / x) ** k)


def solve_iid(config: MarketConfig, tol: float = 1e-10, max_iter: int = 200) -> SolverResult:
    """Closed-form solution of the rank-fraction system for identical signals.

    Bisects the scalar consistency equation for the total proposal mass x,
    then reads off the geometric rank fractions: with survival ratio
    a = 1 - accepted_mass(x)/x, rank j carries a**(j-1).

    Raises ConvergenceError with the last iterate when the bracket is lost
    or the bisection ends above ``tol``.
    """
    if not config.signal.is_iid_equivalent:
        raise ValueError("solve_iid requires identically distributed signals")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    k, m_ratio, L = config.k, config.m_ratio, config.capacity

    lo, hi = 1e-12, float(k)
    iterations = 0
    x = hi
    failure = None
    if abs(_consistency_gap(hi, m_ratio, L, k)) > 0.0:
        if _consistency_gap(lo, m_ratio, L, k) > 0:
            failure = "consistency equation lost its bracket"
        else:
            # run the bracket down to rounding so the reported residuals are
            # far below any practical tolerance
            for _ in range(max_iter):
                iterations += 1
                x = 0.5 * (lo + hi)
                fx = _consistency_gap(x, m_ratio, L, k)
                if fx == 0.0 or hi - lo <= 1e-14 * max(1.0, x):
                    break
                if fx < 0:
                    lo = x
                else:
                    hi = x
            if abs(_consistency_gap(x, m_ratio, L, k)) > tol:
                failure = "bisection did not reach tolerance"

    g = expected_accepted_mass(x, m_ratio, L)
    alpha = 1.0 - g / x
    fractions = tuple(alpha**j for j in range(k))
    # residuals re-derive the survival ratio from the solution's own total
    # mass, so they expose how well the bisection closed the equation
    total = sum(fractions)
    alpha_check = 1.0 - expected_accepted_mass(total, m_ratio, L) / total
    residuals = tuple(
        fractions[i] - fractions[i - 1] * alpha_check if i else 0.0
        for i in range(k)
    )
    if failure is not None:
        raise ConvergenceError(failure, fractions=fractions, residuals=residuals)
    return SolverResult(
        rank_fractions=RankVector(fractions),
        residuals=residuals,
        iterations=iterations,
        method="closed-form-iid",
        proposals_per_student=float(x),
        unmatched_fraction=float(alpha**k),
    )


@functools.cache
def _normal_quadrature() -> tuple[np.ndarray, np.ndarray]:
    """80-node Gauss-Hermite rule for the standard normal: E[h(Z)] ~ weights @ h(nodes)."""
    # imported here so that importing the package does not load numpy.polynomial
    from numpy.polynomial.hermite_e import hermegauss

    nodes, weights = hermegauss(80)
    weights = weights / math.sqrt(2.0 * math.pi)
    nodes.flags.writeable = weights.flags.writeable = False  # cached: shared by every call
    return nodes, weights


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
    P(Poisson < capacity) over the proposal's own signal distribution.  The
    quadrature error grows with the Poisson mean, at most (1 + S) / m_ratio:
    below 1e-11 up to 10, about 5e-9 at 20.
    """
    nodes, weights = _normal_quadrature()

    def above(shift: float) -> np.ndarray:
        """P(Normal(0, 1) > node + shift) at every node."""
        return np.array([0.5 * math.erfc((z + shift) / math.sqrt(2.0)) for z in nodes])

    # row 0: a rank-1 proposal with signal delta + z; row 1: a later one with z
    same, up, down = above(0.0), above(delta), above(-delta)
    special_rivals = np.stack([same, down]) / m_ratio
    regular_rivals = np.stack([up, same]) / m_ratio

    def acceptance(s: float) -> tuple[float, float]:
        lam = special_rivals + s * regular_rivals
        term = np.exp(-lam)
        kept = term.copy()
        for j in range(1, capacity):
            term *= lam / j
            kept += term
        first, later = kept @ weights
        return float(first), float(later)

    return acceptance


def _rank_chain(first: float, later: float, k: int) -> np.ndarray:
    """Rank fractions when rank 1 is accepted at rate ``first`` and later ranks at ``later``."""
    y = np.ones(k, dtype=np.float64)
    y[1:] = (1.0 - first) * (1.0 - later) ** np.arange(k - 1)
    return y


def _solve_by_bisection(config: MarketConfig, tol: float, max_iter: int) -> SolverResult:
    """The quadrature-bisection path of ``solve_general``."""
    k = config.k
    acceptance = _large_market_acceptance(config.signal.delta, config.m_ratio, config.capacity)
    lo, hi = 0.0, float(k - 1)
    s = 0.0
    iterations = 0
    if k > 1:
        for _ in range(max_iter):
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
    if worst > tol:
        raise ConvergenceError(
            f"bisection did not reach {tol} within {max_iter} steps (last residual {worst:.3g})",
            fractions=tuple(float(v) for v in y),
            residuals=tuple(float(r) for r in residuals),
        )
    return SolverResult(
        rank_fractions=RankVector(tuple(float(v) for v in y)),
        residuals=tuple(float(r) for r in residuals),
        iterations=iterations,
        method="quadrature-bisection",
        proposals_per_student=float(y.sum()),
        unmatched_fraction=float(y[-1] - accepted[-1]),
    )


def solve_general(
    config: MarketConfig,
    tol: float = 0.01,
    max_iter: int = 80,
    n_sim: int = 20_000,
    trials: int = 4,
    damping: float = 0.5,
    rng: np.random.Generator | None = None,
) -> SolverResult:
    """Solve the rank-fraction system for any signal model.

    For iid and Gaussian signals the acceptance rates come from the
    large-market model of ``_large_market_acceptance``.  They depend on the
    rank fractions y only through S = y_2 + ... + y_k, so the chain
    y_2 = 1 - p_1(S), y_(i+1) = y_i * (1 - p_r(S)) turns the system into
    the scalar equation S = G(S).  p_r * (S - G(S)) is the accepted mass
    p_1 + S * p_r, which rises with S, minus the matched fraction
    1 - (1 - p_1) * (1 - p_r)**(k-1), which falls, so the root is unique.
    It is bisected on [0, k - 1] down to rounding (method
    "quadrature-bisection"; ``iterations`` counts the bisection steps), and
    the residuals are deterministic and below 1e-12.  ``n_sim``, ``trials``,
    ``damping`` and ``rng`` are validated but unused on this path.

    For custom samplers the rates are estimated by ``estimate_acceptance``
    and the system is solved by damped iteration (method
    "damped-iteration"): y <- (1 - damping) * y + damping * T(y), where
    T(y) is the self-consistent chain of the rates estimated at y,
    projected onto [0, 1] and nonincreasing order.  Its residuals carry
    Monte Carlo noise of order the estimate's standard error, so ``tol``
    should not be set far below it.

    Raises ConvergenceError with the last iterate when the worst
    consistency gap is still above ``tol`` after ``max_iter`` steps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not 0 < damping <= 1:
        raise ValueError("damping must be in (0, 1]")
    _check_sampling(n_sim, trials)
    if config.signal.kind != "custom":
        return _solve_by_bisection(config, tol, max_iter)
    if rng is None:
        rng = make_rng(config.seed)
    k = config.k

    y = np.ones(k, dtype=np.float64)
    residuals = np.zeros(k, dtype=np.float64)
    for iteration in range(1, max_iter + 1):
        estimate = estimate_acceptance(y, config, n_sim=n_sim, trials=trials, rng=rng)
        accepted = np.asarray(estimate.fractions)
        # Self-consistent chain for the current acceptance estimates: each
        # rank carries the previous target minus its accepted fraction, so a
        # correction at one rank propagates through all later ones at once.
        target = np.empty(k, dtype=np.float64)
        target[0] = 1.0
        for i in range(1, k):
            target[i] = target[i - 1] - accepted[i - 1]
        np.clip(target, 0.0, 1.0, out=target)
        np.minimum.accumulate(target, out=target)
        residuals = y - target
        if np.abs(residuals).max() <= tol:
            unmatched = max(0.0, float(y[-1] - accepted[-1]))
            return SolverResult(
                rank_fractions=RankVector(tuple(float(v) for v in y)),
                residuals=tuple(float(r) for r in residuals),
                iterations=iteration,
                method="damped-iteration",
                proposals_per_student=float(y.sum()),
                unmatched_fraction=unmatched,
            )
        y = (1.0 - damping) * y + damping * target
        y[0] = 1.0

    raise ConvergenceError(
        f"no convergence to {tol} within {max_iter} iterations "
        f"(last residual {np.abs(residuals).max():.3g})",
        fractions=tuple(float(v) for v in y),
        residuals=tuple(float(r) for r in residuals),
    )
