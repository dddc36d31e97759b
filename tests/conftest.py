"""Shared helpers: random configurations and slow-path oracles.

The oracles are plain loops kept as references for the package's
vectorised code: a stability checker and the per-pair seeded-plan builder.
"""

from __future__ import annotations

import numpy as np
import pytest

from admitsim import MarketConfig, MarketInstance, Matching, SeededProposalPlan, SignalSpec
from admitsim.market import (
    _SWAP_ATTEMPTS,
    _throw_proposals,
    _validate_rank_fractions,
    make_rng,
)


def random_mixed_config(rng: np.random.Generator, max_n: int = 50) -> MarketConfig:
    """Random config over mixed ratios, capacities, list lengths, and shifts."""
    m_ratio = float(rng.choice([0.5, 1.0, 2.0]))
    while True:
        n = int(rng.integers(1, max_n + 1))
        if (m_ratio * n) == int(m_ratio * n) and m_ratio * n >= 1:
            break
    m = round(m_ratio * n)
    k = int(rng.integers(1, min(5, m) + 1))
    capacity = int(rng.integers(1, 3))
    delta = float(rng.choice([0.0, 2.0]))
    signal = SignalSpec.gaussian(delta) if delta else SignalSpec.iid()
    return MarketConfig(
        n=n,
        m_ratio=m_ratio,
        capacity=capacity,
        k=k,
        signal=signal,
        seed=int(rng.integers(2**63)),
    )


def random_tiny_config(rng: np.random.Generator, max_side: int = 7, max_k: int = 3) -> MarketConfig:
    """Small config suitable for exhaustive enumeration."""
    n = int(rng.integers(1, max_side + 1))
    m = int(rng.integers(1, max_side + 1))
    k = int(rng.integers(1, min(max_k, m) + 1))
    capacity = int(rng.integers(1, 3))
    delta = float(rng.choice([0.0, 2.0]))
    signal = SignalSpec.gaussian(delta) if delta else SignalSpec.iid()
    return MarketConfig(
        n=n,
        m_ratio=m / n,
        capacity=capacity,
        k=k,
        signal=signal,
        seed=int(rng.integers(2**63)),
    )


def brute_force_blocking_pairs(
    instance: MarketInstance, matching: Matching
) -> list[tuple[int, int]]:
    """Plain-loop stability oracle, independent of the package's checker.

    A pair (s, u) blocks when s applied to u, prefers u to her partner, and
    u either has a free seat or likes s more than its worst admitted
    student (by signal, tiebreak as in the instance).
    """
    n, k, cap = instance.n, instance.k, instance.capacity
    partner = matching.partner

    def uni_prefers(u: int, s1: int, s2: int) -> bool:
        r1 = instance.student_rank_of(s1, u)
        r2 = instance.student_rank_of(s2, u)
        assert r1 is not None and r2 is not None
        key1 = (-instance.signals[s1, r1 - 1], instance.tiebreaks[s1, r1 - 1])
        key2 = (-instance.signals[s2, r2 - 1], instance.tiebreaks[s2, r2 - 1])
        return key1 < key2

    pairs = []
    for s in range(n):
        own = [int(u) for u in instance.prefs[s]]
        current = int(partner[s])
        current_rank = own.index(current) if current >= 0 else k
        for r in range(current_rank):
            u = own[r]
            admitted = [t for t in range(n) if partner[t] == u]
            if len(admitted) < cap or any(uni_prefers(u, s, t) for t in admitted):
                pairs.append((s, u))
    return pairs


def seeded_plan_oracle(
    rank_fractions, config: MarketConfig, rng=None, slack=None
) -> SeededProposalPlan:
    """Per-pair loop form of ``build_seeded_plan``, with the same RNG calls.

    Every (proposal, student) pair of a rank is checked in index order
    against a set of the universities the student already holds; a clash
    swaps owners with a random other pair that stays valid both ways, or
    drops the pair after ``_SWAP_ATTEMPTS`` tries.
    """
    if rng is None:
        rng = make_rng(config.seed)
    n, m, k = config.n, config.m, config.k
    fractions = _validate_rank_fractions(rank_fractions, k)
    if slack is None:
        slack = float(n) ** 0.6
    counts = np.maximum(np.floor(fractions * n - slack), 0.0).astype(np.int64)
    prop_uni, prop_rank, prop_signal, prop_tiebreak, accepted = _throw_proposals(
        counts, m, config, rng
    )
    prop_rank += 1

    prop_student = np.full(prop_uni.size, -1, dtype=np.int64)
    inconsistent = np.zeros(n, dtype=bool)
    listed: list[set[int]] = [set() for _ in range(n)]

    offsets = np.concatenate(([0], np.cumsum(counts)))
    eligible = np.arange(n, dtype=np.int64)
    for i in range(k):
        props = np.arange(offsets[i], offsets[i + 1], dtype=np.int64)
        if eligible.size >= props.size:
            perm = rng.permutation(eligible.size)
            chosen = eligible[perm[: props.size]]
            inconsistent[eligible[perm[props.size:]]] = True
        else:
            acc = props[accepted[props]]
            rej = props[~accepted[props]]
            ordered = np.concatenate((rng.permutation(acc), rng.permutation(rej)))
            props = ordered[: eligible.size]
            chosen = rng.permutation(eligible)

        pair_props = [int(p) for p in props]
        pair_students = [int(s) for s in chosen]
        for idx in range(len(pair_props)):
            p, s = pair_props[idx], pair_students[idx]
            if prop_uni[p] not in listed[s]:
                continue
            for _ in range(_SWAP_ATTEMPTS):
                j = int(rng.integers(len(pair_props)))
                if j == idx:
                    continue
                p2, s2 = pair_props[j], pair_students[j]
                if prop_uni[p] not in listed[s2] and prop_uni[p2] not in listed[s]:
                    pair_students[idx], pair_students[j] = s2, s
                    break
            else:
                pair_students[idx] = -1
                inconsistent[s] = True

        next_eligible: list[int] = []
        for p, s in zip(pair_props, pair_students):
            if s < 0:
                continue
            prop_student[p] = s
            listed[s].add(int(prop_uni[p]))
            if not accepted[p]:
                next_eligible.append(s)
        eligible = np.asarray(sorted(next_eligible), dtype=np.int64)

    return SeededProposalPlan(
        config=config,
        rank_fractions=tuple(float(f) for f in fractions),
        slack=float(slack),
        proposal_uni=prop_uni,
        proposal_rank=prop_rank,
        proposal_signal=prop_signal,
        proposal_tiebreak=prop_tiebreak,
        proposal_accepted=accepted,
        proposal_student=prop_student,
        inconsistent=inconsistent,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
