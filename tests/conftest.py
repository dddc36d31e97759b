"""Shared helpers: random configurations and slow-path oracles.

The oracles are plain loops kept as references for the package's
vectorised code: a stability checker, a brute-force enumerator of every
stable matching of a tiny market, the per-pair seeded-plan builder, the
scan that finds a list's next university, and the hand-written
deferred-acceptance loops (a round-robin queue of universities, a heap
loop over students, and the rejection-chain repair that seeds that loop's
state from a plan).  The oracles rank applications themselves, with
``university_ranks``, from the raw preference, signal and tiebreak tables:
none of them reads a ranking that the package computed.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable

import numpy as np
import pytest

from admitsim import MarketConfig, MarketInstance, Matching, SeededProposalPlan, SignalSpec
from admitsim.market import (
    _SWAP_ATTEMPTS,
    _throw_proposals,
    _validate_rank_fractions,
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
        r1 = instance.prefs[s1].tolist().index(u)
        r2 = instance.prefs[s2].tolist().index(u)
        key1 = (-instance.signals[s1, r1], instance.tiebreaks[s1, r1])
        key2 = (-instance.signals[s2, r2], instance.tiebreaks[s2, r2])
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


def university_ranks(instance: MarketInstance) -> list[list[int]]:
    """``ranks[s][r]``: the 0-based rank of application (s, r) at its university.

    Each university sorts its applications by (-signal, tiebreak, s*k + r),
    the order of ``np.lexsort((tiebreaks, -signals, universities))`` when
    the signals are finite; NaN signals have no such order here.
    """
    k = instance.k
    applications: list[list[tuple[float, float, int]]] = [[] for _ in range(instance.m)]
    for s, (row, signals, ties) in enumerate(
        zip(instance.prefs.tolist(), instance.signals.tolist(), instance.tiebreaks.tolist())
    ):
        for r in range(k):
            applications[row[r]].append((-signals[r], ties[r], s * k + r))
    ranks = [[0] * k for _ in range(instance.n)]
    for group in applications:
        for rank, (_, _, flat) in enumerate(sorted(group)):
            ranks[flat // k][flat % k] = rank
    return ranks


_ENUM_LIMIT = 10


def nth_unlisted(row_prefix: Iterable[int], x: int, m: int) -> int:
    """The x-th (from 0) university in id order, of 0..m-1, that ``row_prefix`` does not list.

    Walks the listed universities upward: each one at or below the answer
    so far pushes it up by one.
    """
    answer = x
    for listed in sorted(row_prefix):
        if listed <= answer:
            answer += 1
    assert 0 <= x and answer < m, "fewer than x + 1 universities are unlisted"
    return answer


class MarketSizeError(ValueError):
    """The instance is too large for exhaustive enumeration."""


def enumerate_stable_matchings(instance: MarketInstance) -> list[Matching]:
    """Every capacity-respecting stable matching over the applied pairs.

    Exhaustive search, guarded to n <= 10 and m <= 10.
    """
    n, m, k, L = instance.n, instance.m, instance.k, instance.capacity
    if n > _ENUM_LIMIT or m > _ENUM_LIMIT:
        raise MarketSizeError(
            f"enumeration is limited to {_ENUM_LIMIT} students/universities"
        )
    prefs = instance.prefs.tolist()
    ranks = university_ranks(instance)

    assign = [-1] * n
    free = [L] * m
    results: list[Matching] = []

    def is_stable() -> bool:
        counts = [0] * m
        worst = [-1] * m
        own_rank = [k] * n
        for s in range(n):
            u = assign[s]
            if u < 0:
                continue
            r = prefs[s].index(u)
            own_rank[s] = r
            counts[u] += 1
            if ranks[s][r] > worst[u]:
                worst[u] = ranks[s][r]
        for s in range(n):
            for r in range(own_rank[s]):
                u = prefs[s][r]
                if counts[u] < L or ranks[s][r] < worst[u]:
                    return False
        return True

    def recurse(s: int) -> None:
        if s == n:
            if is_stable():
                results.append(Matching(assign, m))
            return
        assign[s] = -1
        recurse(s + 1)
        for r in range(k):
            u = prefs[s][r]
            if free[u] == 0:
                continue
            assign[s] = u
            free[u] -= 1
            recurse(s + 1)
            free[u] += 1
        assign[s] = -1

    recurse(0)
    return results


def stable_partner_sets(
    instance: MarketInstance, matchings: list[Matching] | None = None
) -> dict[int, set[int]]:
    """For each university, the students matched to it in some stable matching."""
    if matchings is None:
        matchings = enumerate_stable_matchings(instance)
    sets: dict[int, set[int]] = {u: set() for u in range(instance.m)}
    for matching in matchings:
        for s, u in enumerate(matching.partner):
            if u >= 0:
                sets[int(u)].add(int(s))
    return sets


def own_ranks(instance: MarketInstance, matching: Matching) -> list[int]:
    """0-based rank of each student's partner on her own list; k if unmatched."""
    return [
        instance.prefs[s].tolist().index(u) if u >= 0 else instance.k
        for s, u in enumerate(matching.partner.tolist())
    ]


def students_of(matching: Matching, university: int) -> set[int]:
    return {int(s) for s in np.flatnonzero(matching.partner == university)}


def seeded_plan_oracle(
    rank_fractions, config: MarketConfig, rng=None, slack=None, stats=None
) -> SeededProposalPlan:
    """Per-pair loop form of ``build_seeded_plan``, with the same RNG calls.

    Every (proposal, student) pair of a rank is checked in index order
    against a set of the universities the student already holds; a clash
    swaps owners with a random other pair that stays valid both ways (a
    dropped pair is never a partner), or drops the pair after
    ``_SWAP_ATTEMPTS`` tries.  ``stats``, a dict, counts in
    ``"failed_partners"`` the draws of a dropped pair as partner and in
    ``"dropped"`` the dropped pairs; every pair left without a student must
    be one of those.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n, m, k = config.n, config.m, config.k
    fractions = _validate_rank_fractions(rank_fractions, k)
    if slack is None:
        slack = float(n) ** 0.6
    counts = np.maximum(np.floor(fractions * n - slack), 0.0).astype(np.int64)
    prop_uni, prop_rank, prop_signal, prop_tiebreak, accepted = _throw_proposals(
        counts, m, config, rng
    )
    prop_rank += 1

    prop_student = np.full(prop_uni.size, -1, dtype=prop_uni.dtype)  # the market's id dtype
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
        dropped: set[int] = set()
        for idx in range(len(pair_props)):
            p, s = pair_props[idx], pair_students[idx]
            if prop_uni[p] not in listed[s]:
                continue
            for _ in range(_SWAP_ATTEMPTS):
                j = int(rng.integers(len(pair_props)))
                p2, s2 = pair_props[j], pair_students[j]
                if j == idx or s2 < 0:
                    if stats is not None and s2 < 0:
                        stats["failed_partners"] += 1
                    continue
                if prop_uni[p] not in listed[s2] and prop_uni[p2] not in listed[s]:
                    pair_students[idx], pair_students[j] = s2, s
                    break
            else:
                pair_students[idx] = -1
                inconsistent[s] = True
                dropped.add(idx)
        # a pair whose student is valid keeps one
        assert {i for i, s in enumerate(pair_students) if s < 0} == dropped

        next_eligible: list[int] = []
        for p, s in zip(pair_props, pair_students):
            if s < 0:
                continue
            prop_student[p] = s
            listed[s].add(int(prop_uni[p]))
            if not accepted[p]:
                next_eligible.append(s)
        eligible = np.asarray(sorted(next_eligible), dtype=np.int64)
        if stats is not None:
            stats["dropped"] += len(dropped)

    return SeededProposalPlan(
        config=config,
        proposal_uni=prop_uni,
        proposal_rank=prop_rank,
        proposal_signal=prop_signal,
        proposal_tiebreak=prop_tiebreak,
        proposal_accepted=accepted,
        proposal_student=prop_student,
        inconsistent=inconsistent,
    )


def school_proposing_oracle(
    instance: MarketInstance, order: Iterable[int] | None = None
) -> Matching:
    """University-proposing deferred acceptance as a round-robin queue.

    Universities take turns making one offer each to their next-best
    applicant; students hold their best offer so far.
    """
    n, m, k, L = instance.n, instance.m, instance.k, instance.capacity
    order_arr = np.arange(m) if order is None else np.asarray(list(order), dtype=np.int64)
    ranks = university_ranks(instance)
    applicants: list[list[tuple[int, int, int]]] = [[] for _ in range(m)]
    for s, row in enumerate(instance.prefs.tolist()):
        for r, u in enumerate(row):
            applicants[u].append((ranks[s][r], s, r))
    for group in applicants:
        group.sort()
    held_uni = np.full(n, -1, dtype=np.int64)
    held_rank = np.full(n, k, dtype=np.int64)
    ptr = [0] * m
    filled = np.zeros(m, dtype=np.int64)

    queue: deque[int] = deque(int(u) for u in order_arr if applicants[u])
    while queue:
        u = queue.popleft()
        if filled[u] >= L or ptr[u] >= len(applicants[u]):
            continue
        _, s, r = applicants[u][ptr[u]]
        ptr[u] += 1
        if r < held_rank[s]:
            old = held_uni[s]
            if old >= 0:
                filled[old] -= 1
                queue.append(int(old))
            held_uni[s] = u
            held_rank[s] = r
            filled[u] += 1
        if filled[u] < L and ptr[u] < len(applicants[u]):
            queue.append(u)
    return Matching(held_uni, m)


def _run_student_proposals_oracle(
    instance: MarketInstance,
    ranks: list[list[int]],
    partner: np.ndarray,
    pointer: np.ndarray,
    heaps: list[list[tuple[int, int]]],
    filled: np.ndarray,
    queue: deque[int],
) -> None:
    """Advance student-proposing deferred acceptance until the queue drains.

    Heaps hold (-university_rank, student) so the worst current admit sits
    on top; entries are invalidated lazily when a student is unmatched
    externally.  ``ranks`` is ``university_ranks(instance)``.
    """
    prefs = instance.prefs
    k, L = instance.k, instance.capacity
    while queue:
        s = queue.popleft()
        if partner[s] != -1:
            continue
        while True:
            p = pointer[s]
            if p >= k:
                break
            pointer[s] = p + 1
            u = int(prefs[s, p])
            r = ranks[s][p]
            if filled[u] < L:
                heapq.heappush(heaps[u], (-r, s))
                filled[u] += 1
                partner[s] = u
                break
            heap = heaps[u]
            while heap and partner[heap[0][1]] != u:
                heapq.heappop(heap)
            neg_worst, worst_s = heap[0]
            if r < -neg_worst:
                heapq.heapreplace(heap, (-r, s))
                partner[s] = u
                partner[worst_s] = -1
                s = worst_s
            # otherwise rejected: the same student tries her next school


def student_proposing_oracle(instance: MarketInstance) -> Matching:
    """Student-proposing deferred acceptance with one heap per university."""
    n, m = instance.n, instance.m
    partner = np.full(n, -1, dtype=np.int64)
    pointer = np.zeros(n, dtype=np.int64)
    heaps: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    filled = np.zeros(m, dtype=np.int64)
    _run_student_proposals_oracle(
        instance, university_ranks(instance), partner, pointer, heaps, filled, deque(range(n))
    )
    return Matching(partner, m)


def rejection_chains_oracle(instance: MarketInstance, plan: SeededProposalPlan) -> Matching:
    """Rejection-chain repair that seeds the student loop's state by hand.

    One pass over the plan's proposals: every assigned proposal moves its
    student's pointer past its rank, and an accepted one seats her in its
    university's heap.  Then the inconsistent students are queued.
    """
    n, m = instance.n, instance.m
    ranks = university_ranks(instance)
    partner = np.full(n, -1, dtype=np.int64)
    pointer = np.zeros(n, dtype=np.int64)
    heaps: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    filled = np.zeros(m, dtype=np.int64)
    proposals = zip(plan.proposal_student.tolist(), plan.proposal_uni.tolist(),
                    plan.proposal_rank.tolist(), plan.proposal_accepted.tolist())
    for s, u, rank, accepted in proposals:
        if s < 0:
            continue
        pointer[s] = max(pointer[s], rank)  # ranks are 1-based: the next one to propose
        if accepted:
            partner[s] = u
            heapq.heappush(heaps[u], (-ranks[s][rank - 1], s))
            filled[u] += 1
    queue = deque(int(s) for s in np.flatnonzero(plan.inconsistent))
    _run_student_proposals_oracle(instance, ranks, partner, pointer, heaps, filled, queue)
    return Matching(partner, m)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
