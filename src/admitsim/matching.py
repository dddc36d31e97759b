"""Deferred-acceptance engines, stability checks, and match accounting."""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .market import MarketInstance, SeededProposalPlan

__all__ = [
    "InvalidMatchingError",
    "Matching",
    "BlockingPair",
    "RankProfile",
    "school_proposing_da",
    "student_proposing_da",
    "find_blocking_pairs",
    "rank_profile",
    "match_rank_indices",
    "seeded_matching",
    "continue_rejection_chains",
    "matching_to_csv",
]


class InvalidMatchingError(ValueError):
    """A matching breaks capacity or pairs a student with a school she never applied to."""


class Matching:
    """Capacity-respecting partial assignment of students to universities.

    ``partner[s]`` is the university matched to student ``s`` or -1.
    """

    __slots__ = ("partner", "n_universities")

    def __init__(self, partner: np.ndarray | Sequence[int], n_universities: int) -> None:
        arr = np.array(partner, dtype=np.int64, copy=True)
        if arr.ndim != 1:
            raise InvalidMatchingError("partner table must be one-dimensional")
        if arr.size and (arr.min() < -1 or arr.max() >= n_universities):
            raise InvalidMatchingError("university ids out of range")
        arr.setflags(write=False)
        self.partner = arr
        self.n_universities = int(n_universities)

    @property
    def n(self) -> int:
        return int(self.partner.size)

    @property
    def matched_count(self) -> int:
        return int((self.partner >= 0).sum())

    @property
    def assignment(self) -> dict[int, int]:
        return {int(s): int(u) for s, u in enumerate(self.partner) if u >= 0}

    def university_of(self, student: int) -> int | None:
        u = int(self.partner[student])
        return u if u >= 0 else None

    def students_of(self, university: int) -> tuple[int, ...]:
        return tuple(int(s) for s in np.flatnonzero(self.partner == university))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self.n_universities == other.n_universities and np.array_equal(
            self.partner, other.partner
        )

    def __repr__(self) -> str:
        return f"Matching(matched={self.matched_count}/{self.n})"


@dataclass(frozen=True)
class BlockingPair:
    student: int
    university: int


@dataclass(frozen=True)
class RankProfile:
    """Students matched at each preference rank, plus the unmatched count."""

    counts: tuple[int, ...]
    unmatched: int

    @property
    def total(self) -> int:
        return sum(self.counts) + self.unmatched

    @property
    def matched(self) -> int:
        return sum(self.counts)

    def fractions(self) -> tuple[float, ...]:
        return tuple(c / self.total for c in self.counts)


def match_rank_indices(instance: MarketInstance, matching: Matching) -> np.ndarray:
    """0-based rank of each student's partner on her own list; k if unmatched.

    Raises InvalidMatchingError when a matched pair has no application.
    """
    partner = matching.partner
    if partner.size != instance.n or matching.n_universities != instance.m:
        raise InvalidMatchingError("matching size does not fit the instance")
    eq = instance.prefs == partner[:, None]
    listed = eq.any(axis=1)
    matched = partner >= 0
    if bool((matched & ~listed).any()):
        bad = int(np.flatnonzero(matched & ~listed)[0])
        raise InvalidMatchingError(
            f"student {bad} is matched to a university she never applied to"
        )
    return np.where(matched, eq.argmax(axis=1), instance.k)


def school_proposing_da(
    instance: MarketInstance, order: Iterable[int] | None = None
) -> Matching:
    """University-proposing deferred acceptance over the applied pairs.

    Universities take turns (round-robin) making one offer each to their
    next-best applicant; students hold their best offer so far.  The
    resulting matching is university-optimal and does not depend on
    ``order``, which only fixes the initial turn sequence.
    """
    n, m, k, L = instance.n, instance.m, instance.k, instance.capacity
    if order is None:
        order_arr = np.arange(m)
    else:
        order_arr = np.asarray(list(order), dtype=np.int64)
        if order_arr.size != m or not np.array_equal(np.sort(order_arr), np.arange(m)):
            raise ValueError("order must be a permutation of all universities")

    uni_order = instance._uni_order
    offsets = instance._uni_offsets
    held_uni = np.full(n, -1, dtype=np.int64)
    held_rank = np.full(n, k, dtype=np.int64)
    ptr = offsets[:-1].copy()
    filled = np.zeros(m, dtype=np.int64)

    queue: deque[int] = deque(int(u) for u in order_arr if offsets[u + 1] > offsets[u])
    while queue:
        u = queue.popleft()
        if filled[u] >= L or ptr[u] >= offsets[u + 1]:
            continue
        flat = uni_order[ptr[u]]
        ptr[u] += 1
        s = int(flat // k)
        r = int(flat % k)
        if r < held_rank[s]:
            old = held_uni[s]
            if old >= 0:
                filled[old] -= 1
                queue.append(int(old))
            held_uni[s] = u
            held_rank[s] = r
            filled[u] += 1
        if filled[u] < L and ptr[u] < offsets[u + 1]:
            queue.append(u)
    return Matching(held_uni, m)


def _run_student_proposals(
    instance: MarketInstance,
    partner: np.ndarray,
    pointer: np.ndarray,
    heaps: list[list[tuple[int, int]]],
    filled: np.ndarray,
    queue: deque[int],
) -> None:
    """Advance student-proposing deferred acceptance until the queue drains.

    Heaps hold (-university_rank, student) so the worst current admit sits
    on top; entries are invalidated lazily when a student is unmatched
    externally.
    """
    prefs = instance.prefs
    uni_rank = instance.uni_rank
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
            r = int(uni_rank[s, p])
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


def student_proposing_da(instance: MarketInstance) -> Matching:
    """Student-proposing deferred acceptance over the applied pairs.

    Students rejected by all k listed schools stay unmatched.  The output
    is the student-optimal stable matching of the applied-pairs market.
    """
    n, m = instance.n, instance.m
    partner = np.full(n, -1, dtype=np.int64)
    pointer = np.zeros(n, dtype=np.int64)
    heaps: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    filled = np.zeros(m, dtype=np.int64)
    _run_student_proposals(instance, partner, pointer, heaps, filled, deque(range(n)))
    return Matching(partner, m)


def find_blocking_pairs(instance: MarketInstance, matching: Matching) -> list[BlockingPair]:
    """All applied pairs (s, u) where both sides would rather match each other.

    A pair blocks when s prefers u to her partner (or is unmatched) and u
    has a free seat or ranks s above its worst admitted student.  An empty
    result means the matching is stable over the applied pairs.
    """
    n, m, k, L = instance.n, instance.m, instance.k, instance.capacity
    ranks = match_rank_indices(instance, matching)
    partner = matching.partner
    matched = partner >= 0

    counts = np.bincount(partner[matched], minlength=m)
    if counts.size and counts.max(initial=0) > L:
        raise InvalidMatchingError("a university exceeds its capacity")
    worst = np.full(m, -1, dtype=np.int64)
    if matched.any():
        match_ranks = instance.uni_rank[np.flatnonzero(matched), ranks[matched]]
        np.maximum.at(worst, partner[matched], match_ranks)

    prefers = np.arange(k)[None, :] < ranks[:, None]
    targets = instance.prefs
    uni_side = (counts[targets] < L) | (instance.uni_rank < worst[targets])
    blocking = prefers & uni_side
    return [
        BlockingPair(int(s), int(instance.prefs[s, r]))
        for s, r in np.argwhere(blocking)
    ]


def rank_profile(instance: MarketInstance, matching: Matching) -> RankProfile:
    """Histogram of matched students by own-list rank, plus unmatched."""
    ranks = match_rank_indices(instance, matching)
    matched = ranks < instance.k
    counts = np.bincount(ranks[matched], minlength=instance.k)
    return RankProfile(
        counts=tuple(int(c) for c in counts[: instance.k]),
        unmatched=int(instance.n - matched.sum()),
    )


def seeded_matching(plan: SeededProposalPlan) -> Matching:
    """The matching that follows a plan's assigned accepted proposals."""
    return Matching(plan.accepted_partner_array(), plan.config.m)


def continue_rejection_chains(
    instance: MarketInstance, plan: SeededProposalPlan
) -> Matching:
    """Resume student-proposing deferred acceptance from a seeded plan.

    The assigned accepted proposals become the tentative matching, every
    student's proposal pointer starts after her assigned prefix, and each
    inconsistent student proposes down her remaining list.  Displacements
    cascade as usual, so the result is stable over the applied pairs.

    The instance must be the completion of the plan (see
    ``complete_instance``).
    """
    if plan.config != instance.config:
        raise ValueError("plan and instance were built from different configurations")
    n, m = instance.n, instance.m
    partner = plan.accepted_partner_array()
    pointer = plan.assigned_rank_counts().astype(np.int64)
    heaps: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    filled = np.zeros(m, dtype=np.int64)
    for s in np.flatnonzero(partner >= 0):
        u = int(partner[s])
        r = int(instance.uni_rank[s, pointer[s] - 1])
        heapq.heappush(heaps[u], (-r, int(s)))
        filled[u] += 1
    queue = deque(int(s) for s in np.flatnonzero(plan.inconsistent))
    _run_student_proposals(instance, partner, pointer, heaps, filled, queue)
    return Matching(partner, m)


def matching_to_csv(instance: MarketInstance, matching: Matching) -> str:
    """CSV rows (student_id, university_id, rank); NULL when unmatched."""
    ranks = match_rank_indices(instance, matching)
    lines = ["student_id,university_id,rank"]
    for s in range(instance.n):
        u = matching.partner[s]
        if u >= 0:
            lines.append(f"{s},{int(u)},{int(ranks[s]) + 1}")
        else:
            lines.append(f"{s},NULL,NULL")
    return "\n".join(lines) + "\n"
