"""Deferred acceptance, stability checks, and match accounting.

One proposal loop, ``_deferred_acceptance``, serves both proposing sides
and the rejection-chain repair of seeded plans.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain

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


def _deferred_acceptance(
    instance: MarketInstance,
    lists: np.ndarray,
    start: np.ndarray,
    stop: np.ndarray,
    quota: int,
    proposer: np.ndarray,
    receiver: np.ndarray,
    key: np.ndarray,
    capacity: int,
    turns: Iterable[int],
) -> Matching:
    """Proposer-optimal deferred acceptance over application ids ``e = s*k + r``.

    Proposer ``p`` offers the applications ``lists[start[p]:stop[p]]`` in
    order while it has free slots, ``quota`` at first.  The receiver of
    offer ``e`` keeps the ``capacity`` offers with the lowest ``key[e]``;
    each offer it lets go frees a slot of its proposer, which resumes at
    once.  Proposers enter in ``turns`` order, but the outcome is the
    proposer-optimal stable matching whatever the order (McVitie and
    Wilson 1971).  No proposer offers one receiver twice, so an offer never
    displaces another of its own proposer's.
    """
    n_apps = instance.n * instance.k
    # A receiver's heap holds -(key*N + e): its worst kept offer sits on top.
    heaps: list[list[int]] = [[] for _ in range(int(receiver.max(initial=-1)) + 1)]
    # memoryviews read and write Python ints in place: no list copies of the arrays
    pos = memoryview(np.array(start, dtype=np.int64))
    free = memoryview(np.full(pos.shape[0], quota, dtype=np.int64))
    end, lists, proposer, receiver, key = (
        memoryview(np.ascontiguousarray(a, dtype=np.int64))
        for a in (stop, lists, proposer, receiver, key)
    )
    pending: list[int] = []
    for first in turns:
        pending.append(first)
        while pending:
            p = pending.pop()
            i, last, slots = pos[p], end[p], free[p]
            while slots and i < last:
                e = lists[i]
                i += 1
                heap = heaps[receiver[e]]
                entry = -(key[e] * n_apps + e)
                if len(heap) < capacity:
                    heapq.heappush(heap, entry)
                    slots -= 1
                elif entry > heap[0]:
                    loser = proposer[-heapq.heapreplace(heap, entry) % n_apps]
                    slots -= 1
                    free[loser] += 1
                    pending.append(loser)
            pos[p], free[p] = i, slots
    held = -np.fromiter(chain.from_iterable(heaps), dtype=np.int64) % n_apps
    partner = np.full(instance.n, -1, dtype=np.int64)
    partner[held // instance.k] = instance.prefs.ravel()[held]
    return Matching(partner, instance.m)


def school_proposing_da(
    instance: MarketInstance, order: Iterable[int] | None = None
) -> Matching:
    """University-proposing deferred acceptance over the applied pairs.

    Each university offers its seats down its applicants by signal; each
    student keeps her best offer so far.  The resulting matching is
    university-optimal and does not depend on ``order``, which only fixes
    the order in which universities first take their turn.
    """
    m, k = instance.m, instance.k
    if order is None:
        turns: Iterable[int] = range(m)
    else:
        order_arr = np.asarray(list(order), dtype=np.int64)
        if order_arr.size != m or not np.array_equal(np.sort(order_arr), np.arange(m)):
            raise ValueError("order must be a permutation of all universities")
        turns = order_arr.tolist()
    apps = np.arange(instance.n * k)
    offsets = instance._uni_offsets
    return _deferred_acceptance(
        instance, instance._uni_order, offsets[:-1], offsets[1:], quota=instance.capacity,
        proposer=instance.prefs.ravel(), receiver=apps // k, key=apps % k, capacity=1,
        turns=turns,
    )


def _students_propose(instance: MarketInstance, first_rank: np.ndarray | int) -> Matching:
    """Student-proposing deferred acceptance, student s starting at ``first_rank[s]``."""
    n, k = instance.n, instance.k
    apps = np.arange(n * k)
    return _deferred_acceptance(
        instance, apps, apps[::k] + first_rank, apps[::k] + k, quota=1,
        proposer=apps // k, receiver=instance.prefs.ravel(), key=instance.uni_rank.ravel(),
        capacity=instance.capacity, turns=range(n),
    )


def student_proposing_da(instance: MarketInstance) -> Matching:
    """Student-proposing deferred acceptance over the applied pairs.

    Students rejected by all k listed schools stay unmatched.  The output
    is the student-optimal stable matching of the applied-pairs market.
    """
    return _students_propose(instance, 0)


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

    Every student's list is cut to what she has not yet been refused: a
    student holding an accepted proposal starts at it, every other student
    after her assigned prefix.  Each university holds at most ``capacity``
    accepted proposals, so when the holders propose first the seeded
    matching is the tentative one, and the inconsistent students' proposals
    then cascade as usual.  The result is stable over the applied pairs.

    The instance must be the completion of the plan (see
    ``complete_instance``).
    """
    if plan.config != instance.config:
        raise ValueError("plan and instance were built from different configurations")
    holds = plan.accepted_partner_array() >= 0
    return _students_propose(instance, plan.assigned_rank_counts() - holds)


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
