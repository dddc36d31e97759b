"""Deferred acceptance, stability checks, and match accounting.

One round-based engine, ``_deferred_acceptance``, with its state in arrays,
serves both proposing sides and the rejection-chain repair of seeded plans.
"""

from __future__ import annotations

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

    def fractions(self) -> tuple[float, ...]:
        return tuple(c / self.total for c in self.counts)


def match_rank_indices(instance: MarketInstance, matching: Matching) -> np.ndarray:
    """0-based rank of each student's partner on her own list; k if unmatched.

    Raises InvalidMatchingError when a matched pair has no application.
    """
    partner = matching.partner
    if partner.size != instance.n or matching.n_universities != instance.m:
        raise InvalidMatchingError("matching size does not fit the instance")
    k = instance.k
    # lists are distinct and ids nonnegative: one hit per listed partner
    hits = np.flatnonzero(instance.prefs == partner[:, None])
    ranks = np.full(partner.size, k, dtype=np.int64)
    ranks[hits // k] = hits % k
    if hits.size < np.count_nonzero(partner >= 0):
        bad = int(np.flatnonzero((partner >= 0) & (ranks == k))[0])
        raise InvalidMatchingError(
            f"student {bad} is matched to a university she never applied to"
        )
    return ranks


def _deferred_acceptance(
    lists: np.ndarray,
    pos: np.ndarray,
    stop: np.ndarray,
    free: np.ndarray,
    proposer: np.ndarray,
    receiver: np.ndarray,
    held: np.ndarray,
    active: np.ndarray,
) -> np.ndarray:
    """Proposer-optimal deferred acceptance in rounds; returns the held offers.

    Offer ids sort by receiver, then by the receiver's preference.  Proposer
    ``p`` offers ``lists[pos[p]:stop[p]]`` in order, one per free slot
    (``free[p]``); receiver ``r`` holds ``held[r]`` (-1 is an empty seat).
    Each round every free slot of the ``active`` proposers offers to its
    next entry, each touched receiver keeps its best ``held.shape[1]``
    among holders and newcomers, and every offer let go frees a slot of
    its proposer, active next round: O(offers + holders touched) per round.
    A receiver with one seat keeps the least offer id it has seen (one
    ``minimum.at``); with several seats, one sort of holders and newcomers
    ranks them.  Any proposal order reaches the proposer-optimal stable
    matching (McVitie and Wilson 1971).  ``pos``, ``free``, ``held`` change
    in place.
    """
    capacity = held.shape[1]
    # with one slot each, no proposer offers or is let go twice in a round
    single = free.max(initial=0) <= 1
    if capacity == 1:
        # an empty seat holds offer id N, past every real offer, so any offer beats it
        empty = proposer.size
        best = held[:, 0]
        best[best < 0] = empty
    # latest[v]: index of the last v written; entries matching it pick each v once
    latest = np.empty(max(free.size, held.shape[0]), dtype=np.int64)
    while active.size:
        if single:
            active = active[pos[active] < stop[active]]
            first = pos[active]
            pos[active] = first + 1
            offers = lists[first]
        else:
            take = np.minimum(free[active], stop[active] - pos[active])
            active, take = active[take > 0], take[take > 0]
            first = pos[active]
            pos[active] = first + take
            free[active] -= take
            ends = np.cumsum(take)
            offers = lists[np.arange(take.sum()) + np.repeat(first - ends + take, take)]
        to = receiver[offers]
        if capacity == 1:
            prior = best[to]
            np.minimum.at(best, to, offers)
            # a kept newcomer lets its receiver's holder go, any other itself
            let_go = np.where(best[to] == offers, prior, offers)
            let_go = let_go[let_go != empty]
        else:
            # the newcomers and the holders of each receiver they reach, best first
            ids = np.arange(offers.size)
            latest[to] = ids
            holders = held[to[latest[to] == ids]].ravel()
            cand = np.sort(np.concatenate((offers, holders[holders >= 0])))
            to = receiver[cand]
            ids = np.arange(cand.size)
            opens = np.ones(cand.size, dtype=bool)
            opens[1:] = to[1:] != to[:-1]
            seat = ids - np.maximum.accumulate(np.where(opens, ids, 0))
            kept = seat < capacity
            held[to] = -1
            held[to[kept], seat[kept]] = cand[kept]
            let_go = cand[~kept]
        active = proposer[let_go]
        if not single:
            np.add.at(free, active, 1)
            latest[active] = np.arange(active.size)
            active = active[latest[active] == np.arange(active.size)]
    if capacity == 1:
        best[best == empty] = -1
    return held[held >= 0]


def _matching(instance: MarketInstance, apps: np.ndarray) -> Matching:
    """The matching that pairs the student and university of each application id."""
    partner = np.full(instance.n, -1, dtype=np.int64)
    partner[apps // instance.k] = instance.prefs.ravel()[apps]
    return Matching(partner, instance.m)


def school_proposing_da(
    instance: MarketInstance, order: Iterable[int] | None = None
) -> Matching:
    """University-proposing deferred acceptance over the applied pairs.

    Each university offers its seats down its applicants by signal; each
    student keeps her best offer so far.  The resulting matching is
    university-optimal and does not depend on ``order``, which only sets
    the order of the first round's offers.
    """
    n, m, k = instance.n, instance.m, instance.k
    first = np.arange(m) if order is None else np.asarray(list(order), dtype=np.int64)
    if order is not None and not np.array_equal(np.sort(first), np.arange(m)):
        raise ValueError("order must be a permutation of all universities")
    # offers are application ids s*k + r: by student, then by her own rank
    offsets = instance._uni_offsets
    held = _deferred_acceptance(
        instance._uni_order, offsets[:-1].copy(), offsets[1:], np.full(m, instance.capacity),
        proposer=instance.prefs.ravel(), receiver=np.arange(n * k) // k,
        held=np.full((n, 1), -1), active=first,
    )
    return _matching(instance, held)


def _students_propose(
    instance: MarketInstance, first_rank: np.ndarray | int, holds: np.ndarray | None = None
) -> Matching:
    """Student-proposing deferred acceptance, student s starting at ``first_rank[s]``.

    Students flagged in ``holds`` are already kept at their first entry:
    their seats are filled in one pass, at most ``capacity`` per
    university, and only the other students with ranks left propose.
    """
    n, m, k = instance.n, instance.m, instance.k
    # offers are positions in the universities' merged preference order
    by_uni = instance._uni_order
    lists = np.empty(n * k, dtype=np.int64)
    lists[by_uni] = np.arange(n * k)
    receiver = instance.prefs.ravel()[by_uni]
    pos = np.arange(0, n * k, k) + first_rank
    stop = np.arange(k, n * k + 1, k)
    free = np.ones(n, dtype=np.int64)
    held = np.full((m, instance.capacity), -1)
    if holds is not None:
        seated = lists[pos[holds]]
        for seat in range(instance.capacity):
            held[receiver[seated], seat] = seated
            seated = seated[held[receiver[seated], seat] != seated]
        if seated.size:
            raise ValueError("more holds than seats at a university")
        pos[holds] += 1
        free[holds] = 0
    held = _deferred_acceptance(
        lists, pos, stop, free, proposer=by_uni // k, receiver=receiver, held=held,
        active=np.flatnonzero(free & (pos < stop)),
    )
    return _matching(instance, by_uni[held])


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
    m, k, L = instance.m, instance.k, instance.capacity
    ranks = match_rank_indices(instance, matching)
    partner = matching.partner
    matched = np.flatnonzero(partner >= 0)

    counts = np.bincount(partner[matched], minlength=m)
    if counts.max(initial=0) > L:
        raise InvalidMatchingError("a university exceeds its capacity")
    # a university takes any applicant while a seat is free, else one it
    # ranks above its worst admitted student
    worst = np.full(m, -1, dtype=np.int64)
    np.maximum.at(worst, partner[matched], instance.uni_rank.ravel()[matched * k + ranks[matched]])
    threshold = np.where(counts < L, np.iinfo(np.int64).max, worst)

    prefers = np.arange(k) < ranks[:, None]
    blocking = np.flatnonzero(prefers & (instance.uni_rank < threshold[instance.prefs]))
    unis = instance.prefs.ravel()[blocking]
    return [BlockingPair(int(s), int(u)) for s, u in zip(blocking // k, unis)]


def rank_profile(instance: MarketInstance, matching: Matching) -> RankProfile:
    """Histogram of matched students by own-list rank, plus unmatched."""
    ranks = match_rank_indices(instance, matching)
    matched = ranks < instance.k
    counts = np.bincount(ranks[matched], minlength=instance.k)
    return RankProfile(
        counts=tuple(int(c) for c in counts[: instance.k]),
        unmatched=int(instance.n - matched.sum()),
    )


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
    return _students_propose(instance, plan.assigned_rank_counts() - holds, holds)


def matching_to_csv(instance: MarketInstance, matching: Matching) -> str:
    """CSV rows (student_id, university_id, rank); NULL when unmatched."""
    ranks = (match_rank_indices(instance, matching) + 1).tolist()
    lines = ["student_id,university_id,rank"]
    lines.extend(
        f"{s},{u},{rank}" if u >= 0 else f"{s},NULL,NULL"
        for s, (u, rank) in enumerate(zip(matching.partner.tolist(), ranks))
    )
    return "\n".join(lines) + "\n"
