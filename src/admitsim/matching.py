"""Deferred acceptance, stability checks, and match accounting.

One round-based engine, ``_deferred_acceptance``, with its state in arrays,
serves both proposing sides and the rejection-chain repair of seeded plans.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .market import _CHUNK, MarketInstance, SeededProposalPlan, _convert, _id_table

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
]


class InvalidMatchingError(ValueError):
    """A matching breaks capacity or pairs a student with a school she never applied to."""


class Matching:
    """Capacity-respecting partial assignment of students to universities.

    ``partner[s]`` is the university matched to student ``s`` or -1.
    """

    __slots__ = ("partner", "n_universities")

    def __init__(self, partner: np.ndarray | Sequence[int], n_universities: int) -> None:
        arr = _id_table("partner table", partner, InvalidMatchingError).astype(np.int64)
        n_universities = _convert(int, "n_universities", n_universities, InvalidMatchingError)
        if n_universities < 0:
            raise InvalidMatchingError(f"n_universities must be nonnegative, got {n_universities}")
        if arr.ndim != 1:
            raise InvalidMatchingError("partner table must be one-dimensional")
        if arr.size and (arr.min() < -1 or arr.max() >= n_universities):
            raise InvalidMatchingError("university ids out of range")
        arr.setflags(write=False)
        self.partner = arr
        self.n_universities = n_universities

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
    # lists are distinct and ids nonnegative: one hit per listed partner;
    # partners are ids below m, so they compare in the lists' own dtype
    hits = np.flatnonzero(instance.prefs == partner.astype(instance.prefs.dtype)[:, None])
    ranks = np.full(partner.size, k, dtype=np.int64)
    ranks[hits // k] = hits % k
    if hits.size < np.count_nonzero(partner >= 0):
        bad = int(np.flatnonzero((partner >= 0) & (ranks == k))[0])
        raise InvalidMatchingError(
            f"student {bad} is matched to a university she never applied to"
        )
    return ranks


def _seats(to: np.ndarray) -> np.ndarray:
    """Index of each entry of a sorted receiver array within its run, in ``to``'s dtype."""
    start = np.arange(to.size, dtype=to.dtype)
    start[1:] *= to[1:] != to[:-1]  # a run's first index, else 0
    np.maximum.accumulate(start, out=start)
    return np.subtract(np.arange(to.size, dtype=to.dtype), start, out=start)


def _ids(table: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``table[at]`` as intp, the dtype that indexes fastest.

    A market's N-sized id tables may be int32 (``market._id_dtype``), and
    two numpy costs rule how the engine reads them: indexing with an int32
    index array runs about 25% slower than with an intp one (a scatter 30%),
    and ``ufunc.at`` about 30x slower when its values' dtype is not its
    target's.  So each round gathers its offers and their applications with
    ``take``, casts them to intp once, and keeps ``best`` and ``held`` int64.
    """
    return table.take(at).astype(np.intp, copy=False)


def _deferred_acceptance(
    instance: MarketInstance, students: bool, pos: np.ndarray, stop: np.ndarray,
    free: np.ndarray, held: np.ndarray, active: np.ndarray,
) -> np.ndarray:
    """Proposer-optimal deferred acceptance in rounds; returns the held offers.

    Students propose if ``students``, else universities.  An offer names an
    application a = s*k + r: a university's offer id is a, from ``_uni_order``,
    a student's is a's place, from ``_uni_place``, so ids sort by receiver,
    then by the receiver's preference.  Receivers and proposers, student
    a // k and university ``prefs.ravel()[a]``, are read per offer: no
    N-sized map.  Proposer ``p`` offers entries ``pos[p]`` to ``stop[p]`` in
    order, one per free slot (``free[p]``, a count or flag); receiver ``r``
    holds ``held[r]`` (-1 is an empty seat).  Each round every free slot of
    the ``active`` proposers offers to its next entry, each touched receiver
    keeps its best ``held.shape[1]`` among holders and newcomers, and every
    offer let go frees a slot of its proposer, active next round:
    O(offers + holders touched) per round.  A receiver with one seat keeps
    the least offer id it has seen (one ``minimum.at``); with several seats,
    one sort of holders and newcomers ranks them.  Any proposal order
    reaches the proposer-optimal stable matching (McVitie and Wilson 1971).
    A round drops each of its arrays once read.  ``pos``, ``held`` (int64)
    and ``free`` change in place; ``stop`` holds ids or int64.
    """
    k, unis, by_uni = instance.k, instance.prefs.ravel(), instance._uni_order
    lists = instance._uni_place if students else by_uni

    def student(offers: np.ndarray) -> np.ndarray:
        return (_ids(by_uni, offers) if students else offers) // k

    def university(offers: np.ndarray) -> np.ndarray:
        return _ids(unis, _ids(by_uni, offers) if students else offers)

    receiver, proposer = (university, student) if students else (student, university)
    capacity = held.shape[1]
    # with one slot each, no proposer offers or is let go twice in a round
    single = free.max(initial=0) <= 1
    if capacity == 1:
        # an empty seat holds offer id N, past every real offer, so any offer beats it
        empty = unis.size
        best = held[:, 0]
        best[best < 0] = empty
    if not single or capacity > 1:
        # latest[v]: index of the last v written; entries matching it pick each v once
        latest = np.empty(held.shape[0] if single else max(free.size, held.shape[0]), np.int64)
    while active.size:
        if single:
            active = active[pos[active] < stop[active]]
            at = pos[active]
            pos[active] = at + 1
        else:
            take = np.minimum(free[active], stop[active] - pos[active])
            active, take = active[take > 0], take[take > 0]
            pos[active] += take
            free[active] -= take
            ends = np.cumsum(take)
            at = np.arange(take.sum()) + np.repeat(pos[active] - ends, take)
        offers = _ids(lists, at)
        del active, at
        to = receiver(offers)
        if capacity == 1:
            prior = best[to]
            np.minimum.at(best, to, offers)
            # a kept newcomer lets its receiver's holder go, any other itself
            np.putmask(offers, best[to] == offers, prior)
            let_go = offers[offers != empty]
            del to, prior, offers
        else:
            # the newcomers and the holders of each receiver they reach, best first
            latest[to] = np.arange(offers.size)
            holders = held[to[latest[to] == np.arange(offers.size)]].ravel()
            cand = np.concatenate((offers, holders[holders >= 0]))
            del offers, holders
            cand.sort()
            to = receiver(cand)
            seat = _seats(to)
            kept = seat < capacity
            held[to] = -1
            held[to[kept], seat[kept]] = cand[kept]
            let_go = cand[~kept]
            del to, seat, kept, cand
        active = proposer(let_go)
        del let_go
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
    m = instance.m
    first = np.arange(m) if order is None else _id_table("order", list(order), ValueError)
    if order is not None and not np.array_equal(np.sort(first), np.arange(m)):
        raise ValueError("order must be a permutation of all universities")
    return _matching(instance, _deferred_acceptance(
        instance, False, instance._uni_offsets[:-1].copy(), instance._uni_offsets[1:],
        np.full(m, instance.capacity), held=np.full((instance.n, 1), -1), active=first,
    ))


def _students_propose(instance: MarketInstance, pos: np.ndarray, holds: np.ndarray) -> np.ndarray:
    """The applications held when each student s proposes from her rank
    ``pos[s]`` on; ``pos`` (int64) turns into her position in place.

    Students flagged in ``holds`` are already kept at their first entry:
    one sort of their places seats them, at most ``capacity`` per
    university, and only the other students with ranks left propose.
    """
    n, m, k = instance.n, instance.m, instance.k
    stop = np.arange(k, n * k + 1, k, dtype=instance.prefs.dtype)  # ids: N fits
    pos += stop - k
    held = np.full((m, instance.capacity), -1)
    seated = np.sort(instance._uni_place[pos[holds]])
    to = instance.prefs.ravel()[instance._uni_order[seated]]
    seat = _seats(to)
    if seat.max(initial=0) >= instance.capacity:
        raise ValueError("more holds than seats at a university")
    held[to, seat] = seated
    del seated, to, seat  # not alive through the rounds
    pos[holds] += 1
    free = ~holds  # one slot each
    return instance._uni_order[_deferred_acceptance(
        instance, True, pos, stop, free, held=held, active=np.flatnonzero(free & (pos < stop))
    )]


def student_proposing_da(instance: MarketInstance) -> Matching:
    """Student-proposing deferred acceptance over the applied pairs.

    Students rejected by all k listed schools stay unmatched.  The output
    is the student-optimal stable matching of the applied-pairs market.
    """
    start = np.zeros(instance.n, dtype=np.int64)
    return _matching(instance, _students_propose(instance, start, np.zeros(instance.n, bool)))


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
    # ranks above its worst admitted student; places order one university's
    # applications as its ranks do; ``worst`` takes the places' dtype, which
    # ``maximum.at`` needs to run fast (see ``_ids``)
    place = instance._uni_place
    worst = np.full(m, -1, dtype=place.dtype)
    np.maximum.at(worst, partner[matched], place[matched * k + ranks[matched]])
    worst[counts < L] = np.iinfo(place.dtype).max

    # row r flags ranks below r: only cells where s prefers u to her partner read worst
    tri, found = np.tri(k + 1, k, -1, dtype=bool), []
    for lo in range(0, ranks.size, _CHUNK):  # by students, so the cells' scratch is chunk-sized
        cells = np.flatnonzero(tri.take(ranks[lo : lo + _CHUNK], axis=0)) + lo * k
        unis = instance.prefs.ravel().take(cells)
        blocks = place.take(cells) < worst.take(unis)
        found += [BlockingPair(int(s), int(u)) for s, u in zip(cells[blocks] // k, unis[blocks])]
    return found


def _block_records(instance: MarketInstance, matching: Matching, blocks: int) -> np.ndarray:
    """The (blocks, k + 1) rank-count table of a stacked instance (see
    ``market._sample_stack``): row b counts block b's students matched at each
    rank, then its unmatched ones, all from one bincount over block-offset ranks.
    """
    k, n = instance.k, instance.n // blocks
    ranks = match_rank_indices(instance, matching)
    if blocks > 1:  # entry k of each block's row counts its unmatched students
        ranks += (k + 1) * (np.arange(instance.n) // n)
    return np.bincount(ranks, minlength=blocks * (k + 1)).reshape(blocks, k + 1)


def rank_profile(instance: MarketInstance, matching: Matching) -> RankProfile:
    """Histogram of matched students by own-list rank, plus unmatched."""
    *counts, unmatched = _block_records(instance, matching, 1)[0].tolist()
    return RankProfile(counts=tuple(counts), unmatched=unmatched)


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
    holds = np.zeros(instance.n, dtype=bool)
    holds[plan.proposal_student[plan.proposal_accepted & (plan.proposal_student >= 0)]] = True
    first_rank = plan.assigned_rank_counts() - holds
    return _matching(instance, _students_propose(instance, first_rank, holds))
