"""Detecting universities with more stable partners than seats.

The decision compares the two extreme stable matchings.  Under
university-proposing deferred acceptance each university ends up with its
``capacity`` favorite stable partners, while the student-proposing run
gives it its least favorite stable assignment; a university that is ever
under capacity keeps the same partners in every stable matching.  Hence a
university has more stable partners than seats exactly when its admit set
differs between the two runs.  A brute-force enumerator over tiny markets
serves as the testing oracle for this equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import MarketInstance
from .matching import Matching, match_rank_indices, school_proposing_da, student_proposing_da

__all__ = [
    "MarketSizeError",
    "StablePartnerReport",
    "extra_stable_partner_reports",
    "enumerate_stable_matchings",
    "stable_partner_sets",
]

_ENUM_LIMIT = 10


class MarketSizeError(ValueError):
    """The instance is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class StablePartnerReport:
    """Verdict for one university: does it have more stable partners than seats?

    ``witness`` is a student the university admits in the
    university-optimal matching but not in the student-optimal one; the
    university prefers the witness to its least favorite student-optimal
    admit.
    """

    university: int
    verdict: bool
    witness: int | None

    def __post_init__(self) -> None:
        if self.verdict != (self.witness is not None):
            raise ValueError("witness must be present exactly when the verdict is YES")


def extra_stable_partner_reports(instance: MarketInstance) -> list[StablePartnerReport]:
    """Reports for every university, read off one pair of extreme matchings.

    A university has extra stable partners exactly when some student it
    admits in the university-optimal matching sits elsewhere in the
    student-optimal one; the witness is the one among them it ranks highest.
    """
    m = instance.m
    pessimal = student_proposing_da(instance).partner
    university_optimal = school_proposing_da(instance)
    optimal = university_optimal.partner
    # An under-capacity university keeps the same partners in every stable
    # matching (rural hospitals theorem), so it never shows up among the extras.
    extras = np.flatnonzero((optimal >= 0) & (optimal != pessimal))
    unis = optimal[extras]
    list_rank = match_rank_indices(instance, university_optimal)[extras]
    rank_at_uni = instance.uni_rank[extras, list_rank]
    best = np.full(m, instance.n * instance.k, dtype=np.int64)
    np.minimum.at(best, unis, rank_at_uni)
    witness = np.full(m, -1, dtype=np.int64)
    top = rank_at_uni == best[unis]
    witness[unis[top]] = extras[top]
    return [
        StablePartnerReport(u, w >= 0, w if w >= 0 else None)
        for u, w in enumerate(witness.tolist())
    ]


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
    uni_rank = instance.uni_rank.tolist()

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
            if uni_rank[s][r] > worst[u]:
                worst[u] = uni_rank[s][r]
        for s in range(n):
            for r in range(own_rank[s]):
                u = prefs[s][r]
                if counts[u] < L or uni_rank[s][r] < worst[u]:
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
