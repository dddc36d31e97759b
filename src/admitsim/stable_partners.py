"""Detecting universities with more stable partners than seats.

The decision compares the two extreme stable matchings.  Under
university-proposing deferred acceptance each university ends up with its
``capacity`` favorite stable partners, while the student-proposing run
gives it its least favorite stable assignment; a university that is ever
under capacity keeps the same partners in every stable matching.  Hence a
university has more stable partners than seats exactly when its admit set
differs between the two runs.  A brute-force enumerator over tiny markets,
kept with the tests, serves as the oracle for this equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import MarketInstance
from .matching import match_rank_indices, school_proposing_da, student_proposing_da

__all__ = ["StablePartnerReports", "extra_stable_partner_reports"]


@dataclass(frozen=True, eq=False)
class StablePartnerReports:
    """Verdicts for every university: does it have more stable partners than seats?

    ``verdict[u]`` is YES or NO.  ``witness[u]`` is -1 with a NO; with a
    YES, a student u admits in the university-optimal matching but not in
    the student-optimal one and prefers to its worst student-optimal admit.
    Both arrays are read-only; ``len()`` is the number of universities.
    """

    verdict: np.ndarray
    witness: np.ndarray

    def __len__(self) -> int:
        return self.verdict.size


def extra_stable_partner_reports(instance: MarketInstance) -> StablePartnerReports:
    """Verdicts for every university, read off one pair of extreme matchings.

    A university has extra stable partners exactly when some student it
    admits in the university-optimal matching sits elsewhere in the
    student-optimal one; the witness is the one among them it ranks highest.
    """
    pessimal = student_proposing_da(instance).partner
    university_optimal = school_proposing_da(instance)
    optimal = university_optimal.partner
    # An under-capacity university keeps the same partners in every stable
    # matching (rural hospitals theorem), so it never shows up among the extras.
    extras = np.flatnonzero((optimal >= 0) & (optimal != pessimal))
    unis = optimal[extras]
    list_rank = match_rank_indices(instance, university_optimal)[extras]
    # places order one university's applicants as its ranks do; ``best`` takes
    # their dtype, which ``minimum.at`` needs to run fast (see ``matching._ids``)
    place = instance._uni_place[extras * instance.k + list_rank]
    best = np.full(instance.m, instance.n * instance.k, dtype=place.dtype)
    np.minimum.at(best, unis, place)
    witness = np.full(instance.m, -1, dtype=np.int64)
    top = place == best[unis]
    witness[unis[top]] = extras[top]
    verdict = witness >= 0
    for arr in (verdict, witness):
        arr.setflags(write=False)
    return StablePartnerReports(verdict, witness)
