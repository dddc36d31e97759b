"""Utilities, synergy counts, and matching comparisons."""

from __future__ import annotations

import io
import math
import numbers
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .market import MarketInstance
from .matching import Matching, match_rank_indices

__all__ = [
    "UtilityModel",
    "ExperimentRecord",
    "compare_matchings",
    "make_record",
    "format_number",
    "write_records_csv",
]


def constant_base(rank: int) -> float:
    """Default base utility: 1 for any match regardless of rank."""
    return 1.0


@dataclass(frozen=True)
class UtilityModel:
    """Base utility per match rank plus a bonus for rank-1 (synergy) matches.

    ``base`` maps each rank to a finite real number, nonincreasing in
    rank; unmatched students get 0.  The bonus, a finite number >= 0, is
    credited to both sides.  The university side reuses ``base`` and
    ``bonus`` unless overridden.
    """

    base: Callable[[int], float] = constant_base
    bonus: float = 1.0
    university_base: Callable[[int], float] | None = None
    university_bonus: float | None = None

    def __post_init__(self) -> None:
        for name, value in (("base", self.base), ("university_base", self.university_base)):
            if not callable(value) and (value is not None or name == "base"):
                raise ValueError(f"{name} must be callable, got {value!r}")
        for name, value in (("bonus", self.bonus), ("university_bonus", self.university_bonus)):
            valid = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                     and 0 <= value < math.inf)
            if not valid and (value is not None or name == "bonus"):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def _utility_totals(
    counts: np.ndarray, model: UtilityModel | None
) -> list[tuple[float, float, int]]:
    """(student, university, synergy) totals of each row of a (markets, k) table of
    students matched per rank: a match at rank r gives base(r), plus the bonus at
    r = 1, and synergy counts the rank-1 matches."""
    if model is None:
        model = UtilityModel()
    k = counts.shape[1]
    base_values = [model.base(r) for r in range(1, k + 1)]
    uni_base = model.university_base
    uni_values = base_values if uni_base is None else [uni_base(r) for r in range(1, k + 1)]
    for name, got in (("base", base_values), ("university_base", uni_values)):
        finite = (isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
                  for v in got)
        if not all(finite):
            raise ValueError(f"{name} utility must be finite real numbers, got {got}")
    if any(b > a + 1e-12 for a, b in zip(base_values, base_values[1:])):
        raise ValueError("base utility must be nonincreasing in rank")
    uni_bonus = model.bonus if model.university_bonus is None else model.university_bonus
    values = [*base_values, *uni_values, model.bonus, uni_bonus]
    # Sums of integers below 2^53 are exact in any order, so one matrix pass
    # gives the per-row sums bit for bit; a row's partial sums stay within
    # 2 * max|value| * its count.  Other values keep the per-row np.dot,
    # whose rounding a matrix product does not share.
    if (
        all(float(v).is_integer() for v in values)
        and 2 * max(abs(float(v)) for v in values) * counts.sum(axis=1).max(initial=0) < 2**53
    ):
        table = counts.astype(np.float64)
        synergy = table[:, 0]
        student = table @ np.array(base_values, dtype=np.float64) + float(model.bonus) * synergy
        university = table @ np.array(uni_values, dtype=np.float64) + float(uni_bonus) * synergy
        return list(zip(student.tolist(), university.tolist(), counts[:, 0].tolist()))
    return [
        (
            float(np.dot(row, base_values)) + model.bonus * int(row[0]),
            float(np.dot(row, uni_values)) + uni_bonus * int(row[0]),
            int(row[0]),
        )
        for row in counts
    ]


def compare_matchings(first: Matching, second: Matching) -> float:
    """Fraction of students with a different partner, unmatched counted."""
    if first.n != second.n or first.n_universities != second.n_universities:
        raise ValueError("matchings come from different markets")
    if first.n == 0:
        return 0.0
    return float((first.partner != second.partner).mean())


@dataclass(frozen=True)
class ExperimentRecord:
    """One simulated market reduced to its summary statistics.

    ``delta`` is the signal shift, or None for custom signal samplers.
    """

    k: int
    delta: float | None
    seed: int
    n: int
    m: int
    capacity: int
    rank_counts: tuple[int, ...]
    unmatched: int
    synergy: int
    student_utility: float
    university_utility: float

    def __post_init__(self) -> None:
        if sum(self.rank_counts) + self.unmatched != self.n:
            raise ValueError("rank counts plus unmatched must equal n")
        if self.synergy > (self.rank_counts[0] if self.rank_counts else 0):
            raise ValueError("synergy cannot exceed the rank-1 count")

    @property
    def matched(self) -> int:
        return self.n - self.unmatched


def make_record(
    instance: MarketInstance,
    matching: Matching,
    model: UtilityModel | None = None,
    seed: int | None = None,
) -> ExperimentRecord:
    """Summarize one matching into a sweep row."""
    seeds = [instance.config.seed if seed is None else seed]
    return _block_records(instance, matching, seeds, model)[0]


def _block_records(
    instance: MarketInstance,
    matching: Matching,
    seeds: Sequence[int],
    model: UtilityModel | None = None,
) -> list[ExperimentRecord]:
    """One sweep row per block of a stacked instance (see ``market._sample_stack``).

    Block b is tagged ``seeds[b]``; one bincount over the block-offset match
    ranks counts every block.
    """
    blocks, k, config = len(seeds), instance.k, instance.config
    n = instance.n // blocks
    # entry k of each block's row counts its unmatched students
    ranks = match_rank_indices(instance, matching) + (k + 1) * (np.arange(instance.n) // n)
    counts = np.bincount(ranks, minlength=blocks * (k + 1)).reshape(blocks, k + 1)
    totals = _utility_totals(counts[:, :k], model)
    return [
        ExperimentRecord(k, config.signal.delta_tag, seed, n, instance.m // blocks,
                         config.capacity, tuple(row[:k]), row[k], synergy, student, university)
        for seed, row, (student, university, synergy) in zip(seeds, counts.tolist(), totals)
    ]


def format_number(value: float | int | None) -> str:
    """Fixed tabular formatting: 6 significant digits for floats."""
    if value is None:
        return "custom"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.6g}"


def _records_header(k_max: int) -> list[str]:
    ranks = [f"rank{i}" for i in range(1, k_max + 1)]
    return (
        ["k", "delta", "seed", "n", "m", "l", "matched"]
        + ranks
        + ["unmatched", "synergy", "u_student", "u_university"]
    )


def write_records_csv(
    records: Sequence[ExperimentRecord] | Iterable[ExperimentRecord],
    target: Path | str | io.TextIOBase,
    k_max: int | None = None,
) -> None:
    """Write records with the fixed header; rank columns padded to k_max.

    Raises ValueError, writing nothing, when a record has more rank
    columns than ``k_max``.
    """
    rows = list(records)
    if k_max is None:
        k_max = max((r.k for r in rows), default=1)
    widest = max((len(r.rank_counts) for r in rows), default=0)
    if widest > k_max:
        raise ValueError(f"k_max = {k_max} is below a record's {widest} rank columns")
    lines = [",".join(_records_header(k_max))]
    # "{:d}" prints an integer field as format_number does; a row with a
    # field that is not an integer takes format_number field by field
    row = ("{:d},{},{:d},{:d},{:d},{:d},{:d}," + "{:d}," * k_max + "{:d},{:d},{},{}").format
    for r in rows:
        counts = [*r.rank_counts] + [0] * (k_max - len(r.rank_counts))
        try:
            line = row(r.k, format_number(r.delta), r.seed, r.n, r.m, r.capacity, r.matched,
                       *counts, r.unmatched, r.synergy,
                       format_number(r.student_utility), format_number(r.university_utility))
        except (TypeError, ValueError):
            fields = [r.k, r.delta, r.seed, r.n, r.m, r.capacity, r.matched, *counts,
                      r.unmatched, r.synergy, r.student_utility, r.university_utility]
            line = ",".join(format_number(v) for v in fields)
        lines.append(line)
    text = "\n".join(lines) + "\n"
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="utf-8")
    else:
        target.write(text)
