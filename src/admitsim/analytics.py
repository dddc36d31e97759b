"""Utilities, synergy counts, and matching comparisons."""

from __future__ import annotations

import io
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .market import MarketInstance
from .matching import Matching, match_rank_indices

__all__ = [
    "UtilityModel",
    "UtilityTotals",
    "ExperimentRecord",
    "compute_utilities",
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

    ``base`` must be nonincreasing in rank; unmatched students get 0.  The
    bonus is credited to both sides.  The university side reuses ``base``
    and ``bonus`` unless overridden.
    """

    base: Callable[[int], float] = constant_base
    bonus: float = 1.0
    university_base: Callable[[int], float] | None = None
    university_bonus: float | None = None

    def __post_init__(self) -> None:
        if self.bonus < 0:
            raise ValueError("bonus must be nonnegative")
        if self.university_bonus is not None and self.university_bonus < 0:
            raise ValueError("university bonus must be nonnegative")


class UtilityTotals(NamedTuple):
    student_total: float
    university_total: float
    synergy_count: int


def compute_utilities(
    instance: MarketInstance,
    matching: Matching,
    model: UtilityModel | None = None,
) -> UtilityTotals:
    """Total student and university utility plus the synergy count.

    A student matched at rank r contributes base(r), plus the bonus when
    r = 1.  The synergy count is the number of students matched to their
    favorite school.
    """
    ranks = match_rank_indices(instance, matching)
    counts = np.bincount(ranks, minlength=instance.k + 1)[: instance.k]
    return _utility_totals(counts[None], model)[0]


def _utility_totals(counts: np.ndarray, model: UtilityModel | None) -> list[UtilityTotals]:
    """Utility totals of each row of a (markets, k) table of students matched per rank."""
    if model is None:
        model = UtilityModel()
    k = counts.shape[1]
    base_values = [model.base(r) for r in range(1, k + 1)]
    if any(b > a + 1e-12 for a, b in zip(base_values, base_values[1:])):
        raise ValueError("base utility must be nonincreasing in rank")
    uni_base = model.university_base
    uni_values = base_values if uni_base is None else [uni_base(r) for r in range(1, k + 1)]
    uni_bonus = model.bonus if model.university_bonus is None else model.university_bonus
    return [
        UtilityTotals(
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
