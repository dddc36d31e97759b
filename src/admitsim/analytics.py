"""Utilities, synergy counts, and matching comparisons."""

from __future__ import annotations

import io
import math
import numbers
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple, Union

import numpy as np

from .market import MarketConfig, MarketInstance
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(student, university, synergy) total columns of a (markets, k) table of
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
    synergy = counts[:, 0]
    # Sums of integers below 2^53 are exact in any order, so one matrix pass
    # gives the per-row sums bit for bit; a row's partial sums stay within
    # 2 * max|value| * its count.  Other values keep the per-row np.dot,
    # whose rounding a matrix product does not share.
    if (
        all(float(v).is_integer() for v in values)
        and 2 * max(abs(float(v)) for v in values) * counts.sum(axis=1).max(initial=0) < 2**53
    ):
        table = counts.astype(np.float64)
        student = table @ np.array(base_values, dtype=np.float64) + float(model.bonus) * table[:, 0]
        university = table @ np.array(uni_values, dtype=np.float64) + float(uni_bonus) * table[:, 0]
        return student, university, synergy
    student, university = (
        np.array([float(np.dot(row, row_values)) + bonus * int(row[0]) for row in counts],
                 dtype=np.float64)
        for row_values, bonus in ((base_values, model.bonus), (uni_values, uni_bonus))
    )
    return student, university, synergy


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
    config = instance.config
    seeds = [config.seed if seed is None else seed]
    counts = _block_records(instance, matching, 1)
    return _record_table(config, counts, seeds, [config.signal.delta_tag], model=model).record(0)


def _block_records(instance: MarketInstance, matching: Matching, blocks: int) -> np.ndarray:
    """The (blocks, k + 1) rank-count table of a stacked instance (see
    ``market._sample_stack``): row b counts block b's students matched at each
    rank, then its unmatched ones, all from one bincount over block-offset ranks.
    """
    k, n = instance.k, instance.n // blocks
    # entry k of each block's row counts its unmatched students
    ranks = match_rank_indices(instance, matching) + (k + 1) * (np.arange(instance.n) // n)
    return np.bincount(ranks, minlength=blocks * (k + 1)).reshape(blocks, k + 1)


_Column = Union[np.ndarray, Sequence[Any]]


class _RecordTable(NamedTuple):
    """Records as columns: row i of every column is record i's field of the
    same name, and ``rank_counts`` holds one column per rank, 0 past a
    record's own.  A column is a 1-D array, or a list of any field values.
    """

    k: _Column
    delta: _Column
    seed: _Column
    n: _Column
    m: _Column
    capacity: _Column
    rank_counts: Sequence[_Column]
    unmatched: _Column
    synergy: _Column
    student_utility: _Column
    university_utility: _Column

    @classmethod
    def gather(cls, rows: _RecordTable | Iterable[ExperimentRecord]) -> _RecordTable:
        """``rows`` as a table: a table as it is, records column by column."""
        if isinstance(rows, _RecordTable):
            return rows
        rows = list(rows)
        width = max((len(r.rank_counts) for r in rows), default=0)
        columns = {name: [getattr(r, name) for r in rows] for name in cls._fields}
        columns["rank_counts"] = [
            [r.rank_counts[j] if j < len(r.rank_counts) else 0 for r in rows]
            for j in range(width)
        ]
        return cls(**columns)

    @property
    def matched(self) -> _Column:
        if isinstance(self.n, np.ndarray):
            return self.n - self.unmatched
        return [n - unmatched for n, unmatched in zip(self.n, self.unmatched)]

    def columns(self, width: int) -> list[_Column]:
        """The columns in CSV order, ranks padded to ``width``."""
        padding = [np.zeros(len(self.k), dtype=np.int64)] * (width - len(self.rank_counts))
        return [
            self.k, self.delta, self.seed, self.n, self.m, self.capacity, self.matched,
            *self.rank_counts, *padding, self.unmatched, self.synergy,
            self.student_utility, self.university_utility,
        ]

    def record(self, i: int) -> ExperimentRecord:
        """Row ``i`` as a record, array entries as Python numbers."""
        values = {name: _listed(column)[i] for name, column in self._asdict().items()
                  if name != "rank_counts"}
        return ExperimentRecord(**values,
                                rank_counts=tuple(_listed(c)[i] for c in self.rank_counts))


def _listed(column: _Column) -> list[Any]:
    """A column's entries as a list, array entries as Python numbers."""
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


def _record_table(
    config: MarketConfig,
    counts: np.ndarray,
    seeds: _Column,
    deltas: _Column,
    ks: _Column | None = None,
    model: UtilityModel | None = None,
) -> _RecordTable:
    """The records of the rows of ``counts``, a (rows, width + 1) table of
    students matched at each rank, then unmatched (``_block_records``), of
    markets shaped like ``config`` with k ``ks`` (default: ``config.k``).
    Rank columns past a row's k hold 0, which adds 0 to its utilities.
    """
    rows, width = counts.shape[0], counts.shape[1] - 1
    student, university, synergy = _utility_totals(counts[:, :width], model)

    def constant(value: int) -> np.ndarray:
        return np.full(rows, value, dtype=np.int64)

    return _RecordTable(
        constant(config.k) if ks is None else ks, deltas, seeds,
        constant(config.n), constant(config.m), constant(config.capacity),
        list(counts[:, :width].T), counts[:, width], synergy, student, university,
    )


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


def _text_column(column: _Column) -> tuple[str, list[Any]]:
    """A row-format field and the values it takes, printing each entry of
    ``column`` as ``format_number`` does: integer and float arrays through
    their format spec, any other column entry by entry."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return "{}", column.tolist()
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return "{:.6g}", column.tolist()
    return "{}", [format_number(v) for v in column]


def write_records_csv(
    records: Sequence[ExperimentRecord] | Iterable[ExperimentRecord] | _RecordTable,
    target: Path | str | io.TextIOBase,
    k_max: int | None = None,
) -> None:
    """Write records with the fixed header; rank columns padded to k_max.

    ``records`` may also be a ``_RecordTable``, which is written column by
    column as the records it holds would be.  Raises ValueError, writing
    nothing, when a record has more rank columns than ``k_max``.
    """
    table = _RecordTable.gather(records)
    if k_max is None:
        k_max = max(table.k, default=1)
    if len(table.rank_counts) > k_max:
        raise ValueError(
            f"k_max = {k_max} is below a record's {len(table.rank_counts)} rank columns"
        )
    specs, values = zip(*map(_text_column, table.columns(k_max)))
    lines = [",".join(_records_header(k_max)), *map(",".join(specs).format, *values)]
    text = "\n".join(lines) + "\n"
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="utf-8")
    else:
        target.write(text)
