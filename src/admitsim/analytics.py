"""Utilities, synergy counts, and matching comparisons."""

from __future__ import annotations

import io
import json
import math
import numbers
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .market import MarketConfig, MarketInstance, _convert
from .matching import Matching, _block_records

__all__ = [
    "UtilityModel",
    "ExperimentRecord",
    "compare_matchings",
    "make_record",
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
) -> tuple[np.ndarray, np.ndarray]:
    """(student, university) total columns of a (markets, k) table of students
    matched per rank: a match at rank r gives base(r), plus the bonus at r = 1.
    Every row is summed rank by rank, left to right, then given its bonus, so
    its totals do not depend on the rows summed with it."""
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
    totals = []
    for values, bonus in ((base_values, model.bonus), (uni_values, uni_bonus)):
        total = np.zeros(len(counts))
        for rank, value in enumerate(values):
            total += counts[:, rank] * float(value)
        totals.append(total + float(bonus) * counts[:, 0])
    return totals[0], totals[1]


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
    ``synergy`` counts the matches with a student's favorite school, that is,
    the rank-1 matches.
    """

    k: int
    delta: float | None
    seed: int
    n: int
    m: int
    capacity: int
    rank_counts: tuple[int, ...]
    unmatched: int
    student_utility: float
    university_utility: float

    def __post_init__(self) -> None:
        if sum(self.rank_counts) + self.unmatched != self.n:
            raise ValueError("rank counts plus unmatched must equal n")

    @property
    def matched(self) -> int:
        return self.n - self.unmatched

    @property
    def synergy(self) -> int:
        return self.rank_counts[0] if self.rank_counts else 0


def make_record(
    instance: MarketInstance,
    matching: Matching,
    model: UtilityModel | None = None,
    seed: int | None = None,
) -> ExperimentRecord:
    """Summarize one matching into a sweep row.  A given ``seed`` must be the
    market's own, the one that rebuilds it."""
    config = instance.config
    if seed is not None and seed != config.seed:
        raise ValueError(f"seed {seed!r} is not the market's seed {config.seed}")
    counts = _block_records(instance, matching, 1)
    *ranks, unmatched = counts[0].tolist()
    student, university = (t.item() for t in _utility_totals(counts[:, :-1], model))
    return ExperimentRecord(config.k, config.signal.delta_tag, config.seed, config.n, config.m,
                            config.capacity, tuple(ranks), unmatched, student, university)


class _RecordTable(NamedTuple):
    """Records as 1-D arrays: entry i of every array is record i's field of the
    same name, and ``rank_counts`` holds one array per rank, 0 past a record's own;
    the synergy column is the rank-1 one.
    """

    k: np.ndarray
    delta: np.ndarray
    seed: np.ndarray
    n: np.ndarray
    m: np.ndarray
    capacity: np.ndarray
    rank_counts: tuple[np.ndarray, ...]
    unmatched: np.ndarray
    student_utility: np.ndarray
    university_utility: np.ndarray

    @classmethod
    def gather(cls, rows: _RecordTable | Iterable[ExperimentRecord]) -> _RecordTable:
        """``rows`` as a table: a table as it is, records as object arrays that
        hold their field values."""
        if isinstance(rows, _RecordTable):
            return rows
        rows = list(rows)
        width = max((len(r.rank_counts) for r in rows), default=0)
        columns = {name: np.array([getattr(r, name) for r in rows], dtype=object)
                   for name in cls._fields if name != "rank_counts"}
        ranks = np.array([(*r.rank_counts, *[0] * (width - len(r.rank_counts))) for r in rows],
                         dtype=object).reshape(len(rows), width)
        return cls(**columns, rank_counts=tuple(ranks.T))

    @property
    def matched(self) -> np.ndarray:
        return self.n - self.unmatched

    def columns(self, width: int) -> list[np.ndarray]:
        """The columns in ``_FIELDS`` order, ranks padded to ``width``."""
        zero = np.zeros(len(self.k), dtype=np.int64)
        ranks = [*self.rank_counts, *(zero,) * (width - len(self.rank_counts))]
        return [
            self.k, self.delta, self.seed, self.n, self.m, self.capacity, self.matched,
            *ranks, self.unmatched, (ranks or [zero])[0],
            self.student_utility, self.university_utility,
        ]


def _record_table(
    cells: Sequence[MarketConfig], counts: np.ndarray, seeds: np.ndarray
) -> _RecordTable:
    """The records of the rows of ``counts``, a (rows, width + 1) table of
    students matched at each rank, then unmatched (``_block_records``), with
    seeds ``seeds``: the rows are equal runs, one per market of ``cells``.
    Rank columns past a row's k hold 0, which adds 0 to its utilities.
    """
    width, reps = counts.shape[1] - 1, len(counts) // len(cells)
    student, university = _utility_totals(counts[:, :width], None)
    k, delta, n, m, capacity = (np.repeat(field, reps) for field in zip(
        *((c.k, c.signal.delta_tag, c.n, c.m, c.capacity) for c in cells)))
    return _RecordTable(k, delta, seeds, n, m, capacity, tuple(counts[:, :width].T),
                        counts[:, width], student, university)


def format_number(value: float | int | None) -> str:
    """Fixed tabular formatting: 6 significant digits for floats."""
    if value is None:
        return "custom"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.6g}"


# The record fields in output order; in CSV, rank_counts is one column per rank.
_FIELDS = ("k", "delta", "seed", "n", "m", "l", "matched", "rank_counts",
           "unmatched", "synergy", "u_student", "u_university")
_RANKS = _FIELDS.index("rank_counts")


def _records_header(width: int) -> list[str]:
    ranks = [f"rank{i}" for i in range(1, width + 1)]
    return [*_FIELDS[:_RANKS], *ranks, *_FIELDS[_RANKS + 1 :]]


def _text_column(column: np.ndarray) -> tuple[str, list[Any]]:
    """A row-format field and the values it takes, printing each entry of
    ``column`` as ``format_number`` does: integer and float arrays through
    their format spec, an object array entry by entry."""
    if column.dtype.kind in "iu":
        return "{}", column.tolist()
    if column.dtype.kind == "f":
        return "{:.6g}", column.tolist()
    return "{}", [format_number(v) for v in column.tolist()]


def write_records_csv(
    records: Sequence[ExperimentRecord] | Iterable[ExperimentRecord] | _RecordTable,
    target: Path | str | io.TextIOBase,
) -> None:
    """Write records with the fixed header; rank columns padded to the
    records' widest k.

    ``records`` may also be a ``_RecordTable``, which is written column by
    column as the records it holds would be.  Raises ValueError, writing
    nothing, when a record has more rank columns than that width.
    """
    table = _RecordTable.gather(records)
    width = _convert(int, "k", max(table.k.tolist(), default=1), ValueError)
    if len(table.rank_counts) > width:
        raise ValueError(
            f"the widest k = {width} is below a record's {len(table.rank_counts)} rank columns"
        )
    specs, values = zip(*map(_text_column, table.columns(width)))
    lines = [",".join(_records_header(width)), *map(",".join(specs).format, *values)]
    text = "\n".join(lines) + "\n"
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="utf-8")
    else:
        target.write(text)


def _records_json(records: Iterable[ExperimentRecord] | _RecordTable) -> str:
    """The records of ``records`` (see ``write_records_csv``) as a JSON list."""
    table = _RecordTable.gather(records)
    end = _RANKS + len(table.rank_counts)
    payload = [
        dict(zip(_FIELDS, (*row[:_RANKS], list(row[_RANKS:end]), *row[end:])))
        for row in zip(*(column.tolist() for column in table.columns(len(table.rank_counts))))
    ]
    return json.dumps(payload, indent=2) + "\n"
