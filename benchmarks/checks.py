"""Output checks for the benchmark items.

They test invariants and re-derive a sample of outputs through the public
API, rather than compare digests, so a change to a random stream that keeps
the results valid is not counted as a failure.  Each returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

from admitsim import (
    MarketConfig,
    SignalSpec,
    child_seed,
    find_blocking_pairs,
    make_record,
    sample_market,
    school_proposing_da,
)

# Sweep rows re-derived per item: every SWEEP_SAMPLE_STEP-th row.
SWEEP_SAMPLE_STEP = 250


def _fill(matching: Any) -> np.ndarray:
    matched = matching.partner[matching.partner >= 0]
    return np.bincount(matched, minlength=matching.n_universities)


def da_pair_problems(
    instance: Any,
    school: Any,
    student: Any,
    blocking: tuple[list[Any], list[Any]],
    record: Any,
    difference: float,
) -> list[str]:
    """Both DA outputs are stable and, as theory requires, fill the same seats."""
    problems = [
        f"{side}-proposing matching has {len(pairs)} blocking pairs"
        for side, pairs in zip(("school", "student"), blocking)
        if pairs
    ]
    if not np.array_equal(school.partner >= 0, student.partner >= 0):
        problems.append("the two sides match different students")
    if not np.array_equal(_fill(school), _fill(student)):
        problems.append("the two sides fill universities differently")
    if record.matched != school.matched_count or record.n != instance.n:
        problems.append("record does not describe the school-proposing matching")
    if difference != float(np.mean(school.partner != student.partner)):
        problems.append("compare_matchings disagrees with the partner tables")
    return problems


def stability_problems(instance: Any, matching: Any) -> list[str]:
    pairs = find_blocking_pairs(instance, matching)
    return [f"repaired matching has {len(pairs)} blocking pairs"] if pairs else []


def _read_rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _same_number(text: str, value: float) -> bool:
    if isinstance(value, int):
        return int(text) == value
    return math.isclose(float(text), value, rel_tol=1e-5, abs_tol=1e-9)


def sweep_problems(
    path: Path,
    root: int,
    n: int,
    k_values: tuple[int, ...],
    deltas: tuple[float, ...],
    reps: int,
) -> list[str]:
    """Row counts and per-row invariants, plus a re-derived sample of rows.

    The sampled rows are rebuilt from their seeds, and their matchings must
    also be stable.
    """
    rows = _read_rows(path)
    summary = _read_rows(path.with_suffix(path.suffix + ".summary.csv"))
    problems = []
    expected = len(k_values) * len(deltas) * reps
    if len(rows) != expected + 1:
        return [f"sweep wrote {len(rows) - 1} records, expected {expected}"]
    if len(summary) != len(k_values) * len(deltas) + 1:
        problems.append(f"sweep summary has {len(summary) - 1} cells")
    header = rows[0]
    k_max = max(k_values)
    for j, row in enumerate(rows[1:]):
        k, matched, unmatched = int(row[0]), int(row[6]), int(row[7 + k_max])
        ranks = [int(v) for v in row[7 : 7 + k_max]]
        synergy = int(row[7 + k_max + 1])
        if matched + unmatched != n or sum(ranks) != matched or synergy > ranks[0]:
            problems.append(f"sweep row {j} breaks the count invariants")
        if any(ranks[k:]):
            problems.append(f"sweep row {j} has matches beyond rank {k}")
    base = MarketConfig(n=n)
    for j in range(0, expected, SWEEP_SAMPLE_STEP):
        cell = j // reps
        delta = deltas[cell // len(k_values)]
        signal = SignalSpec.gaussian(delta) if delta != 0.0 else SignalSpec.iid()
        seed = child_seed(root, j)
        config = replace(base, k=k_values[cell % len(k_values)], signal=signal, seed=seed)
        instance = sample_market(config)
        matching = school_proposing_da(instance)
        if find_blocking_pairs(instance, matching):
            problems.append(f"sweep row {j} comes from an unstable matching")
        record = make_record(instance, matching, seed=seed)
        ranks = list(record.rank_counts) + [0] * (k_max - record.k)
        fields = (
            [record.k, record.delta, record.seed, record.n, record.m, record.capacity,
             record.matched]
            + ranks
            + [record.unmatched, record.synergy, record.student_utility,
               record.university_utility]
        )
        row = rows[j + 1]
        if len(row) != len(header) or not all(map(_same_number, row, fields)):
            problems.append(f"sweep row {j} does not match its re-derivation")
    return problems


def partner_problems(path: Path, n: int, reps: int) -> list[str]:
    """One verdict per university and replication; YES exactly with a witness."""
    rows = _read_rows(path)
    summary = _read_rows(path.with_suffix(path.suffix + ".summary.csv"))
    if len(rows) != n * reps + 1 or len(summary) != reps + 1:
        return [f"stable-partners wrote {len(rows) - 1} verdicts, {len(summary) - 1} summaries"]
    problems = []
    yes = [0] * reps
    for rep, _seed, _uni, verdict, witness in rows[1:]:
        if (verdict == "YES") == (witness == "NULL") or verdict not in ("YES", "NO"):
            problems.append(f"verdict {verdict} with witness {witness}")
        yes[int(rep)] += verdict == "YES"
    for rep, _seed, fraction in summary[1:]:
        if not _same_number(fraction, yes[int(rep)] / n):
            problems.append(f"replication {rep} yes fraction {fraction} != {yes[int(rep)]}/{n}")
    return problems


def solver_problems(
    result: dict[str, Any], tol: float, reference: list[float], profile_tol: float
) -> list[str]:
    """Converged to ``tol`` and close to the simulated match profile."""
    problems = []
    residual = max(abs(r) for r in result["residuals"])
    if residual > tol:
        problems.append(f"max residual {residual:.4g} above tol {tol}")
    gap = max(abs(a - b) for a, b in zip(result["match_fractions"], reference))
    if len(result["match_fractions"]) != len(reference) or gap > profile_tol:
        problems.append(f"match fractions {gap:.4f} away from the reference profile")
    return problems
