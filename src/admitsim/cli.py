"""Command-line harness: seeded simulation runs, sweeps, and solver output.

Subcommands: simulate, solve, sweep, stable-partners, compare.  Every
command is a pure function of its flags and the root seed, so identical
invocations produce identical output files.  Replications run in stacks
of up to ``_STACK_APPS`` applications, one block-diagonal instance each;
every block is the market its replication samples alone, so results,
split per block, do not depend on the stacking.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Iterator
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

# unused here: compare_matchings, make_record, sample_market (benchmarks/spans.py wraps them)
from .analytics import (  # noqa: F401
    ExperimentRecord,
    _block_records,
    compare_matchings,
    format_number,
    make_record,
    write_records_csv,
)
from .fixed_point import ConvergenceError, solve_general, solve_iid
from .market import (  # noqa: F401
    ConfigurationError,
    MarketConfig,
    MarketInstance,
    _child_streams,
    _convert,
    _sample_stack,
    _seeded_generator,
    sample_market,
)
from .matching import school_proposing_da, student_proposing_da
from .stable_partners import extra_stable_partner_reports

__all__ = ["main"]

# Most applications in one stacked instance; a stack holds at least one replication.
_STACK_APPS = 2**14


class UsageError(ValueError):
    """Bad flag combination or out-of-contract parameter."""


def _load_config_file(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return data


def _market_config(args: argparse.Namespace, doc: dict[str, Any] | None = None) -> MarketConfig:
    """The market of ``doc`` (default: the ``--config`` file) with each market
    flag given set over its field, built by ``MarketConfig.from_json_dict``.

    A flag's destination is its field's name; ``--signal`` sets the kind and
    ``--delta`` the shift, inside the document's "signal" object if it has one.
    """
    if doc is None:
        doc = _load_config_file(args.config)
    flags = {
        name: value for name, value in vars(args).items()
        if name in ("n", "m_ratio", "capacity", "k", "signal", "delta", "seed") and value is not None
    }
    fields = {**doc, **flags}
    if "n" not in fields:
        raise UsageError("--n is required (flag or config file)")
    if isinstance(doc.get("signal"), dict):
        given = {"kind": flags.get("signal"), "delta": flags.get("delta")}
        fields["signal"] = {**doc["signal"], **{k: v for k, v in given.items() if v is not None}}
    return MarketConfig.from_json_dict(fields)


def _convert_list(kind: type, name: str, values: Any) -> tuple[Any, ...]:
    if not isinstance(values, list):
        raise UsageError(f"{name} must be a JSON list, got {values!r}")
    return tuple(_convert(kind, name, v) for v in values)


def _write(out: str | None, body: str | Callable[[Any], None], summary: str = "") -> None:
    """Write ``body`` to ``out`` and ``summary`` to ``<out>.summary.csv``, or both
    to stdout when there is no ``out``.  A callable ``body`` writes itself to the
    path or stream it is given.
    """
    if not out:
        if callable(body):
            body(sys.stdout)
        else:
            sys.stdout.write(body)
        sys.stdout.write(summary)
        return
    path = Path(out)
    try:
        if callable(body):
            body(path)
        else:
            path.write_text(body, encoding="utf-8")
        if summary:
            path.with_suffix(path.suffix + ".summary.csv").write_text(summary, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write output file {out}: {exc}") from exc


def _records_json(records: list[ExperimentRecord]) -> str:
    payload = [
        {
            "k": r.k,
            "delta": r.delta,
            "seed": r.seed,
            "n": r.n,
            "m": r.m,
            "l": r.capacity,
            "matched": r.matched,
            "rank_counts": list(r.rank_counts),
            "unmatched": r.unmatched,
            "synergy": r.synergy,
            "u_student": r.student_utility,
            "u_university": r.university_utility,
        }
        for r in records
    ]
    return json.dumps(payload, indent=2) + "\n"


def _streams(root: int, replications: int) -> tuple[list[int], np.ndarray]:
    """Seeds ``child_seed(root, rep)`` of replications 0.. and their PCG64 state words."""
    if replications < 1:
        raise UsageError("--reps must be at least 1")
    return _child_streams(root, 0, replications)


def _replications(
    config: MarketConfig, seeds: list[int], words: np.ndarray
) -> Iterator[tuple[int, list[int], MarketInstance]]:
    """(first rep, seeds, stacked instance) per stack of replications of ``config``.

    Replication ``rep`` samples from ``default_rng(seeds[rep])``, built from
    its state words ``words[rep]`` (see ``market._child_streams``).
    """
    size = max(1, _STACK_APPS // (config.n * config.k))
    for rep in range(0, len(seeds), size):
        rngs = [_seeded_generator(row) for row in words[rep : rep + size]]
        yield rep, seeds[rep : rep + size], _sample_stack(config, rngs)


def _school_records(
    config: MarketConfig, seeds: list[int], words: np.ndarray
) -> list[ExperimentRecord]:
    """One record of the school-proposing matching per replication (see ``_replications``)."""
    return [
        record
        for _, stack_seeds, stack in _replications(config, seeds, words)
        for record in _block_records(stack, school_proposing_da(stack), stack_seeds)
    ]


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _market_config(args)
    records = _school_records(config, *_streams(config.seed, args.reps))
    if args.format == "json":
        _write(args.out, _records_json(records))
    else:
        _write(args.out, partial(write_records_csv, records, k_max=config.k))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _market_config(args)
    if args.method == "iid":
        if not config.signal.is_iid_equivalent:
            raise UsageError("method 'iid' requires identical signal distributions (delta 0)")
        result = solve_iid(
            config, tol=args.tol if args.tol is not None else 1e-10, max_iter=args.max_iter
        )
    else:
        if args.trials < 1:
            raise UsageError("--trials must be at least 1")
        result = solve_general(
            config,
            tol=args.tol if args.tol is not None else 0.01,
            max_iter=args.max_iter,
            n_sim=args.n_sim,
        )
    _write(args.out, json.dumps(result.to_json_dict(), indent=2) + "\n")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Grid of (k, delta) cells, each replicated from the root seed."""
    doc = _load_config_file(args.config)
    grid = {key: doc.pop(key) for key in ("k_values", "deltas", "reps", "replications", "out")
            if key in doc}
    base = doc.pop("base", {})
    if not isinstance(base, dict):
        raise UsageError('the config "base" entry must be a JSON object')
    doc = {**base, **doc}  # market fields sit in "base" or at the top level
    for key in ("k", "delta", "signal"):
        if key in doc:
            raise UsageError(f"config key {key!r} is not read by sweep: its grid sets k and delta")
    market = _market_config(args, doc)

    if args.k_list:
        k_values = tuple(int(v) for v in args.k_list.split(","))
    elif "k_values" in grid and args.k_min is None and args.k_max is None:
        k_values = _convert_list(int, "k_values", grid["k_values"])
    else:
        k_min = args.k_min if args.k_min is not None else 1
        k_max = args.k_max if args.k_max is not None else min(10, market.m)
        k_values = tuple(range(k_min, k_max + 1))
    if args.deltas:
        deltas = tuple(float(v) for v in args.deltas.split(","))
    else:
        deltas = _convert_list(float, "deltas", grid.get("deltas", [0.0]))
    reps = args.reps if args.reps is not None else grid.get("reps", grid.get("replications", 1))
    reps = _convert(int, "reps", reps)
    out = args.out or grid.get("out")
    if not isinstance(out, str):
        raise UsageError("--out is required for sweeps")
    if not k_values or not deltas:
        raise UsageError("sweep grid must be nonempty")
    if reps < 1:
        raise UsageError("replications must be at least 1")
    for k in k_values:
        if k < 1:
            raise UsageError(f"k must be at least 1, got k={k}")
        if k > market.m:
            raise UsageError(f"k={k} exceeds the number of universities")
    # every cell's market is built, and its shift checked, before any runs
    cells = [(delta, _market_config(args, {**doc, "k": k, "delta": delta}))
             for delta in deltas for k in k_values]

    seeds, words = _child_streams(market.seed, 0, len(cells) * reps)
    records: list[ExperimentRecord] = []
    summary = [
        "k,delta,reps,mean_matched,se_matched,mean_rank1,se_rank1,"
        "mean_synergy,se_synergy,mean_u_student,se_u_student,"
        "mean_u_university,se_u_university"
    ]
    for cell, (delta, config) in enumerate(cells):
        reps_of_cell = slice(cell * reps, (cell + 1) * reps)
        cell_records = _school_records(config, seeds[reps_of_cell], words[reps_of_cell])
        records.extend(cell_records)
        table = np.array(
            [[r.matched, r.rank_counts[0], r.synergy, r.student_utility, r.university_utility]
             for r in cell_records],
            dtype=np.float64,
        )
        se = np.sqrt(table.var(axis=0, ddof=1) / reps) if reps > 1 else np.zeros(5)
        flat = np.column_stack((table.mean(axis=0), se)).ravel()
        summary.append(",".join([str(config.k), format_number(delta), str(reps)]
                                + [format_number(v) for v in flat]))
    # write_records_csv gets the path, which benchmarks/spans.py sizes
    _write(out, partial(write_records_csv, records, k_max=max(k_values)),
           "\n".join(summary) + "\n")
    return 0


def _cmd_stable_partners(args: argparse.Namespace) -> int:
    config = _market_config(args)
    lines = ["rep,seed,university,verdict,witness"]
    summary = ["rep,seed,yes_fraction"]
    n, m = config.n, config.m
    rows_no = [f"{u},NO,NULL" for u in range(m)]
    for first, seeds, stack in _replications(config, *_streams(config.seed, args.reps)):
        reports = extra_stable_partner_reports(stack)
        # the YES verdicts by stack id: block b's universities start at b * m,
        # its students (the witnesses) at b * n
        yes = np.flatnonzero(reports.verdict)
        cuts = np.searchsorted(yes, m * np.arange(len(seeds) + 1)).tolist()
        unis = (yes % m).tolist()
        witnesses = (reports.witness[yes] - n * (yes // m)).tolist()
        for b, (rep, seed) in enumerate(zip(range(first, first + len(seeds)), seeds)):
            rows = rows_no.copy()
            for i in range(cuts[b], cuts[b + 1]):
                rows[unis[i]] = f"{unis[i]},YES,{witnesses[i]}"
            prefix = f"{rep},{seed},"
            lines.append(prefix + ("\n" + prefix).join(rows))
            summary.append(f"{rep},{seed},{format_number((cuts[b + 1] - cuts[b]) / m)}")
    _write(args.out, "\n".join(lines) + "\n", "\n".join(summary) + "\n")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _market_config(args)
    lines = ["rep,seed,diff_fraction"]
    diffs: list[float] = []
    for first, seeds, stack in _replications(config, *_streams(config.seed, args.reps)):
        differs = student_proposing_da(stack).partner != school_proposing_da(stack).partner
        for rep, seed, diff in zip(range(first, first + len(seeds)), seeds,
                                   differs.reshape(len(seeds), -1).mean(axis=1).tolist()):
            diffs.append(diff)
            lines.append(f"{rep},{seed},{format_number(diff)}")
    if args.out:
        _write(args.out, "\n".join(lines) + "\n")
    summary = {"replications": args.reps, "mean_difference": sum(diffs) / len(diffs)}
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


def _add_market_flags(parser: argparse.ArgumentParser, per_market: bool = True) -> None:
    """Market flags; without ``per_market``, only those a sweep grid does not set."""
    parser.add_argument("--n", type=int, help="number of students")
    parser.add_argument("--m-ratio", dest="m_ratio", type=float, help="universities per student")
    parser.add_argument("--capacity", type=int, help="seats per university")
    if per_market:
        parser.add_argument("--k", type=int, help="applications per student")
        parser.add_argument(
            "--delta", type=float, help="signal shift for favorite-school applications"
        )
        parser.add_argument("--signal", choices=["iid", "gaussian"], help="signal model")
    parser.add_argument("--seed", type=int, help="root RNG seed")
    parser.add_argument("--config", help="JSON file mirroring the configuration fields")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="admitsim",
        description="Simulate admission markets with noisy application signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="replicate one configuration and emit records")
    _add_market_flags(p_sim)
    p_sim.add_argument("--reps", type=int, default=1)
    p_sim.add_argument("--out", help="output path (stdout when omitted)")
    p_sim.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sim.set_defaults(func=_cmd_simulate)

    p_solve = sub.add_parser("solve", help="solve the rank-fraction system")
    _add_market_flags(p_solve)
    p_solve.add_argument("--method", choices=["iid", "general"], default="iid")
    p_solve.add_argument("--tol", type=float, help="largest consistency gap accepted")
    p_solve.add_argument("--max-iter", dest="max_iter", type=int, default=80,
                         help="most bisection steps in the mass beyond rank 1")
    p_solve.add_argument("--n-sim", dest="n_sim", type=int, default=20_000,
                         help="draws of each signal distribution for sampled acceptance "
                              "(at least 100); only custom samplers use it, Python API only")
    p_solve.add_argument("--trials", type=int, default=4,
                         help="accepted for older invocations and ignored; must be at least 1")
    p_solve.add_argument("--out", help="output path (stdout when omitted)")
    p_solve.set_defaults(func=_cmd_solve)

    # no abbreviations, so that --delta is not read as --deltas
    p_sweep = sub.add_parser(
        "sweep", help="grid of (k, delta) cells with per-cell means", allow_abbrev=False
    )
    _add_market_flags(p_sweep, per_market=False)
    p_sweep.add_argument("--k-min", dest="k_min", type=int)
    p_sweep.add_argument("--k-max", dest="k_max", type=int)
    p_sweep.add_argument("--k-list", dest="k_list", help="comma-separated k values")
    p_sweep.add_argument("--deltas", help="comma-separated signal shifts")
    p_sweep.add_argument("--reps", type=int)
    p_sweep.add_argument("--out", help="records CSV path; means go to <out>.summary.csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sp = sub.add_parser("stable-partners", help="per-university extra-stable-partner verdicts")
    _add_market_flags(p_sp)
    p_sp.add_argument("--reps", type=int, default=1)
    p_sp.add_argument("--out", help="verdict CSV path; fractions go to <out>.summary.csv")
    p_sp.set_defaults(func=_cmd_stable_partners)

    p_cmp = sub.add_parser("compare", help="student- vs school-proposing match differences")
    _add_market_flags(p_cmp)
    p_cmp.add_argument("--reps", type=int, default=1)
    p_cmp.add_argument("--out", help="per-replication CSV path")
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        diag = {"error": str(exc), "rank_fractions": list(exc.fractions),
                "residuals": list(exc.residuals)}
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps(diag), file=sys.stderr)
        return 1
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
