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
from collections.abc import Iterator
from dataclasses import dataclass, replace
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
    SignalSpec,
    _convert,
    _sample_stack,
    child_seed,
    sample_market,
)
from .matching import school_proposing_da, student_proposing_da
from .stable_partners import extra_stable_partner_reports

__all__ = ["main", "SweepSpec"]

# Most applications in one stacked instance; a stack holds at least one replication.
_STACK_APPS = 2**14


class UsageError(ValueError):
    """Bad flag combination or out-of-contract parameter."""


@dataclass(frozen=True)
class SweepSpec:
    """Grid of (k, delta) cells replicated from one root seed."""

    base: MarketConfig
    k_values: tuple[int, ...]
    deltas: tuple[float, ...]
    replications: int
    seed: int
    out: Path

    def __post_init__(self) -> None:
        if not self.k_values or not self.deltas:
            raise UsageError("sweep grid must be nonempty")
        if self.replications < 1:
            raise UsageError("replications must be at least 1")
        for k in self.k_values:
            if not 1 <= k <= self.base.m:
                raise UsageError(f"k={k} exceeds the number of universities")


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


def _pick(args: argparse.Namespace, file_cfg: dict[str, Any], name: str, default: Any) -> Any:
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in file_cfg:
        return file_cfg[name]
    return default


def _build_signal(args: argparse.Namespace, file_cfg: dict[str, Any]) -> SignalSpec:
    flag_kind = getattr(args, "signal", None)
    flag_delta = getattr(args, "delta", None)
    file_signal = file_cfg.get("signal")
    if isinstance(file_signal, dict) and "kind" not in file_signal:
        raise UsageError('the config "signal" object needs a "kind"')
    if flag_kind is None and flag_delta is None and isinstance(file_signal, dict):
        delta = _convert(float, "signal delta", file_signal.get("delta", 0.0))
        return SignalSpec(kind=file_signal["kind"], delta=delta)
    kind = flag_kind if flag_kind is not None else (
        file_signal if isinstance(file_signal, str) else None
    )
    delta = flag_delta if flag_delta is not None else file_cfg.get("delta")
    if delta is None and isinstance(file_signal, dict):
        delta = file_signal.get("delta")
    if kind in (None, "gaussian"):
        return _shift_signal(_convert(float, "delta", delta) if delta is not None else 0.0, kind)
    if kind == "iid":
        if delta not in (None, 0, 0.0):
            raise UsageError("--signal iid does not take a shift")
        return SignalSpec.iid()
    raise UsageError(f"unknown signal kind {kind!r}")


def _convert_list(kind: type, name: str, values: Any) -> tuple[Any, ...]:
    if not isinstance(values, list):
        raise UsageError(f"{name} must be a JSON list, got {values!r}")
    return tuple(_convert(kind, name, v) for v in values)


def _shift_signal(delta: float, kind: str | None = None) -> SignalSpec:
    """Gaussian signals with shift ``delta``; iid when unshifted and not named gaussian."""
    return SignalSpec.gaussian(delta) if delta != 0.0 or kind == "gaussian" else SignalSpec.iid()


def _build_market_config(
    args: argparse.Namespace, file_cfg: dict[str, Any] | None = None
) -> MarketConfig:
    if file_cfg is None:
        file_cfg = _load_config_file(args.config)
    n = _pick(args, file_cfg, "n", None)
    if n is None:
        raise UsageError("--n is required (flag or config file)")
    try:
        return MarketConfig(
            n=_convert(int, "n", n),
            m_ratio=_convert(float, "m_ratio", _pick(args, file_cfg, "m_ratio", 1.0)),
            capacity=_convert(int, "capacity", _pick(args, file_cfg, "capacity", 1)),
            k=_convert(int, "k", _pick(args, file_cfg, "k", 1)),
            signal=_build_signal(args, file_cfg),
            seed=_convert(int, "seed", _pick(args, file_cfg, "seed", 0)),
        )
    except ConfigurationError as exc:
        raise UsageError(str(exc)) from exc


def _write_text(path: Path | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write output file {path}: {exc}") from exc


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


def _replications(
    config: MarketConfig, replications: int, first: int = 0
) -> Iterator[tuple[int, list[int], MarketInstance]]:
    """(first rep, seeds, stacked instance) per stack of replications of ``config``.

    Replication ``rep`` samples from ``child_seed(config.seed, first + rep)``.
    """
    if replications < 1:
        raise UsageError("--reps must be at least 1")
    seeds = [child_seed(config.seed, first + rep) for rep in range(replications)]
    size = max(1, _STACK_APPS // (config.n * config.k))
    for rep in range(0, replications, size):
        yield rep, seeds[rep : rep + size], _sample_stack(config, seeds[rep : rep + size])


def _school_records(
    config: MarketConfig, replications: int, first: int = 0
) -> list[ExperimentRecord]:
    """One record of the school-proposing matching per replication (see ``_replications``)."""
    return [
        record
        for _, seeds, stack in _replications(config, replications, first)
        for record in _block_records(stack, school_proposing_da(stack), seeds)
    ]


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _build_market_config(args)
    records = _school_records(config, args.reps)
    out = Path(args.out) if args.out else None
    if args.format == "json":
        _write_text(out, _records_json(records))
    else:
        if out is None:
            write_records_csv(records, sys.stdout, k_max=config.k)
        else:
            try:
                write_records_csv(records, out, k_max=config.k)
            except OSError as exc:
                raise OSError(f"cannot write output file {out}: {exc}") from exc
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _build_market_config(args)
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
    text = json.dumps(result.to_json_dict(), indent=2) + "\n"
    _write_text(Path(args.out) if args.out else None, text)
    return 0


def _build_sweep_spec(args: argparse.Namespace) -> SweepSpec:
    file_cfg = _load_config_file(args.config)
    base_cfg = file_cfg.get("base", file_cfg)
    if not isinstance(base_cfg, dict):
        raise UsageError('the config "base" entry must be a JSON object')
    # the grid sets k and the signal; the root seed sits at the top level
    fields = {key: base_cfg[key] for key in ("n", "m_ratio", "capacity") if key in base_cfg}
    if "seed" in file_cfg:
        fields["seed"] = file_cfg["seed"]
    base = _build_market_config(args, fields)

    if args.k_list:
        k_values = tuple(int(v) for v in args.k_list.split(","))
    elif "k_values" in file_cfg:
        k_values = _convert_list(int, "k_values", file_cfg["k_values"])
    else:
        k_min = args.k_min if args.k_min is not None else 1
        k_max = args.k_max if args.k_max is not None else min(10, base.m)
        k_values = tuple(range(k_min, k_max + 1))
    if args.deltas:
        deltas = tuple(float(v) for v in args.deltas.split(","))
    else:
        deltas = _convert_list(float, "deltas", file_cfg.get("deltas", [0.0]))
    out = args.out or file_cfg.get("out")
    if out is None:
        raise UsageError("--out is required for sweeps")
    return SweepSpec(
        base=base,
        k_values=k_values,
        deltas=deltas,
        replications=_convert(
            int, "reps", _pick(args, file_cfg, "reps", file_cfg.get("replications", 1))
        ),
        seed=base.seed,
        out=Path(out),
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _build_sweep_spec(args)
    records: list[ExperimentRecord] = []
    summary_lines = [
        "k,delta,reps,mean_matched,se_matched,mean_rank1,se_rank1,"
        "mean_synergy,se_synergy,mean_u_student,se_u_student,"
        "mean_u_university,se_u_university"
    ]
    cell = 0
    signals = [_shift_signal(delta) for delta in spec.deltas]  # check every shift first
    for delta, signal in zip(spec.deltas, signals):
        for k in spec.k_values:
            config = replace(spec.base, k=k, signal=signal, seed=spec.seed)
            cell_records = _school_records(config, spec.replications, cell * spec.replications)
            cell += 1
            records.extend(cell_records)
            table = np.array(
                [[r.matched, r.rank_counts[0], r.synergy, r.student_utility, r.university_utility]
                 for r in cell_records],
                dtype=np.float64,
            )
            reps = spec.replications
            se = np.sqrt(table.var(axis=0, ddof=1) / reps) if reps > 1 else np.zeros(5)
            flat = np.column_stack((table.mean(axis=0), se)).ravel()
            summary_lines.append(
                ",".join([str(k), format_number(delta)] + [str(spec.replications)]
                         + [format_number(v) for v in flat])
            )
    k_max = max(spec.k_values)
    try:
        write_records_csv(records, spec.out, k_max=k_max)
        summary_path = spec.out.with_suffix(spec.out.suffix + ".summary.csv")
        summary_path.write_text("\n".join(summary_lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write output file {spec.out}: {exc}") from exc
    return 0


def _cmd_stable_partners(args: argparse.Namespace) -> int:
    config = _build_market_config(args)
    lines = ["rep,seed,university,verdict,witness"]
    summary = ["rep,seed,yes_fraction"]
    n, m = config.n, config.m
    for first, seeds, stack in _replications(config, args.reps):
        reports = extra_stable_partner_reports(stack)
        verdicts = reports.verdict.reshape(len(seeds), m)
        # witnesses are stack student ids; block b's students start at b * n
        witnesses = reports.witness.reshape(len(seeds), m) - n * np.arange(len(seeds))[:, None]
        for rep, seed, verdict, witness in zip(range(first, first + len(seeds)), seeds,
                                               verdicts.tolist(), witnesses.tolist()):
            lines.extend(
                f"{rep},{seed},{u},YES,{w}" if yes else f"{rep},{seed},{u},NO,NULL"
                for u, (yes, w) in enumerate(zip(verdict, witness))
            )
            summary.append(f"{rep},{seed},{format_number(sum(verdict) / m)}")
    out = Path(args.out) if args.out else None
    if out is None:
        sys.stdout.write("\n".join(lines) + "\n")
        sys.stdout.write("\n".join(summary) + "\n")
    else:
        _write_text(out, "\n".join(lines) + "\n")
        _write_text(out.with_suffix(out.suffix + ".summary.csv"), "\n".join(summary) + "\n")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _build_market_config(args)
    lines = ["rep,seed,diff_fraction"]
    diffs: list[float] = []
    for first, seeds, stack in _replications(config, args.reps):
        differs = student_proposing_da(stack).partner != school_proposing_da(stack).partner
        for rep, seed, diff in zip(range(first, first + len(seeds)), seeds,
                                   differs.reshape(len(seeds), -1).mean(axis=1).tolist()):
            diffs.append(diff)
            lines.append(f"{rep},{seed},{format_number(diff)}")
    if args.out:
        _write_text(Path(args.out), "\n".join(lines) + "\n")
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
