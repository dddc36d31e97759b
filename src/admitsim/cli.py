"""Command-line harness: seeded simulation runs, sweeps, and solver output.

Subcommands: simulate, solve, sweep, stable-partners, compare.  Every
command is a pure function of its flags and the root seed, so identical
invocations produce identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .analytics import (
    ExperimentRecord,
    compare_matchings,
    format_number,
    make_record,
    write_records_csv,
)
from .fixed_point import ConvergenceError, solve_general, solve_iid
from .market import (
    ConfigurationError,
    MarketConfig,
    MarketInstance,
    SignalSpec,
    child_seed,
    sample_market,
)
from .matching import school_proposing_da, student_proposing_da
from .stable_partners import extra_stable_partner_reports

__all__ = ["main", "SweepSpec"]


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


def _convert(kind: type, name: str, value: Any) -> Any:
    """``kind(value)``; a config value of the wrong JSON type is a usage error.

    The conversion must not change the value, so strings and fractional
    numbers are rejected rather than parsed or truncated.
    """
    try:
        converted = kind(value)
        if converted == value:
            return converted
    except (TypeError, ValueError):
        pass
    expected = "an integer" if kind is int else "a number"
    raise UsageError(f"{name} must be {expected}, got {value!r}")


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


def _mean_se(values: list[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var / len(values))


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
) -> Iterator[tuple[int, int, MarketInstance]]:
    """(rep, seed, instance) for each replication of ``config``.

    Replication ``rep`` samples from ``child_seed(config.seed, first + rep)``.
    """
    if replications < 1:
        raise UsageError("--reps must be at least 1")
    for rep in range(replications):
        seed = child_seed(config.seed, first + rep)
        yield rep, seed, sample_market(replace(config, seed=seed))


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _build_market_config(args)
    records = [
        make_record(instance, school_proposing_da(instance), seed=seed)
        for _, seed, instance in _replications(config, args.reps)
    ]
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
        result = solve_general(
            config,
            tol=args.tol if args.tol is not None else 0.01,
            max_iter=args.max_iter,
            n_sim=args.n_sim,
            trials=args.trials,
            damping=args.damping,
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
    for delta in spec.deltas:
        signal = _shift_signal(delta)
        for k in spec.k_values:
            config = replace(spec.base, k=k, signal=signal, seed=spec.seed)
            cell_records = [
                make_record(instance, school_proposing_da(instance), seed=seed)
                for _, seed, instance in _replications(
                    config, spec.replications, first=cell * spec.replications
                )
            ]
            cell += 1
            records.extend(cell_records)
            stats = [
                _mean_se([float(r.matched) for r in cell_records]),
                _mean_se([float(r.rank_counts[0]) for r in cell_records]),
                _mean_se([float(r.synergy) for r in cell_records]),
                _mean_se([r.student_utility for r in cell_records]),
                _mean_se([r.university_utility for r in cell_records]),
            ]
            flat = [v for pair in stats for v in pair]
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
    for rep, seed, instance in _replications(config, args.reps):
        reports = extra_stable_partner_reports(instance)
        yes = 0
        for r in reports:
            witness = "NULL" if r.witness is None else str(r.witness)
            lines.append(f"{rep},{seed},{r.university},{'YES' if r.verdict else 'NO'},{witness}")
            yes += int(r.verdict)
        summary.append(f"{rep},{seed},{format_number(yes / config.m)}")
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
    diffs = []
    for rep, seed, instance in _replications(config, args.reps):
        diff = compare_matchings(student_proposing_da(instance), school_proposing_da(instance))
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
                         help="bisection steps (or damped iterations for custom signals)")
    monte_carlo = "; only Monte Carlo acceptance uses it (custom signals, Python API only)"
    p_solve.add_argument("--n-sim", dest="n_sim", type=int, default=20_000,
                         help="students per Monte Carlo trial" + monte_carlo)
    p_solve.add_argument("--trials", type=int, default=4,
                         help="Monte Carlo trials per iteration" + monte_carlo)
    p_solve.add_argument("--damping", type=float, default=0.5,
                         help="damped-iteration step size" + monte_carlo)
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
