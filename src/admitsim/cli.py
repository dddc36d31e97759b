"""Command-line harness: seeded simulation runs, sweeps, and solver output.

Subcommands: simulate, solve, sweep, stable-partners, compare.  Every
command is a pure function of its flags and the root seed, so identical
invocations produce identical output files.  Replications run in stacks
of up to ``_STACK_APPS`` applications, one block-diagonal instance each;
every block is the market its replication samples alone, so results,
split per block, do not depend on the stacking.  A sweep stacks the
delta cells of each k together, each block with its own shift.  One
replication loop, ``_run_stacks``, serves every command that replicates:
it maps a per-stack job over the stacks and returns the jobs' small
results in stack order.  When the stacks can run apart (``_shares``),
one process per usable CPU runs its share of them, this one and children
forked from it, so the outputs do not depend on where a stack ran either.
The records of ``simulate`` and ``sweep`` stay rank-count tables, one row
per replication, until their rows are formatted column by column.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pickle
import sys
import threading
import warnings
from collections.abc import Callable
from functools import cache, partial
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

# unused here: compare_matchings, make_record, sample_market (benchmarks/spans.py wraps them)
from .analytics import (  # noqa: F401
    _record_table,
    _records_json,
    _RecordTable,
    compare_matchings,
    format_number,
    make_record,
    write_records_csv,
)
from .fixed_point import ConvergenceError, _check_sampling, solve_general, solve_iid
from .market import (  # noqa: F401
    ConfigurationError,
    MarketConfig,
    MarketInstance,
    _child_streams,
    _CONFIG_FIELDS,
    _json_object,
    _sample_stack,
    _seeded_generator,
    sample_market,
)
from .matching import _block_records, school_proposing_da, student_proposing_da
from .stable_partners import extra_stable_partner_reports

__all__ = ["main"]

# Most applications in one stacked instance; a stack holds at least one replication.
# Each stack, and each of its DA rounds, pays a fixed numpy overhead, so fewer,
# larger stacks are faster: at 2^16 the cli_small sweep, its three delta cells of
# each k stacked together, runs 18 stacks (30 with one cell per stack, 66 at 2^14).
# In one process 2^17 ran that sweep about 4% faster, but its peak RSS was 10%
# above that at 2^14 (BENCH_15.json, BENCH_22.json), and the census's traced peak
# is 7.6 MB at 2^17 against 5.1 MB at 2^16 (BENCH_27.json).  Each process, worker
# or not, holds one stack at a time, so this also bounds each worker's memory.
_STACK_APPS = 2**16


def _keep_freed_heap() -> None:
    """Keep freed tables mapped, so the next layer reuses their pages.

    glibc's dynamic trim threshold hands each freed (n, k) table of a large
    market back to the kernel, and the next layer faults its pages in again.
    Pin the mmap threshold at its 64-bit dynamic maximum (32 MiB) and raise
    the trim threshold to 256 MiB.  Both are set, because the trim threshold
    alone switches the dynamic mmap threshold off and maps every table above
    128 KiB afresh.  Where ``mallopt`` is missing or refuses (macOS, Windows,
    musl) nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


# Set when this module is imported, not in main(): a program that imports it and
# then calls the library directly (benchmarks/workloads.py) gets the same heap.
# A bare `import admitsim` leaves the allocator as it finds it.
_keep_freed_heap()


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
    A flag's destination is its field's name.
    """
    if doc is None:
        doc = _load_config_file(args.config)
    fields = {**doc, **{
        name: value for name, value in vars(args).items()
        if name in _CONFIG_FIELDS and value is not None
    }}
    if "n" not in fields:
        _json_object("market configuration", fields, _CONFIG_FIELDS)  # names an unknown key
        raise UsageError("--n is required (flag or config file)")
    return MarketConfig.from_json_dict(fields)


def _split_flag(kind: type, flag: str, text: str) -> tuple[Any, ...]:
    """The comma-separated entries of ``flag``, each parsed as ``kind`` (int or float)."""
    values = []
    for entry in text.split(","):
        try:
            values.append(kind(entry))
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise UsageError(f"{flag} entry {entry!r} is not {expected}") from None
    return tuple(values)


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


class _Plan(NamedTuple):
    """Replications of one root seed in stacks.  Row r is replication r: the
    market of seed ``seeds[r]``, its generator built from the state words
    ``words[r]`` (``market._child_streams``), with Gaussian shift ``shifts[r]``.
    ``stacks`` holds each stack's market and rows, in order.
    """

    seeds: list[int]
    words: np.ndarray
    shifts: np.ndarray
    stacks: list[tuple[MarketConfig, np.ndarray]]


def _plan(cells: list[MarketConfig], reps: int) -> _Plan:
    """``reps`` replications of each market of ``cells`` in turn: rows
    ``i * reps ...`` are those of ``cells[i]``.  The cells of one k differ only
    in their shift, so they share stacks of up to ``_STACK_APPS`` applications.
    """
    if reps < 1:
        raise UsageError("--reps must be at least 1")
    seeds, words = _child_streams(cells[0].seed, 0, len(cells) * reps)
    rows = np.arange(len(cells) * reps).reshape(len(cells), reps)
    stacks = []
    for k in dict.fromkeys(c.k for c in cells):
        of_k = [i for i, c in enumerate(cells) if c.k == k]
        config, at = cells[of_k[0]], rows[of_k].ravel()
        size = max(1, _STACK_APPS // (config.n * k))
        stacks += [(config, at[i : i + size]) for i in range(0, at.size, size)]
    return _Plan(seeds, words, np.repeat([c.signal.delta for c in cells], reps), stacks)


def _shares(stacks: list[tuple[MarketConfig, np.ndarray]]) -> list[list[int]]:
    """The stack numbers each process runs, this one's first.

    The stacks run apart when the OS forks (Linux), when there are two or
    more and each holds two replications or more, so that every process holds
    one stack as in process, and when no other Python thread runs, as a
    child would hold only this thread and any lock another one held.  Then
    one process per usable CPU, at most one per stack, splits them by
    application count: each stack, largest first, goes to the process with
    the fewest.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(stacks) > 1
            and all(rows.size > 1 for _, rows in stacks) and threading.active_count() == 1):
        return [list(range(len(stacks)))]
    workers = min(len(os.sched_getaffinity(0)), len(stacks))
    apps = [rows.size * config.n * config.k for config, rows in stacks]
    shares: list[list[int]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for i in sorted(range(len(stacks)), key=apps.__getitem__, reverse=True):
        least = loads.index(min(loads))
        shares[least].append(i)
        loads[least] += apps[i]
    return [sorted(share) for share in shares]


# Outcome of a share of stacks: {stack: result}, and (stack, exception) of the
# first of them that raised, or None.
_Outcome = tuple[dict[int, Any], tuple[int, BaseException] | None]

# What CPython 3.12 and later warn on os.fork when the OS counts more than one thread.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)"


def _fork(work: Callable[[], _Outcome]) -> tuple[int, int]:
    """Run ``work`` in a forked child: its pid, and the read end of the pipe
    that brings back its pickled outcome, an exception as its type and message.
    """
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # Called with one Python thread (_shares).  The other threads the
            # OS counts are numpy's OpenBLAS pool, which OpenBLAS shuts down
            # across a fork (pthread_atfork), so the warning does not apply.
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:  # the child ends here, whatever it raised, and flushes no inherited buffer
        done, failure = work()
        sent = None if failure is None else (failure[0], type(failure[1]), str(failure[1]))
        with open(write, "wb") as pipe:
            pickle.dump((done, sent), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _reap(first: int, pid: int, read: int) -> _Outcome:
    """The outcome child ``pid`` sent, its pipe read to EOF before the child
    is waited for, as a child blocks on a full pipe.  A child that ended
    without one fails at ``first``, the first stack of its share, with an
    OSError naming its signal or exit status.
    """
    with open(read, "rb") as pipe:
        data = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        return {}, (first, OSError(f"a worker process {how} before sending its results"))
    done, sent = pickle.loads(data)
    if sent is None:
        return done, None
    stack, kind, message = sent
    while True:  # the nearest class that takes a bare message, as BaseException does
        try:
            return done, (stack, kind(message))
        except TypeError:  # numpy's MemoryError for a table that does not fit
            kind = kind.__base__


def _run_stacks(plan: _Plan, job: Callable[[MarketInstance, int], Any]) -> list[Any]:
    """``job(instance, blocks)`` of each stack of ``plan``, sampled, in stack order.

    With W > 1 shares (``_shares``), this process runs the first while
    W - 1 forked children run theirs; each child inherits the plan and
    ``job`` through the fork and sends back only its results.  The job of the
    first stack, in stack order, that raised raises here, as in process.
    """

    def run(share: list[int]) -> _Outcome:
        done = {}
        for i in share:
            config, rows = plan.stacks[i]
            rngs = [_seeded_generator(words) for words in plan.words[rows]]
            try:
                done[i] = job(_sample_stack(config, rngs, plan.shifts[rows]), rows.size)
            except Exception as exc:
                return done, (i, exc)
        return done, None

    shares = _shares(plan.stacks)
    children, outcomes = [], []
    try:
        for share in shares[1:]:
            try:
                children.append((share[0], *_fork(partial(run, share))))
            except OSError:  # no process to spare: run the share here
                outcomes.append(run(share))
        outcomes.append(run(shares[0]))
    finally:
        outcomes += [_reap(*child) for child in children]
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    done = {i: result for results, _ in outcomes for i, result in results.items()}
    return [done[i] for i in range(len(plan.stacks))]


def _records(cells: list[MarketConfig], reps: int) -> _RecordTable:
    """The records of ``reps`` school-proposing replications of each market of
    ``cells`` in turn, all of one root seed: row r is replication r."""
    plan = _plan(cells, reps)

    def rank_counts(stack: MarketInstance, blocks: int) -> np.ndarray:
        return _block_records(stack, school_proposing_da(stack), blocks)

    counts = np.zeros((len(plan.seeds), max(c.k for c in cells) + 1), dtype=np.int64)
    for (config, rows), block in zip(plan.stacks, _run_stacks(plan, rank_counts)):
        counts[rows, : config.k], counts[rows, -1] = block[:, : config.k], block[:, config.k]
    return _record_table(cells, counts, np.array(plan.seeds, dtype=np.uint64))


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _market_config(args)
    table = _records([config], args.reps)
    if args.format == "json":
        _write(args.out, _records_json(table))
    else:
        _write(args.out, partial(write_records_csv, table))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _market_config(args)
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    _check_sampling(args.n_sim)
    if args.method == "iid":
        if not config.signal.is_iid_equivalent:
            raise UsageError("method 'iid' requires identical signal distributions (delta 0)")
        result = solve_iid(config)
    else:
        result = solve_general(config, n_sim=args.n_sim)
    _write(args.out, json.dumps(result.to_json_dict(), indent=2) + "\n")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Grid of (k, delta) cells, each replicated from the root seed."""
    doc = _load_config_file(args.config)
    for key in ("k", "delta"):
        if key in doc:
            raise UsageError(f"config key {key!r} is not read by sweep: its grid sets k and delta")
    market = _market_config(args, doc)
    if args.k_list is not None:
        k_values = _split_flag(int, "--k-list", args.k_list)
    else:
        k_max = args.k_max if args.k_max is not None else min(10, market.m)
        k_values = range(args.k_min, k_max + 1)  # lazy: cells stop at the first k > m
    deltas = _split_flag(float, "--deltas", args.deltas)
    reps = args.reps
    if not args.out:
        raise UsageError("--out is required for sweeps")
    if not k_values:
        raise UsageError("sweep grid must be nonempty")
    # every cell's market is built, and its k and shift checked, before any runs
    cells = [_market_config(args, {**doc, "k": k, "delta": delta})
             for delta in deltas for k in k_values]
    table = _records(cells, reps)
    # (reps, cells, 5): each cell reduced over its replications in order, as alone
    stats = np.stack([table.matched, table.rank_counts[0], table.rank_counts[0],
                      table.student_utility, table.university_utility], axis=-1)
    stats = np.ascontiguousarray(stats.reshape(len(cells), reps, 5).swapaxes(0, 1))
    means = stats.mean(axis=0)
    se = np.sqrt(stats.var(axis=0, ddof=1) / reps) if reps > 1 else np.zeros_like(means)
    summary = [
        "k,delta,reps,mean_matched,se_matched,mean_rank1,se_rank1,"
        "mean_synergy,se_synergy,mean_u_student,se_u_student,"
        "mean_u_university,se_u_university"
    ]
    summary += [
        ",".join([str(config.k), format_number(config.signal.delta_tag), str(reps),
                  *map("{:.6g}".format, values)])
        for config, values in zip(cells, np.stack((means, se), axis=-1)
                                  .reshape(len(cells), 10).tolist())
    ]
    # write_records_csv gets the path, which benchmarks/spans.py sizes
    _write(args.out, partial(write_records_csv, table), "\n".join(summary) + "\n")
    return 0


def _cmd_stable_partners(args: argparse.Namespace) -> int:
    config = _market_config(args)
    n, m = config.n, config.m
    plan = _plan([config], args.reps)

    def yes_verdicts(stack: MarketInstance, blocks: int) -> tuple[list[int], ...]:
        """Where each block's YES verdicts start, and their universities and
        witnesses: block b's universities start at b * m, its students at b * n."""
        reports = extra_stable_partner_reports(stack)
        yes = np.flatnonzero(reports.verdict)
        return (np.searchsorted(yes, m * np.arange(blocks + 1)).tolist(), (yes % m).tolist(),
                (reports.witness[yes] - n * (yes // m)).tolist())

    results = _run_stacks(plan, yes_verdicts)
    # after the stacks, so a market too large to allocate fails before m rows are made
    rows_no = [f"{u},NO,NULL" for u in range(m)]
    lines = ["rep,seed,university,verdict,witness"]
    summary = ["rep,seed,yes_fraction"]
    for (_, reps), (cuts, unis, witnesses) in zip(plan.stacks, results):
        for b, rep in enumerate(reps.tolist()):
            rows = rows_no.copy()
            for i in range(cuts[b], cuts[b + 1]):
                rows[unis[i]] = f"{unis[i]},YES,{witnesses[i]}"
            prefix = f"{rep},{plan.seeds[rep]},"
            lines.append(prefix + ("\n" + prefix).join(rows))
            summary.append(prefix + format_number((cuts[b + 1] - cuts[b]) / m))
    _write(args.out, "\n".join(lines) + "\n", "\n".join(summary) + "\n")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _market_config(args)
    plan = _plan([config], args.reps)

    def diff_fractions(stack: MarketInstance, blocks: int) -> list[float]:
        differs = student_proposing_da(stack).partner != school_proposing_da(stack).partner
        return differs.reshape(blocks, -1).mean(axis=1).tolist()

    diffs = [diff for diffs in _run_stacks(plan, diff_fractions) for diff in diffs]
    if args.out:
        lines = ["rep,seed,diff_fraction"]
        lines += [f"{rep},{seed},{format_number(diff)}"
                  for rep, (seed, diff) in enumerate(zip(plan.seeds, diffs))]
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
    parser.add_argument("--seed", type=int, help="root RNG seed")
    parser.add_argument("--config", help="JSON file mirroring the configuration fields")


@cache  # once per process: main() parses every command with it
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
    p_sweep.add_argument("--k-min", dest="k_min", type=int, default=1)
    p_sweep.add_argument("--k-max", dest="k_max", type=int, help="default: min(10, m)")
    p_sweep.add_argument("--k-list", dest="k_list", help="comma-separated k values")
    p_sweep.add_argument("--deltas", default="0", help="comma-separated signal shifts")
    p_sweep.add_argument("--reps", type=int, default=1)
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
    except ConvergenceError as exc:
        diag = {"error": str(exc), "rank_fractions": list(exc.fractions),
                "residuals": list(exc.residuals)}
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps(diag), file=sys.stderr)
        return 1
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:  # a market too large to allocate fails here
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
