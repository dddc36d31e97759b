"""Run one admitsim benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload large_n1e5 --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 50

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics, its item times
normalised for the host's speed (see ``hostspeed.py``); with ``--trace 1`` it
runs each item untraced and then traced, and reports per-layer metrics from
the spans of the traced runs (see ``spans.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in its own process,
one after the other, and prints a table.  Spans and the run environment are
written under ``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
WORKLOAD_NAMES = ("cli_small", "large_n1e5")
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Setup probes before the first item; one more follows each item.
SETUP_PROBES_FIRST = 4
PROBE_TIMEOUT_S = 60
UNITS = {
    "setup_s": "s",
    "norm_items_per_s": "1/s",
    "norm_item_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# Wall-clock figures printed beside the normalised ones, and the slowdown.
RAW_UNITS = {
    "raw_setup_s": "s",
    "raw_items_per_s": "1/s",
    "raw_item_p50_ms": "ms",
    "host_slowdown": "1",
}


def environment() -> dict[str, Any]:
    """Versions, cores, source identity and thread pinning of this run."""
    import numpy

    env: dict[str, Any] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": None,
        "git_dirty": None,
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
        ),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return env
        if sha.returncode == 0:
            env["git_sha"] = sha.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    return env


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """Seconds to import admitsim and build the workload's inputs, and the
    host's slowdown just before.

    Runs in a fresh interpreter, so the import is a real one.
    """
    import hostspeed

    slowdown = hostspeed.python_slowdown()
    began = time.perf_counter()
    import workloads

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workloads.WORKLOADS[name](seed, Path(workdir))
        return time.perf_counter() - began, slowdown


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """One setup probe, run in a fresh interpreter: seconds and slowdown."""
    probe = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if probe.returncode != 0:
        raise RuntimeError(f"setup probe failed: {probe.stderr.strip()}")
    seconds, slowdown = probe.stdout.split()[-2:]
    return float(seconds), float(slowdown)


def run_item(
    workload: Any, i: int, recorder: Any = None, after_step: Callable[[], None] = lambda: None
) -> tuple[bool, list[float]]:
    """Run and check item ``i``; return (passed, seconds of each step run).

    ``after_step`` runs untimed after each step, also after one that raised.
    """
    step_s: list[float] = []
    outs: list[Any] = []
    if recorder is not None:
        recorder.item = i
    try:
        with contextlib.nullcontext() if recorder is None else recorder.installed():
            for step in workload.steps(i):
                began = time.perf_counter()
                try:
                    outs.append(step())
                finally:
                    step_s.append(time.perf_counter() - began)
                    after_step()
    except Exception:
        traceback.print_exc()
        return False, step_s
    try:
        problems = workload.check(i, outs)
    except Exception:
        traceback.print_exc()
        return False, step_s
    for problem in problems:
        print(f"check failed: {workload.name} item {i}: {problem}", file=sys.stderr)
    return not problems, step_s


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    import hostspeed
    import spans
    import workloads

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), file=sys.stderr)
    # The untraced run times the host-speed reference after every step and
    # a setup probe after every item, so that both span the whole run.
    setup_probes: list[tuple[float, float]] = []
    reference = hostspeed.Reference()
    after_step = (lambda: None) if trace else reference.sample
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.WORKLOADS[name](seed, Path(workdir))
        recorder = spans.Recorder() if trace else None
        if not trace:
            after_step()
            setup_probes += [measure_setup(name, seed) for _ in range(SETUP_PROBES_FIRST)]
        item_steps: list[list[float]] = []
        traced: list[float] = []
        failed = 0
        began = time.perf_counter()
        i = 0
        while time.perf_counter() - began < seconds and i < workloads.MAX_ITEMS:
            # A traced run repeats each item with the recorder installed,
            # alternating which of the two runs first.
            order = [None] if recorder is None else [None, recorder][:: -1 if i % 2 else 1]
            for rec in order:
                ok, step_s = run_item(workload, i, rec, after_step)
                if rec is None:
                    item_steps.append(step_s)
                else:
                    traced.append(sum(step_s))
                failed += not ok
            if not trace:
                setup_probes.append(measure_setup(name, seed))
            i += 1
    times = [sum(step_s) for step_s in item_steps]
    attempted = len(times) + len(traced)
    if recorder is not None:
        spans.write_spans(OUT / f"spans-{name}-seed{seed}.json", recorder.spans, env)
        metrics = spans.layer_metrics(recorder.spans, i, sum(traced), sum(times))
        units = spans.per_layer_units()
    else:
        normalised = reference.normalise(item_steps)
        raw = {
            "raw_setup_s": statistics.median(s for s, _ in setup_probes),
            "raw_items_per_s": (len(times) - failed) / sum(times),
            "raw_item_p50_ms": 1000.0 * statistics.median(times),
            "host_slowdown": reference.slowdown(),
        }
        (OUT / f"times-{name}-seed{seed}.json").write_text(json.dumps({
            "env": env, "step_s": item_steps, "setup_probes": setup_probes,
            "reference_python_s": reference.python_s,
            "reference_numpy_s": reference.numpy_s, **raw,
        }, indent=1), encoding="utf-8")
        for key, value in raw.items():
            print(f"{name} {key} = {value:.6g} {RAW_UNITS[key]}", file=sys.stderr)
        metrics = {
            "setup_s": statistics.median(s / slowdown for s, slowdown in setup_probes),
            "norm_items_per_s": (len(times) - failed) / sum(normalised),
            "norm_item_p50_ms": 1000.0 * statistics.median(normalised),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = UNITS
    for key, value in metrics.items():
        print(f"{name} {key} = {value:.6g} {units[key]}", file=sys.stderr)
    print(f"{name} items = {len(times)}, fail_frac = {failed / attempted:.6g}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, one at a time; print a table."""
    print(f"{'workload':<14} {'metric':<16} {'value':>12}  unit")
    all_correct = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        all_correct &= result["correct"]
        raw = json.loads((OUT / f"times-{name}-seed{seed}.json").read_text(encoding="utf-8"))
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows += [(k, raw[k], unit) for k, unit in RAW_UNITS.items()]
        rows.append(("fail_frac", result["failed"] / result["attempted"], "1"))
        for key, value, unit in rows:
            print(f"{name:<14} {key:<16} {value:>12.6g}  {unit}")
    return 0 if all_correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="root seed of the inputs")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "admitsim" / "__init__.py").is_file():
        print(f"error: no admitsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        print(*map(repr, setup_probe(args.workload, args.seed)))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    import admitsim

    if Path(admitsim.__file__).resolve().parent != SRC / "admitsim":
        print(f"error: admitsim imported from {admitsim.__file__}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
