"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package.  Each public function is
wrapped where a calling module has bound it (``admitsim.cli.sample_market``,
``admitsim.stable_partners.student_proposing_da``, the workloads module's own
imports, ...), so one span covers one call into a layer, and its parent is
the innermost wrapped call that was running when it started.  Spans stay in
memory; ``write_spans`` stores them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

Counter = Callable[[dict[str, Any], Any], dict[str, float]]


@dataclass
class Span:
    id: int
    parent: int | None
    item: int
    name: str
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Layer:
    """One public function, the modules that bind it, and what it reports.

    ``name`` is ``<module>.<function>`` with the module relative to
    ``admitsim``.  ``stats`` are the per-item metrics reported for it:
    ``self_s``, ``calls`` or a key its ``counter`` returns.  A counter
    derives counts from the bound arguments and the result, after the
    span has ended.
    """

    name: str
    sites: tuple[str, ...]
    stats: tuple[str, ...]
    counter: Counter | None = None

    @property
    def module(self) -> str:
        return "admitsim." + self.name.rsplit(".", 1)[0]

    @property
    def function(self) -> str:
        return self.name.rsplit(".", 1)[1]


def _apps(args: dict[str, Any], instance: Any) -> dict[str, float]:
    return {"apps": instance.n * instance.k}


def _plan_counts(args: dict[str, Any], plan: Any) -> dict[str, float]:
    return {
        "proposals": int(plan.proposal_uni.size),
        "inconsistent": int(plan.inconsistent.sum()),
    }


def _apps_drawn(args: dict[str, Any], instance: Any) -> dict[str, float]:
    assigned = int((args["plan"].proposal_student >= 0).sum())
    return {"apps_drawn": instance.n * instance.k - assigned}


def _touched(args: dict[str, Any], matching: Any) -> dict[str, float]:
    plan = args["plan"]
    seeded = plan.accepted_partner_array()
    return {
        "touched": int((seeded != matching.partner).sum()),
        "inconsistent": int(plan.inconsistent.sum()),
    }


def _universities(args: dict[str, Any], reports: Any) -> dict[str, float]:
    return {"universities": len(reports)}


def _iterations(args: dict[str, Any], result: Any) -> dict[str, float]:
    return {"iterations": result.iterations}


def _mc_proposals(args: dict[str, Any], estimate: Any) -> dict[str, float]:
    counts = np.floor(np.asarray(args["rank_fractions"], dtype=float) * args["n_sim"])
    return {"proposals": float(counts.sum()) * args["trials"]}


def _csv_bytes(args: dict[str, Any], result: Any) -> dict[str, float]:
    return {"bytes": os.path.getsize(args["target"])}


WORKLOADS_MODULE = "workloads"

LAYERS: tuple[Layer, ...] = (
    Layer("market.sample_market", ("admitsim.cli", WORKLOADS_MODULE),
          ("calls", "apps", "self_s"), _apps),
    Layer("market.build_seeded_plan", (WORKLOADS_MODULE,),
          ("self_s", "proposals", "inconsistent"), _plan_counts),
    Layer("market.complete_instance", (WORKLOADS_MODULE,),
          ("self_s", "apps_drawn"), _apps_drawn),
    Layer("matching.school_proposing_da",
          ("admitsim.cli", "admitsim.stable_partners", WORKLOADS_MODULE),
          ("calls", "self_s")),
    Layer("matching.student_proposing_da",
          ("admitsim.cli", "admitsim.stable_partners", WORKLOADS_MODULE),
          ("calls", "self_s")),
    Layer("matching.find_blocking_pairs", (WORKLOADS_MODULE,), ("self_s",)),
    Layer("matching.continue_rejection_chains", (WORKLOADS_MODULE,),
          ("self_s", "touched"), _touched),
    Layer("stable_partners.extra_stable_partner_reports", ("admitsim.cli",),
          ("self_s", "universities"), _universities),
    Layer("fixed_point.solve_iid", (WORKLOADS_MODULE,), ("self_s",)),
    Layer("fixed_point.solve_general", ("admitsim.cli",),
          ("iterations", "self_s"), _iterations),
    Layer("fixed_point.estimate_acceptance", ("admitsim.fixed_point",),
          ("calls", "proposals", "self_s"), _mc_proposals),
    Layer("analytics.make_record", ("admitsim.cli", WORKLOADS_MODULE), ("self_s",)),
    Layer("analytics.write_records_csv", ("admitsim.cli",),
          ("self_s", "bytes"), _csv_bytes),
    Layer("analytics.compare_matchings", ("admitsim.cli", WORKLOADS_MODULE), ("self_s",)),
    Layer("cli.main", ("admitsim.cli",), ("self_s",)),
)

TOUCHED_RATIO = "matching.continue_rejection_chains.touched_per_inconsistent"
OVERHEAD = "trace.overhead_frac"
COVERAGE = "trace.coverage_frac"


def _unit(stat: str) -> str:
    return {"self_s": "s/item", "bytes": "bytes/item"}.get(stat, "count/item")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit, in order."""
    units = {f"{layer.name}.{stat}": _unit(stat) for layer in LAYERS for stat in layer.stats}
    return units | {TOUCHED_RATIO: "ratio", OVERHEAD: "ratio", COVERAGE: "ratio"}


class Recorder:
    """Collects spans in memory; ``item`` tags the spans of the current item."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item = -1
        self._stack: list[Span] = []

    def wrap(self, layer: Layer, fn: Callable[..., Any]) -> Callable[..., Any]:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, self.item, layer.name, 0.0)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if layer.counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = layer.counter(bound.arguments, result)
            return result

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Replace every layer's function at its binding sites, then restore."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for layer in LAYERS:
                original = getattr(importlib.import_module(layer.module), layer.function)
                for site in layer.sites:
                    module = importlib.import_module(site)
                    if getattr(module, layer.function) is not original:
                        raise RuntimeError(f"{site}.{layer.function} is not {layer.name}")
                    saved.append((module, layer.function, original))
                    setattr(module, layer.function, self.wrap(layer, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        inner = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[span.id]
            if c.end > span.start and c.start < span.end
        ]
        out[span.id] = (span.end - span.start) - _covered(inner)
    return out


def layer_metrics(
    spans: list[Span], items: int, traced_s: float, untraced_s: float
) -> dict[str, float]:
    """Per-item totals of every per-layer metric, plus the trace's own ratios.

    ``traced_s`` and ``untraced_s`` are the summed item times of the same
    items with and without the recorder installed.  A layer the workload
    never calls reports 0.
    """
    self_s = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[f"{span.name}.self_s"] += self_s[span.id]
        totals[f"{span.name}.calls"] += 1
        for key, value in span.counts.items():
            totals[f"{span.name}.{key}"] += value
    names = list(per_layer_units())[:-3]
    metrics = {name: totals[name] / items for name in names}
    touched = "matching.continue_rejection_chains.touched"
    inconsistent = totals["matching.continue_rejection_chains.inconsistent"]
    metrics[TOUCHED_RATIO] = totals[touched] / inconsistent if inconsistent else 0.0
    metrics[OVERHEAD] = traced_s / untraced_s - 1.0
    metrics[COVERAGE] = sum(self_s.values()) / traced_s
    return metrics


def write_spans(path: Path, spans: list[Span], env: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"env": env, "spans": [asdict(span) for span in spans]}
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
