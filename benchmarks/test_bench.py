"""Self-tests of the benchmark: span arithmetic, tracing and output checks.

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from admitsim import (  # noqa: E402
    MarketConfig,
    Matching,
    SignalSpec,
    cli,
    find_blocking_pairs,
    make_record,
    sample_market,
    school_proposing_da,
    stable_partners,
    student_proposing_da,
)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


def test_self_time_of_nested_spans():
    tree = [
        Span(0, None, 0, "root", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 4.0),
        Span(2, 1, 0, "a.inner", 2.0, 3.0),
        Span(3, 0, 0, "b", 5.0, 9.0),
        Span(4, 3, 0, "b.first", 5.0, 6.5),
        Span(5, 3, 0, "b.second", 6.5, 8.0),
        Span(6, None, 1, "next_root", 20.0, 21.0),
    ]
    assert spans.self_times(tree) == pytest.approx(
        {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.5, 5: 1.5, 6: 1.0}
    )


def test_child_time_outside_the_parent_is_not_subtracted():
    tree = [Span(0, None, 0, "p", 0.0, 2.0), Span(1, 0, 0, "c", 1.5, 3.0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.5)


def test_layer_metrics_are_per_item_and_cover_the_spans():
    name = "matching.school_proposing_da"
    tree = [
        Span(0, None, 0, "cli.main", 0.0, 4.0),
        Span(1, 0, 0, name, 1.0, 2.0),
        Span(2, None, 1, "cli.main", 10.0, 12.0),
        Span(3, 2, 1, name, 10.5, 11.5),
    ]
    metrics = spans.layer_metrics(tree, items=2, traced_s=8.0, untraced_s=5.0)
    assert metrics[f"{name}.calls"] == 1.0
    assert metrics[f"{name}.self_s"] == pytest.approx(1.0)
    assert metrics["cli.main.self_s"] == pytest.approx(2.0)
    assert metrics["market.sample_market.self_s"] == 0.0
    assert metrics[spans.OVERHEAD] == pytest.approx(0.6)
    assert metrics[spans.COVERAGE] == pytest.approx(6.0 / 8.0)


def test_steps_are_normalised_by_the_reference_groups_around_them():
    reference = hostspeed.Reference()
    r = hostspeed.Reference.REPEATS
    # Group 0 at nominal speed, group 1 twice as slow on both kernels, group
    # 2 four times as slow on the numpy kernel only.
    reference.python_s = [hostspeed.PYTHON_NOMINAL_S * f for f in [1] * r + [2] * r + [1] * r]
    reference.numpy_s = [hostspeed.NUMPY_NOMINAL_S * f for f in [1] * r + [2] * r + [4] * r]
    assert reference.slowdown(0, 1) == pytest.approx(1.0)
    assert reference.slowdown(1, 2) == pytest.approx(2.0)
    assert reference.slowdown(2, 3) == pytest.approx(2.0)
    # Step 1 runs between groups 1 and 2: mean slowdowns 1.5 and 3.
    assert reference.normalise([[3.0], [6.0]]) == pytest.approx([2.0, 6.0 / 4.5 ** 0.5])
    assert reference.normalise([[3.0, 6.0]]) == pytest.approx([2.0 + 6.0 / 4.5 ** 0.5])
    reference.sample()
    assert len(reference.python_s) == len(reference.numpy_s) == 4 * r


def test_recorder_nests_spans_and_restores_bindings():
    instance = sample_market(MarketConfig(n=30, k=3, seed=5))
    original = stable_partners.student_proposing_da
    recorder = spans.Recorder()
    with recorder.installed():
        assert stable_partners.student_proposing_da is not original
        cli.extra_stable_partner_reports(instance)
    assert stable_partners.student_proposing_da is original
    parent, *children = recorder.spans
    assert parent.name == "stable_partners.extra_stable_partner_reports"
    assert [c.name for c in children] == [
        "matching.student_proposing_da", "matching.school_proposing_da"
    ]
    assert all(c.parent == parent.id for c in children)
    assert parent.counts == {"universities": instance.m}
    child_time = sum(c.end - c.start for c in children)
    assert spans.self_times(recorder.spans)[parent.id] == pytest.approx(
        parent.end - parent.start - child_time
    )


def test_checks_flag_an_unstable_matching():
    config = MarketConfig(n=60, k=3, signal=SignalSpec.gaussian(1.0), seed=11)
    instance = sample_market(config)
    stable = student_proposing_da(instance)
    unstable = Matching([-1] * instance.n, instance.m)
    assert checks.stability_problems(instance, stable) == []
    assert checks.stability_problems(instance, unstable)

    school = school_proposing_da(instance)
    out = {
        "instance": instance,
        "school": school,
        "student": stable,
        "blocking": ([], []),
        "record": make_record(instance, school),
        "difference": float((school.partner != stable.partner).mean()),
    }
    assert checks.da_pair_problems(**out) == []
    out["student"] = unstable
    out["blocking"] = ([], find_blocking_pairs(instance, unstable))
    out["difference"] = float((school.partner != unstable.partner).mean())
    assert checks.da_pair_problems(**out)[0].startswith("student-proposing matching has")


def test_sweep_check_rederives_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--n", "20", "--k-min", "1", "--k-max", "2", "--deltas", "0,1",
            "--reps", "3", "--seed", "9", "--out", str(out)]
    assert cli.main(argv) == 0
    args = (out, 9, 20, (1, 2), (0.0, 1.0), 3)
    assert checks.sweep_problems(*args) == []
    lines = out.read_text().splitlines()
    fields = lines[1].split(",")
    fields[-1] = str(float(fields[-1]) + 1)
    out.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    assert checks.sweep_problems(*args) == ["sweep row 0 does not match its re-derivation"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
