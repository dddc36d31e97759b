"""Command-line interface: determinism, schemas, and error handling."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from admitsim.cli import main


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_single_tiny_market(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code, _, _ = run(
            capsys, "simulate", "--n", "1", "--k", "1", "--seed", "3", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["matched"] == "1" and row["rank1"] == "1"

    def test_mean_matched_tracks_occupancy(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code, _, _ = run(
            capsys,
            "simulate", "--n", "100", "--k", "1", "--seed", "11",
            "--reps", "500", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        idx = lines[0].split(",").index("matched")
        matched = [int(l.split(",")[idx]) for l in lines[1:]]
        assert abs(np.mean(matched) - 100 * (1 - math.exp(-1))) < 1.5

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["simulate", "--n", "30", "--k", "2", "--seed", "5", "--reps", "10"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "2", "--k", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 1 and payload[0]["n"] == 2

    def test_unwritable_path_fails_with_diagnostic(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--n", "2", "--k", "1",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 1
        assert "error" in err and "x.csv" in err

    def test_invalid_config_is_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--n", "3", "--m-ratio", "0.5")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("m_ratio", ["inf", "-inf", "nan", "1e308"])
    def test_non_finite_m_ratio_is_usage_error(self, capsys, m_ratio):
        code, out, err = run(capsys, "simulate", "--n", "10", f"--m-ratio={m_ratio}")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "10", "--k", "2", "--delta=inf"],
        ["solve", "--n", "10", "--k", "2", "--method", "general", "--delta=inf"],
        ["sweep", "--n", "10", "--k-list", "2", "--deltas", "0,inf"],
    ])
    def test_infinite_shift_is_usage_error(self, tmp_path, capsys, argv):
        if argv[0] == "sweep":
            argv = [*argv, "--out", str(tmp_path / "sweep.csv")]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "shift" in err
        assert not list(tmp_path.iterdir())


class TestSolve:
    def test_iid_k1(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "100", "--k", "1", "--method", "iid")
        assert code == 0
        doc = json.loads(out)
        assert doc["rank_fractions"] == [1.0]
        assert doc["proposals_per_student"] == pytest.approx(1.0, abs=1e-9)

    def test_iid_k3_residual(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "100", "--k", "3", "--method", "iid")
        assert code == 0
        doc = json.loads(out)
        assert max(abs(r) for r in doc["residuals"]) <= 1e-10

    def test_general_with_shift_converges_or_diagnoses(self, capsys):
        code, out, err = run(
            capsys,
            "solve", "--n", "100", "--k", "3", "--delta", "2", "--method", "general",
            "--n-sim", "5000", "--trials", "2", "--tol", "0.02", "--seed", "1",
        )
        if code == 0:
            doc = json.loads(out)
            assert max(abs(r) for r in doc["residuals"]) <= 0.02
        else:
            assert code == 1 and "residual" in err

    def test_iid_tolerance_out_of_reach_diagnoses(self, capsys):
        code, out, err = run(
            capsys, "solve", "--n", "100", "--k", "3", "--method", "iid", "--tol", "1e-20"
        )
        assert code == 1 and out == ""
        assert "did not reach tolerance" in err
        diag = json.loads(err.strip().split("\n")[-1])
        assert len(diag["rank_fractions"]) == 3 and len(diag["residuals"]) == 3

    @pytest.mark.parametrize("method,delta", [("iid", "0"), ("general", "1")])
    @pytest.mark.parametrize("tol", ["0", "-0.5", "nan"])
    def test_bad_tolerance_is_usage_error(self, capsys, method, delta, tol):
        code, out, err = run(
            capsys, "solve", "--n", "100", "--k", "3", "--delta", delta, "--method", method,
            "--tol", tol, "--max-iter", "1",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "tol" in err

    def test_zero_iterations_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "solve", "--n", "100", "--k", "3", "--delta", "1", "--method", "general",
            "--max-iter", "0",
        )
        assert code == 2 and out == ""
        assert "max_iter" in err

    def test_iid_zero_iterations_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "solve", "--n", "100", "--k", "3", "--method", "iid", "--max-iter", "0"
        )
        assert code == 2 and out == ""
        assert "max_iter" in err

    def test_general_is_deterministic_bisection(self, capsys):
        argv = ["solve", "--n", "100", "--k", "5", "--delta", "2", "--method", "general"]
        code, out, _ = run(capsys, *argv, "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "quadrature-bisection"
        assert max(abs(r) for r in doc["residuals"]) <= 1e-10
        assert run(capsys, *argv, "--seed", "2")[1] == out

    @pytest.mark.parametrize("flag", [["--n-sim", "50"], ["--trials", "0"]])
    def test_bad_monte_carlo_flags_rejected(self, capsys, flag):
        code, out, err = run(
            capsys, "solve", "--n", "100", "--k", "3", "--delta", "1", "--method", "general",
            *flag,
        )
        assert code == 2 and out == "" and err.startswith("error:")

    def test_method_signal_mismatch_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "solve", "--n", "100", "--k", "2", "--delta", "1.5", "--method", "iid"
        )
        assert code == 2
        assert "iid" in err


class TestSweep:
    def test_single_cell(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "sweep", "--n", "20", "--k-list", "2", "--deltas", "0",
            "--reps", "3", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        records = out.read_text().strip().split("\n")
        assert len(records) == 4  # header + 3 replications
        summary = (tmp_path / "sweep.csv.summary.csv").read_text().strip().split("\n")
        assert len(summary) == 2
        assert summary[0].startswith("k,delta,reps,mean_matched")

    def test_rerun_identical(self, tmp_path, capsys):
        args = [
            "sweep", "--n", "15", "--k-min", "1", "--k-max", "3",
            "--deltas", "0,1", "--reps", "2", "--seed", "9",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.summary.csv").read_bytes() == (
            tmp_path / "b.csv.summary.csv"
        ).read_bytes()

    def test_k_beyond_m_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "sweep", "--n", "4", "--k-list", "9", "--deltas", "0",
            "--reps", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2 and "exceeds" in err

    @pytest.mark.parametrize(
        "flags", [["--k", "2"], ["--delta", "2"], ["--signal", "gaussian"]]
    )
    def test_per_market_flags_rejected(self, tmp_path, capsys, flags):
        # the grid sets k and the signal; a single-market flag would be ignored
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "20", *flags, "--reps", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


class TestStablePartners:
    def test_singleton_market_fraction_zero(self, tmp_path, capsys):
        out = tmp_path / "verdicts.csv"
        code, _, _ = run(
            capsys, "stable-partners", "--n", "1", "--k", "1", "--out", str(out)
        )
        assert code == 0
        assert out.read_text().strip().split("\n")[1].endswith("NO,NULL")
        summary = (tmp_path / "verdicts.csv.summary.csv").read_text().strip().split("\n")
        assert summary[1].split(",")[2] == "0"

    def test_large_market_runs(self, tmp_path, capsys):
        out = tmp_path / "verdicts.csv"
        code, _, _ = run(capsys, "stable-partners", "--n", "2001", "--k", "3", "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert [int(row[2]) for row in rows] == list(range(2001))
        assert {row[3] for row in rows} <= {"YES", "NO"}

    def test_verdicts_match_enumeration(self, tmp_path, capsys):
        import dataclasses

        from admitsim import MarketConfig, child_seed, sample_market
        from conftest import stable_partner_sets

        out = tmp_path / "verdicts.csv"
        code, _, _ = run(
            capsys,
            "stable-partners", "--n", "6", "--k", "3", "--seed", "31",
            "--reps", "5", "--out", str(out),
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        base = MarketConfig(n=6, m_ratio=1.0, k=3, seed=31)
        for rep in range(5):
            inst = sample_market(dataclasses.replace(base, seed=child_seed(31, rep)))
            sets = stable_partner_sets(inst)
            for row in rows:
                if int(row[0]) != rep:
                    continue
                u = int(row[2])
                assert (row[3] == "YES") == (len(sets[u]) > 1)


class TestCompare:
    def test_reports_mean_difference(self, tmp_path, capsys):
        out = tmp_path / "diffs.csv"
        code, stdout, _ = run(
            capsys,
            "compare", "--n", "50", "--k", "3", "--reps", "4",
            "--seed", "2", "--out", str(out),
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["replications"] == 4
        assert 0.0 <= summary["mean_difference"] <= 1.0
        assert len(out.read_text().strip().split("\n")) == 5


class TestConfigFile:
    def test_file_supplies_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "market.json"
        cfg.write_text(json.dumps({"n": 10, "k": 2, "seed": 4, "m_ratio": 1.0}))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run(capsys, "simulate", "--config", str(cfg), "--out", str(out_a))[0] == 0
        assert (
            run(
                capsys,
                "simulate", "--n", "10", "--k", "2", "--seed", "4", "--out", str(out_b),
            )[0]
            == 0
        )
        assert out_a.read_bytes() == out_b.read_bytes()
        # flag overrides the file value
        out_c = tmp_path / "c.csv"
        assert (
            run(capsys, "simulate", "--config", str(cfg), "--k", "1", "--out", str(out_c))[0]
            == 0
        )
        assert ",rank2," not in out_c.read_text().split("\n")[0]

    def test_missing_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--k", "2")
        assert code == 2 and "--n" in err

    def test_signal_spec_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "market.json"
        cfg.write_text(
            json.dumps({"n": 8, "k": 2, "signal": {"kind": "gaussian", "delta": 2.0}})
        )
        code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["delta"] == 2.0

    def test_non_object_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "market.json"
        cfg.write_text("[1, 2]")
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2 and err.startswith("error:") and "object" in err
        code, _, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("simulate", {"n": [1]}),
            ("simulate", {"n": 10.5}),
            ("simulate", {"n": "10"}),
            ("simulate", {"n": math.inf}),
            ("simulate", {"n": 8, "k": 2, "signal": {"kind": "gaussian", "delta": [2]}}),
            ("sweep", {"n": 10, "k_values": 5}),
            ("sweep", {"n": 10, "deltas": [[1.0]]}),
            ("simulate", {"n": True}),
            ("simulate", {"n": 8, "k": True}),
            ("sweep", {"n": 10, "k_values": [True]}),
        ],
    )
    def test_wrong_json_type_is_usage_error(self, tmp_path, capsys, command, doc):
        cfg = tmp_path / "market.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(capsys, command, "--config", str(cfg),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2 and err.startswith("error:")

    def test_signal_object_without_kind_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "market.json"
        cfg.write_text(json.dumps({"n": 8, "k": 2, "signal": {"delta": 2.0}}))
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2 and err.startswith("error:") and "kind" in err


class TestStacking:
    """Replications run in stacks; the outputs must not depend on how many."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "30", "--k", "3", "--capacity", "2", "--delta", "1",
             "--reps", "7", "--format", "json"],
            ["sweep", "--n", "20", "--k-list", "1,4,20", "--deltas", "0,2", "--reps", "5"],
            ["stable-partners", "--n", "12", "--k", "4", "--m-ratio", "0.5", "--reps", "6"],
            ["compare", "--n", "25", "--k", "5", "--reps", "6"],
        ],
    )
    def test_outputs_equal_with_one_replication_per_stack(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        from admitsim import cli

        outputs = []
        for budget in (cli._STACK_APPS, 1):
            monkeypatch.setattr(cli, "_STACK_APPS", budget)
            out = tmp_path / f"out-{budget}.csv"
            code, stdout, _ = run(capsys, *argv, "--seed", "5", "--out", str(out))
            assert code == 0
            summary = out.with_suffix(out.suffix + ".summary.csv")
            outputs.append((stdout, out.read_bytes(),
                            summary.read_bytes() if summary.exists() else None))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1]) > 100


# Run in a fresh interpreter; prints the third-party top-level modules the
# package loaded.  Modules present at start-up (site hooks) are not counted.
_DEPENDENCY_PROBE = """
import sys
startup = set(sys.modules)
import admitsim
from admitsim.cli import main
out = sys.argv[1]
assert main(["solve", "--n", "100", "--k", "3", "--delta", "1", "--method", "general",
             "--out", out + ".json"]) == 0
assert main(["sweep", "--n", "20", "--k-list", "1,2", "--deltas", "0,1", "--reps", "2",
             "--out", out + ".csv"]) == 0
# numpy.random's Cython extensions register the Cython runtime under these names
allowed = set(sys.stdlib_module_names) | {"numpy", "admitsim", "cython_runtime"}
loaded = {name.split(".")[0] for name in set(sys.modules) - startup}
print(sorted(name for name in loaded if name not in allowed and not name.startswith("_cython_")))
"""


class TestRuntimeDependencies:
    def test_numpy_is_the_only_third_party_module(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        proc = subprocess.run(
            [sys.executable, "-c", _DEPENDENCY_PROBE, str(tmp_path / "out")],
            capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout == "[]\n"
        assert (tmp_path / "out.csv").stat().st_size > 0
