"""Command-line interface: determinism, schemas, and error handling."""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from admitsim import (
    MarketConfig,
    SignalSpec,
    child_seed,
    fixed_point,
    make_record,
    sample_market,
    school_proposing_da,
    write_records_csv,
)
from admitsim.cli import _records_json, main


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
        code, out, _ = run(
            capsys,
            "solve", "--n", "100", "--k", "3", "--delta", "2", "--method", "general",
            "--n-sim", "5000", "--trials", "2", "--seed", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert max(abs(r) for r in doc["residuals"]) <= 1e-10

    @staticmethod
    def assert_diagnosed(code: int, out: str, err: str) -> None:
        assert code == 1 and out == ""
        message, line = err.strip().split("\n")
        assert message.startswith("error: bisection did not close the system")
        diag = json.loads(line)
        assert "error: " + diag["error"] == message
        assert diag["rank_fractions"][0] == 1.0 and len(diag["rank_fractions"]) == 3
        assert max(abs(r) for r in diag["residuals"]) > 0.01 and len(diag["residuals"]) == 3

    def test_iid_tolerance_out_of_reach_diagnoses(self, capsys, monkeypatch):
        # a rate that jumps from 0.5 to 0.9 at total mass 1.3 leaves S = G(S)
        # without a root (G falls from 0.75 to 0.11 at S = 0.3)
        monkeypatch.setattr(fixed_point, "expected_accepted_mass",
                            lambda x, m_ratio, capacity: x * (0.5 if x < 1.3 else 0.9))
        self.assert_diagnosed(
            *run(capsys, "solve", "--n", "100", "--k", "3", "--method", "iid")
        )

    def test_general_without_root_diagnoses(self, capsys, monkeypatch):
        # a later-rank rate that jumps from 0.1 to 0.9 at S = 0.3 takes G(S)
        # from 0.38 to 0.22 there
        def jumping(s: float) -> tuple[float, float]:
            return 0.8, (0.1 if s < 0.3 else 0.9)

        monkeypatch.setattr(fixed_point, "_large_market_acceptance", lambda *args: jumping)
        self.assert_diagnosed(*run(
            capsys, "solve", "--n", "100", "--k", "3", "--delta", "1", "--method", "general"
        ))

    @pytest.mark.parametrize("flag", [("--tol", "1e-10"), ("--max-iter", "80")])
    def test_removed_stopping_flags_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--n", "100", "--k", "3", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err

    def test_general_is_deterministic_bisection(self, capsys):
        argv = ["solve", "--n", "100", "--k", "5", "--delta", "2", "--method", "general"]
        code, out, _ = run(capsys, *argv, "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "quadrature-bisection"
        assert max(abs(r) for r in doc["residuals"]) <= 1e-10
        assert run(capsys, *argv, "--seed", "2")[1] == out

    @pytest.mark.parametrize("method", [["--method", "iid"],
                                        ["--delta", "1", "--method", "general"]],
                             ids=["iid", "general"])
    @pytest.mark.parametrize("flag,message", [
        (["--n-sim", "50"], "error: n_sim must be at least 100\n"),
        (["--trials", "0"], "error: --trials must be at least 1\n"),
    ], ids=["n-sim", "trials"])
    def test_bad_monte_carlo_flags_rejected(self, capsys, method, flag, message):
        code, out, err = run(capsys, "solve", "--n", "100", "--k", "3", *method, *flag)
        assert (code, out, err) == (2, "", message)

    def test_valid_monte_carlo_flags_leave_iid_unchanged(self, capsys):
        argv = ["solve", "--n", "10", "--k", "2", "--method", "iid"]
        plain = run(capsys, *argv)
        assert plain[0] == 0
        assert run(capsys, *argv, "--n-sim", "40000", "--trials", "8") == plain

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

    @pytest.mark.parametrize(
        "grid", [["--k-list", "9"], ["--k-list", "2,0"], ["--k-min", "0", "--k-max", "2"],
                 ["--k-min", "3", "--k-max", "5"], ["--k-max", str(10**15)]],
    )
    def test_k_out_of_range_rejected(self, tmp_path, capsys, grid):
        # each cell is a MarketConfig, which checks its own k; the cells stop
        # at the first bad k, so a vast --k-max range is never built
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "sweep", "--n", "4", *grid, "--out", str(out))
        assert (code, err) == (2, "error: k must satisfy 1 <= k <= 4\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid,message",
        [([], "--out is required for sweeps"),
         (["--k-min", "5", "--k-max", "3", "--out", "x.csv"], "sweep grid must be nonempty")],
    )
    def test_incomplete_grid_is_usage_error(self, tmp_path, capsys, monkeypatch, grid, message):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "sweep", "--n", "10", *grid) == (2, "", f"error: {message}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flag,text,message",
        [("--k-list", "1,,2", "--k-list entry '' is not an integer"),
         ("--k-list", "2,1.5", "--k-list entry '1.5' is not an integer"),
         ("--deltas", "0,abc", "--deltas entry 'abc' is not a number"),
         ("--k-list", "", "--k-list entry '' is not an integer"),
         ("--deltas", "", "--deltas entry '' is not a number")],
    )
    def test_bad_list_entry_is_named(self, tmp_path, capsys, flag, text, message):
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "sweep", "--n", "4", flag, text, "--out", str(out))
        assert (code, err) == (2, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,k_values",
        [
            ([], list(range(1, 11))),
            (["--k-max", "3"], [1, 2, 3]),
            (["--k-min", "9"], [9, 10]),
            (["--k-min", "2", "--k-max", "3"], [2, 3]),
            (["--k-list", "4,2"], [4, 2]),
            (["--k-list", "4,2", "--k-min", "3"], [4, 2]),
        ],
    )
    def test_k_flags_set_the_grid(self, tmp_path, capsys, flags, k_values):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"n": 10}))
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sweep", "--config", str(cfg), *flags, "--out", str(out))
        assert code == 0
        rows = (tmp_path / "s.csv.summary.csv").read_text().strip().split("\n")[1:]
        assert [int(row.split(",")[0]) for row in rows] == k_values

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

    def test_negative_zero_shift_prints_as_zero(self, tmp_path, capsys):
        # -0 is the iid market; rows and summary print its shift as its config does
        out = tmp_path / "s.csv"
        argv = ["sweep", "--n", "4", "--k-list", "1", "--deltas=-0", "--reps", "2"]
        assert run(capsys, *argv, "--out", str(out))[0] == 0
        summary = tmp_path / "s.csv.summary.csv"
        for path in (out, summary):
            rows = path.read_text().splitlines()[1:]
            assert [row.split(",")[1] for row in rows] == ["0"] * len(rows) and rows


@pytest.mark.parametrize("command", ["simulate", "sweep", "stable-partners", "compare"])
def test_reps_below_one_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    argv = [command, "--n", "4", "--reps", "0", "--out", str(out)]
    assert run(capsys, *argv) == (2, "", "error: --reps must be at least 1\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "stable-partners", "compare"])
def test_reps_beyond_the_seed_space_is_usage_error(tmp_path, capsys, command):
    # replication indices are 64-bit: refused before any table is allocated
    out = tmp_path / "x.csv"
    argv = [command, "--n", "4", "--reps", str(2**64 + 1), "--out", str(out)]
    message = "error: root and replication indices must be 64-bit unsigned integers\n"
    assert run(capsys, *argv) == (2, "", message)
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


# every subcommand that builds a market from flags or a config file
_MARKET_COMMANDS = ["simulate", "stable-partners", "compare", "solve", "sweep"]


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
        cfg.write_text(json.dumps({"n": 8, "k": 2, "delta": 2.0}))
        code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["delta"] == 2.0

    @pytest.mark.parametrize(
        "text,message",
        [(None, "cannot read config file"), ('{"n": 4,', "is not valid JSON"),
         ("", "is not valid JSON")],
    )
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_unreadable_file_is_usage_error(self, tmp_path, capsys, command, text, message):
        cfg = tmp_path / "market.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "x.csv"
        code, stdout, err = run(capsys, command, "--config", str(cfg), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ") and message in err and str(cfg) in err
        assert not out.exists()

    def test_non_object_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "market.json"
        cfg.write_text("[1, 2]")
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2 and err.startswith("error:") and "object" in err
        code, _, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize(
        "command,doc,key",
        [
            ("simulate", {"n": [1]}, "n"),
            ("simulate", {"n": 10.5}, "n"),
            ("simulate", {"n": "10"}, "n"),
            ("simulate", {"n": math.inf}, "n"),
            ("simulate", {"n": True}, "n"),
            ("simulate", {"n": 8, "k": True}, "k"),
            *[(command, {"n": 10, key: value}, key)
              for command in ("simulate", "sweep")
              for key, value in (("capacity", "2"), ("m_ratio", [1.0]), ("seed", True))],
        ],
    )
    def test_wrong_json_type_is_usage_error(self, tmp_path, capsys, command, doc, key):
        cfg = tmp_path / "market.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(capsys, command, "--config", str(cfg),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2 and err.startswith(f"error: {key} must be ")

    @pytest.mark.parametrize("command", _MARKET_COMMANDS)
    def test_custom_signal_from_file_is_usage_error(self, tmp_path, capsys, command):
        # a file's one signal field is "delta"; a "signal" key is unknown
        cfg = tmp_path / "market.json"
        cfg.write_text(json.dumps({"n": 4, "signal": "custom"}))
        out = tmp_path / "x.csv"
        code, stdout, err = run(capsys, command, "--config", str(cfg), "--out", str(out))
        message = "error: unknown market configuration field 'signal'\n"
        assert (code, stdout, err) == (2, "", message)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,doc,key",
        [
            ("simulate", {"n": 10, "capactiy": 2, "k": 2}, "capactiy"),
            ("simulate", {"n": 10, "k": 2, "reps": 3}, "reps"),
            ("sweep", {"n": 10, "k": 3, "delta": 2, "k_values": [1]}, "k"),
            ("sweep", {"n": 10, "signal": "gaussian", "k_values": [1]}, "signal"),
            ("sweep", {"n": 10, "base": {"capacity": 2}, "k_values": [1]}, "base"),
            ("sweep", {"n": 10, "replications": 2, "k_values": [1]}, "replications"),
            ("sweep", {"n": 10, "k_min": 2}, "k_min"),
            # the grid comes from flags only
            ("sweep", {"n": 10, "k_values": [1]}, "k_values"),
            ("sweep", {"n": 10, "deltas": [0.0]}, "deltas"),
            ("sweep", {"n": 10, "reps": 2}, "reps"),
            ("sweep", {"n": 10, "out": "s.csv"}, "out"),
            # an unknown key is named before a missing "n"
            ("simulate", {"nn": 10}, "nn"),
            ("sweep", {"base": {"n": 10}, "k_values": [1]}, "base"),
        ],
    )
    def test_key_the_command_does_not_read_is_usage_error(
        self, tmp_path, capsys, command, doc, key
    ):
        cfg = tmp_path / "market.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        code, stdout, err = run(capsys, command, "--config", str(cfg), "--out", str(out))
        assert code == 2 and stdout == "" and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,doc", [("simulate", {"k": 2}), ("sweep", {"m_ratio": 2, "capacity": 2})]
    )
    def test_config_file_without_n_is_usage_error(self, tmp_path, capsys, command, doc):
        cfg = tmp_path / "market.json"
        cfg.write_text(json.dumps(doc))
        code, stdout, err = run(capsys, command, "--config", str(cfg),
                                "--out", str(tmp_path / "x.csv"))
        assert (code, stdout, err) == (2, "", "error: --n is required (flag or config file)\n")

    @pytest.mark.parametrize("flags", [[], ["--delta", "0"], ["--delta", "2"]],
                             ids=["no flag", "flag 0", "flag 2"])
    @pytest.mark.parametrize("doc", [{}, {"delta": 1}], ids=["no file shift", "file shift 1"])
    def test_delta_flag_sets_the_shift_over_the_file(self, tmp_path, capsys, doc, flags):
        cfg = tmp_path / "market.json"
        cfg.write_text(json.dumps({"n": 4, "k": 2, **doc}))
        code, out, err = run(capsys, "simulate", "--config", str(cfg), "--format", "json", *flags)
        delta = float(flags[-1]) if flags else float(doc.get("delta", 0))
        assert (code, err) == (0, "") and json.loads(out)[0]["delta"] == delta
        # the same market as the flags alone give
        argv = ["simulate", "--n", "4", "--k", "2", "--format", "json", "--delta", str(delta)]
        assert run(capsys, *argv)[1] == out

    @pytest.mark.parametrize("value", ["iid", "gaussian", "custom"])
    @pytest.mark.parametrize("command", _MARKET_COMMANDS)
    def test_signal_flag_is_refused(self, tmp_path, capsys, command, value):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:  # argparse refuses the flag
            main([command, "--n", "4", "--signal", value, "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert (exc.value.code, stdout) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: --signal {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "signal",
        ["iid", "gaussian", "foo", None, {"kind": "iid"}, {"kind": "gaussian", "delta": 1}],
        ids=["iid", "gaussian", "unknown kind", "null", "kind object", "kind object with shift"],
    )
    @pytest.mark.parametrize("command", _MARKET_COMMANDS)
    def test_signal_key_is_an_unknown_field(self, tmp_path, capsys, command, signal):
        # every value the old "signal" key took, in every command that reads a file
        cfg = tmp_path / "market.json"
        cfg.write_text(json.dumps({"n": 4, "signal": signal}))
        out = tmp_path / "x.csv"
        code, stdout, err = run(capsys, command, "--config", str(cfg), "--out", str(out))
        message = "error: unknown market configuration field 'signal'\n"
        assert (code, stdout, err) == (2, "", message)
        assert not out.exists()

    @pytest.mark.parametrize("delta", [0, 1, 2])
    @pytest.mark.parametrize(
        "argv",
        [["simulate"], ["simulate", "--format", "json"], ["stable-partners"], ["compare"],
         ["solve"], ["solve", "--method", "general"]],
        ids=["simulate csv", "simulate json", "stable-partners", "compare", "solve iid",
             "solve general"],
    )
    def test_file_shift_gives_the_flags_market(self, tmp_path, capsys, argv, delta):
        # a flat file and the flags spell one market: same streams, files and exit code
        cfg = tmp_path / "market.json"
        cfg.write_text(json.dumps({"n": 6, "k": 2, "seed": 5, "delta": delta}))
        runs = []
        for name, market in (("file", ["--config", str(cfg)]),
                             ("flags", ["--n", "6", "--k", "2", "--seed", "5",
                                        "--delta", str(delta)])):
            (tmp_path / name).mkdir()
            result = run(capsys, *argv, *market, "--out", str(tmp_path / name / "x.csv"))
            files = {f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())}
            runs.append((result, files))
        assert runs[0] == runs[1]
        # solve's iid method refuses a shift both ways; every other run writes its file
        assert runs[0][0][0] == (2 if argv == ["solve"] and delta else 0)
        assert bool(runs[0][1]) == (runs[0][0][0] == 0)


class TestStacking:
    """Replications run in stacks; the outputs must not depend on how many."""

    # Each case's third budget packs several replications per stack and leaves
    # a partial last one (reps 7 -> 2, 2, 2, 1; 6 -> 4, 2; sweep k = 1: 2 x 5 -> 8, 2).
    @pytest.mark.parametrize(
        "argv,partial",
        [
            (["simulate", "--n", "30", "--k", "3", "--capacity", "2", "--delta", "1",
              "--reps", "7", "--format", "json"], 180),
            (["sweep", "--n", "20", "--k-list", "1,4,20", "--deltas", "0,2", "--reps", "5"], 160),
            (["stable-partners", "--n", "12", "--k", "4", "--m-ratio", "0.5", "--reps", "6"],
             192),
            (["compare", "--n", "25", "--k", "5", "--reps", "6"], 500),
        ],
    )
    def test_outputs_equal_at_every_stack_budget(
        self, tmp_path, capsys, monkeypatch, argv, partial
    ):
        from admitsim import cli

        outputs, stacks, shifts = [], {}, {}
        original = cli._sample_stack

        def sample_stack(config, rngs, block_shifts=None):
            stacks.setdefault(config, []).append(len(rngs))
            shifts.setdefault(cli._STACK_APPS, []).append(block_shifts)
            return original(config, rngs, block_shifts)

        monkeypatch.setattr(cli, "_sample_stack", sample_stack)
        for budget in (cli._STACK_APPS, 1, partial):
            monkeypatch.setattr(cli, "_STACK_APPS", budget)
            out = tmp_path / f"out-{budget}.csv"
            stacks.clear()
            code, stdout, _ = run(capsys, *argv, "--seed", "5", "--out", str(out))
            assert code == 0
            summary = out.with_suffix(out.suffix + ".summary.csv")
            outputs.append((stdout, out.read_bytes(),
                            summary.read_bytes() if summary.exists() else None))
        # the last budget split some market's replications into stacks of
        # several, the last of them partial
        assert any(1 < sizes[0] > sizes[-1] for sizes in stacks.values())
        if argv[0] == "sweep":
            # at the default budget, the cells of one k share a stack
            assert any(len(set(s)) == 2 for s in shifts[cli._STACK_APPS])
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0][1]) > 100


class TestOneReplicationAtATime:
    """Rows built from stacked count tables equal the records of each replication,
    sampled, matched and summarised alone."""

    @staticmethod
    def records(root, configs):
        return [
            make_record(instance, school_proposing_da(instance))
            for i, config in enumerate(configs)
            for instance in [sample_market(replace(config, seed=child_seed(root, i)))]
        ]

    def test_sweep_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--n", "15", "--k-list", "2,5", "--deltas", "0,1.5", "--reps", "3"]
        assert run(capsys, *argv, "--seed", "9", "--out", str(out))[0] == 0
        configs = [
            MarketConfig(n=15, k=k, signal=SignalSpec.gaussian(delta) if delta else SignalSpec())
            for delta in (0.0, 1.5) for k in (2, 5) for _ in range(3)
        ]
        expected = io.StringIO()
        write_records_csv(self.records(9, configs), expected)
        assert out.read_text() == expected.getvalue()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_simulate_rows(self, capsys, fmt):
        argv = ["simulate", "--n", "12", "--m-ratio", "1.5", "--capacity", "2", "--k", "3",
                "--delta", "1", "--reps", "5", "--seed", "4", "--format", fmt]
        code, out, _ = run(capsys, *argv)
        config = MarketConfig(n=12, m_ratio=1.5, capacity=2, k=3, signal=SignalSpec.gaussian(1.0))
        records = self.records(4, [config] * 5)
        if fmt == "json":
            expected = _records_json(records)
        else:
            buf = io.StringIO()
            write_records_csv(records, buf)
            expected = buf.getvalue()
        assert code == 0 and out == expected


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


def _source_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


class TestRuntimeDependencies:
    def test_numpy_is_the_only_third_party_module(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", _DEPENDENCY_PROBE, str(tmp_path / "out")],
            capture_output=True, text=True, env=_source_env(), check=True,
        )
        assert proc.stdout == "[]\n"
        assert (tmp_path / "out.csv").stat().st_size > 0


class TestEntryPoint:
    def test_python_dash_m_admitsim(self, tmp_path, capsys):
        cfg = tmp_path / "market.json"
        argv = [sys.executable, "-m", "admitsim", "simulate", "--config", str(cfg)]
        cfg.write_text(json.dumps({"n": 10, "k": 2, "seed": 4}))
        proc = subprocess.run(argv, capture_output=True, text=True, env=_source_env())
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == run(capsys, "simulate", "--config", str(cfg))[1]
        cfg.write_text(json.dumps({"n": 10, "capactiy": 2}))
        proc = subprocess.run(argv, capture_output=True, text=True, env=_source_env())
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "capactiy" in proc.stderr


def _cap_address_space() -> None:
    """Cap the child's address space at 4 GiB, so that a huge table fails to allocate."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the address-space cap that makes the allocation fail is Linux's")
class TestHugeMarkets:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", str(10**12)],
        ["simulate", "--n", "10", "--reps", str(10**12)],
        ["compare", "--n", str(10**12)],
        ["stable-partners", "--n", str(10**12)],
    ])
    def test_a_market_too_large_to_allocate_ends_with_one_line(self, argv):
        # the first table that does not fit is the size check: no traceback,
        # and no per-university loop runs before it
        env = dict(_source_env(), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "admitsim", *argv], capture_output=True,
                              text=True, env=env, preexec_fn=_cap_address_space, timeout=60)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 1 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert elapsed < 1.0, elapsed
