"""The README's quick start runs as printed."""

from __future__ import annotations

import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import admitsim
from admitsim import cli

ROOT = Path(__file__).resolve().parents[1]


def test_quick_start_block_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    assert lines[2].startswith("quadrature-bisection ")


def cli_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("## CLI", 1)[1].split("\n## ", 1)[0]


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Every command of the CLI section's shell block, in process through
    ``cli.main`` in a scratch directory, as the packaging CI job runs them
    through the console script.  It takes about 1.6 s on a 2-core x86-64
    host, most of it the sweep of 15 000 markets."""
    block = re.search(r"```sh\n(.*?)```", cli_section(), re.S).group(1).replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert {command[1] for command in commands} == {
        "simulate", "solve", "sweep", "stable-partners", "compare"}
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert command[0] == "admitsim"
        assert cli.main(command[1:]) == 0, (command, capsys.readouterr().err)
        if "--out" in command:
            out = tmp_path / command[command.index("--out") + 1]
            assert out.stat().st_size > 0, command
    for summary in ("sweep.csv.summary.csv", "verdicts.csv.summary.csv"):
        assert (tmp_path / summary).stat().st_size > 0


def test_config_block_loads_and_runs(tmp_path, capsys):
    """The CLI section's ``--config`` document loads through
    ``MarketConfig.from_json_dict`` and drives ``simulate --config``, as the
    packaging CI job runs it through the console script."""
    text = re.search(r"```json\n(.*?)```", cli_section(), re.S).group(1)
    config = admitsim.MarketConfig.from_json_dict(json.loads(text))
    path = tmp_path / "market.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["simulate", "--config", str(path), "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)[0]
    assert (record["n"], record["k"]) == (config.n, config.k)
    assert record["delta"] == config.signal.delta != 0.0
    assert record["seed"] == admitsim.child_seed(config.seed, 0)


def test_cli_section_names_only_existing_flags(capsys):
    """Every ``--flag`` of the CLI section, in its shell block and its prose
    alike, is listed by the ``--help`` of some subcommand; running the block
    alone does not catch prose that names a removed flag."""
    flag = re.compile(r"(?<![\w-])--[a-z](?:[a-z-]*[a-z])?")
    listed = set()
    for command in ("simulate", "solve", "sweep", "stable-partners", "compare"):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        listed.update(flag.findall(capsys.readouterr().out))
    named = set(flag.findall(cli_section()))
    assert "--m-ratio" in named and "--format" in named
    assert named <= listed, sorted(named - listed)


def test_package_bullets_name_existing_attributes():
    """Every backticked name in the "The package provides" bullets is an
    attribute of ``admitsim`` or of the submodule its bullet names, and every
    backticked path is a file of the repository, so the README cannot name a
    deleted function."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.split(r"The package\s+provides:", readme, maxsplit=1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- \*\*`(admitsim\.\w+)`\*\*(.*?)(?=^- |\Z)", section, re.S | re.M)
    assert [name for name, _ in bullets] == [
        "admitsim.market", "admitsim.matching", "admitsim.stable_partners",
        "admitsim.fixed_point", "admitsim.analytics", "admitsim.cli"]
    named = 0
    for module_name, text in bullets:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([^`]+)`", text):
            named += 1
            if "/" in name:
                assert (ROOT / name).is_file(), name
            else:
                assert hasattr(module, name) or hasattr(admitsim, name), (module_name, name)
    assert named >= 20
