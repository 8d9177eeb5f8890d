"""Command-line entry point: exit codes, parameter precedence, catalog and formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmodes import scenarios
from qmodes.cli import _PARAM_FLAGS, _build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def report(out_dir, name):
    return json.loads((out_dir / f"{name}_report.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "argv, config_text",
    [
        (["figures", "no-such-scenario"], None),
        (["ammonia", "--isotope", "XX3"], None),
        (["figures", "fig3", "--config", "{config}"], "b = 0.3\nthis line has no equals sign\n"),
        (["figures", "fig3", "--config", "{missing}"], None),
    ],
    ids=["unknown-scenario", "unknown-isotope", "malformed-config", "missing-config"],
)
def test_bad_input_exits_2_with_an_error_line(tmp_path, capsys, argv, config_text):
    config = tmp_path / "run.cfg"
    if config_text is not None:
        config.write_text(config_text, encoding="utf-8")
    argv = [a.format(config=config, missing=tmp_path / "absent.cfg") for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qmodes: error: ")
    assert len(err.strip().splitlines()) == 1


def test_precedence_defaults_then_config_then_flags(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# coupling override\nb = 0.3\n", encoding="utf-8")
    common = ["--grid-points", "256"]

    assert main(["schmidt", *common, "--out", str(tmp_path / "d")]) == 0
    assert report(tmp_path / "d", "schmidt")["parameters"]["b"] == 0.5

    assert main(["schmidt", *common, "--config", str(config), "--out", str(tmp_path / "c")]) == 0
    assert report(tmp_path / "c", "schmidt")["parameters"]["b"] == 0.3

    argv = ["schmidt", *common, "--config", str(config), "--b", "0.7", "--out", str(tmp_path / "f")]
    assert main(argv) == 0
    assert report(tmp_path / "f", "schmidt")["parameters"]["b"] == 0.7
    capsys.readouterr()


def test_list_prints_every_scenario(capsys):
    assert main(["list"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert names == list(scenarios.SCENARIOS)
    assert len(names) == 16


def test_json_format_writes_json_tables(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["figures", "fig1", "--grid-points", "256", "--format", "json", "--out", str(out)]) == 0
    files = report(out, "fig1")["files"]
    assert files and all(name.endswith(".json") for name in files)
    for name in files:
        table = json.loads((out / name).read_text(encoding="utf-8"))
        assert len(table["columns"]) == len(table["rows"][0])
    capsys.readouterr()


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: the test session itself may have imported scipy
    code = "import sys, qmodes.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert result.stdout.strip() == "[]"


def test_seed_flag_is_rejected_by_argparse(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figures", "fig3", "--seed", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_seed_config_line_is_an_unknown_parameter(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("seed = 1\n", encoding="utf-8")
    assert main(["figures", "fig3", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "unknown parameters for 'fig3': ['seed']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("slits", ["--m", "--a", "--sigma-x", "--sigma-xi"]),
        ("ammonia", ["--isotope", "--mass"]),
        ("figures", ["name"]),
    ],
)
def test_command_help_lists_its_flags(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in [*flags, "--config", "--out", "--format", "--grid-points"]:
        assert flag in out, flag
    assert "--seed" not in out


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    commands = ["list", "figures", *_PARAM_FLAGS]
    assert len(commands) == 9
    assert "{" + ",".join(commands) + "}" in out
    for command in _PARAM_FLAGS:
        assert f"run the {command} scenario" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["figures", "fig3", "--grid-points", "64", "--format", "json"],
        ["slits", "--m", "5", "--a", "2.5", "--out", "x"],
        ["ammonia", "--isotope", "ND3", "--mass", "3"],
        ["qubits", "--n-sweep", "5", "--g0-max", "1e-3"],
        ["tomography", "--n-points", "8", "--config", "c.cfg"],
    ],
)
def test_single_command_parser_parses_as_the_full_parser(argv):
    assert _build_parser(argv[0]).parse_args(argv) == _build_parser().parse_args(argv)
