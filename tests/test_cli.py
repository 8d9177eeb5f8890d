"""Command-line entry point: exit codes, parameter precedence, catalog and formats."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmodes import scenarios
from qmodes.cli import _build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = ["slits", "entangled", "schmidt", "coherence", "ammonia", "qubits", "tomography"]


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
    commands = ["list", "figures", *COMMANDS]
    assert len(commands) == 9
    assert "{" + ",".join(commands) + "}" in out
    for command in COMMANDS:
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


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_flags_are_its_defaults_with_their_types(command):
    parser = _build_parser(command)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[command]
    common = {"help", "config", "out", "format", "grid_points"}
    flags = {a.dest: (a.option_strings, a.type) for a in sub._actions if a.dest not in common}
    defaults = scenarios.SCENARIOS[command].defaults
    assert flags == {k: (["--" + k.replace("_", "-")], type(v)) for k, v in defaults.items()}


def test_config_keys_a_scenario_does_not_take_are_rejected(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("isotope = XX\nn_sweep = 7\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["figures", "fig3", "--config", str(config), "--out", str(out)]) == 2
    assert "unknown parameters for 'fig3': ['isotope', 'n_sweep']" in capsys.readouterr().err
    assert not (out / "fig3_report.json").exists()


@pytest.mark.parametrize("line", ["m = 2.5", "m = nan", "m = inf", "a = wide"])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, line):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    assert main(["slits", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    key = line.split()[0]
    assert f"parameter {key!r} takes a" in capsys.readouterr().err


def test_integral_config_values_take_the_default_type(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("m = 3.0\na = 4\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["slits", "--grid-points", "256", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    parameters = report(out, "slits")["parameters"]
    assert (parameters["m"], parameters["a"]) == (3.0, 4.0)
    assert "c_squared" not in report(out, "slits")["scalars"]


@pytest.mark.parametrize("n_sweep", ["4", "0", "1", "-3"])
def test_qubit_sweep_needs_an_odd_count_of_at_least_3(tmp_path, capsys, n_sweep):
    assert main(["qubits", "--n-sweep", n_sweep, "--out", str(tmp_path / "out")]) == 2
    assert f"n_sweep must be odd and at least 3, got {n_sweep}" in capsys.readouterr().err


def test_zero_g0_max_is_the_default_auto_range(tmp_path, capsys):
    assert main(["qubits", "--out", str(tmp_path / "default")]) == 0
    assert main(["qubits", "--g0-max", "0", "--out", str(tmp_path / "zero")]) == 0
    capsys.readouterr()
    for name in ("qubits_report.json", "qubits_sweep.csv"):
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "zero" / name).read_bytes()
    assert report(tmp_path / "zero", "qubits")["scalars"]["g0_max"] > 0


@pytest.mark.parametrize("command", ["figures", *COMMANDS])
def test_single_command_parser_help_is_the_full_parsers(command):
    def subparsers(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    single = subparsers(_build_parser(command))
    assert list(single) == [command]
    assert single[command].format_help() == subparsers(_build_parser())[command].format_help()


@pytest.mark.parametrize("value", ["300.7", "many"])
def test_config_grid_points_must_be_an_integer(tmp_path, capsys, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"grid_points = {value}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["figures", "fig1", "--config", str(config), "--out", str(out)]) == 2
    assert "parameter 'grid_points' takes a int" in capsys.readouterr().err
    assert not out.exists()


def test_integral_config_grid_points_is_taken(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("grid_points = 300.0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["figures", "fig1", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert len((out / "fig1_momentum.csv").read_text(encoding="utf-8").splitlines()) == 301


@pytest.mark.parametrize("g0_max", ["-0.05", "-1e-300", "inf", "nan"])
def test_negative_or_non_finite_g0_max_exits_2(tmp_path, capsys, g0_max):
    out = tmp_path / "out"
    assert main(["qubits", f"--g0-max={g0_max}", "--n-sweep", "5", "--out", str(out)]) == 2
    assert "g0_max must be finite and non-negative" in capsys.readouterr().err
    assert not (out / "qubits_report.json").exists()
