"""Command-line entry point: exit codes, parameter precedence, catalog and formats."""

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from qmodes import cli, scenarios, tunneling
from qmodes.cli import _parse, main
from qmodes.numerics import MAX_COUNT, MAX_SLITS, grid

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = ["slits", "entangled", "schmidt", "coherence", "ammonia", "qubits", "tomography"]
# `qmodes list`: the ten figure presets, then the commands that are not one
CATALOG = [
    *["fig1", "fig2", "fig3", "fig4", "fig5", "fig6-data", "fig7", "fig10", "ammonia", "tomography-demo"],
    *["slits", "entangled", "schmidt", "coherence", "qubits", "tomography"],
]
FIGURES = CATALOG[:10]


def report(out_dir, name):
    return json.loads((out_dir / f"{name}_report.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "argv, config_text",
    [
        (["figures", "no-such-scenario"], None),
        (["ammonia", "--isotope", "XX3"], None),
        (["figures", "fig3", "--config", "{config}"], "b = 0.3\nthis line has no equals sign\n"),
        (["figures", "fig3", "--config", "{missing}"], None),
        (["figures", "fig3", "--format", "xml"], None),
        (["figures", "fig3", "--grid-points", "15"], None),
        (["figures", "fig3", "--config", "{config}"], "b = 0.3\nseed = 7\n"),
        (["figures", "fig7", "--out", ""], None),
        (["figures", "fig7", "--config", "{config}"], "out =\n"),
    ],
    ids=[
        "unknown-scenario",
        "unknown-isotope",
        "malformed-config",
        "missing-config",
        "unknown-format",
        "too-few-grid-points",
        "unknown-config-key",
        "empty-out-flag",
        "empty-out-config",
    ],
)
def test_bad_input_exits_2_with_an_error_line(tmp_path, capsys, monkeypatch, argv, config_text):
    config = tmp_path / "run.cfg"
    if config_text is not None:
        config.write_text(config_text, encoding="utf-8")
    argv = [a.format(config=config, missing=tmp_path / "absent.cfg") for a in argv]
    # run from an empty directory: the default output directory, and an
    # empty one, which would be the working directory itself, both lie there
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("qmodes: error: ")
    assert len(err.strip().splitlines()) == 1
    # every input is checked before the output directory is made
    assert list(cwd.iterdir()) == []


def test_precedence_defaults_then_config_then_flags(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    # the output directory is text: read as a number, 1e3 would be 1000.0
    config.write_text("# coupling override\nb = 0.3\nout = 1e3\n", encoding="utf-8")
    common = ["--grid-points", "256"]

    assert main(["schmidt", *common, "--out", str(tmp_path / "d")]) == 0
    assert report(tmp_path / "d", "schmidt")["parameters"]["b"] == 0.5

    assert main(["schmidt", *common, "--config", str(config), "--out", str(tmp_path / "c")]) == 0
    assert report(tmp_path / "c", "schmidt")["parameters"]["b"] == 0.3

    argv = ["schmidt", *common, "--config", str(config), "--b", "0.7", "--out", str(tmp_path / "f")]
    assert main(argv) == 0
    assert report(tmp_path / "f", "schmidt")["parameters"]["b"] == 0.7
    assert not (tmp_path / "1e3").exists()

    assert main(["schmidt", *common, "--config", str(config)]) == 0
    assert report(tmp_path / "1e3", "schmidt")["parameters"]["b"] == 0.3
    capsys.readouterr()


def test_list_prints_every_scenario(capsys):
    assert main(["list"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert names == list(scenarios.SCENARIOS) == CATALOG
    assert names[10:] == [c for c in COMMANDS if c not in FIGURES]


def test_help_lists_the_commands_in_order_and_each_is_a_catalog_entry(capsys):
    assert main(["--help"]) == 0
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage == "usage: qmodes {" + ",".join(["list", "figures", *cli._COMMANDS]) + "} ..."
    assert list(cli._COMMANDS) == COMMANDS
    assert set(COMMANDS) <= set(scenarios.SCENARIOS)


@pytest.mark.parametrize("name", ["nope", "detector-sweep", "source-sweep", "coupling-curve"])
def test_unknown_figure_name_points_at_qmodes_list(tmp_path, capsys, name):
    # the names of fig4's, fig6-data's and fig7's computations are no catalog entries
    out = tmp_path / "out"
    assert main(["figures", name, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"qmodes: error: unknown scenario {name!r}; see 'qmodes list'\n"
    assert not out.exists()


# (preset, command) of each figure preset that runs a command's runner
PRESET_COMMAND_PAIRS = [
    (preset, command)
    for preset in FIGURES
    for command in COMMANDS
    if scenarios.SCENARIOS[preset][1] is scenarios.SCENARIOS[command][1]
]


def overrides_of(preset, command):
    """The keys of ``preset``'s defaults that differ from ``command``'s, with their values."""
    theirs = scenarios.SCENARIOS[command][2]
    return {k: v for k, v in scenarios.SCENARIOS[preset][2].items() if v != theirs.get(k)}


PRESETS_OF_COMMANDS = [(p, c, overrides_of(p, c)) for p, c in PRESET_COMMAND_PAIRS]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "preset, command, overrides", PRESETS_OF_COMMANDS, ids=[p for p, *_ in PRESETS_OF_COMMANDS]
)
def test_a_preset_is_its_command_with_its_overrides_as_flags(tmp_path, capsys, preset, command, overrides, fmt):
    flags = [text for key, value in overrides.items() for text in ("--" + key.replace("_", "-"), str(value))]
    assert main(["figures", preset, "--format", fmt, "--out", str(tmp_path / "preset")]) == 0
    assert main([command, *flags, "--format", fmt, "--out", str(tmp_path / "command")]) == 0
    capsys.readouterr()
    mine, theirs = report(tmp_path / "preset", preset), report(tmp_path / "command", command)
    # the data files are byte-equal; the reports differ in the scenario and the file names alone
    assert [command + name.removeprefix(preset) for name in mine["files"]] == theirs["files"]
    for name, same in zip(mine["files"], theirs["files"]):
        assert (tmp_path / "preset" / name).read_bytes() == (tmp_path / "command" / same).read_bytes()
    assert {**mine, "scenario": command, "files": theirs["files"]} == theirs


def test_each_preset_of_a_command_differs_from_it_in_its_overrides_alone():
    for preset, command in PRESET_COMMAND_PAIRS:
        assert set(scenarios.SCENARIOS[preset][2]) == set(scenarios.SCENARIOS[command][2]), preset
    assert PRESET_COMMAND_PAIRS == [
        ("fig1", "slits"),
        ("fig2", "entangled"),
        ("fig3", "schmidt"),
        ("fig5", "schmidt"),
        ("fig10", "qubits"),
        ("ammonia", "ammonia"),
        ("tomography-demo", "tomography"),
    ]
    assert {p: o for p, _, o in PRESETS_OF_COMMANDS if o} == {"fig2": {"b": 0.7}, "fig5": {"m": 5}}
    # every entry has a summary; a preset that no command runs has a runner of its own
    assert all(summary for summary, _, _ in scenarios.SCENARIOS.values())
    runners = [scenarios.SCENARIOS[name][1] for name in ("fig4", "fig6-data", "fig7")]
    assert len(set(runners)) == 3
    assert set(runners).isdisjoint(scenarios.SCENARIOS[name][1] for name in COMMANDS)


def test_json_format_writes_json_tables(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["figures", "fig1", "--grid-points", "256", "--format", "json", "--out", str(out)]) == 0
    files = report(out, "fig1")["files"]
    assert files and all(name.endswith(".json") for name in files)
    for name in files:
        table = json.loads((out / name).read_text(encoding="utf-8"))
        assert len(table["columns"]) == len(table["rows"][0])
    capsys.readouterr()


def test_cli_import_loads_no_scipy(tmp_path):
    # a fresh interpreter, as each user run starts (this test session has
    # imported all four): scipy is a test extra only, and argparse with the
    # gettext and locale it pulls in costs a fresh run about 3 ms of set-up
    code = (
        "import sys, qmodes.cli\n"
        f"assert qmodes.cli.main(['figures', 'fig7', '--out', {str(tmp_path)!r}]) == 0\n"
        "roots = ('scipy', 'argparse', 'gettext', 'locale')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in roots))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert result.stdout.splitlines()[-1] == "[]"


def modules_added_by(statement):
    """The modules ``statement`` adds to a fresh interpreter's; the
    baseline is that interpreter's own modules, which include whatever its
    site-packages' .pth files load."""
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_cli_import_adds_only_the_standard_library_numpy_and_qmodes():
    # every module qmodes adds to a fresh run is set-up that each run pays for
    added = modules_added_by("import qmodes.cli")
    package = {"qmodes"} | {f"qmodes.{p.stem}" for p in (SRC / "qmodes").glob("*.py") if p.stem != "__init__"}
    assert len(package) == 10
    allowed_roots = sys.stdlib_module_names | {"numpy"}
    assert sorted(m for m in added - package if m.split(".")[0] not in allowed_roots) == []
    assert package <= added


# the package file is its docstring: a module is imported by name, and
# loads only itself and what it imports
@pytest.mark.parametrize(
    "statement, expected, loads_numpy",
    [
        ("import qmodes", {"qmodes"}, False),
        ("from qmodes import schmidt", {"qmodes", "qmodes.schmidt", "qmodes.interference", "qmodes.numerics"}, True),
    ],
)
def test_a_package_or_module_import_loads_only_what_it_names(statement, expected, loads_numpy):
    added = modules_added_by(statement)
    assert {m for m in added if m.split(".")[0] == "qmodes"} == expected
    assert ("numpy" in added) == loads_numpy


def test_seed_flag_is_an_unknown_flag(tmp_path, capsys):
    assert main(["figures", "fig3", "--seed", "1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qmodes: error: unknown flag '--seed'")
    assert len(err.strip().splitlines()) == 1


def test_seed_config_line_is_an_unknown_parameter(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("seed = 1\n", encoding="utf-8")
    assert main(["figures", "fig3", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "unknown parameters for 'fig3': ['seed']" in capsys.readouterr().err


def test_a_config_with_a_byte_order_mark_is_read(tmp_path, capsys):
    # editors that save "UTF-8 with BOM" prefix the file with EF BB BF; read
    # as plain UTF-8 it made the first key '\ufeffm', an unknown parameter
    config = tmp_path / "run.cfg"
    config.write_bytes(b"\xef\xbb\xbfm = 3\na = 4.5\n")
    out = tmp_path / "out"
    assert main(["schmidt", "--grid-points", "256", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    parameters = report(out, "schmidt")["parameters"]
    assert (parameters["m"], parameters["a"]) == (3, 4.5)


@pytest.mark.parametrize(
    "command, flags",
    [
        ("slits", ["--m", "--a", "--sigma-x"]),
        ("ammonia", ["--isotope", "--mass"]),
        ("figures", ["name"]),
    ],
)
def test_command_help_lists_its_flags(capsys, command, flags):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    for flag in [*flags, "--config", "--out", "--format", "--grid-points"]:
        assert flag in out, flag
    assert "--seed" not in out


def test_top_level_help_lists_every_subcommand(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    commands = ["list", "figures", *COMMANDS]
    assert len(commands) == 9
    assert "{" + ",".join(commands) + "}" in out
    for command in COMMANDS:
        assert f"run the {command} scenario" in out


# the parser reads only the table of the command in argv[0]; these are the
# flags the argparse parser built for every command read from the same argv
@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["figures", "fig3", "--grid-points", "64", "--format", "json"],
            ("figures", "fig3", {"grid_points": "64", "format": "json"}),
        ),
        (
            ["slits", "--m", "5", "--a", "2.5", "--out", "x"],
            ("slits", "slits", {"m": "5", "a": "2.5", "out": "x"}),
        ),
        (
            ["ammonia", "--isotope", "ND3", "--mass", "3"],
            ("ammonia", "ammonia", {"isotope": "ND3", "mass": "3"}),
        ),
        (
            ["qubits", "--n-sweep", "5", "--g0-max", "1e-3"],
            ("qubits", "qubits", {"n_sweep": "5", "g0_max": "1e-3"}),
        ),
        (
            ["tomography", "--n-points", "8", "--config", "c.cfg"],
            ("tomography", "tomography", {"n_points": "8", "config": "c.cfg"}),
        ),
    ],
    ids=[f"argv{i}" for i in range(5)],
)
def test_single_command_parser_parses_as_the_full_parser(argv, expected):
    assert _parse(argv) == expected


@pytest.mark.parametrize("command", ["figures", *COMMANDS])
def test_single_command_parser_help_is_the_full_parsers(capsys, command):
    # a command's help lists every flag it takes, each with its default
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    defaults = {"config": None, "out": "qmodes-out", "format": "csv", "grid_points": 1024}
    if command != "figures":
        defaults.update(scenarios.SCENARIOS[command][2])
    rows = [line.split() for line in out.splitlines() if line.startswith("  --")]
    assert {row[0]: " ".join(row[-2:]) for row in rows} == {
        "--" + key.replace("_", "-"): f"(default: {value})" for key, value in defaults.items()
    }


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_flags_are_its_defaults_with_their_types(tmp_path, capsys, command):
    defaults = scenarios.SCENARIOS[command][2]
    config = tmp_path / "empty.cfg"
    config.write_text("", encoding="utf-8")
    # every flag the command takes, each given its default's text
    argv = [command, "--config", str(config), "--format", "csv", "--grid-points", "1024"]
    for key, value in defaults.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    assert main([*argv, "--out", str(tmp_path / "flags")]) == 0
    assert main([command, "--out", str(tmp_path / "plain")]) == 0
    name = f"{command}_report.json"
    assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    capsys.readouterr()

    for key, value in defaults.items():
        if not isinstance(value, str):
            assert main([command, "--" + key.replace("_", "-"), "wide", "--out", str(tmp_path / "x")]) == 2
            assert f"parameter {key!r} takes a {type(value).__name__}" in capsys.readouterr().err
    # no other flag: an unknown key, a prefix, the key's own spelling, another command's key
    foreign = sorted({k for c in COMMANDS for k in scenarios.SCENARIOS[c][2]} - set(defaults))
    for flag in ["--seed", "--grid", "--grid_points", "--" + foreign[0].replace("_", "-")]:
        assert main([command, flag, "1", "--out", str(tmp_path / "x")]) == 2, flag
        err = capsys.readouterr().err
        assert err.startswith(f"qmodes: error: unknown flag {flag!r}"), err
    assert not (tmp_path / "x").exists()


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


@pytest.mark.parametrize("command", ["ammonia", "qubits"])
def test_an_infinite_mass_is_named(tmp_path, capsys, command):
    # the fit once searched for a bracket and blamed the splitting target
    assert main([command, "--mass", "inf", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "qmodes: error: mass must be finite and positive, got inf\n"
    assert not (tmp_path / "out").exists()


def test_zero_g0_max_is_the_default_auto_range(tmp_path, capsys):
    assert main(["qubits", "--out", str(tmp_path / "default")]) == 0
    assert main(["qubits", "--g0-max", "0", "--out", str(tmp_path / "zero")]) == 0
    capsys.readouterr()
    for name in ("qubits_report.json", "qubits_sweep.csv"):
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "zero" / name).read_bytes()
    assert report(tmp_path / "zero", "qubits")["scalars"]["g0_max"] > 0


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


def exits_2_with_one_error_line(argv, out, capsys):
    """Run argv, which must fail without a warning: exit 2, one error line, no file in out."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1 and err[0].startswith("qmodes: error: ")
    assert not out.exists() or not any(out.iterdir())
    return err[0]


@pytest.mark.parametrize("g0_max", ["1e307", "1e308"])
def test_g0_max_that_overflows_the_sweep_exits_2(tmp_path, capsys, g0_max):
    # 1e307 / (contact * splitting) overflows; at 1e308 so does the span 2 g0_max
    err = exits_2_with_one_error_line(["qubits", "--g0-max", g0_max], tmp_path / "out", capsys)
    assert f"g0_max {float(g0_max)} overflows" in err


# fit masses from the smallest float to the largest.  The fit refuses a mass
# below 1.2148e-302, where alpha overflows, and above 59.5886, where the
# splitting at overlap 0.01 is below the target; ammonia also refuses the
# masses whose isotope wells' DVR splitting lies below its rounding floor
MASS_SWEEP = [
    *("5e-324", "1e-303", "1.3e-302", "1e-300", "1e-200", "1e-100", "1e-30", "5e-23", "1e-21", "1.3e-20"),
    *("1e-10", "1e-3", "0.1", "0.5", "1", "2.47", "14", "59.5", "59.6", "100", "1000", "1e300", "1e308"),
]


@pytest.mark.parametrize("command", ["ammonia", "qubits"])
def test_mass_sweep_runs_or_exits_2_with_one_error_line(tmp_path, capsys, command):
    flagged, refused = [], {}
    # a warning prints as the line a user sees, not as the test's exception
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        for mass in MASS_SWEEP:
            out = tmp_path / mass
            try:
                code = main([command, "--mass", mass, "--out", str(out)])
            except Exception as exc:  # a user would see a traceback
                code = f"Traceback: {type(exc).__name__}: {exc}"
            lines = capsys.readouterr().err.splitlines()
            errors = [line for line in lines if line.startswith("qmodes: error: ")]
            others = [line for line in lines if line not in errors and not line.startswith("qmodes: warning: ")]
            if code == 2 and len(errors) == 1 and not out.exists():
                refused[mass] = errors[0]
            elif not (code == 0 and not errors and all(np.isfinite(data_values(f)).all() for f in out.iterdir())):
                flagged.append((mass, code, lines))
            if others:
                flagged.append((mass, code, others))
    assert flagged == []
    fit_refused = {mass: err for mass, err in refused.items() if "too small" in err or "too large" in err}
    assert list(fit_refused) == ["5e-324", "1e-303", "59.6", "100", "1000", "1e300", "1e308"]
    if command == "qubits":
        assert refused == fit_refused


@pytest.mark.parametrize(
    "mass, error",
    [
        ("1e-30", "no grid within 2048 points resolves the wells: sigma_x 1.37e-09 is below the spacing 0.00205 "),
        ("1e-10", "no grid within 2048 points resolves the wells: sigma_x 0.000209 is below the spacing 0.00205 "),
        ("1e-3", "rounding floor 1.19e-09 of a 288-point solve exceeds 1e-09 of the splitting "),
    ],
    ids=["1e-30", "1e-10", "1e-3"],
)
def test_a_light_ammonia_fit_names_what_stops_its_eigensolve(tmp_path, capsys, mass, error):
    # the NH3 well of a light fit is narrow: a grid coarser than its sigma_x
    # cannot hold its states, so the solve starts where the grid resolves
    # sigma_x, or is refused if no grid within the cap does
    assert main(["ammonia", "--mass", mass, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qmodes: error: " + error) and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


# a value other than the default for every key of a parametric command
FLAG_VALUES = {
    "m": "3",
    "a": "4.5",
    "b": "0.3",
    "sigma_x": "0.6",
    "sigma_xi": "0.4",
    "phi": "-1e-3",
    "isotope": "ND3",
    "mass": "2.5",
    "g0_max": "0.01",
    "n_sweep": "7",
    "n_points": "16",
}


@pytest.mark.parametrize(
    "command, key", [(c, k) for c in COMMANDS for k in scenarios.SCENARIOS[c][2]]
)
def test_flag_and_config_line_give_the_same_parameters(tmp_path, capsys, command, key):
    value = FLAG_VALUES[key]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    flag = "--" + key.replace("_", "-")
    assert main([command, flag, value, "--out", str(tmp_path / "flag")]) == 0
    assert main([command, "--config", str(config), "--out", str(tmp_path / "config")]) == 0
    capsys.readouterr()
    parameters = report(tmp_path / "flag", command)["parameters"]
    assert parameters == report(tmp_path / "config", command)["parameters"]
    assert parameters[key] != scenarios.SCENARIOS[command][2][key]


def test_negative_exponent_flag_values_are_values(tmp_path, capsys):
    assert main(["coherence", "--phi", "-1e-3", "--out", str(tmp_path / "c")]) == 0
    assert "  phi = -0.001\n" in capsys.readouterr().out
    assert report(tmp_path / "c", "coherence")["parameters"]["phi"] == -0.001

    out = tmp_path / "q"
    assert main(["qubits", "--g0-max", "-1e-3", "--n-sweep", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qmodes: error: g0_max must be finite and non-negative")
    assert not (out / "qubits_report.json").exists()


def test_equals_form_and_name_after_the_flags_give_the_same_run(tmp_path, capsys):
    spaced = ["figures", "fig1", "--grid-points", "256", "--format", "json", "--out", str(tmp_path / "a")]
    joined = ["figures", "--grid-points=256", "--format=json", f"--out={tmp_path / 'b'}", "fig1"]
    assert main(spaced) == 0
    assert main(joined) == 0
    capsys.readouterr()
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_help_after_other_flags_is_the_commands_help(capsys):
    assert main(["slits", "--help"]) == 0
    expected = capsys.readouterr().out
    assert main(["slits", "--m", "3", "--sigma-x=0.6", "-h"]) == 0
    assert capsys.readouterr().out == expected
    assert main(["slits", "--no-such-flag", "-h"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv, token",
    [
        (["slits", "--m"], "'--m'"),
        (["figures", "--format", "json"], "NAME"),
        (["figures", "fig3", "fig5"], "'fig5'"),
        (["list", "--out", "x"], "'--out'"),
        (["no-such-command"], "'no-such-command'"),
        ([], "command"),
    ],
    ids=["no-value", "no-name", "two-names", "list-flag", "unknown-command", "empty"],
)
def test_usage_errors_exit_2_naming_the_token(tmp_path, capsys, argv, token):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qmodes: error: ")
    assert len(captured.err.strip().splitlines()) == 1
    assert token in captured.err


def test_integral_flag_values_take_the_default_type(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["slits", "--m", "3.0", "--a", "4", "--grid-points", "256", "--out", str(out)]) == 0
    capsys.readouterr()
    parameters = report(out, "slits")["parameters"]
    assert (parameters["m"], parameters["a"]) == (3, 4.0)


@pytest.mark.parametrize(
    "argv, key",
    [
        (["figures", "fig1", "--grid-points"], "grid_points"),
        (["qubits", "--n-sweep"], "n_sweep"),
        (["tomography", "--n-points"], "n_points"),
    ],
)
def test_counts_above_the_cap_exit_2(tmp_path, capsys, argv, key):
    assert MAX_COUNT == 1 << 16
    out = tmp_path / "out"
    assert main([*argv, str(MAX_COUNT + 1), "--out", str(out)]) == 2
    assert f"{key} must be at most {MAX_COUNT}, got {MAX_COUNT + 1}" in capsys.readouterr().err
    if key == "grid_points":
        assert not out.exists()


def test_slit_count_above_the_cap_exits_2(tmp_path, capsys):
    assert MAX_SLITS == 64
    out = tmp_path / "out"
    assert main(["slits", "--m", "65536", "--grid-points", "16", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"qmodes: error: slit count m must be at most {MAX_SLITS}, got 65536"]
    assert not (out / "slits_report.json").exists()


def test_slits_take_no_detector_width(tmp_path, capsys):
    # fig1 and slits build the uncoupled state (detector overlap 1), which no sigma_xi changes
    assert main(["slits", "--sigma-xi", "0.4", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("qmodes: error: unknown flag '--sigma-xi'")
    assert not (tmp_path / "slits_report.json").exists()


@pytest.mark.parametrize("phi", ["nan", "inf", "-inf", "1e308"])
def test_non_finite_phi_exits_2(tmp_path, capsys, phi):
    # the qubit overlap is cos 2 phi: at 1e308, 2 phi overflows to inf
    out = tmp_path / "out"
    assert main(["coherence", f"--phi={phi}", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("qmodes: error: phi must be finite")
    assert not (out / "coherence_sweep.csv").exists()


# the two-level model warns past overlap 0.01; a run prints each warning as a line
@pytest.mark.filterwarnings("always::UserWarning")
def test_run_warnings_are_qmodes_warning_lines(tmp_path, capsys):
    assert main(["ammonia", "--mass", "14", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"qmodes: warning: inter-well overlap {overlap} > 0.01; two-level results are unreliable"
        for overlap in ("0.0584", "0.0246", "0.0145")
    ]


@pytest.mark.filterwarnings("always::UserWarning")
def test_light_ammonia_fit_converges_fast(tmp_path, capsys):
    # at --mass 20 the NH3 well still holds amplitude 1e-2 at 3a, where the
    # DVR splitting converges only algebraically: 2048 points did not reach 1e-9
    start = time.perf_counter()
    assert main(["ammonia", "--mass", "20", "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("mass", ["0.5", "0.7"])
def test_ammonia_splitting_below_the_rounding_floor_exits_2_at_once(tmp_path, capsys, mass):
    # these fits once ran every DVR solve up to 2048 points, about 17 s, before exiting 2
    start = time.perf_counter()
    err = exits_2_with_one_error_line(["ammonia", "--mass", mass], tmp_path / "out", capsys)
    assert time.perf_counter() - start < 1.0
    assert "rounding floor" in err and "cannot resolve it" in err


@pytest.mark.filterwarnings("always::UserWarning")
def test_ammonia_dvr_splittings_are_converged_in_their_box(tmp_path, capsys):
    # the box [-H, H], H = max(3a, a + 8 sigma_x), solved once on 512 points
    assert main(["ammonia", "--mass", "14", "--format", "json", "--out", str(tmp_path)]) == 0
    table = json.loads((tmp_path / "ammonia_splittings.json").read_text(encoding="utf-8"))
    columns = dict(zip(table["columns"], np.array(table["rows"]).T))
    fitted = tunneling.fit_potential(tunneling.AMMONIA_EQUILIBRIUM, tunneling.AMMONIA_SPLITTING, 14.0)
    for mass, delta_e, ghz in zip(columns["mass"], columns["fd_delta_e"], columns["fd_frequency_ghz"]):
        well = tunneling.DoubleWell(fitted.alpha, fitted.beta, mass)
        x, dx = grid(max(3.0 * well.a, well.a + 8.0 * well.sigma_x), 512)
        e0, e1 = tunneling.lowest_levels(well.potential(x), mass, dx)[:2]
        assert delta_e == pytest.approx(e1 - e0, rel=1e-9, abs=0.0)
        assert ghz == pytest.approx(tunneling.splitting_to_frequency(e1 - e0), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("message", ["", "Unable to allocate 1.00 TiB for an array"])
def test_memory_error_exits_2_with_an_error_line(tmp_path, capsys, monkeypatch, message):
    def exhausted(name, out_dir, fmt, grid_points, params):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run", exhausted)
    assert main(["figures", "fig3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"qmodes: error: {message or 'MemoryError'}\n"


def test_linear_algebra_error_exits_2_with_an_error_line(tmp_path, capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError, so main's except clause catches it
    def unconverged(name, out_dir, fmt, grid_points, params):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "run", unconverged)
    assert main(["tomography", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "qmodes: error: SVD did not converge\n"


def test_tiny_slit_spacing_runs_without_warnings(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["tomography", "--a", "1e-9", "--out", str(tmp_path)]) == 0
    scalars = report(tmp_path, "tomography")["scalars"]
    assert scalars["interference_rank"] == 4
    assert scalars["interference_k_max"] == pytest.approx(1.0, abs=1e-6)
    capsys.readouterr()


def data_values(path):
    if path.suffix == ".csv":
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).ravel()
    values = []

    def walk(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, float):
            values.append(node)

    walk(json.loads(path.read_text(encoding="utf-8")))
    return np.array(values)


EXTREME_GEOMETRY = [
    ["slits", "--a", "inf"],
    ["slits", "--a", "nan", "--m", "1"],
    ["slits", "--sigma-x", "1e-300"],
    ["slits", "--sigma-x", "inf"],
    ["entangled", "--a", "1e300"],
    ["slits", "--a", "1e200", "--format", "json"],
    ["slits", "--a", "1e150", "--sigma-x", "1e-150", "--m", "64", "--format", "json"],
    ["entangled", "--b", "1e150"],
    ["entangled", "--b", "nan"],
    ["schmidt", "--sigma-xi", "inf"],
    ["schmidt", "--b", "0"],
    ["schmidt", "--b", "1e-9", "--format", "json"],
    ["tomography", "--a", "1e150"],
    ["tomography", "--a", "1e150", "--sigma-x", "1e-150"],
    ["tomography", "--a", "1e-150", "--sigma-x", "1e150"],
    ["tomography", "--a", "1e-175", "--sigma-x", "1e-75"],
]


@pytest.mark.parametrize("argv", EXTREME_GEOMETRY, ids=" ".join)
def test_extreme_geometry_writes_finite_data_or_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    if code == 2:
        assert len(err) == 1 and err[0].startswith("qmodes: error: ")
        assert not out.exists() or not any(out.iterdir())
    else:
        assert code == 0 and err == []
        files = sorted(out.iterdir())
        assert files
        for path in files:
            assert np.isfinite(data_values(path)).all(), path.name


# each grid edge at the extremes of the parameters that set it: the momentum
# edge 9 / (2 sigma_x), the coordinate edge (m - 1) a + 8 sigma_x, and the
# DVR box max(3a, a + 8 sigma_x) of wells fitted at light masses and on
# either side of the fit's heavy limit, 59.59
GRID_EDGE_EXTREMES = [
    *[[command, "--sigma-x", s] for command in ("slits", "entangled", "schmidt") for s in ("1e-150", "1e150")],
    *[[command, "--a", "1e150", "--m", "64"] for command in ("slits", "entangled", "schmidt")],
    ["slits", "--m", "1", "--a", "0"],
    *[["ammonia", "--mass", mass] for mass in ("7e-23", "1.2e-20", "1.3e-20", "59.5", "59.6")],
]


@pytest.mark.filterwarnings("always::UserWarning")
@pytest.mark.parametrize("argv", GRID_EDGE_EXTREMES, ids=" ".join)
def test_grid_edges_at_their_extremes_write_finite_tables_or_exit_2(tmp_path, capsys, argv):
    # numerics.grid checks nothing: the parameters that set an edge are all
    # checked before it is built
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    if code == 2:
        assert len(err) == 1 and err[0].startswith("qmodes: error: ")
        assert not out.exists() or not any(out.iterdir())
    else:
        assert code == 0 and all(line.startswith("qmodes: warning: ") for line in err), err
        files = sorted(out.iterdir())
        assert files
        for path in files:
            assert np.isfinite(data_values(path)).all(), path.name


def test_schmidt_without_coupling_keeps_one_mode(tmp_path):
    assert main(["schmidt", "--b", "0", "--out", str(tmp_path)]) == 0
    scalars = report(tmp_path, "schmidt")["scalars"]
    assert scalars["lambda0"] == 1.0 and scalars["mode_count"] == 1.0
    assert scalars["analytic_numeric_gap"] <= 1e-12
    assert '"entropy": 0.0,' in (tmp_path / "schmidt_report.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ["entangled", "--a", "1e-150", "--sigma-x", "1e150"],
        ["coherence", "--a", "1e-150", "--sigma-x", "1e150"],
        ["tomography", "--a", "1e-150", "--sigma-x", "1e150"],
        ["tomography", "--a", "1e150", "--sigma-x", "1e-150"],
    ],
    ids=" ".join,
)
def test_unresolvable_slit_ratio_exits_2_naming_a_and_sigma_x(tmp_path, capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1 and err[0].startswith("qmodes: error: ")
    assert f"a={float(argv[2]):g}" in err[0] and f"sigma_x={float(argv[4]):g}" in err[0]


def test_near_coincident_slits_read_the_visibility_from_the_state(tmp_path):
    # slits far closer than their width: no fringe period fits the momentum
    # grid, but the state still fixes the modulation
    assert main(["entangled", "--a", "1e-4", "--out", str(tmp_path)]) == 0
    scalars = report(tmp_path, "entangled")["scalars"]
    assert scalars["visibility"] == scalars["fringe_modulation"] == 0.606531


@pytest.mark.parametrize("command", ["entangled", "coherence"])
@pytest.mark.parametrize("a", ["1e-6", "1e-8"])
def test_slits_within_the_schmidt_truncation_exit_2_naming_a_and_sigma_x(tmp_path, capsys, command, a):
    # (1 - q)/(1 + q) <= 1e-12: S_x loses an eigenvalue, and no file is written
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--a", a, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1 and err[0].startswith("qmodes: error: ")
    assert "no fringes" in err[0] and f"a={float(a):g}" in err[0] and "sigma_x=0.5" in err[0]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("a", ["1.5e-6", "2e-6", "1e-5", "3e-5", "1e-4"])
def test_closing_slits_above_the_truncation_give_k_1_at_phi_pi_over_2(tmp_path, capsys, a):
    # phi = pi/2: the qubit overlap is -1, a product state of K = 1.  Its norm
    # N^2 = 1/(2 - 2q) cancels as the slits close, and no weight depends on it
    assert main(["coherence", "--a", a, "--format", "json", "--out", str(tmp_path)]) == 0
    assert "error" not in capsys.readouterr().err
    table = json.loads((tmp_path / "coherence_sweep.json").read_text(encoding="utf-8"))
    phi, _, k, _ = table["rows"][-1]
    assert phi == np.pi / 2.0 and k == 1.0


ENTANGLED_REPORT = """{
  "files": [
    "entangled_marginal_momentum.csv",
    "entangled_marginal_coordinate.csv"
  ],
  "parameters": {
    "a": 0.2,
    "b": 0.5,
    "m": 2.0,
    "sigma_x": 0.5,
    "sigma_xi": 0.5
  },
  "scalars": {
    "entropy": 0.0787749,
    "fringe_modulation": 0.606531,
    "marginal_integral": 1.0,
    "schmidt_number": 1.01958,
    "visibility": 0.606531
  },
  "scenario": "entangled"
}
"""


def test_close_slits_still_fit_their_fringes(tmp_path):
    assert main(["entangled", "--a", "0.2", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "entangled_report.json").read_text(encoding="utf-8") == ENTANGLED_REPORT


FIG3_REPORT = """{
  "files": [
    "fig3_modes.json",
    "fig3_marginal.json",
    "fig3_weights.json"
  ],
  "parameters": {
    "a": 5.0,
    "b": 0.5,
    "m": 2.0,
    "sigma_x": 0.5,
    "sigma_xi": 0.5
  },
  "scalars": {
    "analytic_numeric_gap": 0.0,
    "entropy": 0.715349,
    "information": 0.548059,
    "lambda0": 0.803265,
    "lambda0_analytic": 0.803265,
    "lambda1": 0.196735,
    "lambda1_analytic": 0.196735,
    "mode_count": 2.0,
    "schmidt_number": 1.46212
  },
  "scenario": "fig3"
}
"""


def test_fig3_report_bytes(tmp_path):
    assert main(["figures", "fig3", "--format", "json", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fig3_report.json").read_text(encoding="utf-8") == FIG3_REPORT


# the robustness probe: every numeric flag of every command, and the grid
# size, at values that break a careless parser or model, and the slit
# spacings just above the two-slit fringe bound (1e-6 at sigma_x = 0.5)
PROBE_VALUES = ["0", "-1", "nan", "inf", "-inf", "5e-324", "1e300", "x", "65537"]
PROBE_SPACINGS = ["1e-6", "1e-5", "3e-5", "1e-4"]
# messages of checks on values the package computes for itself; those
# checks are gone, and no flag may reach a message like theirs
INTERNAL_MESSAGES = [
    "weight vector",
    "weights must be non-negative",
    "weights sum to",
    "deviates from Hermitian",
    "visibility must lie in",
    "source size must be",
    "completion range needs s = 2",
    "two-slit space",
    "square matrix",
    "perfect square",
    "s^2 columns",
    "does not match",
    "wells coincide",
]


def probe_runs(command):
    defaults = scenarios.SCENARIOS[command][2]
    keys = [key for key, default in defaults.items() if isinstance(default, (int, float))]
    for key in ["grid_points", *keys]:
        flag = "--" + key.replace("_", "-")
        for value in PROBE_VALUES + (PROBE_SPACINGS if key in ("a", "b") else []):
            yield [command, flag, value] + ([] if key == "grid_points" else ["--grid-points", "64"])


def test_probe_covers_every_numeric_flag_of_every_command():
    runs = [argv for command in COMMANDS for argv in probe_runs(command)]
    assert len(runs) >= 250
    flags = {(argv[0], argv[1]) for argv in runs}
    for command in COMMANDS:
        assert (command, "--grid-points") in flags
        for key, default in scenarios.SCENARIOS[command][2].items():
            if isinstance(default, (int, float)):
                assert (command, "--" + key.replace("_", "-")) in flags
    spacings = {argv[2] for argv in runs if argv[1] in ("--a", "--b")}
    assert spacings >= set(PROBE_VALUES + PROBE_SPACINGS)


@pytest.mark.parametrize("command", COMMANDS)
def test_probe_every_run_exits_0_or_2_with_its_error_line(command, tmp_path, capsys):
    runs = list(probe_runs(command))
    flagged = []
    # a warning prints as the line a user sees, not as the test's exception
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        for i, argv in enumerate(runs):
            out = tmp_path / str(i)
            try:
                code = main([*argv, "--out", str(out)])
            except Exception as exc:  # a user would see a traceback
                code = f"Traceback: {type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            lines = err.splitlines()
            errors = [line for line in lines if line.startswith("qmodes: error: ")]
            others = [line for line in lines if line not in errors and not line.startswith("qmodes: warning: ")]
            ok = (code == 0 and not errors) or (code == 2 and len(errors) == 1 and not out.exists())
            internal = [m for m in ["Traceback", *INTERNAL_MESSAGES] if m in err]
            if not ok or others or internal:
                flagged.append((" ".join(argv), code, err))
    assert flagged == []
