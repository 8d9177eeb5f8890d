"""Command-line entry point.

Subcommands map onto the scenario catalog; ``figures <name>`` runs the
named preset, ``list`` prints the catalog.  Each parametric subcommand has
one flag per key of its scenario's defaults, typed like that default
(``--sigma-x`` sets ``sigma_x``); ``--g0-max 0``, the qubits default, means
auto, the coupling range derived from the fitted well.  Parameter
precedence is scenario defaults < config file < explicit command-line
flags.  The config file is flat ``key = value`` text with ``#`` comments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .scenarios import SCENARIOS, ScenarioConfig, list_scenarios, run

__all__ = ["main", "parse_config"]

# scenarios with a subcommand of their own
_COMMANDS = ("slits", "entangled", "schmidt", "coherence", "ammonia", "qubits", "tomography")


def parse_config(path: Path) -> dict:
    """Flat key = value file; values become int, float or str."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if not key:
            raise ValueError(f"{path}:{lineno}: empty key")
        for caster in (int, float):
            try:
                values[key] = caster(text)
                break
            except ValueError:
                continue
        else:
            values[key] = text
    return values


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", type=Path, default=None, help="flat key = value config file")
    parser.add_argument("--out", type=Path, default=Path("qmodes-out"), help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="data file format")
    parser.add_argument("--grid-points", type=int, default=None, help="grid size (default 1024)")


def _add_param_flags(parser: argparse.ArgumentParser, defaults: dict):
    for name, default in defaults.items():
        parser.add_argument("--" + name.replace("_", "-"), type=type(default), default=None)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``qmodes`` parser; for a named run ``command`` only its subparser
    is built, since argparse reads no other subparser once the command is
    chosen and building them all takes milliseconds.  Any other first
    argument (``list``, ``-h``, none or an unknown one) gets every subparser."""
    every = command != "figures" and command not in _COMMANDS
    parser = argparse.ArgumentParser(
        prog="qmodes",
        description="Interference, Schmidt-mode and tunneling scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    if every:
        sub.add_parser("list", help="print the scenario catalog")
    if every or command == "figures":
        figures = sub.add_parser("figures", help="run a named figure-data scenario")
        figures.add_argument("name", help="scenario name, e.g. fig3 (see 'qmodes list')")
        _add_common(figures)

    for name in _COMMANDS:
        if every or command == name:
            p = sub.add_parser(name, help=f"run the {name} scenario")
            _add_common(p)
            _add_param_flags(p, SCENARIOS[name].defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv else None).parse_args(argv)

    if args.command == "list":
        for name, summary in list_scenarios().items():
            print(f"{name:16s} {summary}")
        return 0

    scenario_name = args.name if args.command == "figures" else args.command
    params: dict = {}
    fmt = "csv"
    grid_points = 1024
    try:
        if args.config is not None:
            config_values = parse_config(args.config)
            fmt = config_values.pop("format", fmt)
            grid_points = config_values.pop("grid_points", grid_points)
            params.update(config_values)
        if args.command != "figures":
            defaults = SCENARIOS[args.command].defaults
            params.update({k: getattr(args, k) for k in defaults if getattr(args, k) is not None})
        if args.format is not None:
            fmt = args.format
        if args.grid_points is not None:
            grid_points = args.grid_points

        config = ScenarioConfig(scenario_name, args.out, fmt, grid_points, params)
        report = run(config)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"qmodes: error: {exc}", file=sys.stderr)
        return 2

    print(f"scenario {report.scenario}: wrote {len(report.files)} file(s) to {args.out}")
    for key, value in report.scalars.items():
        if isinstance(value, float):
            print(f"  {key} = {value:.6g}")
        else:
            print(f"  {key} = {value}")
    print(f"  wall time: {report.wall_time_s:.3f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
