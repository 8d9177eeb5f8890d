"""Command-line entry point.

Grammar::

    qmodes list
    qmodes figures NAME [--key value | --key=value]...
    qmodes <command> [--key value | --key=value]...

``list`` prints the catalog: the figure presets, then the commands.
``figures NAME`` runs the preset or command NAME, and each other command
runs the computation of that name (``scenarios.FIGURES`` and
``scenarios.COMPUTATIONS``).  Every run takes the flags ``--config``,
``--out``, ``--format`` and ``--grid-points``, whose defaults live in
``_COMMON`` alone; a command also takes one flag per key of its
computation's defaults.  A flag is its key's exact long name with ``-`` for
``_`` (``--sigma-x`` sets ``sigma_x``; abbreviations are not accepted), and
the token after it is always its value, so ``--phi -1e-3`` works.  NAME may
stand before or after the flags; ``-h`` or ``--help`` anywhere prints help.
``--g0-max 0``, the qubits default, means auto, the coupling range derived
from the fitted well.

The config file is flat ``key = value`` text with ``#`` comments.  Its
lines set what the flags set: ``out``, ``format``, ``grid_points`` and the
computation's keys, and a flag wins over a line.  The output directory is
taken as text; every other value, from a line or a flag, is read as an
int, else a float, else text, and is then checked by ``scenarios.run``
against the type of the default it replaces, so ``--m 5`` and the line
``m = 5`` take one path.  Parameter precedence is computation defaults < a
preset's overrides < config file < flags.  The output formats are
``scenarios``' alone.  ``main`` returns 0 on success and on help, and 2
after printing one ``qmodes: error: ...`` line for a usage error or bad
input; a run that fails before its first file makes no output directory.
A warning the run raises, such as the two-level model's overlap warning,
is printed as one ``qmodes: warning: ...`` line and leaves the exit code
as it is.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

from .scenarios import COMPUTATIONS, list_scenarios, run

__all__ = ["main", "parse_config"]

_SUMMARIES = {
    "list": "print the scenario catalog",
    "figures": "run a named figure-data scenario",
    # the commands: the computations with a `qmodes list` summary
    **{name: f"run the {name} scenario" for name, (*_, summary) in COMPUTATIONS.items() if summary},
}
# flags every run takes: key -> (default, help)
_COMMON = {
    "config": (None, "flat key = value config file"),
    "out": ("qmodes-out", "output directory"),
    "format": ("csv", "data file format, csv or json"),
    "grid_points": (1024, "grid size"),
}


def _value(text: str):
    """A config or flag value: int, else float, else the text itself."""
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def parse_config(path: Path) -> dict:
    """Flat key = value file: key -> the value's text."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"{path}:{lineno}: empty key")
        values[key] = text.strip()
    return values


def _flags(command: str) -> dict:
    """Flag name -> (key, default, help) of the flags ``command`` takes."""
    table = {} if command == "list" else dict(_COMMON)
    if command in COMPUTATIONS:
        table.update({key: (default, "") for key, default in COMPUTATIONS[command][1].items()})
    return {"--" + key.replace("_", "-"): (key, *entry) for key, entry in table.items()}


def _help(command: str | None) -> str:
    if command is None:
        rows = [f"  {name:12s}{summary}" for name, summary in _SUMMARIES.items()]
        return "\n".join(
            [
                "usage: qmodes {" + ",".join(_SUMMARIES) + "} ...",
                "",
                "Interference, Schmidt-mode and tunneling scenario runner",
                "",
                "commands:",
                *rows,
                "",
                "'qmodes <command> --help' lists the flags of a command.",
            ]
        )
    name = " NAME" if command == "figures" else ""
    flags = " [--key value | --key=value]..." if command != "list" else ""
    rows = ["  NAME           scenario name, e.g. fig3 (see 'qmodes list')"] if name else []
    for flag, (_, default, text) in _flags(command).items():
        rows.append(f"  {flag:14s} {text + ' ' if text else ''}(default: {default})")
    return "\n".join([f"usage: qmodes {command}{name}{flags}", "", _SUMMARIES[command], "", *rows])


def _parse(argv: list[str]) -> tuple[str, str, dict]:
    """The command, the scenario it runs and its flags' key -> text."""
    if not argv or argv[0] not in _SUMMARIES:
        got = repr(argv[0]) if argv else "none"
        raise ValueError(f"expected a command, one of {{{','.join(_SUMMARIES)}}}; got {got}")
    command, *rest = argv
    flags = _flags(command)
    names: list[str] = []
    values: dict = {}
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            names.append(token)
            continue
        flag, eq, text = token.partition("=")
        if flag not in flags:
            raise ValueError(f"unknown flag {flag!r} for {command!r}; see 'qmodes {command} --help'")
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise ValueError(f"flag {flag!r} expects a value")
        values[flags[flag][0]] = text
    wanted = 1 if command == "figures" else 0
    if len(names) > wanted:
        raise ValueError(f"unexpected argument {names[wanted]!r} for {command!r}")
    if len(names) < wanted:
        raise ValueError("figures expects a scenario NAME; see 'qmodes list'")
    return command, names[0] if wanted else command, values


def _warning_line(message, *_):
    """``warnings.showwarning`` for a run: the message alone, on one line."""
    print(f"qmodes: warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_help(argv[0] if argv[0] in _SUMMARIES else None))
        return 0
    # the warning filters stay as they are: only how a shown warning is written changes
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        try:
            command, scenario_name, flags = _parse(argv)
            if command == "list":
                for name, summary in list_scenarios().items():
                    print(f"{name:16s} {summary}")
                return 0
            config_path = flags.pop("config", None)
            texts = parse_config(config_path) if config_path is not None else {}
            texts.update(flags)
            out = texts.pop("out", _COMMON["out"][0])
            if not out:
                # Path("") is the working directory
                raise ValueError("output directory must not be empty")
            out = Path(out)
            params = {key: _value(text) for key, text in texts.items()}
            fmt = params.pop("format", _COMMON["format"][0])
            grid_points = params.pop("grid_points", _COMMON["grid_points"][0])
            # through this module's `run`, which a tracer may wrap
            report, wall = run(scenario_name, out, fmt, grid_points, params)
        except (ValueError, OSError, MemoryError) as exc:
            print(f"qmodes: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return 2

    print(f"scenario {report['scenario']}: wrote {len(report['files'])} file(s) to {out}")
    for key, value in report["scalars"].items():
        if isinstance(value, float):
            print(f"  {key} = {value:.6g}")
        else:
            print(f"  {key} = {value}")
    print(f"  wall time: {wall:.3f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
