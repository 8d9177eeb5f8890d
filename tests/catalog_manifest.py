"""The catalog's bytes, one manifest line per output.

Every name ``qmodes list`` prints is run through ``qmodes figures NAME`` in
csv and json at each of ``GRID_POINTS``; each file a run writes is one line
of entry, format, grid size, file name, byte count and SHA-256.  The stdout
of ``qmodes list``, of ``qmodes --help`` and of every ``qmodes <command>
--help`` is one line each, with ``-`` for the format and the grid size.

``tests/test_catalog.py`` regenerates these lines and compares them with
the committed ``tests/catalog.sha256``.  A change that means to move output
rewrites the manifest with::

    PYTHONPATH=src python tests/catalog_manifest.py

and names each moved file; the script prints each line that moved, was
removed or is new against the manifest it replaces.  The bytes depend on
numpy's and LAPACK's last bits, so the manifest's header records the numpy
version it was written with.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from qmodes import cli

MANIFEST = Path(__file__).with_name("catalog.sha256")
FORMATS = ("csv", "json")
GRID_POINTS = (1024, 2048, 4096)
HEADER = ("# entry format n file bytes sha256", f"# numpy {np.__version__}")


def _stdout(argv: list[str]) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"qmodes {' '.join(argv)} exited {code}")
    return buffer.getvalue().encode("utf-8")


def _line(entry: str, fmt: str, n: str, name: str, data: bytes) -> str:
    return f"{entry} {fmt} {n} {name} {len(data)} {hashlib.sha256(data).hexdigest()}"


def run_lines(out_dir: Path, name: str, fmt: str, n: int) -> list[str]:
    """The manifest lines of ``qmodes figures NAME`` in ``fmt`` at ``n``
    points, written under ``out_dir``."""
    out = out_dir / name / fmt / str(n)
    _stdout(["figures", name, "--format", fmt, "--grid-points", str(n), "--out", str(out)])
    return [_line(name, fmt, str(n), p.name, p.read_bytes()) for p in sorted(out.iterdir())]


def catalog_lines(out_dir: Path) -> list[str]:
    """The manifest lines of this tree's catalog, written under ``out_dir``."""
    listing = _stdout(["list"])
    top_help = _stdout(["--help"])
    lines = [_line("list", "-", "-", "stdout", listing), _line("qmodes", "-", "-", "--help", top_help)]
    # the usage line spells the commands: "usage: qmodes {list,figures,...} ..."
    commands = top_help.decode("utf-8").split("{", 1)[1].split("}", 1)[0].split(",")
    lines += [_line(command, "-", "-", "--help", _stdout([command, "--help"])) for command in commands]
    for name in (line.split()[0] for line in listing.decode("utf-8").splitlines()):
        for fmt in FORMATS:
            for n in GRID_POINTS:
                lines += run_lines(out_dir, name, fmt, n)
    return lines


def read_manifest(path: Path = MANIFEST) -> tuple[list[str], list[str]]:
    """The manifest's header lines and its entry lines."""
    text = path.read_text(encoding="utf-8").splitlines()
    return [t for t in text if t.startswith("#")], [t for t in text if not t.startswith("#")]


def keyed(lines: list[str]) -> dict[tuple, tuple]:
    """(entry, format, n, file) -> (byte count, SHA-256)."""
    return {tuple(line.split()[:4]): tuple(line.split()[4:]) for line in lines}


def differences(old: list[str], new: list[str]) -> list[str]:
    """One line for each output of ``new`` that moved from ``old``, then for
    each that ``new`` lacks, then for each that ``old`` lacks."""
    was, now = keyed(old), keyed(new)
    out = [
        f"moved: {' '.join(key)} ({was[key][0]} -> {now[key][0]} bytes)"
        for key in was
        if key in now and now[key] != was[key]
    ]
    out += [f"removed: {' '.join(key)}" for key in was if key not in now]
    out += [f"new: {' '.join(key)}" for key in now if key not in was]
    return out


if __name__ == "__main__":
    _, committed = read_manifest() if MANIFEST.exists() else ([], [])
    with tempfile.TemporaryDirectory() as scratch:
        lines = catalog_lines(Path(scratch))
    MANIFEST.write_text("\n".join([*HEADER, *lines]) + "\n", encoding="utf-8")
    for change in differences(committed, lines):
        print(change)
    print(f"wrote {len(lines)} lines to {MANIFEST}", file=sys.stderr)
