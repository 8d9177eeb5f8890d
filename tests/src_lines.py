"""Net line change of ``src/qmodes`` against a git revision.

    python tests/src_lines.py [REV]

counts the lines of ``src/qmodes/*.py`` at REV (default HEAD) and in the
working tree, in total and code-only (without blank, comment and
docstring lines), and prints both counts and their change; then one row
per module with the same six counts, so a change shows where its lines went.
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/qmodes"


def code_lines(text: str) -> int:
    """Lines of Python source ``text`` that are not blank, a comment alone
    or part of a module, class or function docstring."""
    lines = text.splitlines()
    skip = {number for number, line in enumerate(lines, 1) if not line.strip()}
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT and not token.line[: token.start[1]].strip():
            skip.add(token.start[0])
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    skip.update(range(first.lineno, first.end_lineno + 1))
    return len(lines) - len(skip)


def counts(texts) -> tuple[int, int]:
    """(total lines, code lines) over the source ``texts``."""
    texts = list(texts)
    return sum(len(t.splitlines()) for t in texts), sum(map(code_lines, texts))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    paths = [p for p in git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split() if p.endswith(".py")]
    old = {p: git("show", f"{rev}:{PACKAGE}/{p}") for p in paths}
    new = {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / PACKAGE).glob("*.py"))}
    before, after = counts(old.values()), counts(new.values())
    print(f"{PACKAGE} at {rev}: {before[0]} lines, {before[1]} code")
    print(f"{PACKAGE} in the working tree: {after[0]} lines, {after[1]} code")
    print(f"change: {after[0] - before[0]:+d} lines, {after[1] - before[1]:+d} code")
    print(f"{'module':<16}{'lines at REV':>14}{'code':>6}{'in the tree':>13}{'code':>6}{'change':>8}{'code':>6}")
    for name in sorted(old.keys() | new.keys()):
        b_lines, b_code = counts([old[name]] if name in old else [])
        a_lines, a_code = counts([new[name]] if name in new else [])
        row = f"{name:<16}{b_lines:>14}{b_code:>6}{a_lines:>13}{a_code:>6}"
        print(row + f"{a_lines - b_lines:>+8d}{a_code - b_code:>+6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
