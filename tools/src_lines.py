"""Print the lines of each Python file under src/, in total and outside
module, class and function docstrings, then the sums.

With ``--base REF``, print each file's two counts at the git ref REF
(read with ``git show``) beside the working tree's, and the differences,
per file and in total; a file missing on one side counts 0 there.

Usage: python tools/src_lines.py [--base REF] [root]   (root defaults to src)
"""

import argparse
import ast
import subprocess
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_text(text: str) -> tuple[int, int]:
    """The lines of ``text``, in total and outside docstrings."""
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    total = len(text.splitlines())
    return total, total - len(doc)


def count(path: Path) -> tuple[int, int]:
    return count_text(path.read_text(encoding="utf-8"))


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True,
                          text=True, check=True).stdout


def base_counts(root: Path, ref: str) -> dict[str, tuple[int, int]]:
    """Each Python file under ``root`` at git ref ``ref``, by its path
    relative to ``root``, with its two counts."""
    names = _git(root, "ls-tree", "-r", "--name-only", ref, ".").splitlines()
    return {name: count_text(_git(root, "show", f"{ref}:./{name}"))
            for name in names if name.endswith(".py")}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", default="src")
    parser.add_argument("--base", metavar="REF")
    args = parser.parse_args(argv)
    root = Path(args.root)
    counts = {path.relative_to(root).as_posix(): count(path)
              for path in sorted(root.rglob("*.py"))}
    if args.base is None:
        for name, (total, code) in counts.items():
            print(f"{total:6} {code:6}  {root / name}")
        print(f"{sum(t for t, _ in counts.values()):6} "
              f"{sum(c for _, c in counts.values()):6}  total, outside docstrings")
        return
    base = base_counts(root, args.base)
    print(f"at {args.base}, now, and the change; each in total and "
          "outside docstrings")
    rows = {root / name: (*base.get(name, (0, 0)), *counts.get(name, (0, 0)))
            for name in sorted(base.keys() | counts.keys())}
    rows["total"] = tuple(sum(row[i] for row in rows.values()) for i in range(4))
    for label, (bt, bc, t, c) in rows.items():
        print(f"{bt:6} {bc:6}  {t:6} {c:6}  {t - bt:+6} {c - bc:+6}  {label}")


if __name__ == "__main__":
    main()
