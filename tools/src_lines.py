"""Print the lines of each Python file under src/, in total and outside
module, class and function docstrings, then the sums.

Usage: python tools/src_lines.py [root]   (root defaults to src)
"""

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: Path) -> tuple[int, int]:
    text = path.read_text(encoding="utf-8")
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    total = len(text.splitlines())
    return total, total - len(doc)


if __name__ == "__main__":
    counts = {path: count(path) for path in sorted(
        Path(sys.argv[1] if len(sys.argv) > 1 else "src").rglob("*.py"))}
    for path, (total, code) in counts.items():
        print(f"{total:6} {code:6}  {path}")
    print(f"{sum(t for t, _ in counts.values()):6} "
          f"{sum(c for _, c in counts.values()):6}  total, outside docstrings")
