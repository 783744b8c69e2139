"""Repository tooling: no unused imports in the package, the tests or the
tools, no orphaned private names in the package, one owner of the
per-group memo, the line counter in ``tools/src_lines.py`` (also against
a git ref), the summary and durations parsers of ``tools/tier1_time.py``,
the line tracer of ``tools/unrun_lines.py`` and the pair runner of
``tools/bench_pairs.py`` (standard library only)."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cent_atlas"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, counting ``__all__`` entries
    as read (they are re-exports)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_package_module_has_no_unused_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py")),
    ids=lambda path: f"{path.parent.name}/{path.name}")
def test_test_and_tool_module_has_no_unused_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_one():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from typing import Any, Iterator\n"
              "import numpy as np\n"
              "from .x import kept\n"
              "__all__ = ['kept']\n"
              "def f(a: Any) -> int:\n"
              "    return np.int32(os.sep)\n")
    assert _unused_imports(source) == ["Iterator (line 3)"]


def _orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_``-prefixed functions, classes and assignments that
    no module in ``sources`` (file name -> source) reads, by name or as
    an attribute, given as ``file:name``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    orphans = []
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [getattr(node.target, "id", "")]
            else:
                continue
            orphans += [f"{file}:{name}" for name in names
                        if name.startswith("_") and not name.startswith("__")
                        and name not in read]
    return orphans


def test_package_has_no_orphaned_private_name():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _orphaned_private_names(sources) == []


def test_orphaned_private_name_check_sees_one():
    # _TABLE is read in a.py, _helper and _Spec only from b.py
    sources = {"a.py": ("_TABLE: dict = {}\n"
                        "_lost = 2\n"
                        "def _helper():\n"
                        "    return _TABLE\n"
                        "class _Spec:\n"
                        "    pass\n"),
               "b.py": ("import a\n"
                        "from a import _helper\n"
                        "x = _helper(), a._Spec\n"
                        "def _unused():\n"
                        "    return x\n")}
    assert _orphaned_private_names(sources) == ["a.py:_lost", "b.py:_unused"]


def _memo_touches(sources: dict[str, str]) -> list[str]:
    """``file:name`` for each top-level statement of ``sources`` (file name
    -> source) that reads or writes an attribute ``_memo``, or names it in
    a string as ``getattr`` would; ``name`` is the function or class, or
    ``<module>`` for any other statement."""
    touches = []
    for file, source in sources.items():
        for node in ast.parse(source).body:
            if any((isinstance(sub, ast.Attribute) and sub.attr == "_memo")
                   or (isinstance(sub, ast.Constant) and sub.value == "_memo")
                   for sub in ast.walk(node)):
                touches.append(f"{file}:{getattr(node, 'name', '<module>')}")
    return touches


def test_only_per_group_and_group_touch_the_memo():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _memo_touches(sources) == ["core.py:Group", "core.py:_per_group"]


def test_memo_check_sees_each_kind_of_touch():
    sources = {"a.py": ("class Group:\n"
                        "    def m(self):\n"
                        "        return self._memo\n"
                        "def _per_group(fn):\n"
                        "    return fn\n"
                        "def _trusted(g):\n"
                        "    g._memo['k'] = 1\n"),
               "b.py": ("memo = getattr(object(), '_memo', None)\n"
                        "def f(g):\n"
                        '    """Reads ``g._memo``, in a docstring only."""\n'
                        "    return g.memo\n")}
    assert _memo_touches(sources) == ["a.py:Group", "a.py:_trusted",
                                      "b.py:<module>"]


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_counts_a_two_file_tree(tmp_path):
    a = tmp_path / "a.py"
    a.write_text('"""Module\ndocstring."""\n'   # 2 docstring lines
                 "\n"
                 "x = 1\n"
                 "def f():\n"
                 '    """One line."""\n'      # 1 docstring line
                 '    return "not a docstring"\n', encoding="utf-8")
    sub = tmp_path / "pkg"
    sub.mkdir()
    b = sub / "b.py"
    b.write_text("class C:\n"
                 '    """Class\n'
                 "\n"
                 '    docstring."""\n'        # 3 docstring lines
                 "    y = 2\n"
                 "\n"
                 "z = 'tail'\n", encoding="utf-8")
    src_lines = _load_tool("src_lines")
    assert src_lines.count(a) == (7, 4)
    assert src_lines.count(b) == (7, 4)


def test_src_lines_main_sums_the_tree(tmp_path):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n', encoding="utf-8")
    (tmp_path / "b.py").write_text("y = 2\nz = 3\nw = 4\n", encoding="utf-8")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py"),
                          str(tmp_path)], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out[-1].split()[:2] == ["5", "4"]
    assert [line.split()[:2] for line in out[:-1]] == [["2", "1"], ["3", "3"]]


def test_src_lines_base_compares_a_ref_with_the_tree(tmp_path):
    # the first commit has a.py and b.py; the second adds a line to a.py
    # and a docstring line to b.py; the tree then drops b.py and adds c.py
    src = tmp_path / "src"
    src.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (src / "a.py").write_text("x = 1\n", encoding="utf-8")
    (src / "b.py").write_text("y = 2\n", encoding="utf-8")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    (src / "a.py").write_text("x = 1\nz = 3\n", encoding="utf-8")
    (src / "b.py").write_text('"""Doc."""\ny = 2\n', encoding="utf-8")
    git("commit", "-q", "-am", "two")
    (src / "b.py").unlink()
    (src / "c.py").write_text("w = 4\n", encoding="utf-8")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py"),
                          "--base", "HEAD~1", "src"], cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()[1:]]
    assert rows == [
        ["1", "1", "2", "2", "+1", "+1", "src/a.py"],
        ["1", "1", "0", "0", "-1", "-1", "src/b.py"],
        ["0", "0", "1", "1", "+1", "+1", "src/c.py"],
        ["2", "2", "3", "3", "+1", "+1", "total"],
    ]
    src_lines = _load_tool("src_lines")
    assert src_lines.base_counts(src, "HEAD") == {"a.py": (2, 2), "b.py": (2, 1)}


@pytest.mark.parametrize("output, want", [
    ("....\n1039 passed in 83.52s (0:01:23)\n",
     {"seconds": 83.52, "passed": 1039, "failed": 0}),
    ("..F.\nFAILED tests/test_a.py::test_b - assert 0\n"
     "1 failed, 1038 passed in 90.10s (0:01:30)\n",
     {"seconds": 90.1, "passed": 1038, "failed": 1}),
    ("==== 2 failed, 7 passed, 3 skipped, 1 error in 0.41s ====\n",
     {"seconds": 0.41, "passed": 7, "failed": 3}),
    ("5 passed, 2 skipped, 4 warnings in 1.00s\n",
     {"seconds": 1.0, "passed": 5, "failed": 0}),
    ("no tests ran in 0.01s\n", {"seconds": 0.01, "passed": 0, "failed": 0}),
    ("ERROR: file or directory not found: nowhere\n", None),
], ids=["passed", "failed-and-passed", "ruled-with-error", "skipped",
        "none-ran", "no-summary"])
def test_tier1_time_reads_the_pytest_summary(output, want):
    assert _load_tool("tier1_time").parse_summary(output) == want


def test_tier1_time_sums_call_durations_by_file():
    output = ("....\n"
              "============ slowest durations ============\n"
              "2.50s call     tests/test_b.py::TestX::test_y[p=2, q=3]\n"
              "1.25s call     tests/test_a.py::test_one\n"
              "0.90s setup    tests/test_a.py::test_one\n"
              "1.00s call     tests/test_a.py::test_two\n"
              "0.50s teardown tests/test_b.py::TestX::test_y[p=2, q=3]\n"
              "0.00s call     tests/test_c.py::test_fast\n"
              "3 passed in 6.15s\n")
    tool = _load_tool("tier1_time")
    got = tool.parse_durations(output)
    assert got == {"tests/test_b.py": 2.5, "tests/test_a.py": 2.25,
                   "tests/test_c.py": 0.0}
    assert list(got) == ["tests/test_b.py", "tests/test_a.py", "tests/test_c.py"]
    assert tool.parse_durations("3 passed in 6.15s\n") == {}


def test_unrun_lines_lists_what_a_selection_never_ran(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text("def used(x):\n"
                                "    if x:\n"
                                "        return 1\n"
                                "    return 2\n"                       # 4
                                "\n"
                                "def unused():\n"
                                "    return [y for y in range(3)]\n"   # 7
                                "\n"
                                "class K:\n"
                                "    def method(self):\n"
                                "        return 3\n"                   # 11
                                "\n"
                                "def in_thread():\n"
                                "    return 4\n", encoding="utf-8")
    # the test also prepends three lines to mod.py as it runs: the report
    # still names each line at its place in the code that ran
    (tmp_path / "test_mod.py").write_text(
        "import threading\n"
        "from pathlib import Path\n"
        "import mod\n"
        "def test_used():\n"
        "    assert mod.used(True) == 1\n"
        "    worker = threading.Thread(target=mod.in_thread)\n"
        "    worker.start()\n"
        "    worker.join()\n"
        "    path = Path(mod.__file__)\n"
        "    path.write_text('# a\\n# b\\n# c\\n' + path.read_text())\n",
        encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "unrun_lines.py"),
         "--root", str(src), "-q", "-p", "no:cacheprovider", "test_mod.py"],
        cwd=tmp_path, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert (src / "mod.py").read_text().startswith("# a\n")
    assert out[-4:] == ["src/mod.py:4: used", "src/mod.py:7: unused",
                        "src/mod.py:11: K.method", "3 function lines never ran"]


def test_unrun_lines_puts_root_on_the_path_of_subprocesses():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "unrun_lines.py"), "-q",
         "-p", "no:cacheprovider", "tests/test_cli.py::test_module_entry_point"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "1 passed" in proc.stdout


# a perfbench/run.py stand-in: logs "<side> <seed>" to the log beside the
# checkouts, then prints fixed values for that side and seed
_STUB_RUN = '''import json, sys
from pathlib import Path
here = Path(__file__).resolve().parents[1]
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(here.parent / "order.log", "a") as log:
    log.write(f"{here.name} {seed}\\n")
wall, correct, failed = VALUES[seed]
metrics = {"setup_s": 0.25, "wall_s": wall, "peak_rss_mb": 40.0}
print("wall_s", wall, "s")
print(json.dumps({"correct": correct, "attempted": 4, "failed": failed,
                  "metrics": {k: {"value": v, "unit": "s"}
                              for k, v in metrics.items()}}))
'''


def test_bench_pairs_alternates_and_applies_the_pair_rule(tmp_path):
    values = {"parent": {5: (1.0, True, 0), 6: (1.2, True, 0),
                         7: (1.4, True, 0), 8: (1.6, True, 0)},
              "change": {5: (0.9, True, 0), 6: (1.2, True, 0),
                         7: (1.5, False, 1), 8: (1.1, True, 0)}}
    for side, table in values.items():
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(
            f"VALUES = {table!r}\n" + _STUB_RUN, encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"),
         str(tmp_path / "parent"), str(tmp_path / "change"),
         "--workload", "sweep", "--pairs", "4", "--seed", "5"],
        capture_output=True, text=True, check=True).stdout
    got = json.loads(out)
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
        "parent 5", "change 5", "change 6", "parent 6",
        "parent 7", "change 7", "change 8", "parent 8"]
    assert got["first"] == ["parent", "change", "parent", "change"]
    assert got["seeds"] == [5, 6, 7, 8]
    wall = got["metrics"]["wall_s"]
    assert wall["parent_median"] == pytest.approx(1.3)
    assert wall["change_median"] == pytest.approx(1.15)
    assert wall["parent_iqr"] == pytest.approx(0.3)  # 1.45 - 1.15
    # the change wins seeds 5 and 8, ties 6 and loses 7
    assert (wall["change_wins"], wall["pairs"]) == (2, 4)
    assert wall["change_vs_parent"] == pytest.approx(-0.15 / 1.3)
    assert wall["parent_iqr_ratio"] == pytest.approx(0.3 / 1.3)
    assert (wall["bound"], wall["verdict"]) == (0.25, "within bound")
    assert got["metrics"]["setup_s"]["change_wins"] == 0
    assert set(got["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert got["bad_runs"] == [{"side": "change", "seed": 7,
                                "correct": False, "failed": 1}]


@pytest.mark.parametrize("parent, change, sign, want", [
    ([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], 1, "worse than bound"),
    ([1.0, 1.0, 2.0, 2.0], [1.5, 1.5, 1.5, 1.5], 1, "unresolved"),
    # a range wider than the bound, but every change run beats every parent run
    ([1.0, 1.0, 2.0, 2.0], [0.4, 0.4, 0.4, 0.4], 1, "gain"),
    ([1.0, 1.0, 2.0, 2.0], [0.5, 0.5, 0.5, 0.5], 1, "within bound"),
    ([10.0, 10.1, 10.2, 10.3], [12.0, 12.0, 12.0, 12.0], -1, "gain"),
    ([10.0, 10.1, 10.2, 10.3], [7.0, 7.0, 7.0, 7.0], -1, "worse than bound"),
    ([1.0, 1.1, 1.2, 1.3], [1.2, 1.2, 1.2, 1.2], 1, "within bound"),
])
def test_bench_pairs_verdict_reads_the_bound(parent, change, sign, want):
    assert _load_tool("bench_pairs").verdict(parent, change, sign, 0.25) == want
