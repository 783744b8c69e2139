"""Mutated group and permutation files through ``cli.main``, in process.

Whatever the mutation, the command exits with a documented code (0, 2, 3
or 4) and prints no traceback, and every file that loads describes a table
that survives a write and a read unchanged.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cent_atlas.cli import main
from cent_atlas.report import read_group_file, write_group_file

S3_TABLE = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 4, 0, 5, 1, 3],
            [3, 5, 1, 4, 0, 2], [4, 2, 5, 0, 3, 1], [5, 3, 4, 1, 2, 0]]
BASES = [
    {"order": 6, "label": "S3", "table": S3_TABLE},
    {"order": 4, "label": None,
     "table": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]},
    {"degree": 3, "label": "S3", "generators": [[1, 0, 2], [1, 2, 0]]},
    {"degree": 4, "generators": [[1, 2, 3, 0]]},
]
KEYS = ["order", "label", "table", "degree", "generators"]
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=False), st.text(max_size=3),
    st.sampled_from([[], {}, [[]], [[0]], [[0, 1], [1]], "[[0]]"]))
BIG = st.sampled_from([-1, -2 ** 31, 2 ** 31, 2 ** 63, 2 ** 64, 10 ** 30, 6])


def rows_of(doc):
    rows = doc.get("table", doc.get("generators"))
    if isinstance(rows, list) and rows and all(
            isinstance(r, list) and r for r in rows):
        return rows
    return None


@st.composite
def mutated_files(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(
            ["drop", "retype", "nest", "int", "duplicate-row"]))
        rows = rows_of(doc)
        if op == "drop" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif op == "retype":
            doc[draw(st.sampled_from(KEYS))] = copy.deepcopy(draw(JUNK))
        elif rows is not None:
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, len(rows[i]) - 1))
            if op == "nest":
                rows[i][j] = [rows[i][j]]
            elif op == "int":
                rows[i][j] = draw(BIG)
            else:
                rows[i] = list(rows[draw(st.integers(0, len(rows) - 1))])
    text = json.dumps(doc)
    if draw(st.integers(0, 7)) == 0:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@settings(max_examples=400, deadline=None)
@given(mutated_files())
def test_mutated_files_exit_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", "--in", str(path)])
        assert code in (0, 2, 3, 4), (code, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code != 0:
            assert err.getvalue().startswith("error: ")
            return
        g = read_group_file(path)
        again = Path(tmp) / "again.json"
        write_group_file(g, again)
        back = read_group_file(again)
        assert np.array_equal(back.table, g.table)
        assert (back.order, back.label) == (g.order, g.label)
