"""Mutated group and permutation files through ``cli.main``, in process.

Whatever the mutation, the command exits with a documented code (0, 2, 3
or 4) and prints no traceback, and every file that loads describes a table
that survives a write and a read unchanged.  ``read_group_file`` agrees
with the json-only reference loader in ``oracles`` on every file: the same
group, or the same exception type and message.  Byte-level mutations of
the writer's compact layout check that its fast path takes exactly that
layout and leaves every other text to ``json.loads``, also when the fast
path reads the file a few bytes at a time, so that every row and the
header span several blocks.  The fast path's chunk parse agrees with the
regular-expression reference ``oracles.canonical_rows`` on generated
chunks, also when ``np.fromstring`` returns the values before an empty
token, as numpy before 2 did, instead of raising.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cent_atlas import report
from cent_atlas.catalog import cyclic, symmetric
from cent_atlas.cli import main
from cent_atlas.errors import BadGroupFile
from cent_atlas.report import read_group_file, write_group_file

import oracles

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
    if draw(st.booleans()):
        text = json.dumps(doc)
    else:  # the writer's compact layout, open to its fast path
        text = json.dumps(doc, separators=(",", ":")) + "\n"
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


def outcome(load, path):
    """What a loader makes of a file: the group's order, label and table,
    or the exception's type and message."""
    try:
        g = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return g.order, g.label, g.table.tolist()


def assert_same_as_json_loader(tmp, data: bytes, order_cap=None):
    path = Path(tmp) / "g.json"
    path.write_bytes(data)
    assert outcome(lambda p: read_group_file(p, order_cap), path) == outcome(
        lambda p: oracles.read_group_file_json(p, order_cap), path)


@settings(max_examples=300, deadline=None)
@given(mutated_files())
def test_mutated_files_load_as_the_json_loader_does(text):
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_as_json_loader(tmp, text.encode())


S3_ROWS = [[str(v) for v in row] for row in S3_TABLE]


def layout(rows=S3_ROWS, order=b"6", label=b'"S3"', end=b"\n"):
    """The writer's layout around the given tokens and header fields."""
    table = "],[".join(",".join(row) for row in rows).encode()
    return (b'{"order":' + order + b',"label":' + label + b',"table":[['
            + table + b"]]}" + end)


def with_cell(i, j, token):
    rows = copy.deepcopy(S3_ROWS)
    rows[i][j] = token
    return layout(rows)


def with_row(i, row):
    rows = copy.deepcopy(S3_ROWS)
    rows[i] = row
    return layout(rows)


CANONICAL = layout()
C100_ROWS = [[str((i + j) % 100) for j in range(100)] for i in range(100)]
# name -> (file bytes, whether the fast path takes it)
CASES = {
    "canonical": (CANONICAL, True),
    "order-1": (layout([["0"]], order=b"1", label=b"null"), True),
    "empty-label": (layout(label=b'""'), True),
    "escaped-label": (layout(label=b'"S\\u0033"'), True),
    "quote-and-backslash-label": (layout(label=b'"a\\"b\\\\c"'), True),
    "raw-utf8-label": (layout(label='"\u00e9\u4e00"'.encode()), True),
    "control-character-label": (layout(label=b'"a\tb"'), False),
    "invalid-utf8-label": (layout(label=b'"\xff"'), False),
    "integer-label": (layout(label=b"1"), False),
    "label-with-table-key": (layout(label=b'"x,\\"table\\":[["'), True),
    "order-mismatch": (layout(order=b"5"), True),
    "order-leading-zero": (layout(order=b"06"), False),
    "order-negative": (layout(order=b"-6"), False),
    "order-ten-digits": (layout(order=b"1000000006"), False),
    "leading-zero-00": (with_cell(0, 0, "00"), False),
    "leading-zero-01": (with_cell(1, 0, "01"), False),
    "nine-digits-out-of-range": (with_cell(2, 3, "999999999"), True),
    "ten-digits": (with_cell(2, 3, "1000000000"), False),
    "ten-digits-wrapping-to-5": (with_cell(2, 3, "4294967301"), False),
    "ten-digits-wrapping-to-int32-max": (with_cell(2, 3, "6442450943"), False),
    "eleven-digits": (with_cell(2, 3, "10000000000"), False),
    "minus-zero": (with_cell(1, 1, "-0"), False),
    "negative": (with_cell(1, 1, "-1"), False),
    "plus-sign": (with_cell(1, 1, "+1"), False),
    "float": (with_cell(1, 1, "1.0"), False),
    "exponent": (with_cell(1, 1, "1e0"), False),
    "true": (with_cell(1, 1, "true"), False),
    "false": (with_cell(1, 0, "false"), False),
    "null": (with_cell(1, 1, "null"), False),
    "nested": (with_cell(1, 1, "[0]"), False),
    "empty-token": (with_cell(1, 1, ""), False),
    "empty-row": (with_row(2, []), False),
    "short-row": (with_row(2, S3_ROWS[2][:-1]), False),
    "long-row": (with_row(2, [*S3_ROWS[2], "0"]), False),
    "extra-row": (layout([*S3_ROWS, S3_ROWS[0]]), False),
    "missing-row": (layout(S3_ROWS[:-1]), False),
    # long enough for n rows of one-digit tokens
    "missing-row-of-100": (layout(C100_ROWS[:-1], order=b"100"), False),
    "rows-of-six-and-five-and-seven": (
        layout([*S3_ROWS[:2], S3_ROWS[2][:-1],
                [*S3_ROWS[3], "0"], *S3_ROWS[4:]]), False),
    "space-after-comma": (CANONICAL.replace(b"1,", b"1, ", 1), False),
    "space-after-colon": (CANONICAL.replace(b":[[", b": [[", 1), False),
    "newline-between-rows": (CANONICAL.replace(b"],[", b"],\n[", 1), False),
    "tab-before-brace": (CANONICAL.replace(b"]]}", b"]]\t}", 1), False),
    "leading-space": (b" " + CANONICAL, False),
    "missing-final-newline": (layout(end=b""), False),
    "two-final-newlines": (layout(end=b"\n\n"), False),
    "crlf": (layout(end=b"\r\n"), False),
    "carriage-return-inside": (CANONICAL.replace(b",", b"\r,", 1), False),
    "extra-key-first": (b'{"x":1,' + CANONICAL[1:], False),
    "extra-key-last": (CANONICAL.replace(b"]]}", b']],"x":1}', 1), False),
    "duplicate-label": (CANONICAL.replace(b'"S3"', b'"S3","label":"A"', 1),
                        False),
    "reordered-keys": (b'{"label":"S3","order":6,"table":'
                       + CANONICAL.split(b'"table":', 1)[1], False),
    "no-order": (b'{"label":"S3","table":'
                 + CANONICAL.split(b'"table":', 1)[1], False),
    "second-table": (CANONICAL.replace(b"]]}", b']],"table":[[0]]}', 1),
                     False),
    "not-a-group": (layout([["0", "1"], ["1", "1"]], order=b"2"), True),
    "trailing-garbage": (CANONICAL + b"x", False),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_canonical_mutation_loads_as_the_json_loader_does(name, tmp_path):
    data, fast = CASES[name]
    assert (report._read_canonical(io.BytesIO(data), None) is not None) == fast
    assert_same_as_json_loader(tmp_path, data)


@contextlib.contextmanager
def read_blocks_of(size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "_READ_BLOCK", size)
        yield


@pytest.mark.parametrize("name", sorted(CASES))
def test_canonical_mutation_across_read_blocks(name, tmp_path):
    data, fast = CASES[name]
    for size in (1, 2, 3, 4, 5, 7, 11):
        with read_blocks_of(size):
            assert (report._read_canonical(io.BytesIO(data), None)
                    is not None) == fast, size
            assert_same_as_json_loader(tmp_path, data)
            # past the cap a canonical file is refused only once all of it
            # is known to be in the layout
            assert_same_as_json_loader(tmp_path, data, order_cap=2)


@pytest.mark.parametrize("row", [20, 30])
@pytest.mark.parametrize("token", ["01", "-1", "1000000000", "1.0", "true",
                                   "", "[0]"])
def test_bad_token_in_one_block_of_several(token, row, tmp_path):
    """Read in blocks of 4 KB, the 29 KB file is cut into chunks of whole
    rows at about 8 KB (two blocks, the first holding the header) and
    every 4 KB after.  Row 20 lies in the second read block, in the first
    chunk; row 30 in the third read block and the second chunk, which is
    parsed beside the first and returns None while later blocks are
    read."""
    rows = copy.deepcopy(C100_ROWS)
    rows[row][50] = token
    data = layout(rows, order=b"100")
    at = len(layout(rows[:row], order=b"100")) - len(b"]]}\n")
    assert (at // 4096, (at + 300) // 4096) == ((row // 10) - 1,) * 2
    assert len(data) > 7 * 4096
    with read_blocks_of(4096):
        assert report._read_canonical(io.BytesIO(data), None) is None
        assert_same_as_json_loader(tmp_path, data)
        assert_same_as_json_loader(tmp_path, data, order_cap=2)


def test_ragged_rows_of_full_length_in_one_chunk_of_several(tmp_path):
    """Rows r and r + 1, one token short and one long, lie in one chunk of
    a file read in blocks of 4 KB, so that chunk still holds whole rows'
    worth of tokens and is parsed on a thread beside another: only the
    place of its row break tells it from a canonical chunk."""
    def row_start(r):  # the offset of row r in the file
        return len(layout(C100_ROWS[:r], order=b"100")) - len(b"]]}\n") + 3

    # the "],[" after row r + 1 is read in the block where row r starts
    r = next(r for r in range(20, 90)
             if row_start(r) // 4096 == (row_start(r + 2) - 1) // 4096)
    rows = copy.deepcopy(C100_ROWS)
    rows[r + 1].insert(0, rows[r].pop())
    data = layout(rows, order=b"100")
    with read_blocks_of(4096):
        assert report._read_canonical(io.BytesIO(data), None) is None
        assert_same_as_json_loader(tmp_path, data)
        with pytest.raises(BadGroupFile, match=r"field 'table' is ragged"):
            read_group_file(tmp_path / "g.json")


CANONICAL_TOKENS = st.integers(0, 10 ** 9 - 1).map(b"%d".__mod__)
BAD_TOKENS = st.sampled_from([b"", b"00", b"01", b"-1", b"1000000000",
                              b"2147483648", b"4294967301", b"6442450943",
                              b"9" * 20])
CHUNK_PIECES = st.sampled_from([b"],[", b"]", b"[", b",", b" ", b"0", b"x"])


@st.composite
def table_chunks(draw):
    """k rows of n canonical tokens joined as the writer joins them, then
    at most one token made non-canonical, one row break moved (keeping
    k * n tokens, rows possibly empty) and two pieces inserted or slices
    deleted."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    tokens = draw(st.lists(CANONICAL_TOKENS, min_size=k * n,
                           max_size=k * n))
    if draw(st.booleans()):
        tokens[draw(st.integers(0, k * n - 1))] = draw(BAD_TOKENS)
    cuts = list(range(0, k * n + 1, n))
    if k > 1 and draw(st.booleans()):
        i = draw(st.integers(1, k - 1))
        cuts[i] = draw(st.integers(cuts[i - 1], cuts[i + 1]))
    chunk = bytearray(b"],[".join(b",".join(tokens[a:b])
                                  for a, b in zip(cuts, cuts[1:])))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(chunk)))
        if draw(st.booleans()):
            chunk[i:i] = draw(CHUNK_PIECES)
        else:
            del chunk[i:i + draw(st.integers(1, 3))]
    return bytes(chunk)


def values_before_an_empty_token(text, dtype, sep, fromstring=np.fromstring):
    """``np.fromstring`` as numpy before 2 had it, less the warning: the
    values before an empty token, where numpy 2 raises ``ValueError``."""
    try:
        return fromstring(text, dtype=dtype, sep=sep)
    except ValueError:
        if b",," not in text:
            raise
        return fromstring(text[:text.index(b",,")], dtype=dtype, sep=sep)


@pytest.mark.parametrize("fromstring", [
    np.fromstring, values_before_an_empty_token], ids=["numpy", "older"])
@settings(max_examples=400, deadline=None)
@given(table_chunks())
@example(b"")
@example(b"1,2,3],[4")  # two rows of two tokens by count, ragged by place
@example(b"1],[2,3,4")
@example(b"1,2],[3],[4,5,6")
@example(b"],[1")  # row breaks at the chunk's edge
@example(b"1],[")
@example(b"1[,]2")
@example(b"1,],[2")  # a comma next to a row break
@example(b"1],[,2")
@example(b"1,2],3,[4")  # a "]" and a "[" that make no row break
@example(b"1],x2")  # "]," and a byte other than "[", blanked as "[" is
@example(b"1], 2")
@example(b"01,],[1,2")  # a blank token read as 0 offsets a leading zero
@example(b"1,,2")  # empty tokens
@example(b"1,2],[3,,4")
@example(b"1,2],[3,4,,5,6")
@example(b"1,2,")
@example(b",1")
@example(b"1],[],[2")
@example(b"01,2")  # leading zeros
@example(b"00")
@example(b"1000000000")  # ten digits, wrapping in int32 or not
@example(b"4294967301")
@example(b"6442450943")
@example(b"1[2")  # stray brackets and blanks
@example(b"1]2")
@example(b"1,[2")
@example(b"1, 2")
@example(b"1, ,2")  # a blank or junk token, which numpy reads as 0
@example(b"1,x,2")
@example(b"1 ],[2")
@example(b"0")  # canonical
@example(b"10,2],[3,999999999")
@example(b"1],[2],[3")
def test_chunk_parse_agrees_with_the_reference(fromstring, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "fromstring", fromstring)
        rows = report._parse_rows(chunk)
    expected = oracles.canonical_rows(chunk)
    if expected is None:
        assert rows is None
    else:
        assert rows.dtype == np.int32 and rows.tolist() == expected


BYTES = st.sampled_from(list(b'0123456789,[]{}":- \n\r\t.e+lnrtu\\') + [0xff])


@st.composite
def mutated_canonical_files(draw):
    """A file written by ``write_group_file`` with bytes inserted, deleted,
    replaced or a slice repeated at random positions."""
    g = draw(st.sampled_from([symmetric(3), cyclic(5).relabeled(None),
                              cyclic(1), cyclic(12).relabeled('q"\\\u00e9')]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        write_group_file(g, path)
        data = bytearray(path.read_bytes())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["insert", "delete", "replace", "repeat"]))
        if op == "insert":
            data[i:i] = bytes([draw(BYTES)])
        elif op == "delete":
            del data[i:i + draw(st.integers(1, 4))]
        elif op == "replace" and i < len(data):
            data[i] = draw(BYTES)
        elif op == "repeat":
            j = draw(st.integers(i, min(len(data), i + 12)))
            data[i:i] = data[i:j]
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(mutated_canonical_files())
def test_mutated_canonical_files_load_as_the_json_loader_does(data):
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_as_json_loader(tmp, data)


@settings(max_examples=300, deadline=None)
@given(st.one_of(mutated_canonical_files(),
                 mutated_files().map(str.encode)), st.integers(1, 16))
def test_mutated_files_across_read_blocks(data, size):
    with tempfile.TemporaryDirectory() as tmp, read_blocks_of(size):
        assert_same_as_json_loader(tmp, data)
