"""Threads in the group-file reader, and none in the gate.

``report._in_order`` runs a file's chunks on two threads only when there
is more than one: no catalog file up to order 300 starts a thread, and a
read that starts them joins them before it returns, raises, or leaves the
fast path for ``json.loads`` partway through a file.  The gate checks
every table on the calling thread, at every order.
"""

import contextlib
import threading

import numpy as np
import pytest

from cent_atlas import report
from cent_atlas.catalog import catalog_up_to, cyclic, dihedral
from cent_atlas.core import from_cayley_table
from cent_atlas.errors import (
    BadGroupFile,
    NotAssociative,
    NotLatinSquare,
    OrderCapExceeded,
)
from cent_atlas.report import read_group_file, write_group_file


@contextlib.contextmanager
def thread_starts(monkeypatch):
    """A one-item list counting ``threading.Thread.start`` calls in the
    block, which must leave as many live threads as it found."""
    starts = [0]
    start = threading.Thread.start

    def counted(self):
        starts[0] += 1
        start(self)

    before = threading.active_count()
    with monkeypatch.context() as mp:
        mp.setattr(threading.Thread, "start", counted)
        yield starts
    assert threading.active_count() == before


def test_catalog_files_and_one_block_tables_start_no_thread(
        tmp_path, monkeypatch):
    path = tmp_path / "g.json"
    with thread_starts(monkeypatch) as starts:
        for g in catalog_up_to(300):
            write_group_file(g, path)
            assert np.array_equal(read_group_file(path).table, g.table)
            assert np.array_equal(from_cayley_table(g.table).table, g.table)
        for g in (cyclic(512), dihedral(512)):  # one row block of 512
            from_cayley_table(g.table)
    assert starts == [0]


def intercalate_switched(n: int, a: int) -> np.ndarray:
    """C_n's table, n even, with rows a and a + n/2 traded in columns 1
    and 1 + n/2: still a Latin square with inverses, not associative."""
    table = cyclic(n).table.copy()
    rows, cols = [a, a + n // 2], [1, 1 + n // 2]
    table[np.ix_(rows, cols)] = table[np.ix_(rows, cols[::-1])]
    return table


def test_gates_start_no_thread(monkeypatch):
    bad_row = cyclic(1024).table.copy()
    bad_row[300, 5] = bad_row[300, 7]  # row block 1 of 4
    with thread_starts(monkeypatch) as starts:
        from_cayley_table(cyclic(513).table)  # blocks of 511 and 2 rows
        from_cayley_table(dihedral(1030).table)
        with pytest.raises(NotLatinSquare, match="^row 300 "):
            from_cayley_table(bad_row)
        with pytest.raises(NotAssociative):
            from_cayley_table(intercalate_switched(1024, 300))
    assert starts == [0]


def test_reads_of_several_chunks_join_their_threads(tmp_path, monkeypatch):
    g = dihedral(200)
    path = tmp_path / "g.json"
    write_group_file(g, path)
    data = path.read_bytes()
    bad = tmp_path / "bad.json"  # a leading zero in row 150 of 200
    bad.write_bytes(data.replace(b"],[150,", b"],[0150,", 1))
    monkeypatch.setattr(report, "_READ_BLOCK", 1 << 12)
    assert len(data) > 20 * report._READ_BLOCK
    with thread_starts(monkeypatch) as starts:
        assert np.array_equal(read_group_file(path).table, g.table)
        with pytest.raises(OrderCapExceeded):
            read_group_file(path, order_cap=100)
        with pytest.raises(BadGroupFile, match="^.*bad.json: Expecting"):
            read_group_file(bad)
    assert starts[0] > 0
