"""Analysis reports, renderers, and group file round-trips."""

import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cent_atlas import report
from cent_atlas.catalog import (
    alternating,
    catalog_up_to,
    cyclic,
    dihedral,
    symmetric,
    witness_h,
)
from cent_atlas.core import _CELL, from_cayley_table, quotient
from cent_atlas.cli import main
from cent_atlas.errors import (
    BadGroupFile,
    BadParameters,
    NoIdentityAtZero,
    NotLatinSquare,
    OrderCapExceeded,
)
from cent_atlas.invariants import center, is_isomorphic
from cent_atlas.report import (
    analyze,
    catalog_filename,
    group_to_jsonable,
    read_group_file,
    render_csv,
    render_json,
    render_markdown,
    write_group_file,
)


class TestAnalyze:
    def test_a4(self):
        r = analyze(alternating(4))
        assert r.order == 12
        assert r.center_order == 1
        assert r.derived_order == 4
        assert r.cent_count == 6
        assert r.omega == 5
        assert r.is_ca
        assert r.abelian_profile.kind == "nonabelian"
        assert dict(r.sylow_counts) == {2: 1, 3: 4}
        assert r.frobenius == (4, 3, True)
        assert r.capability.status == "capable"

    def test_c6(self):
        r = analyze(cyclic(6))
        assert r.cent_count == 1
        assert r.omega == 1
        assert r.center_order == 6
        assert r.derived_order == 1
        assert r.abelian_profile.kind == "cyclic"
        assert r.abelian_profile.invariant_factors == (6,)
        assert r.frobenius is None

    def test_d16(self):
        r = analyze(dihedral(16))
        assert r.cent_count == 6
        assert r.omega == 5
        assert r.is_ca

    def test_jsonable_field_order(self):
        d = analyze(symmetric(3)).to_jsonable()
        assert list(d)[:4] == ["label", "order", "center_order", "derived_order"]
        assert d["cent_count"] == 5
        assert d["capability"]["status"] in ("capable", "not_capable", "unsupported")

    def test_fields_are_the_json_keys(self):
        r = analyze(alternating(4))
        d = r.to_jsonable()
        assert list(d) == [f.name for f in dataclasses.fields(r)]
        want = json.loads(render_json(r))
        d["abelian_profile"]["invariant_factors"].append(2)
        d["sylow_counts"][0][1] = 9
        d["frobenius"]["kernel_order"] = 9
        d["capability"]["status"] = "unsupported"
        d["label"] = "B4"
        assert r.to_jsonable() == want


class TestRenderers:
    def test_json_parses(self):
        r = analyze(symmetric(3))
        d = json.loads(render_json(r))
        assert d["label"] == "S3" and d["cent_count"] == 5

    def test_markdown_has_table(self):
        text = render_markdown(analyze(symmetric(3)))
        assert text.startswith("# S3 (order 6)")
        assert "| cent_count | 5 |" in text

    def test_csv_two_lines(self):
        text = render_csv(analyze(symmetric(3)))
        lines = text.strip().splitlines()
        assert len(lines) == 2
        header, row = lines
        assert header.split(",")[0] == "label"
        assert row.split(",")[0] == "S3"

    def test_csv_escapes_commas(self):
        # SL-style labels with commas must be quoted
        g = symmetric(3).relabeled("a,b")
        text = render_csv(analyze(g))
        assert text.splitlines()[1].startswith('"a,b"')


class TestGroupFiles:
    def test_round_trip(self, tmp_path):
        g = dihedral(12)
        path = tmp_path / "d12.json"
        write_group_file(g, path)
        back = read_group_file(path)
        assert back.order == 12
        assert back.label == "D12"
        assert is_isomorphic(back, g)

    def test_jsonable_shape(self):
        d = group_to_jsonable(cyclic(3))
        assert set(d) == {"order", "label", "table"}
        assert d["table"] == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]

    def test_permutation_file(self, tmp_path):
        path = tmp_path / "s3.json"
        path.write_text(json.dumps({"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}))
        g = read_group_file(path)
        assert g.order == 6

    @pytest.mark.parametrize("indent", [None, 1], ids=["compact", "indented"])
    def test_reads_a_pipe(self, tmp_path, indent):
        # a FIFO cannot seek: its bytes are held so that the json.loads
        # path can read them again after the compact-layout attempt
        g = dihedral(12)
        text = json.dumps(group_to_jsonable(g), separators=(",", ":"),
                          indent=indent) + "\n"
        path = tmp_path / "pipe"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=(text,),
                                  daemon=True)
        writer.start()
        back = read_group_file(path)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (back.label, back.table.tolist()) == (g.label, g.table.tolist())

    def test_rejects_unknown_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"order": 3}))
        with pytest.raises(BadParameters):
            read_group_file(path)

    @pytest.mark.parametrize("table, row, entries, first", [
        ([[0, 1], [1]], 1, 1, 2),
        ([[0], [1, 0]], 1, 2, 1),
        ([[0, 1, 2], [1, 2, 0], 2], 2, 0, 3),
    ], ids=["short-row", "long-row", "scalar-row"])
    def test_ragged_table_names_the_field_and_row(self, tmp_path, table, row,
                                                  entries, first):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"order": 2, "label": None, "table": table}))
        with pytest.raises(BadGroupFile) as info:
            read_group_file(path)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == (
            f"{path}: field 'table' is ragged: row {row} has {entries} "
            f"entries but row 0 has {first}")

    def test_revalidates_axioms(self, tmp_path):
        path = tmp_path / "notgroup.json"
        path.write_text(json.dumps(
            {"order": 3, "label": "X", "table": [[1, 0, 2], [0, 2, 1], [2, 1, 0]]}))
        with pytest.raises(NoIdentityAtZero):
            read_group_file(path)

    def test_raw_utf8_label_loads(self, tmp_path):
        path = tmp_path / "c1.json"
        for text in ('{"order":1,"label":"\u00e9\u4e00","table":[[0]]}\n',
                     '{"order": 1, "label": "\u00e9\u4e00", "table": [[0]]}'):
            path.write_bytes(text.encode("utf-8"))
            assert read_group_file(path).label == "\u00e9\u4e00"


def relabel(g, rng):
    perm = np.array([0, *rng.sample(range(1, g.order), g.order - 1)])
    table = np.empty_like(g.table)
    table[np.ix_(perm, perm)] = perm[g.table]
    return from_cayley_table(table, label=g.label, order_cap=g.order)


class TestCompactLayout:
    """``write_group_file`` bytes against ``json.dumps``, and the reader's
    fast path on every file the writer emits."""

    @staticmethod
    def check(g, path):
        write_group_file(g, path)
        data = path.read_bytes()
        want = json.dumps(group_to_jsonable(g), separators=(",", ":")) + "\n"
        assert data == want.encode("ascii"), (g.order, g.label)
        del want
        raw = report._read_canonical(io.BytesIO(data), order_cap=g.order)
        assert raw is not None, (g.order, g.label)
        assert (raw["order"], raw["label"]) == (g.order, g.label or None)
        assert raw["table"].dtype == _CELL
        assert np.array_equal(raw["table"], g.table)

    def test_catalog_up_to_300_as_built_and_relabelled(self, tmp_path):
        rng = random.Random(10)
        for g in catalog_up_to(300):
            self.check(g, tmp_path / "g.json")
            self.check(relabel(g, rng), tmp_path / "g.json")

    @pytest.mark.parametrize("label", ['say "hi"', "back\\slash",
                                       "\u00e9\u4e00\U0001d53e", "",
                                       "\n\t\x00\x7f\u2028"])
    def test_labels_json_escapes(self, label, tmp_path):
        self.check(symmetric(3).relabeled(label), tmp_path / "g.json")
        self.check(cyclic(1).relabeled(label), tmp_path / "g.json")

    @pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 100, 101, 1000, 1001,
                                   1025])
    def test_every_token_width_and_a_short_last_block(self, n, tmp_path):
        """Tokens from ``"0],["`` to ``"1000],["``, each padded to one
        8-byte word; the 16-byte width from order 10^5 on (a 40 GB table)
        is the same rounding and is not built.  At n = 1025 a block of
        1,023 rows is followed by one of 2, so the closing ``]]}`` is
        spliced onto a short last block."""
        self.check(cyclic(n), tmp_path / "g.json")
        self.check(relabel(cyclic(n), random.Random(n)), tmp_path / "g.json")

    @pytest.mark.parametrize("build", [
        lambda: dihedral(2048),
        lambda: witness_h(5, 31, 2, order_cap=3875)], ids=["D2048", "H(5,31,2)"])
    def test_large(self, build, tmp_path):
        self.check(build(), tmp_path / "g.json")


def test_row_break_across_two_reads(tmp_path, monkeypatch):
    # a label of the right length puts a "],[" across the boundary of the
    # second and third 4 KB reads, both made by _row_chunks
    g, edge = dihedral(60), 2 * 4096
    path = tmp_path / "g.json"
    for width in range(400):
        write_group_file(g.relabeled("x" * width), path)
        data = path.read_bytes()
        if data.find(b"],[", edge - 2, edge + 2) >= 0:
            break
    else:
        pytest.fail("no label length puts a row break across the reads")
    one_block = read_group_file(path).table
    monkeypatch.setattr(report, "_READ_BLOCK", 4096)
    assert report._read_canonical(io.BytesIO(data), None) is not None
    assert np.array_equal(read_group_file(path).table, one_block)
    assert np.array_equal(one_block, g.table)


def test_group_file_io_builds_no_table_list(tmp_path):
    # at order 3875, json.dumps and json.loads over table lists peak near
    # 680 and 740 MB; the writer streams ``_CLOSE_BLOCK`` runs of 2 MB
    # gathers (7.4 MiB peak), and the reader holds the 28.6 MiB table of
    # two-byte cells, which the gate checks without a copy, and blocks of
    # about 1 MB: 44.5 MiB in all (73.2 MiB with int32 cells)
    g = witness_h(5, 31, 2, order_cap=3875).relabeled(None)
    path = tmp_path / "h.json"
    tracemalloc.start()
    try:
        write_group_file(g, path)
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = read_group_file(path, order_cap=g.order)
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.table, g.table)
    assert write_peak < 16 * 2 ** 20, write_peak
    assert read_peak < g.table.nbytes + 20 * 2 ** 20, read_peak


@pytest.mark.parametrize("token", ["65537", "65541", "32768"])
def test_cell_past_a_two_byte_cell_is_named_as_written(token, tmp_path):
    # in a two-byte table 65537 would wrap to 1, S3's entry at (2, 3), so
    # the file would load, and 65541 and 32768 to other values; the fast
    # path widens its table to int32 instead
    rows = [[str(v) for v in row] for row in symmetric(3).table.tolist()]
    rows[2][3] = token
    path = tmp_path / "g.json"
    path.write_bytes(b'{"order":6,"label":"S3","table":[['
                     + "],[".join(map(",".join, rows)).encode() + b"]]}\n")
    assert report._read_canonical(io.BytesIO(path.read_bytes()), None) is not None
    with pytest.raises(NotLatinSquare,
                       match=rf"^entry at \(2, 3\) is {token}, outside 0\.\.5$"):
        read_group_file(path)


def test_file_past_the_largest_order_allocates_no_table(monkeypatch):
    # A canonical file of order 32769 needs at least 2 GB, so this one
    # claims that length and stands for its rows by one-digit rows that
    # the chunk parse reads as rows of 32769 zeros: the reader refuses the
    # order once the whole file is in the layout, and never allocates the
    # 2 GiB table, whatever the cap.
    n = 32769

    class Long(io.BytesIO):
        def seek(self, pos, whence=os.SEEK_SET):
            if whence == os.SEEK_END:
                return 2 * n * n + 4 * n
            return super().seek(pos, whence)

    data = (b'{"order":32769,"label":null,"table":[['
            + b"],[".join([b"0"] * n) + b"]]}\n")
    monkeypatch.setattr(report, "_parse_rows", lambda chunk: np.broadcast_to(
        np.int32(0), (chunk.count(b"],[") + 1, n)))
    tracemalloc.start()
    try:
        with pytest.raises(OrderCapExceeded, match=(
                "^order 32769 exceeds 32768, the largest order a table holds$")):
            report._read_canonical(Long(data), 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


def test_over_cap_file_is_refused_without_its_table(tmp_path):
    # the reader learns n from the first row and allocates no n x n table
    # past the cap; it still reads the rest in blocks, so a file that
    # leaves the layout fails as json.loads has it fail
    path = tmp_path / "h.json"
    write_group_file(witness_h(5, 31, 2, order_cap=3875), path)
    tracemalloc.start()
    try:
        with pytest.raises(OrderCapExceeded,
                           match=r"^order 3875 exceeds cap 2048$"):
            read_group_file(path, order_cap=2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak  # the table alone is 57 MiB
    assert main(["analyze", "--in", str(path), "--order-cap", "2048"]) == 2


def test_short_file_allocates_no_table_for_its_first_row(tmp_path):
    # a first row of 10,000 tokens makes n = 10,000, but the file is too
    # short for 10,000 such rows, so no 400 MB table is allocated
    path = tmp_path / "g.json"
    path.write_bytes(b'{"order":10000,"label":null,"table":[['
                     + b",".join([b"0"] * 10000) + b"]]}\n")
    tracemalloc.start()
    try:
        with pytest.raises(BadParameters, match="square"):
            read_group_file(path, order_cap=10000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


class TestCatalogFilename:
    def test_plain(self):
        assert catalog_filename(2, cyclic(12)) == "12_2_C12.json"

    def test_slug_collapses_punctuation(self):
        g = cyclic(3).relabeled("(C2xC2):C3[1]")
        name = catalog_filename(0, g)
        assert name.startswith("3_0_")
        assert "/" not in name and ":" not in name and "[" not in name

    @pytest.mark.parametrize("build", [
        lambda: cyclic(12).relabeled(None),
        lambda: quotient(dihedral(8), center(dihedral(8))),
        lambda: from_cayley_table(cyclic(5).table),
    ], ids=["relabeled", "quotient", "from-table"])
    def test_unlabelled_group_gets_the_group_slug(self, build):
        g = build()
        assert g.label is None
        assert catalog_filename(3, g) == f"{g.order}_3_group.json"

    def test_label_of_punctuation_only_gets_the_group_slug(self):
        assert catalog_filename(1, cyclic(4).relabeled(":[]")) == "4_1_group.json"


# A flag-less ``np.unique`` imports ``numpy.ma`` (1.7 MB of RSS in every
# sweep and pool process); the library's calls pass a flag and do not.
_NO_MASKED_ARRAYS = """
import os, sys, tempfile
from cent_atlas.catalog import symmetric
from cent_atlas.claims import claim_ids, verify_claim
from cent_atlas.core import from_cayley_table
from cent_atlas.report import analyze, read_group_file, write_group_file
reduced = {
    "C0": {"max_order": 30}, "C1": {"shapes": (("p2q", (2, 3)),)},
    "C2": {"max_order": 60}, "C3": {"max_order": 60}, "C4": {"max_order": 60},
    "C5": {"triples": ((2, 3, 5),)}, "C6": {"triples": ((2, 3, 5),)},
    "C7": {"max_order": 60}, "C8": {"max_order": 30}, "C9": {"max_order": 60},
    "C9w": {"p_list": (2,), "q_max": 7, "order_cap": 4096},
    "C10": {"shapes": (("p2q", (2, 3)), ("pq2", (2, 3)))},
    "C11": {"p_list": (2,)}, "C12": {"p_list": (2,)}, "C13": {"max_order": 60},
}
assert set(reduced) == set(claim_ids())
for cid in claim_ids():
    assert verify_claim(cid, jobs=1, **reduced[cid]).passed, cid
g = from_cayley_table(symmetric(4).table.copy(), label="S4")
analyze(g)
with tempfile.TemporaryDirectory() as d:
    write_group_file(g, os.path.join(d, "S4.json"))
    analyze(read_group_file(os.path.join(d, "S4.json")))
print("numpy.ma" in sys.modules)
"""


def test_sweeps_analyze_and_files_import_no_masked_arrays():
    proc = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
