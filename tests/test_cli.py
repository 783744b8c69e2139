"""Command-line interface: subcommands, exit codes, and output formats."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import cent_atlas.claims as claims
from cent_atlas.catalog import FAMILIES, cyclic, dihedral, witness_h
from cent_atlas.cli import _build_parser, main
from cent_atlas.core import direct_product, from_cayley_table
from cent_atlas.report import analyze, write_group_file

import oracles


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstruct:
    def test_stdout_json(self, capsys):
        code, out, _ = run(["construct", "--family", "dihedral", "--n", "8"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == 8
        assert payload["label"] == "D8"
        assert len(payload["table"]) == 8

    def test_to_file(self, tmp_path, capsys):
        dest = tmp_path / "g.json"
        code, _, _ = run(["construct", "--family", "cyclic", "--n", "6",
                          "--out", str(dest)], capsys)
        assert code == 0
        assert json.loads(dest.read_text())["order"] == 6

    def test_stdout_is_the_group_file(self, tmp_path, capsys):
        dest = tmp_path / "g.json"
        argv = ["construct", "--family", "dihedral", "--n", "8"]
        _, out, _ = run(argv, capsys)
        run([*argv, "--out", str(dest)], capsys)
        assert out == dest.read_text()

    def test_stdout_as_string_io_is_the_group_file(self, tmp_path, capsys):
        # several write blocks, printed to a text stream with no buffer
        dest = tmp_path / "g.json"
        argv = ["construct", "--family", "dihedral", "--n", "2048"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        run([*argv, "--out", str(dest)], capsys)
        assert out.getvalue() == dest.read_text()

    def test_bad_congruence_names_relation(self, capsys):
        code, _, err = run(["construct", "--family", "witness-h",
                            "--p", "2", "--q", "5", "--i", "2"], capsys)
        assert code == 2
        assert "i^p = 1 (mod q)" in err

    def test_missing_parameter(self, capsys):
        code, _, err = run(["construct", "--family", "cyclic"], capsys)
        assert code == 2
        assert "--n" in err

    def test_unused_parameter_is_refused(self, capsys):
        code, out, err = run(["construct", "--family", "cyclic", "--n", "3",
                              "--p", "7"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: family 'cyclic' takes --n, not --p\n"

    def test_order_cap(self, capsys):
        code, _, err = run(["construct", "--family", "cyclic", "--n", "50",
                            "--order-cap", "10"], capsys)
        assert code == 2

    def test_order_cap_names_the_whole_order(self, capsys):
        # H(2,3,2) has order 24; its C2 x C2 x C3 base alone crosses cap 10
        code, _, err = run(["construct", "--family", "witness-h", "--p", "2",
                            "--q", "3", "--i", "2", "--order-cap", "10"], capsys)
        assert code == 2
        assert "order 24 exceeds cap 10" in err

    def test_family_choices_are_the_registry(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        family = next(a for a in sub.choices["construct"]._actions
                      if a.dest == "family")
        assert list(family.choices) == list(FAMILIES)
        assert set(FAMILY_EXAMPLES) == set(FAMILIES)

    def test_integer_flags_are_the_registry_parameters(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = [a.dest for a in sub.choices["construct"]._actions
                 if a.type is int and a.dest != "order_cap"]
        assert flags == ["n", "m", "k", "p", "q", "i"]
        assert set(flags) == {name for _, names in FAMILIES.values()
                              for name in names}

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_every_family_builds(self, family, capsys):
        flags, order = FAMILY_EXAMPLES[family]
        code, out, _ = run(["construct", "--family", family, *flags], capsys)
        assert code == 0
        assert json.loads(out)["order"] == order

    def test_r_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--family", "cyclic", "--n", "6", "--r", "3"])
        assert exc.value.code == 2
        assert "--r" in capsys.readouterr().err


# one documented flag set per family, with the order it builds
FAMILY_EXAMPLES = {
    "cyclic": (["--n", "6"], 6),
    "dihedral": (["--n", "8"], 8),
    "dicyclic": (["--n", "12"], 12),
    "symmetric": (["--n", "4"], 24),
    "alternating": (["--n", "4"], 12),
    "metacyclic": (["--m", "7", "--n", "6", "--k", "3"], 42),
    "heisenberg": (["--p", "3"], 27),
    "modular-p3": (["--p", "3"], 27),
    "elementary": (["--p", "2", "--k", "3"], 8),
    "witness-h": (["--p", "2", "--q", "5", "--i", "4"], 40),
    "sl23": ([], 24),
}


class TestAnalyze:
    def test_json_round_trip(self, tmp_path, capsys):
        src = tmp_path / "a4.json"
        code, _, _ = run(["construct", "--family", "alternating", "--n", "4",
                          "--out", str(src)], capsys)
        assert code == 0
        code, out, _ = run(["analyze", "--in", str(src)], capsys)
        assert code == 0
        got = json.loads(out)
        from cent_atlas.catalog import alternating
        want = analyze(alternating(4)).to_jsonable()
        assert got == want

    def test_markdown(self, tmp_path, capsys):
        src = tmp_path / "d16.json"
        write_group_file(dihedral(16), src)
        code, out, _ = run(["analyze", "--in", str(src), "--format", "md"], capsys)
        assert code == 0
        assert out.startswith("# D16 (order 16)")
        assert "| cent_count | 6 |" in out
        assert "| omega | 5 |" in out

    def test_csv_to_file(self, tmp_path, capsys):
        src = tmp_path / "c6.json"
        write_group_file(dihedral(6).relabeled("S3"), src)
        dest = tmp_path / "out.csv"
        code, _, _ = run(["analyze", "--in", str(src), "--format", "csv",
                          "--out", str(dest)], capsys)
        assert code == 0
        assert dest.read_text().splitlines()[1].startswith("S3,6,")

    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_out_is_utf8_under_ascii_locale(self, tmp_path, fmt):
        src = tmp_path / "ze.json"
        write_group_file(cyclic(2).relabeled("Z\u00e9"), src)
        dest = tmp_path / "out"
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0")
        proc = subprocess.run(
            [sys.executable, "-m", "cent_atlas", "analyze", "--in", str(src),
             "--format", fmt, "--out", str(dest)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "Z\u00e9" in dest.read_text(encoding="utf-8")

    @pytest.mark.parametrize("argv", [
        ["analyze", "--in", "Z.json", "--format", "md"],
        ["analyze", "--in", "Z.json", "--format", "csv"],
        ["witness", "H.json", "G.json"],
    ], ids=["analyze-md", "analyze-csv", "witness"])
    def test_stdout_is_utf8_under_ascii_locale(self, tmp_path, argv):
        write_group_file(cyclic(2).relabeled("Z\u00e9"), tmp_path / "Z.json")
        write_group_file(witness_h(2, 3, 2).relabeled("H\u00e9"),
                         tmp_path / "H.json")
        write_group_file(dihedral(12).relabeled("G\u00e9"),
                         tmp_path / "G.json")
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0")
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        proc = subprocess.run([sys.executable, "-m", "cent_atlas", *argv],
                              env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout.decode("utf-8")
        assert ("H\u00e9/Z(H\u00e9) ~ G\u00e9: true" if argv[0] == "witness"
                else "Z\u00e9") in out

    @pytest.mark.parametrize("indent", [None, 1], ids=["compact", "indented"])
    def test_group_file_from_a_pipe(self, indent):
        text = json.dumps({"order": 6, "label": "S3", "table": dihedral(
            6).table.tolist()}, separators=(",", ":"), indent=indent)
        proc = subprocess.run(
            [sys.executable, "-m", "cent_atlas", "analyze", "--in",
             "/dev/stdin"], input=text + "\n", capture_output=True,
            text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["cent_count"] == 5

    def test_invalid_table_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(
            {"order": 3, "label": "X", "table": [[0, 1, 2], [1, 2, 0], [2, 2, 1]]}))
        code, _, err = run(["analyze", "--in", str(src)], capsys)
        assert code == 3
        assert err

    @pytest.mark.parametrize("table", [
        [[0, 1], [1, 0.9]],
        [[0, 1], [1, 2 ** 32]],
        [[0, 1], [1, 10 ** 20]],
        [[False, True], [True, False]],
    ], ids=["float", "wraps-int32", "overflows-int64", "bool"])
    def test_non_integer_or_wide_entry_is_input_error(self, tmp_path, capsys,
                                                      table):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({"order": 2, "label": "C2", "table": table}))
        code, out, err = run(["analyze", "--in", str(src)], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("payload, field", [
        ({"table": [[0, 1], [1, False]]}, "table"),
        ({"order": 5, "table": [[0, 1], [1, 0]]}, "order"),
        ({"label": 7, "table": [[0, 1], [1, 0]]}, "label"),
        ({"generators": 5}, "generators"),
        ({"generators": [5]}, "generators"),
        ({"degree": "2", "generators": [[1, 0]]}, "degree"),
    ], ids=["bool-among-ints", "wrong-order", "int-label",
            "non-list-generators", "non-list-generator", "non-int-degree"])
    def test_bad_field_is_input_error(self, tmp_path, capsys, payload, field):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(payload))
        code, out, err = run(["analyze", "--in", str(src)], capsys)
        assert code == 3
        assert out == ""
        assert f"field '{field}'" in err

    @pytest.mark.parametrize("data", [
        b'{"order":1,"label":"\xff","table":[[0]]}\n',
        b'{"order": 1, "label": "C1", "table": [[0]]}\xe9',
    ], ids=["compact-layout", "other-layout"])
    def test_invalid_utf8_is_input_error(self, tmp_path, capsys, data):
        src = tmp_path / "bad.json"
        src.write_bytes(data)
        code, out, err = run(["analyze", "--in", str(src)], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {src}: 'utf-8' codec can't decode byte")
        assert "Traceback" not in err

    def test_overlong_integer_names_its_file(self, tmp_path, capsys):
        # json.loads refuses an integer of more than 4,300 digits with a
        # plain ValueError, not a JSONDecodeError
        src = tmp_path / "big.json"
        src.write_text('{"order":1,"label":null,"table":[[' + "1" * 5000
                       + "]]}")
        code, out, err = run(["analyze", "--in", str(src)], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {src}: Exceeds the limit")
        assert "Traceback" not in err

    def test_ragged_table_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "ragged.json"
        src.write_text('{"order":2,"label":null,"table":[[0,1],[1]]}')
        code, out, err = run(["analyze", "--in", str(src)], capsys)
        assert (code, out) == (3, "")
        assert err == (f"error: {src}: field 'table' is ragged: row 1 has 1 "
                       f"entries but row 0 has 2\n")

    @pytest.mark.parametrize("text, message", [
        ('{"table": [[0, 1], [1, 0], [0, 1]]}', "nonempty square matrix"),
        ("[[0]]", "expected a JSON object"),
        ('{"foo": 1}', "neither a group nor a permutation file"),
        ('{"generators": []}', "at least one generator permutation"),
    ], ids=["non-square", "json-array", "no-table", "no-generators"])
    def test_malformed_file_is_a_parameter_error(self, tmp_path, capsys,
                                                 text, message):
        # as the module docstring and README say: these exit 2, not 3
        src = tmp_path / "bad.json"
        src.write_text(text)
        code, out, err = run(["analyze", "--in", str(src)], capsys)
        assert (code, out) == (2, "")
        assert message in err

    def test_generator_length_must_match_degree(self, tmp_path, capsys):
        src = tmp_path / "perm.json"
        src.write_text(json.dumps({"degree": 3, "generators": [[1, 0]]}))
        code, out, err = run(["analyze", "--in", str(src)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {src}: generator length disagrees with degree 3\n"

    def test_float_in_permutation_is_rejected(self, tmp_path, capsys):
        src = tmp_path / "perm.json"
        src.write_text(json.dumps({"degree": 2, "generators": [[1.0, 0]]}))
        code, out, err = run(["analyze", "--in", str(src)], capsys)
        assert code == 2
        assert "not a permutation" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, _ = run(["analyze", "--in", str(tmp_path / "nope.json")], capsys)
        assert code == 3

    def test_p2q_group_above_the_default_cap(self, tmp_path, monkeypatch,
                                             capsys):
        # capability compares C2 x C1042 with C2 x (C521 : C2), which is
        # built under its own order 2084, not the default cap of 2048
        monkeypatch.delenv("CENT_ATLAS_ORDER_CAP", raising=False)
        src = tmp_path / "c2xc1042.json"
        write_group_file(direct_product(cyclic(2), cyclic(1042), order_cap=4096),
                         src)
        code, out, err = run(["analyze", "--order-cap", "4096", "--in",
                              str(src)], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["capability"]["status"] == "not_capable"

    def test_permutation_input(self, tmp_path, capsys):
        src = tmp_path / "perm.json"
        src.write_text(json.dumps({"degree": 4,
                                   "generators": [[1, 0, 2, 3], [0, 2, 1, 3]]}))
        code, out, _ = run(["analyze", "--in", str(src)], capsys)
        assert code == 0
        assert json.loads(out)["order"] == 6


class TestCatalog:
    def test_writes_files(self, tmp_path, capsys):
        out_dir = tmp_path / "cat"
        code, out, _ = run(["catalog", "--max-order", "20",
                            "--out-dir", str(out_dir)], capsys)
        assert code == 0
        files = sorted(p.name for p in out_dir.glob("*.json"))
        assert len(files) == 24  # 5+5+4+5+5 at orders 8, 12, 16, 18, 20
        assert any(f.startswith("8_1_") for f in files)
        payload = json.loads((out_dir / files[0]).read_text())
        assert set(payload) == {"order", "label", "table"}

    def test_explicit_cap_reaches_every_inner_construction(
            self, tmp_path, monkeypatch, capsys):
        # factors such as C14 inside C2 x C14, and the named extras up to
        # order 88, exceed the environment's cap; only the explicit one
        # may apply
        monkeypatch.setenv("CENT_ATLAS_ORDER_CAP", "10")
        out_dir = tmp_path / "cat"
        code, out, err = run(["catalog", "--max-order", "30", "--order-cap",
                              "100", "--out-dir", str(out_dir)], capsys)
        assert (code, err) == (0, "")
        assert out == f"wrote 42 group files to {out_dir}\n"

    def test_cap_refuses_before_writing(self, tmp_path, capsys):
        # order 12 is the first over the cap; the 5 groups of order 8 were
        # written before it was reached
        out_dir = tmp_path / "cat"
        code, _, err = run(["catalog", "--max-order", "20", "--order-cap",
                            "10", "--out-dir", str(out_dir)], capsys)
        assert (code, err) == (2, "error: order 12 exceeds cap 10\n")
        assert list(out_dir.glob("*.json")) == []

    @pytest.mark.parametrize("max_order", ["-5", "0", "1", "7"])
    def test_empty_catalog_is_refused_before_its_directory(
            self, tmp_path, capsys, max_order):
        # the smallest catalog order is 8; verify refuses an empty sweep
        # the same way
        out_dir = tmp_path / "cat"
        code, out, err = run(["catalog", "--max-order", max_order,
                              "--out-dir", str(out_dir)], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: the catalog has no group of order at most "
                       f"{max_order}\n")
        assert not out_dir.exists()

    def test_holds_one_order_at_a_time(self, tmp_path, capsys):
        # 1.7 MiB of Python allocations at max order 200, against 11.9 MiB
        # when every catalog group was built before the first file was
        # written
        tracemalloc.start()
        try:
            code, _, _ = run(["catalog", "--max-order", "200", "--out-dir",
                              str(tmp_path / "cat")], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 * 2 ** 20


class TestVerify:
    def test_pass_line(self, capsys):
        code, out, _ = run(["verify", "--claim", "C12", "--p-max", "2"], capsys)
        assert code == 0
        assert out.startswith("C12: PASS (")

    def test_list(self, capsys):
        code, out, _ = run(["verify", "--list"], capsys)
        assert code == 0
        assert "C0" in out and "C9w" in out

    def test_needs_a_claim_or_the_list(self, capsys):
        code, out, err = run(["verify"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: verify needs --claim or --list\n"

    def test_unknown_claim(self, capsys):
        code, _, err = run(["verify", "--claim", "C99"], capsys)
        assert code == 2

    def test_empty_sweep(self, capsys):
        code, _, err = run(["verify", "--claim", "C0", "--max-order", "7"], capsys)
        assert code == 2

    def test_explicit_cap_reaches_every_c9w_group(self, monkeypatch, capsys):
        # the targets and quotients (order up to 28) exceed the
        # environment's cap; only the explicit one may apply
        monkeypatch.setenv("CENT_ATLAS_ORDER_CAP", "20")
        code, out, err = run(["verify", "--claim", "C9w", "--order-cap",
                              "4096", "--p-max", "2", "--q-max", "7"], capsys)
        assert (code, err) == (0, "")
        assert out.startswith("C9w: PASS (")

    def test_failing_claim_exits_4_with_its_counterexample(self, monkeypatch,
                                                           capsys):
        spec = claims._CLAIMS["C2"]
        monkeypatch.setitem(claims._CLAIMS, "C2", dataclasses.replace(
            spec, check=lambda g, n: (False, "planted failure", {})))
        code, out, err = run(["verify", "--claim", "C2", "--max-order", "60",
                              "--jobs", "1"], capsys)
        assert (code, err) == (4, "")
        assert out.startswith("C2: FAIL (")
        assert out.endswith("\ncounterexample: C15:C2(14) (order 30): "
                            "planted failure\n")

    def test_c9_takes_the_default_order_cap_explicitly(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["verify", "--claim", "C9", "--jobs", "1",
                    "--out", str(a)], capsys)[0] == 0
        assert run(["verify", "--claim", "C9", "--jobs", "1",
                    "--order-cap", "4096", "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_c9_cap_below_its_largest_cover_exits_2(self, capsys):
        # at max_order 300 the witness for (5, 11) has order 5^3 * 11 = 1375
        code, _, err = run(["verify", "--claim", "C9", "--jobs", "1",
                            "--order-cap", "1374"], capsys)
        assert code == 2
        assert "order 1375 exceeds cap 1374" in err

    def test_c9_builds_its_sweep_under_its_own_cap(self, tmp_path,
                                                   monkeypatch, capsys):
        # the swept groups of order 116 = 2^2 * 29 exceed the environment's
        # cap; C9's order_cap must reach them as it reaches the covers
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "--claim", "C9", "--jobs", "1", "--max-order",
                "150", "--order-cap", "4096", "--out"]
        assert run([*argv, str(a)], capsys)[0] == 0
        monkeypatch.setenv("CENT_ATLAS_ORDER_CAP", "100")
        code, _, err = run([*argv, str(b)], capsys)
        assert (code, err) == (0, "")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, jobs, capsys):
        code, out, err = run(["verify", "--claim", "C4", "--max-order", "60",
                              "--jobs", jobs], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: jobs must be at least 1, got {jobs}\n"

    def test_bad_order_cap_variable_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("CENT_ATLAS_ORDER_CAP", "abc")
        code, out, err = run(["construct", "--family", "cyclic", "--n", "4"],
                             capsys)
        assert (code, out) == (2, "")
        assert err == ("error: CENT_ATLAS_ORDER_CAP must be an integer, "
                       "got 'abc'\n")

    # int() reads each of these as a number (``1_0`` as 10); the cap takes
    # ASCII digits only, from the flag and from the variable alike
    @pytest.mark.parametrize("text", ["1_0", "1_000", " 64 ", "+64", "-64",
                                      "\u0664\u0660\u0669\u0666"],
                             ids=["underscore-10", "underscore", "spaces",
                                  "plus", "minus", "arabic-indic"])
    def test_order_cap_text_other_than_ascii_digits_exits_2(
            self, text, monkeypatch, capsys):
        monkeypatch.delenv("CENT_ATLAS_ORDER_CAP", raising=False)
        code, out, err = run(["construct", "--family", "cyclic", "--n", "4",
                              "--order-cap", text], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --order-cap must be an integer, got {text!r}\n"
        monkeypatch.setenv("CENT_ATLAS_ORDER_CAP", text)
        code, out, err = run(["construct", "--family", "cyclic", "--n", "4"],
                             capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: CENT_ATLAS_ORDER_CAP must be an integer, "
                       f"got {text!r}\n")

    def test_out_deterministic_across_jobs(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["verify", "--claim", "C7", "--max-order", "100",
                    "--jobs", "1", "--out", str(a)], capsys)[0] == 0
        assert run(["verify", "--claim", "C7", "--max-order", "100",
                    "--jobs", "2", "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()


# SHA-256 of the witness stdout; its coset lines print the isomorphism
PINNED_WITNESS = (
    "3612bd6dea05b76aaa4cef40633141c46c1beeaaade0fddda30106fc9294dbae")


class TestWitness:
    def test_true_witness(self, tmp_path, capsys):
        cover = tmp_path / "h.json"
        target = tmp_path / "t.json"
        write_group_file(witness_h(2, 3, 2), cover)
        write_group_file(dihedral(12).relabeled("D12"), target)
        code, out, _ = run(["witness", str(cover), str(target)], capsys)
        assert code == 0
        assert "true" in out
        assert "->" in out  # coset correspondence lines

    def test_output_is_pinned(self, tmp_path, capsys):
        cover = tmp_path / "h.json"
        target = tmp_path / "t.json"
        write_group_file(witness_h(2, 7, 6), cover)
        g = direct_product(cyclic(2), dihedral(14))
        perm = [0, *random.Random(5).sample(range(1, g.order), g.order - 1)]
        write_group_file(from_cayley_table(
            oracles.relabelled(g.table.tolist(), perm), label="C2xD14"), target)
        code, out, _ = run(["witness", str(cover), str(target)], capsys)
        assert code == 0
        assert out.startswith("H(2,7,6)/Z(H(2,7,6)) ~ C2xD14: true\n")
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_WITNESS

    def test_false_witness(self, tmp_path, capsys):
        cover = tmp_path / "c4.json"
        target = tmp_path / "t.json"
        from cent_atlas.catalog import cyclic
        write_group_file(cyclic(4), cover)
        write_group_file(cyclic(4), target)
        code, out, _ = run(["witness", str(cover), str(target)], capsys)
        assert code == 4
        assert "false" in out

    def test_empty_target_names_its_file(self, tmp_path, capsys):
        cover = tmp_path / "ok.json"
        target = tmp_path / "empty.json"
        write_group_file(witness_h(2, 3, 2), cover)
        target.write_bytes(b"")
        code, out, err = run(["witness", str(cover), str(target)], capsys)
        assert (code, out) == (3, "")
        assert err == (f"error: {target}: Expecting value: line 1 column 1 "
                       "(char 0)\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cent_atlas", "construct",
         "--family", "cyclic", "--n", "5"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 5


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "cent_atlas", "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    for sub in ("construct", "analyze", "catalog", "verify", "witness"):
        assert sub in proc.stdout
