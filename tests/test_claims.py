"""Claim registry: sweeps, determinism, capability verdicts, witnesses."""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import cent_atlas.claims as claims
from cent_atlas.catalog import (
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    elementary,
    groups_of_covered_order,
    heisenberg,
    metacyclic,
    modular_p3,
    witness_exponents,
    witness_h,
)
from cent_atlas.claims import (
    ClaimReport,
    capable,
    claim_ids,
    claim_index,
    report_to_jsonable,
    verify_claim,
    witness_check,
)
from cent_atlas.core import direct_product
from cent_atlas.errors import (
    BadParameters,
    EmptySweep,
    OrderCapExceeded,
    UnknownClaim,
)
from cent_atlas.numbers import is_prime, order_shape


def test_claim_ids_stable():
    ids = claim_ids()
    assert ids[0] == "C0"
    assert "C9w" in ids and "C13" in ids
    assert len(ids) == len(set(ids)) == 15


def test_claim_index_shape():
    idx = claim_index()
    assert [e["claim_id"] for e in idx] == claim_ids()
    for e in idx:
        assert set(e) == {"claim_id", "statement", "sweep_default"}
        assert e["statement"]


class TestVerify:
    def test_unknown_claim(self):
        with pytest.raises(UnknownClaim):
            verify_claim("C99")

    def test_bad_parameter_name(self):
        with pytest.raises(BadParameters):
            verify_claim("C0", max_order=50, bogus=1)

    def test_empty_sweep(self):
        with pytest.raises(EmptySweep):
            verify_claim("C0", max_order=7)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one(self, jobs):
        with pytest.raises(BadParameters,
                           match=f"^jobs must be at least 1, got {jobs}$"):
            verify_claim("C4", jobs=jobs, max_order=60)

    @pytest.mark.parametrize("claim_id, params, message", [
        ("C2", {"max_order": 30.5},
         "an order sweep needs an integer max_order, got 30.5"),
        ("C2", {"max_order": "40"},
         "an order sweep needs an integer max_order, got '40'"),
        ("C0", {"max_order": True},
         "an order sweep needs an integer max_order, got True"),
        ("C9w", {"p_list": (2,), "q_max": 7.5},
         "claim C9w needs an integer q_max, got 7.5"),
        ("C11", {"p_list": (2, 3.0)},
         "claim C11 needs an integer p_list entry, got 3.0"),
        ("C0", {"jobs": 1.5, "max_order": 12},
         "verify_claim needs an integer jobs, got 1.5"),
        ("C0", {"jobs": True, "max_order": 12},
         "verify_claim needs an integer jobs, got True"),
    ], ids=["max_order-float", "max_order-str", "max_order-bool", "q_max-float",
            "p_list-float", "jobs-float", "jobs-bool"])
    def test_non_integer_parameter_is_refused(self, claim_id, params, message):
        with pytest.raises(BadParameters) as info:
            verify_claim(claim_id, **params)
        assert str(info.value) == message

    def test_c0_reduced(self):
        rep = verify_claim("C0", max_order=50)
        assert isinstance(rep, ClaimReport)
        assert rep.passed and rep.counterexample is None
        assert rep.instances_checked > 10

    def test_c2_reduced(self):
        rep = verify_claim("C2", max_order=200)
        assert rep.passed
        assert all(r["ok"] for r in rep.rows)

    def test_c9w_small(self):
        rep = verify_claim("C9w", p_list=(2,), q_max=7, order_cap=4096)
        assert rep.passed
        assert rep.instances_checked >= 2

    def test_rows_sorted(self):
        rep = verify_claim("C0", max_order=50)
        keys = [(r["order"], r["label"]) for r in rep.rows]
        assert keys == sorted(keys)

    def test_determinism_across_jobs(self):
        a = report_to_jsonable(verify_claim("C7", max_order=100, jobs=1))
        b = report_to_jsonable(verify_claim("C7", max_order=100, jobs=2))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_jsonable_has_no_timing(self):
        rep = verify_claim("C12", p_list=(2,))
        d = report_to_jsonable(rep)
        assert "elapsed" not in json.dumps(d)
        assert d["claim_id"] == "C12"
        assert d["passed"] is True

    def test_counterexample_reported(self):
        # temporarily register a claim that always fails on one group
        fake = claims._Claim(
            claim_id="Cfake",
            statement="always fails (test fixture)",
            sweep_default="one cyclic group",
            defaults={},
            units=lambda params: [("only",)],
            groups=lambda unit: [cyclic(6)],
            check=lambda g, unit: (False, "deliberately failing probe", {}),
        )
        claims._CLAIMS["Cfake"] = fake
        try:
            rep = verify_claim("Cfake")
            assert not rep.passed
            assert rep.counterexample is not None
            assert "C6" in rep.counterexample
            assert "deliberately failing probe" in rep.counterexample
        finally:
            del claims._CLAIMS["Cfake"]

    def test_c13_names_the_unmatched_class(self, monkeypatch):
        # Dic12 has a cyclic Sylow 2-subgroup, so the first class found
        # with an elementary one matches no expected group
        special = claims._special_p2q
        monkeypatch.setattr(claims, "_special_p2q", lambda p, q: (
            dicyclic(12) if (p, q) == (2, 3) else special(p, q)))
        rep = verify_claim("C13", jobs=1, max_order=12)
        assert not rep.passed
        assert rep.counterexample == (
            "p=2,q=3 (order 12): classes with elementary Sylow-2: "
            "['C2xC3:C2(2)', '(C2xC2):C3'], expected ['Dic12', 'A4']")
        monkeypatch.undo()
        assert verify_claim("C13", jobs=1, max_order=12).passed


class TestCapability:
    # frozen verdict table
    TABLE = [
        (lambda: alternating(4), "capable"),
        (lambda: dicyclic(12), "not_capable"),
        (lambda: dihedral(12), "capable"),
        (lambda: dihedral(8), "capable"),
        (lambda: dicyclic(8), "not_capable"),
        (lambda: heisenberg(3), "capable"),
        (lambda: modular_p3(3), "not_capable"),
        (lambda: cyclic(8), "not_capable"),
        (lambda: elementary(2, 3), "capable"),
    ]

    @pytest.mark.parametrize("build,expected", TABLE,
                             ids=[b().label for b, _ in TABLE])
    def test_table(self, build, expected):
        verdict = capable(build())
        assert verdict.status == expected
        assert verdict.rule
        assert verdict.detail

    def test_unsupported_order(self):
        verdict = capable(cyclic(16))  # p^4: outside the decided families
        assert verdict.status == "unsupported"

    def test_special_class_detail(self):
        v = capable(dihedral(12))
        assert v.rule == "C9"

    def test_p2q_above_the_default_cap(self, monkeypatch):
        # order 2084: the comparison group C2 x (C521 : C2) is built under
        # its own order, not under the default cap of 2048
        monkeypatch.delenv("CENT_ATLAS_ORDER_CAP", raising=False)
        gs = groups_of_covered_order(2 * 2 * 521, order_cap=4096)
        assert [(g.label, capable(g).status) for g in gs] == [
            ("C2084", "not_capable"), ("C2xC1042", "not_capable"),
            ("C521:C4(520)", "not_capable"), ("C2xC521:C2(520)", "capable"),
            ("C521:C4(235)", "capable")]


class TestWitnessCheck:
    def test_true_witness(self):
        target = direct_product(cyclic(2), metacyclic(3, 2, 2))
        res = witness_check(witness_h(2, 3, 2), target)
        assert res.ok
        assert res.isomorphism is not None
        assert len(res.cosets) == 12
        assert all(len(c) == 2 for c in res.cosets)

    def test_false_witness(self):
        res = witness_check(witness_h(2, 3, 2), alternating(4))
        assert not res.ok
        assert res.isomorphism is None

    def test_order_mismatch(self):
        res = witness_check(witness_h(2, 3, 2), cyclic(6))
        assert not res.ok


REDUCED = {
    "C0": {"max_order": 50},
    "C1": {"shapes": (("p2q", (2, 3)),)},
    "C2": {"max_order": 150},
    "C3": {"max_order": 150},
    "C4": {"max_order": 150},
    "C5": {"triples": ((2, 3, 5),)},
    "C6": {"triples": ((2, 3, 5),)},
    "C7": {"max_order": 100},
    "C8": {"max_order": 50},
    "C9": {"max_order": 150},
    "C9w": {"p_list": (2,), "q_max": 7, "order_cap": 4096},
    "C10": {"shapes": (("p2q", (2, 3)), ("pq2", (2, 3)))},
    "C11": {"p_list": (2,)},
    "C12": {"p_list": (2,)},
    "C13": {"max_order": 100},
}


def _digest(report: ClaimReport) -> str:
    text = json.dumps(report_to_jsonable(report), indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def test_all_claims_pass_reduced():
    """Every registered claim passes on a reduced sweep (smoke, not
    acceptance).  At jobs=1 every check runs in this process, where a
    line trace sees it; the digests are the same at every ``jobs``, and
    ``test_reduced_sweeps_share_one_pool``, ``test_determinism_across_jobs``
    and the jobs=2 catalog pins cover the pool."""
    for cid in claim_ids():
        rep = verify_claim(cid, jobs=1, **REDUCED[cid])
        assert rep.passed, f"{cid}: {rep.counterexample}"
        assert _digest(rep) == REDUCED_DIGESTS[cid], cid


# SHA-256 of json.dumps(report_to_jsonable(report), indent=2) for each
# reduced sweep above, frozen from the reports before the claim rows were
# rebuilt from shared helpers: any change to a note, a field or the row
# order shows here.
REDUCED_DIGESTS = {
    "C0": "64c7f404fcde13dfda5997846bbdfdbdd80cea48b61e5c4e721d8c84ff7a7832",
    "C1": "6462b292e8aa4192a3c142bcfef33e37f22c3bb2e0ab6ca065c48e94ed7f3fb2",
    "C2": "b8ac84da22af157d45efb76d3a91ee89d4613f03ab188a532a0784272f6663cf",
    "C3": "a0d35db328af71a8ea5eae589d3fabd0cf0d8d00a71f25ab7b73de71f63b4c71",
    "C4": "e5d34c57cd6c9e8ddc3f9b594dabe859abb8afc97ed58c35a3b38370d1e42c52",
    "C5": "7a471ab10cdf0943cc094671285c48accb8aea0324db0fd327a3f0746a26bbb8",
    "C6": "5dc64a9a1386005d764630d0901344a54ba48ef492931cf4520280b516c57317",
    "C7": "c196a36438ee58a089ab99e8d46bd9ca779eba4b0710f4f0963df22882a7b28d",
    "C8": "db6f43807c7a4f64ba4045d66f33b2a995afd23cc3c7050a67abef760cd39808",
    "C9": "b53b5d930ad8ae9c08ed97bf80a94175611901a7fc07581a8436883a6ac1f4b9",
    "C9w": "09a850607b20305b460fb571700fb1948057ec48fb832d1d256d50c45b6cdb68",
    "C10": "cfd113933e6a7cdc536ac73f10d503e841a86835d3be97fb24750883b4bda518",
    "C11": "a0376e8e5cb78952b3a0ae37fef7d8d91e3d3aab72739f47ced942aff03cc199",
    "C12": "2c127df27f5008f4c69d1aecccc711d1e9c0fedc9454681a9e71ddcee088d31f",
    "C13": "2ec045f27f515aee9c39a3494224ca224cb7582b71e7a106543684c21c8c725e",
}


def _workers() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def test_reduced_sweeps_share_one_pool():
    # all 15 reduced sweeps, one after another in this process at jobs=2,
    # give the jobs=1 reports byte for byte, from one set of workers
    seen = set()
    for cid in claim_ids():
        assert _digest(verify_claim(cid, jobs=2, **REDUCED[cid])) == \
            REDUCED_DIGESTS[cid], cid
        seen |= _workers()
    assert len(seen) == 2


def test_pool_is_kept_between_calls():
    first = verify_claim("C4", jobs=2, max_order=60)
    workers = _workers()
    second = verify_claim("C4", jobs=2, max_order=60)
    assert len(workers) == 2 and _workers() == workers
    assert report_to_jsonable(first) == report_to_jsonable(second)


def test_pool_under_another_order_cap_raises_the_first_error(monkeypatch):
    # workers read the cap at call time, so a new value starts new workers;
    # the units are submitted largest first, and the error raised is still
    # the first in unit order, as at jobs=1.  C11 is a curated sweep, so it
    # is refused inside its units: order 81 is the cover of Heis(3), in the
    # second of its three units (an order sweep is refused before the pool)
    verify_claim("C4", jobs=2, max_order=60)
    before = _workers()
    monkeypatch.setenv("CENT_ATLAS_ORDER_CAP", "20")
    for jobs in (1, 2):
        with pytest.raises(OrderCapExceeded, match="^order 81 exceeds cap 20$"):
            verify_claim("C11", jobs=jobs)
    assert len(_workers()) == 2 and not _workers() & before
    assert verify_claim("C0", jobs=2, max_order=20).passed


@pytest.mark.parametrize("claim_id, params, cap, message", [
    ("C0", {"max_order": 300}, "100", "order 102 exceeds cap 100"),
    ("C2", {}, "100", "order 102 exceeds cap 100"),
    ("C9w", {"order_cap": 100}, None, "order 104 exceeds cap 100"),
    ("C9w", {"q_max": 3000}, None, "order 4168 exceeds cap 4096"),
])
def test_order_sweep_past_the_cap_is_refused_before_a_unit_runs(
        monkeypatch, claim_id, params, cap, message):
    # the units are listed under the cap their groups are built under, so
    # no unit's source (_order_groups, _nonabelian_classes, witness_h) is
    # called at either job count, and the pool is neither started nor
    # replaced, though the cap variable differs from the pool's
    verify_claim("C4", jobs=2, max_order=60)
    workers = _workers()
    built = []
    spec = claims._CLAIMS[claim_id]
    monkeypatch.setitem(claims._CLAIMS, claim_id, dataclasses.replace(
        spec, groups=lambda *unit: built.append(unit) or spec.groups(*unit)))
    if cap is not None:
        monkeypatch.setenv("CENT_ATLAS_ORDER_CAP", cap)
    for jobs in (1, 2):
        with pytest.raises(OrderCapExceeded, match=f"^{message}$"):
            verify_claim(claim_id, jobs=jobs, **params)
    assert built == []
    assert len(workers) == 2 and _workers() == workers


def test_c9w_walks_its_primes_only_up_to_the_refused_order(monkeypatch):
    # 8 * 521 = 4168 is the first order over the cap: no q past 521 is
    # tested for primality, and no exponent past (2, 509) is listed
    tested, listed = [], []
    monkeypatch.setattr(claims, "is_prime",
                        lambda q: tested.append(q) or is_prime(q))
    monkeypatch.setattr(claims, "witness_exponents", lambda p, q: (
        listed.append((p, q)) or witness_exponents(p, q)))
    with pytest.raises(OrderCapExceeded, match="^order 4168 exceeds cap 4096$"):
        verify_claim("C9w", q_max=300_000)
    assert max(tested) == 521 and listed[-1] == (2, 509)


def test_c9w_refuses_a_composite_p_as_witness_h_does():
    # witness_h checks p before the cap, so p = 4 is refused as composite
    # although 4^3 q passes the cap from q = 73
    with pytest.raises(BadParameters, match="^p = 4 must be prime$"):
        verify_claim("C9w", jobs=1, p_list=(4,), q_max=200)


@pytest.mark.parametrize("claim_id, p_list", [
    ("C9w", (0,)), ("C11", (2, 4)), ("C12", (1,))])
def test_p_list_entry_that_is_not_prime_is_refused_before_listing(
        monkeypatch, claim_id, p_list):
    # at both job counts: no unit is listed or run, and the pool is kept;
    # C9w's p = 0 once raised ZeroDivisionError, and p = 1 EmptySweep
    verify_claim("C4", jobs=2, max_order=60)
    workers = _workers()
    listed, ran = [], []
    spec = claims._CLAIMS[claim_id]
    monkeypatch.setitem(claims._CLAIMS, claim_id, dataclasses.replace(
        spec, units=lambda ps: listed.append(ps) or spec.units(ps)))
    run_unit = claims._run_unit
    monkeypatch.setattr(claims, "_run_unit",
                        lambda arg: ran.append(arg) or run_unit(arg))
    bad = next(p for p in p_list if not is_prime(p))
    for jobs in (1, 2):
        with pytest.raises(BadParameters, match=f"^p = {bad} must be prime$"):
            verify_claim(claim_id, jobs=jobs, p_list=p_list)
    assert listed == [] and ran == []
    assert len(workers) == 2 and _workers() == workers


def test_named_groups_are_built_whatever_the_cap_in_force(monkeypatch):
    # C0 compares each central quotient with C3 x C3 (order 9), which
    # _named builds under its own order: at a cap of 8 the sweep passes
    # in a fresh process as in one whose earlier sweeps built it
    script = ("import json\n"
              "from cent_atlas.claims import report_to_jsonable, verify_claim\n"
              "print(json.dumps(report_to_jsonable("
              "verify_claim('C0', jobs=1, max_order=8))))\n")
    src = Path(claims.__file__).resolve().parents[1]
    env = {**os.environ, "CENT_ATLAS_ORDER_CAP": "8",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    fresh = json.loads(proc.stdout)
    assert fresh["passed"]
    verify_claim("C0", jobs=1, max_order=12)  # builds C3 x C3 if not yet
    monkeypatch.setenv("CENT_ATLAS_ORDER_CAP", "8")
    assert report_to_jsonable(verify_claim("C0", jobs=1, max_order=8)) == fresh


def test_report_json_is_the_fields_but_elapsed():
    report = verify_claim("C0", jobs=1, max_order=12)
    assert list(report_to_jsonable(report)) == [
        f.name for f in dataclasses.fields(ClaimReport) if f.name != "elapsed"]


@pytest.mark.parametrize("claim_id, max_order, cap, refused", [
    ("C0", 30, 12, 16), ("C8", 30, 12, 16), ("C4", 120, 100, 102),
    ("C3", 120, 100, 102), ("C2", 255, 250, None), ("C7", 45, 44, None),
    ("C7", 75, 70, 75), ("C13", 45, 44, None), ("C13", 50, 49, None),
    ("C13", 75, 70, None), ("C9", 60, 60, 88), ("C9", 60, 100, 104),
])
def test_listing_refuses_where_the_first_unit_would(monkeypatch, claim_id,
                                                    max_order, cap, refused):
    # the units listed under a cap no order reaches, run in order under
    # the cap, raise the error the listing raises, or none where it passes:
    # an order sweep's last orders may build no group past the cap (255
    # has no nonabelian class, 45 = 3^2 * 5 none, C13 skips p > q at 50
    # and 75), and a C9 unit may build a cover past it (88 at unit 44)
    params = {"max_order": max_order}
    if claim_id == "C9":
        params["order_cap"] = None  # the library's cap, read at call time
    spec = claims._CLAIMS[claim_id]
    monkeypatch.setenv("CENT_ATLAS_ORDER_CAP", "100000")
    units = spec.units({**spec.defaults, **params})
    monkeypatch.setenv("CENT_ATLAS_ORDER_CAP", str(cap))

    def error(run):
        try:
            run()
        except OrderCapExceeded as exc:
            return str(exc)

    want = None if refused is None else f"order {refused} exceeds cap {cap}"
    assert error(lambda: [claims._run_unit((claim_id, u)) for u in units]) == want
    ran = []
    run_unit = claims._run_unit
    monkeypatch.setattr(claims, "_run_unit",
                        lambda arg: ran.append(arg) or run_unit(arg))
    assert error(lambda: verify_claim(claim_id, jobs=1, **params)) == want
    assert (ran == []) == (refused is not None)  # refused before a unit runs
    if refused is None:
        assert verify_claim(claim_id, jobs=2, **params).passed


def test_pool_with_killed_workers_is_replaced():
    want = report_to_jsonable(verify_claim("C4", jobs=1, max_order=60))
    verify_claim("C4", jobs=2, max_order=60)
    killed = multiprocessing.active_children()
    for child in killed:
        os.kill(child.pid, signal.SIGKILL)
    for child in killed:
        child.join(timeout=10)
    time.sleep(0.2)  # the pool's manager thread sees its workers die
    assert report_to_jsonable(verify_claim("C4", jobs=2, max_order=60)) == want
    assert len(_workers()) == 2
    assert not _workers() & {child.pid for child in killed}


class _Interrupt(BaseException):
    """Raised from a timer, as a benchmark's item cap or Ctrl-C would."""


def test_pool_interrupted_mid_sweep_is_dropped():
    # the handler ends the workers before it raises, as perfbench's item
    # cap does; the interrupted call drops the pool, so the next call
    # needs no wait to find its workers dead
    want = report_to_jsonable(verify_claim("C4", jobs=1, max_order=60))
    verify_claim("C4", jobs=2, max_order=60)

    def interrupt(signum, frame):
        for child in multiprocessing.active_children():
            child.kill()
        raise _Interrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        with pytest.raises(_Interrupt):
            verify_claim("C9w", jobs=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert not _workers()
    assert report_to_jsonable(verify_claim("C4", jobs=2, max_order=60)) == want


def test_pool_workers_end_with_their_process():
    script = ("import multiprocessing\n"
              "from cent_atlas.claims import verify_claim\n"
              "assert verify_claim('C4', max_order=60, jobs=2).passed\n"
              "print(*[c.pid for c in multiprocessing.active_children()])\n")
    src = Path(claims.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_c11_witnesses_the_odd_cover():
    # the reduced sweep above reaches only p = 2, whose cover is D16
    rep = verify_claim("C11", jobs=1, p_list=(3,))
    assert rep.passed, rep.counterexample
    assert [(r["label"], r["note"]) for r in rep.rows if r["order"] == 81] == [
        ("W(3)", "cover of Heis(3), witness_ok=True")]


def test_c9w_sweep_holds_one_order_3875_group_at_a_time(monkeypatch):
    # each H(5,31,i) table is 57 MiB: the claim's (5, 31) units, one per
    # exponent and run one after another as at jobs=1, and the same four
    # groups from one generator source through the same loop, each peak
    # under one and a half tables (148 MiB when a unit held all four and
    # kept each group alive while the next was built)
    spec = claims._CLAIMS["C9w"]
    units = [u for u in spec.units(spec.defaults) if u[:2] == (5, 31)]
    assert [u[3] for u in units] == list(witness_exponents(5, 31))
    one_source = dataclasses.replace(spec, groups=lambda p, q, cap, i: (
        witness_h(5, 31, i, order_cap=cap) for i in witness_exponents(5, 31)))
    tracemalloc.start()
    try:
        rows = [row for u in units for row in claims._run_unit(("C9w", u))]
        _, units_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        monkeypatch.setitem(claims._CLAIMS, "C9w", one_source)
        source_rows = claims._run_unit(("C9w", units[0]))
        _, source_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 4 and all(r["ok"] for r in rows)
    assert source_rows == rows
    table = 3875 ** 2 * 4
    assert units_peak < 1.5 * table, units_peak
    assert source_peak < 1.5 * table, source_peak


def test_catalog_sweep_holds_about_one_group_at_a_time():
    # C0 streams each order's groups from the catalog's per-order source:
    # 1.4 MiB at max_order 300, where a cache of the whole catalog up to
    # that order peaked at 38 MiB
    tracemalloc.start()
    try:
        report = verify_claim("C0", jobs=1, max_order=300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.instances_checked > 250
    assert peak < 8 * 2 ** 20, peak


# SHA-256 of json.dumps(report_to_jsonable(report), indent=2) for the two
# catalog sweeps at max_order 300, frozen from the reports of the sweep
# that cached the whole catalog: the same rows at either job count.
CATALOG_300_DIGESTS = {
    "C0": "5f58eba926c379943ea6d5b97c136dcb1e9a45977e6ab2c31a6c3e58704e0907",
    "C8": "b4c6d9c157a0c18599a4733646d93f5abb5cc9c0e4042f1cb75042810b6c6893",
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("claim_id", sorted(CATALOG_300_DIGESTS))
def test_catalog_sweeps_at_300_pinned(claim_id, jobs):
    report = verify_claim(claim_id, jobs=jobs, max_order=300)
    text = json.dumps(report_to_jsonable(report), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_300_DIGESTS[claim_id]


# Which alternatives of their statements the default sweeps reach, by row.
# Each unreached alternative names the open ROADMAP item that would supply
# an instance or show that none exists: the complete lists of the groups
# of order at most 100 (item 3), or the sweep up to isoclinism (item 6).
def _alternatives_met(claim_id, alternatives):
    """The default sweep's rows per (unit, alternative met), and every
    (unit, alternative) of the units it met, where ``alternatives(row)``
    gives the row's unit and its map from centralizer count to
    alternative."""
    met, every = Counter(), set()
    for row in verify_claim(claim_id, jobs=1).rows:
        unit, names = alternatives(row)
        met[unit, names[row["cent_count"]]] += 1
        every |= {(unit, name) for name in names.values()}
    return met, every


def test_default_c2_reaches_every_alternative():
    def alternatives(row):
        _, (_, q, r) = order_shape(row["order"])
        return "pqr", {q + 2: "q+2", r + 2: "r+2", q * r + 2: "qr+2"}

    met, every = _alternatives_met("C2", alternatives)
    assert met == {("pqr", "q+2"): 50, ("pqr", "r+2"): 84, ("pqr", "qr+2"): 49}
    assert set(met) == every


def test_default_c8_is_vacuous_on_65_of_70_rows():
    rows = verify_claim("C8", jobs=1).rows
    assert len(rows) == 70
    assert [r["label"] for r in rows if "vacuous" not in r["note"]] == [
        "D8", "Q8", "M16", "Heis(3)", "M27"]


def test_default_c10_unreached_alternatives():
    def alternatives(row):
        kind, p, q = re.match(r"shape=(\w+)\((\d+), (\d+)\)", row["note"]).groups()
        p, q = int(p), int(q)
        if kind == "pq2":
            names = {q * q + 2: "q^2+2", q * q + q + 2: "q^2+q+2"}
        elif (p, q) == (2, 3):
            names = {6: "6", 8: "8"}
        else:
            names = {p * q + 2: "pq+2", q + 2: "q+2"}
        return f"{kind}({p}, {q})", names

    met, every = _alternatives_met("C10", alternatives)
    assert every - set(met) == {
        ("pq2(2, 3)", "q^2+q+2"),  # complete lists: one of order 54
        ("pq2(2, 5)", "q^2+q+2"),  # isoclinism: none of order <= 100
        ("pq2(3, 5)", "q^2+q+2"),  # isoclinism: none of order <= 100
        ("p2q(2, 7)", "q+2"),  # isoclinism, which also decides whether
        ("p2q(3, 7)", "q+2"),  # any group reaches these two
    }


def test_default_c12_never_reaches_p2_plus_p_plus_2():
    def alternatives(row):
        p = 2 if row["order"] % 2 == 0 else 3
        if row["order"] == p ** 3:
            return p, {p + 2: "p+2"}
        return p, {p * p + 2: "p^2+2", p * p + p + 2: "p^2+p+2"}

    met, every = _alternatives_met("C12", alternatives)
    # isoclinism: p^2+p+2 needs G/Z = C_p^3, first at order 64 for p = 2
    assert every - set(met) == {(2, "p^2+p+2"), (3, "p^2+p+2")}
