"""Registry of verifiable claims about centralizer counts and capability.

Each claim pairs a precise statement with a default sweep: a family of
concrete groups on which the statement is checked instance by instance.
``verify_claim`` runs a sweep (optionally across processes) and returns a
deterministic report; two runs with different job counts produce identical
rows.

A group G is called capable here when it is a central quotient, that is,
when some H satisfies H/Z(H) isomorphic to G.  ``capable`` decides this
for the supported order shapes; ``witness_check`` certifies a concrete
cover H.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

from .catalog import (
    alternating,
    catalog_by_order,
    central_quotient_examples,
    cyclic,
    dihedral,
    elementary,
    groups_of_order_p2q,
    groups_of_order_p3,
    groups_of_order_pqr,
    heisenberg,
    heisenberg_cover,
    metacyclic,
    prime_square_pairs,
    prime_triples,
    witness_exponents,
    witness_h,
)
from .core import (
    Group,
    direct_product,
    quotient,
    quotient_with_cosets,
    subgroup_as_group,
)
from .errors import BadParameters, EmptySweep, UnknownClaim
from .invariants import (
    abelian_profile,
    cent_structure,
    center,
    derived_subgroup,
    find_isomorphism,
    omega,
    sylow,
)
from .numbers import order_shape, primes_up_to, unit_of_order

__all__ = [
    "CapabilityVerdict",
    "ClaimReport",
    "WitnessResult",
    "capable",
    "claim_ids",
    "claim_index",
    "report_to_jsonable",
    "verify_claim",
    "witness_check",
]

_Row = dict[str, Any]


@dataclass(frozen=True)
class CapabilityVerdict:
    """Outcome of the capability decision for one group.

    status is "capable", "not_capable", or "unsupported"; rule names the
    decision rule that applied.
    """

    status: str
    rule: str
    detail: str


@dataclass(frozen=True)
class WitnessResult:
    """Certificate that H/Z(H) is (or is not) isomorphic to a target."""

    ok: bool
    quotient: Group
    cosets: tuple[tuple[int, ...], ...]
    isomorphism: tuple[int, ...] | None


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    instances_checked: int
    passed: bool
    counterexample: str | None
    elapsed: float
    rows: tuple[_Row, ...]


def report_to_jsonable(report: ClaimReport) -> dict[str, Any]:
    """Stable JSON form; timing is dropped so reruns compare byte-equal."""
    return {
        "claim_id": report.claim_id,
        "instances_checked": report.instances_checked,
        "passed": report.passed,
        "counterexample": report.counterexample,
        "rows": list(report.rows),
    }


def _special_p2q(p: int, q: int, order_cap: int | None = None) -> Group | None:
    """C_p x (C_q : C_p), the capable class with nontrivial center; exists
    only when q = 1 (mod p)."""
    if q % p != 1:
        return None
    return direct_product(
        cyclic(p, order_cap=order_cap),
        metacyclic(q, p, unit_of_order(p, q), order_cap=order_cap),
        order_cap=order_cap)


def capable(g: Group) -> CapabilityVerdict:
    """Decide whether g is a central quotient, for supported order shapes.

    Supported shapes: pqr with distinct primes (rule C4), p^2 q with
    distinct primes (rule C9, both orientations), and p^3 (rule C11 for
    nonabelian, rule baer-p3 for abelian).
    """
    kind, primes = order_shape(g.order) or ("", ())
    z = len(center(g))
    if kind == "pqr":
        if z == 1:
            return CapabilityVerdict("capable", "C4", "center is trivial")
        return CapabilityVerdict("not_capable", "C4", f"center has order {z}")
    if kind == "p2q":
        sq, other = primes
        if z == 1:
            return CapabilityVerdict("capable", "C9", "center is trivial")
        special = _special_p2q(sq, other)  # None unless other = 1 (mod sq)
        if special is not None and find_isomorphism(g, special) is not None:
            return CapabilityVerdict(
                "capable", "C9", f"isomorphic to {special.label}")
        detail = f"center has order {z}"
        if sq < other:
            detail += f" and the group is not C{sq}x(C{other}:C{sq})"
        return CapabilityVerdict("not_capable", "C9", detail)
    if kind == "p3":
        (p,) = primes
        if g.is_abelian():
            prof = abelian_profile(g)
            if prof.kind == "elementary_abelian":
                return CapabilityVerdict(
                    "capable", "baer-p3", f"elementary abelian of rank 3")
            factors = "x".join(f"C{d}" for d in prof.invariant_factors)
            return CapabilityVerdict(
                "not_capable", "baer-p3",
                f"{factors} has unequal leading invariant factors")
        if p == 2:
            if find_isomorphism(g, dihedral(8)) is not None:
                return CapabilityVerdict("capable", "C11", "isomorphic to D8")
            return CapabilityVerdict("not_capable", "C11", "not D8")
        if g.exponent() == p:
            return CapabilityVerdict("capable", "C11", f"exponent {p}")
        return CapabilityVerdict(
            "not_capable", "C11", f"exponent {g.exponent()} exceeds {p}")
    return CapabilityVerdict(
        "unsupported", "",
        "only orders pqr, p^2 q, and p^3 are supported")


def witness_check(h: Group, target: Group) -> WitnessResult:
    """Check that h is a cover of target: h/Z(h) isomorphic to target."""
    z = center(h)
    quot, cosets = quotient_with_cosets(h, z)
    coset_tuples = tuple(tuple(c) for c in cosets)
    if quot.order != target.order:
        return WitnessResult(False, quot, coset_tuples, None)
    iso = find_isomorphism(quot, target)
    if iso is None:
        return WitnessResult(False, quot, coset_tuples, None)
    return WitnessResult(True, quot, coset_tuples, tuple(int(v) for v in iso))


def _cent_count(g: Group) -> int:
    return cent_structure(g).count


@lru_cache(maxsize=8)
def _catalog(max_order: int) -> dict[int, list[Group]]:
    return catalog_by_order(max_order)


def _row(g: Group, ok: bool, note: str, **extra: Any) -> _Row:
    row: _Row = {"order": g.order, "label": g.label, "ok": bool(ok),
                 "note": note}
    row.update(extra)
    return row


def _count_rows(groups: list[Group], allowed: set[int], prefix: str = "",
                skip_abelian: bool = False) -> list[_Row]:
    """One row per group: its centralizer count lies in ``allowed``."""
    rows = []
    for g in groups:
        if skip_abelian and g.is_abelian():
            continue
        count = _cent_count(g)
        rows.append(_row(g, count in allowed,
                         f"{prefix}cent={count}, allowed={sorted(allowed)}",
                         cent_count=count))
    return rows


def _capable_row(g: Group, rule: str, special: Group | None = None,
                 cover: Callable[[], Group] | None = None) -> _Row:
    """Row checking that ``capable(g)`` applies ``rule`` and finds g capable
    exactly when its center is trivial or g is isomorphic to ``special``.

    Where g is capable, witness_check certifies a cover of it: g itself
    when the center is trivial, else ``cover()``.  Without ``cover`` the
    note reports a self-witness.
    """
    z = len(center(g))
    truth = z == 1 or (
        special is not None and find_isomorphism(g, special) is not None)
    verdict = capable(g)
    ok = verdict.rule == rule and verdict.status == (
        "capable" if truth else "not_capable")
    note = f"z={z}, verdict={verdict.status}"
    if ok and truth:
        h = g if z == 1 else cover()
        wr = witness_check(h, g)
        ok = wr.ok
        note += (f", self_witness={wr.ok}" if cover is None
                 else f", witness={h.label}, witness_ok={wr.ok}")
    return _row(g, ok, note)


# ---------------------------------------------------------------- sweeps

def _units_catalog(params: dict[str, Any]) -> list[tuple]:
    max_order = params["max_order"]
    return [(max_order, n) for n in _catalog(max_order)]


def _rows_c0(unit: tuple) -> list[_Row]:
    max_order, n = unit
    rows = []
    v4 = elementary(2, 2)
    s3 = dihedral(6)
    c3c3 = elementary(3, 2)
    for g in _catalog(max_order)[n]:
        count = _cent_count(g)
        qz = quotient(g, center(g))
        is4 = qz.order == 4 and find_isomorphism(qz, v4) is not None
        is5 = (qz.order == 6 and find_isomorphism(qz, s3) is not None) or (
            qz.order == 9 and find_isomorphism(qz, c3c3) is not None)
        ok = count not in (2, 3) and (count == 4) == is4 and (count == 5) == is5
        rows.append(_row(g, ok, f"cent={count}, |G/Z|={qz.order}",
                         cent_count=count))
    return rows


def _units_shapes(params: dict[str, Any]) -> list[tuple]:
    return [(kind, tuple(primes)) for kind, primes in params["shapes"]]


def _rows_c1(unit: tuple) -> list[_Row]:
    kind, primes = unit
    rows = []
    for g in central_quotient_examples(kind, primes):
        cs = cent_structure(g)
        zbits = cs.center.bits
        proper = [m.bits for m in cs.proper()]
        meets = all((a & b) == zbits
                    for i, a in enumerate(proper) for b in proper[i + 1:])
        ok = cs.is_ca and meets
        rows.append(_row(g, ok,
                         f"shape={kind}{primes}, cent={cs.count}, "
                         f"ca={cs.is_ca}, intersections_central={meets}"))
    return rows


def _units_triples(params: dict[str, Any]) -> list[tuple]:
    return prime_triples(params["max_order"])


def _rows_c2(unit: tuple) -> list[_Row]:
    p, q, r = unit
    return _count_rows(groups_of_order_pqr(p, q, r),
                       {q + 2, r + 2, q * r + 2}, skip_abelian=True)


def _rows_c3(unit: tuple) -> list[_Row]:
    p, q, r = unit
    rows = []
    for g in groups_of_order_pqr(p, q, r):
        if g.is_abelian():
            continue
        count = _cent_count(g)
        dorder = len(derived_subgroup(g))
        rows.append(_row(g, count == dorder + 2,
                         f"cent={count}, |G'|={dorder}", cent_count=count))
    return rows


def _rows_c4(unit: tuple) -> list[_Row]:
    return [_capable_row(g, "C4") for g in groups_of_order_pqr(*unit)]


def _units_quotient_triples(params: dict[str, Any]) -> list[tuple]:
    return [tuple(t) for t in params["triples"]]


def _rows_c5(unit: tuple) -> list[_Row]:
    p, q, r = unit
    return _count_rows(central_quotient_examples("pqr", (p, q, r)),
                       {r + 2, q * r + 2})


def _rows_c6(unit: tuple) -> list[_Row]:
    p, q, r = unit
    rows = []
    for g in central_quotient_examples("pqr", (p, q, r)):
        count = _cent_count(g)
        qcount = _cent_count(quotient(g, center(g)))
        rows.append(_row(g, count == qcount,
                         f"cent={count}, quotient_cent={qcount}"))
    return rows


def _units_square_pairs(params: dict[str, Any]) -> list[tuple]:
    units = []
    for sq, other in prime_square_pairs(params["max_order"]):
        if sq < other:
            units.append(("p2q", sq, other))
        else:
            units.append(("pq2", other, sq))
    return units


def _rows_c7(unit: tuple) -> list[_Row]:
    kind, p, q = unit
    rows = []
    if kind == "p2q":
        classes = groups_of_order_p2q(p, q)
        a4 = alternating(4) if (p, q) == (2, 3) else None
        for g in classes:
            if g.is_abelian():
                continue
            count = _cent_count(g)
            if a4 is not None and find_isomorphism(g, a4) is not None:
                ok = count == 6
                note = f"cent={count}, expected 6 for A4"
            else:
                ok = count == q + 2
                note = f"cent={count}, expected {q + 2}"
            rows.append(_row(g, ok, note, cent_count=count))
    else:
        rows = _count_rows(groups_of_order_p2q(q, p), {q + 2, q * q + 2},
                           skip_abelian=True)
    return rows


def _rows_c8(unit: tuple) -> list[_Row]:
    max_order, n = unit
    rows = []
    for g in _catalog(max_order)[n]:
        if g.is_abelian():
            continue
        cs = cent_structure(g)
        if not cs.is_ca:
            continue
        qz = quotient(g, cs.center)
        if not qz.is_abelian():
            rows.append(_row(g, True, "central quotient nonabelian; vacuous"))
            continue
        kind = abelian_profile(qz).kind
        rows.append(_row(g, kind == "elementary_abelian",
                         f"central quotient abelian of kind {kind}"))
    return rows


def _rows_c9(unit: tuple) -> list[_Row]:
    kind, p, q = unit
    if kind == "pq2":
        return [_capable_row(g, "C9") for g in groups_of_order_p2q(q, p)]
    special = _special_p2q(p, q)
    return [_capable_row(g, "C9", special,
                         lambda: witness_h(p, q, unit_of_order(p, q)))
            for g in groups_of_order_p2q(p, q)]


def _units_c9w(params: dict[str, Any]) -> list[tuple]:
    return [(p, q, params["order_cap"]) for p in params["p_list"]
            for q in primes_up_to(params["q_max"]) if q % p == 1]


def _rows_c9w(unit: tuple) -> list[_Row]:
    p, q, cap = unit
    target = _special_p2q(p, q, order_cap=cap)
    rows = []
    for i in witness_exponents(p, q):
        h = witness_h(p, q, i, order_cap=cap)
        wr = witness_check(h, target)
        ok = wr.ok and h.order == p ** 3 * q
        rows.append(_row(h, ok,
                         f"|H|={h.order}, quotient_matches={wr.ok}"))
    return rows


def _rows_c10(unit: tuple) -> list[_Row]:
    kind, primes = unit
    p, q = primes
    if kind == "p2q":
        allowed = {6, 8} if (p, q) == (2, 3) else {p * q + 2, q + 2}
    else:
        allowed = {q * q + 2, q * q + q + 2}
    return _count_rows(central_quotient_examples(kind, primes), allowed,
                       prefix=f"shape={kind}{primes}, ")


def _units_plist(params: dict[str, Any]) -> list[tuple]:
    return [(p,) for p in params["p_list"]]


def _rows_c11(unit: tuple) -> list[_Row]:
    (p,) = unit
    rows = []
    for g in groups_of_order_p3(p):
        if g.is_abelian():
            truth = abelian_profile(g).kind == "elementary_abelian"
            want_rule = "baer-p3"
        else:
            if p == 2:
                truth = find_isomorphism(g, dihedral(8)) is not None
            else:
                truth = g.exponent() == p
            want_rule = "C11"
        verdict = capable(g)
        ok = verdict.rule == want_rule and verdict.status == (
            "capable" if truth else "not_capable")
        rows.append(_row(g, ok, f"verdict={verdict.status} ({verdict.detail})"))
    cover = dihedral(16) if p == 2 else heisenberg_cover(p)
    target = dihedral(8) if p == 2 else heisenberg(p)
    wr = witness_check(cover, target)
    rows.append(_row(cover, wr.ok,
                     f"cover of {target.label}, witness_ok={wr.ok}"))
    return rows


def _rows_c12(unit: tuple) -> list[_Row]:
    (p,) = unit
    rows = []
    for g in central_quotient_examples("p3", (p,)):
        count = _cent_count(g)
        w = omega(g)
        allowed = {p * p + 2, p * p + p + 2}
        ok = count in allowed and count == w + 1
        rows.append(_row(g, ok,
                         f"cent={count}, omega={w}, allowed={sorted(allowed)}",
                         cent_count=count))
    for g in groups_of_order_p3(p):
        if g.is_abelian():
            continue
        count = _cent_count(g)
        rows.append(_row(g, count == p + 2,
                         f"cent={count}, expected {p + 2}", cent_count=count))
    return rows


def _units_c13(params: dict[str, Any]) -> list[tuple]:
    return [(sq, other) for sq, other in prime_square_pairs(params["max_order"])
            if sq < other]


def _rows_c13(unit: tuple) -> list[_Row]:
    p, q = unit
    expected: list[Group] = []
    special = _special_p2q(p, q)
    if special is not None:
        expected.append(special)
    if (p, q) == (2, 3):
        expected.append(alternating(4))
    found: list[Group] = []
    for g in groups_of_order_p2q(p, q):
        if g.is_abelian():
            continue
        syl = sylow(g, p)
        sub = subgroup_as_group(g, syl.subgroup)
        if abelian_profile(sub).kind == "elementary_abelian":
            found.append(g)
    remaining = list(range(len(expected)))
    matched = True
    for g in found:
        hit = next((j for j in remaining
                    if find_isomorphism(g, expected[j]) is not None), None)
        if hit is None:
            matched = False
            break
        remaining.remove(hit)
    ok = matched and not remaining and len(found) == len(expected)
    label = f"p={p},q={q}"
    return [{
        "order": p * p * q, "label": label, "ok": bool(ok),
        "note": (f"classes with elementary Sylow-{p}: "
                 f"{[g.label for g in found]}, "
                 f"expected {[g.label for g in expected]}"),
    }]


@dataclass(frozen=True)
class _Claim:
    claim_id: str
    statement: str
    sweep_default: str
    defaults: dict[str, Any]
    units: Callable[[dict[str, Any]], list[tuple]]
    rows: Callable[[tuple], list[_Row]]


_C1_SHAPES = (("pqr", (2, 3, 5)), ("p2q", (2, 3)), ("p2q", (3, 2)),
              ("pq2", (2, 3)), ("pq2", (2, 5)), ("p3", (2,)), ("p3", (3,)))
_C5_TRIPLES = ((2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 7, 13))
_C10_SHAPES = (("p2q", (2, 3)), ("p2q", (2, 5)), ("p2q", (2, 7)),
               ("p2q", (3, 7)), ("pq2", (2, 3)), ("pq2", (2, 5)),
               ("pq2", (3, 5)))

_CLAIMS: dict[str, _Claim] = {}


def _register(claim: _Claim) -> None:
    _CLAIMS[claim.claim_id] = claim


_register(_Claim(
    "C0",
    "No group has exactly 2 or 3 distinct element centralizers; a group has "
    "exactly 4 precisely when its central quotient is the Klein four-group, "
    "and exactly 5 precisely when its central quotient is S3 or C3 x C3.",
    "every catalog group of order at most 100",
    {"max_order": 100}, _units_catalog, _rows_c0))
_register(_Claim(
    "C1",
    "When the central quotient has order a product of three primes, not "
    "necessarily distinct, every proper centralizer is abelian and two "
    "distinct proper centralizers intersect exactly in the center.",
    "curated central-quotient instances for shapes pqr, p^2 q, p q^2, p^3",
    {"shapes": _C1_SHAPES}, _units_shapes, _rows_c1))
_register(_Claim(
    "C2",
    "A nonabelian group of order pqr with p < q < r has exactly q+2, r+2, "
    "or qr+2 distinct centralizers.",
    "all nonabelian groups of order pqr up to 500",
    {"max_order": 500}, _units_triples, _rows_c2))
_register(_Claim(
    "C3",
    "A nonabelian group of order pqr has centralizer count equal to the "
    "order of its derived subgroup plus 2.",
    "all nonabelian groups of order pqr up to 500",
    {"max_order": 500}, _units_triples, _rows_c3))
_register(_Claim(
    "C4",
    "A group of order pqr with p < q < r is a central quotient exactly "
    "when its center is trivial.",
    "all groups of order pqr up to 500, with a self-witness where capable",
    {"max_order": 500}, _units_triples, _rows_c4))
_register(_Claim(
    "C5",
    "When the central quotient has order pqr with p < q < r, the "
    "centralizer count is r+2 or qr+2.",
    "curated central-quotient instances over four prime triples",
    {"triples": _C5_TRIPLES}, _units_quotient_triples, _rows_c5))
_register(_Claim(
    "C6",
    "When the central quotient has order pqr, the group has the same "
    "centralizer count as its central quotient.",
    "curated central-quotient instances over four prime triples",
    {"triples": _C5_TRIPLES}, _units_quotient_triples, _rows_c6))
_register(_Claim(
    "C7",
    "A nonabelian group of order p^2 q with p < q has centralizer count "
    "q+2, except A4 which has 6; a nonabelian group of order p q^2 with "
    "p < q has centralizer count q+2 or q^2+2.",
    "all nonabelian groups of orders p^2 q and p q^2 up to 300",
    {"max_order": 300}, _units_square_pairs, _rows_c7))
_register(_Claim(
    "C8",
    "A nonabelian group whose proper centralizers are all abelian and "
    "whose central quotient is abelian has an elementary abelian central "
    "quotient.",
    "every catalog group of order at most 100",
    {"max_order": 100}, _units_catalog, _rows_c8))
_register(_Claim(
    "C9",
    "A group of order p^2 q with p < q is a central quotient exactly when "
    "its center is trivial or it is C_p x (C_q : C_p); a group of order "
    "p q^2 with p < q is a central quotient exactly when its center is "
    "trivial.",
    "all groups of orders p^2 q and p q^2 up to 300, with witnesses",
    {"max_order": 300}, _units_square_pairs, _rows_c9))
_register(_Claim(
    "C9w",
    "For primes with q = 1 (mod p) and any unit i of order p modulo q, "
    "the group (C_p x C_p x C_q) : C_p of order p^3 q built from i has "
    "central quotient C_p x (C_q : C_p).",
    "p in {2, 3, 5}, prime q at most 31 with q = 1 (mod p), every valid i",
    {"p_list": (2, 3, 5), "q_max": 31, "order_cap": 4096},
    _units_c9w, _rows_c9w))
_register(_Claim(
    "C10",
    "When the central quotient has order 12 the centralizer count is 6 or "
    "8; order p^2 q with p < q and not 12 gives pq+2 or q+2; order p q^2 "
    "with p < q gives q^2+2 or q^2+q+2.",
    "curated central-quotient instances over seven shape choices",
    {"shapes": _C10_SHAPES}, _units_shapes, _rows_c10))
_register(_Claim(
    "C11",
    "Among groups of order p^3 the central quotients are exactly the "
    "elementary abelian one, D8 when p = 2, and the exponent-p nonabelian "
    "one when p is odd.",
    "all five classes of order p^3 for p in {2, 3, 5}, with covers",
    {"p_list": (2, 3, 5)}, _units_plist, _rows_c11))
_register(_Claim(
    "C12",
    "Every nonabelian group of order p^3 has exactly p+2 centralizers; "
    "when the central quotient has order p^3 the centralizer count is "
    "p^2+2 or p^2+p+2 and exceeds the largest pairwise non-commuting set "
    "by exactly 1.",
    "curated covers with central quotient of order p^3, p in {2, 3}",
    {"p_list": (2, 3)}, _units_plist, _rows_c12))
_register(_Claim(
    "C13",
    "For p < q, the nonabelian groups of order p^2 q whose Sylow "
    "p-subgroup is elementary abelian are exactly C_p x (C_q : C_p) when "
    "q = 1 (mod p) and none otherwise, except that A4 also qualifies for "
    "(p, q) = (2, 3).",
    "all prime pairs p < q with p^2 q up to 300",
    {"max_order": 300}, _units_c13, _rows_c13))


def claim_ids() -> list[str]:
    return list(_CLAIMS)


def claim_index() -> list[dict[str, str]]:
    return [{"claim_id": c.claim_id, "statement": c.statement,
             "sweep_default": c.sweep_default} for c in _CLAIMS.values()]


def _run_unit(arg: tuple[str, tuple]) -> list[_Row]:
    claim_id, unit = arg
    return _CLAIMS[claim_id].rows(unit)


def verify_claim(claim_id: str, jobs: int | None = None,
                 **params: Any) -> ClaimReport:
    """Run one claim's sweep and aggregate a deterministic report.

    jobs=None uses all available processors; jobs=1 stays in-process.
    Unknown claim ids raise UnknownClaim; parameter sets that produce no
    instances raise EmptySweep.
    """
    spec = _CLAIMS.get(claim_id)
    if spec is None:
        raise UnknownClaim(
            f"unknown claim {claim_id!r}; known: {', '.join(_CLAIMS)}")
    merged = dict(spec.defaults)
    for key, value in params.items():
        if key not in spec.defaults:
            raise BadParameters(
                f"claim {claim_id} takes {sorted(spec.defaults)}, not {key!r}")
        merged[key] = value
    units = spec.units(merged)
    if not units:
        raise EmptySweep(f"claim {claim_id}: no instances under {merged}")
    start = time.perf_counter()
    args = [(claim_id, u) for u in units]
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(args) == 1:
        chunks = [_run_unit(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(args))) as pool:
            chunks = list(pool.map(_run_unit, args))
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r["order"], r["label"],
                             json.dumps(r, sort_keys=True)))
    failing = next((r for r in rows if not r["ok"]), None)
    counterexample = None
    if failing is not None:
        counterexample = (f"{failing['label']} (order {failing['order']}): "
                          f"{failing['note']}")
    return ClaimReport(
        claim_id=claim_id,
        instances_checked=len(rows),
        passed=failing is None,
        counterexample=counterexample,
        elapsed=time.perf_counter() - start,
        rows=tuple(rows),
    )
