"""Registry of verifiable claims about centralizer counts and capability.

Each claim pairs a precise statement with a default sweep: a family of
concrete groups on which the statement is checked instance by instance.
A sweep is a list of units, and a unit is the tuple of arguments of the
claim's source of groups: ``(n,)`` for the catalog's groups of order n,
``(kind, primes)`` for the curated central-quotient instances.
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
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain
from typing import Any, Callable, Collection, Iterable

from .catalog import (
    _capped_orders,
    _cp_x_cq_cp,
    _nonabelian_classes,
    _nonabelian_makers,
    _order_groups,
    _require_prime,
    alternating,
    central_quotient_examples,
    dihedral,
    elementary,
    heisenberg,
    heisenberg_cover,
    witness_exponents,
    witness_h,
)
from .core import (
    ORDER_CAP_ENV,
    Group,
    _check_order_cap,
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
from .numbers import _integer, is_prime, order_shape, unit_of_order

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


# ClaimReport fields left out of its JSON, so reruns compare byte-equal
_NOT_CANONICAL = frozenset({"elapsed"})


def _field_values(obj: Any, leave_out: Collection[str] = ()) -> dict[str, Any]:
    """A dataclass instance's fields by name, in field order, but those in
    ``leave_out``."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in leave_out}


def report_to_jsonable(report: ClaimReport) -> dict[str, Any]:
    """Stable JSON form: the fields but ``_NOT_CANONICAL``, rows as a list."""
    return {**_field_values(report, _NOT_CANONICAL), "rows": list(report.rows)}


@lru_cache(maxsize=None)
def _named(name: str) -> Group:
    """A named group the checks compare against, built under its own order
    as the cap, so it is the same whatever cap is in force; built once per
    process on first use and then shared."""
    order, make, *args = {"V4": (4, elementary, 2, 2), "S3": (6, dihedral, 6),
                          "C3xC3": (9, elementary, 3, 2), "D8": (8, dihedral, 8),
                          "A4": (12, alternating, 4)}[name]
    return make(*args, order_cap=order)


def _isomorphic(g: Group, name: str) -> bool:
    return find_isomorphism(g, _named(name)) is not None


# One entry: a sweep unit, or a run of capable() calls on one order, asks
# for the same (p, q) over and over, and nothing larger than the last
# target is kept alive.
@lru_cache(maxsize=1)
def _special_p2q(p: int, q: int) -> Group | None:
    """C_p x (C_q : C_p), the capable class with nontrivial center; exists
    only when q = 1 (mod p).  Built under its own order p^2 q as the cap:
    every caller already holds a group at least that large."""
    return _cp_x_cq_cp(p, q, order_cap=p * p * q) if q % p == 1 else None


def capable(g: Group) -> CapabilityVerdict:
    """Decide whether g is a central quotient, for supported order shapes.

    Supported shapes: pqr with distinct primes (rule C4), p^2 q with
    distinct primes (rule C9, both orientations), and p^3 (rule C11 for
    nonabelian, rule baer-p3 for abelian).
    """
    kind, primes = order_shape(g.order) or ("", ())
    z = len(center(g))
    if kind in ("pqr", "p2q"):
        rule = "C4" if kind == "pqr" else "C9"
        if z == 1:
            return CapabilityVerdict("capable", rule, "center is trivial")
        detail = f"center has order {z}"
        if kind == "p2q":
            sq, other = primes
            special = _special_p2q(sq, other)  # None unless other = 1 (mod sq)
            if special is not None and find_isomorphism(g, special) is not None:
                return CapabilityVerdict(
                    "capable", "C9", f"isomorphic to {special.label}")
            if sq < other:
                detail += f" and the group is not C{sq}x(C{other}:C{sq})"
        return CapabilityVerdict("not_capable", rule, detail)
    if kind == "p3":
        (p,) = primes
        if g.is_abelian():
            prof = abelian_profile(g)
            if prof.kind == "elementary_abelian":
                return CapabilityVerdict(
                    "capable", "baer-p3", "elementary abelian of rank 3")
            factors = "x".join(f"C{d}" for d in prof.invariant_factors)
            return CapabilityVerdict(
                "not_capable", "baer-p3",
                f"{factors} has unequal leading invariant factors")
        if p == 2:
            if _isomorphic(g, "D8"):
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
    quot, cosets = quotient_with_cosets(h, center(h))
    iso = find_isomorphism(quot, target)
    return WitnessResult(iso is not None, quot,
                         tuple(tuple(c) for c in cosets),
                         None if iso is None else tuple(int(v) for v in iso))


# ---------------------------------------------------------------- checks

_Check = tuple[bool, str, dict[str, Any]]


def _count_in(g: Group, allowed: set[int], detail: str | None = None,
              prefix: str = "") -> _Check:
    """The centralizer count lies in ``allowed``; the note gives ``detail``,
    by default the allowed set."""
    count = cent_structure(g).count
    detail = detail or f"allowed={sorted(allowed)}"
    return (count in allowed, f"{prefix}cent={count}, {detail}",
            {"cent_count": count})


def _agrees(verdict: CapabilityVerdict, rule: str, truth: bool) -> bool:
    return verdict.rule == rule and verdict.status == (
        "capable" if truth else "not_capable")


def _capable_check(g: Group, rule: str, special: Group | None = None,
                   cover: Callable[[], Group] | None = None) -> _Check:
    """``capable(g)`` applies ``rule`` and finds g capable exactly when its
    center is trivial or g is isomorphic to ``special``.

    Where g is capable, witness_check certifies a cover of it: g itself
    when the center is trivial, else ``cover()``.  Without ``cover`` the
    note reports a self-witness.
    """
    verdict = capable(g)
    z = len(center(g))
    truth = z == 1 or (
        special is not None and find_isomorphism(g, special) is not None)
    ok = _agrees(verdict, rule, truth)
    note = f"z={z}, verdict={verdict.status}"
    if ok and truth:
        h = g if z == 1 else cover()
        wr = witness_check(h, g)
        ok = wr.ok
        note += (f", self_witness={wr.ok}" if cover is None
                 else f", witness={h.label}, witness_ok={wr.ok}")
    return ok, note, {}


def _check_c0(g: Group, *_: Any) -> _Check:
    count = cent_structure(g).count
    qz = quotient(g, center(g))
    is4 = _isomorphic(qz, "V4")
    is5 = _isomorphic(qz, "S3") or _isomorphic(qz, "C3xC3")
    ok = count not in (2, 3) and (count == 4) == is4 and (count == 5) == is5
    return ok, f"cent={count}, |G/Z|={qz.order}", {"cent_count": count}


def _check_c1(g: Group, kind: str, primes: tuple[int, ...]) -> _Check:
    cs = cent_structure(g)
    proper = [m.bits for m in cs.proper()]
    meets = all((a & b) == cs.center.bits
                for i, a in enumerate(proper) for b in proper[i + 1:])
    return (cs.is_ca and meets,
            f"shape={kind}{primes}, cent={cs.count}, ca={cs.is_ca}, "
            f"intersections_central={meets}", {})


def _check_c2(g: Group, n: int) -> _Check:
    _, (p, q, r) = order_shape(n)
    return _count_in(g, {q + 2, r + 2, q * r + 2})


def _check_c3(g: Group, *_: Any) -> _Check:
    dorder = len(derived_subgroup(g))
    return _count_in(g, {dorder + 2}, f"|G'|={dorder}")


def _check_c6(g: Group, *_: Any) -> _Check:
    count = cent_structure(g).count
    qcount = cent_structure(quotient(g, center(g))).count
    return count == qcount, f"cent={count}, quotient_cent={qcount}", {}


def _check_c7(g: Group, n: int) -> _Check:
    _, (p, q) = order_shape(n)  # p is the squared prime
    if p > q:
        return _count_in(g, {p + 2, p * p + 2})
    if (p, q) == (2, 3) and _isomorphic(g, "A4"):
        return _count_in(g, {6}, "expected 6 for A4")
    return _count_in(g, {q + 2}, f"expected {q + 2}")


def _check_c8(g: Group, *_: Any) -> _Check:
    kind = abelian_profile(quotient(g, center(g))).kind
    if kind == "nonabelian":
        return True, "central quotient nonabelian; vacuous", {}
    return (kind == "elementary_abelian",
            f"central quotient abelian of kind {kind}", {})


def _check_c9(g: Group, n: int, cap: int) -> _Check:
    _, (p, q) = order_shape(n)
    if p > q:
        return _capable_check(g, "C9")
    return _capable_check(g, "C9", _special_p2q(p, q),
                          lambda: witness_h(p, q, unit_of_order(p, q), order_cap=cap))


def _c9_built(n: int) -> tuple[int, ...]:
    """The orders a unit of C9 builds: n and, where p < q and q = 1
    (mod p), p n, the witness cover ``_check_c9`` builds for the capable
    C_p x (C_q : C_p)."""
    _, (p, q) = order_shape(n)
    return (n, p * n) if p < q and q % p == 1 else (n,)


def _check_c9w(h: Group, p: int, q: int, *_: Any) -> _Check:
    wr = witness_check(h, _special_p2q(p, q))
    return (wr.ok and h.order == p ** 3 * q,
            f"|H|={h.order}, quotient_matches={wr.ok}", {})


def _check_c10(g: Group, kind: str, primes: tuple[int, ...]) -> _Check:
    p, q = primes
    if kind == "p2q":
        allowed = {6, 8} if (p, q) == (2, 3) else {p * q + 2, q + 2}
    else:
        allowed = {q * q + 2, q * q + q + 2}
    return _count_in(g, allowed, prefix=f"shape={kind}{primes}, ")


def _check_c11(g: Group, p: int) -> _Check:
    if g.order > p ** 3:  # the cover of D8 or Heis(p)
        target = _named("D8") if p == 2 else heisenberg(p)
        wr = witness_check(g, target)
        return wr.ok, f"cover of {target.label}, witness_ok={wr.ok}", {}
    if g.is_abelian():
        rule = "baer-p3"
        truth = abelian_profile(g).kind == "elementary_abelian"
    else:
        rule = "C11"
        truth = _isomorphic(g, "D8") if p == 2 else g.exponent() == p
    verdict = capable(g)
    return (_agrees(verdict, rule, truth),
            f"verdict={verdict.status} ({verdict.detail})", {})


def _check_c12(g: Group, p: int) -> _Check:
    if g.order == p ** 3:
        return _count_in(g, {p + 2}, f"expected {p + 2}")
    w = omega(g)
    allowed = {p * p + 2, p * p + p + 2}
    return _count_in(g, allowed & {w + 1},
                     f"omega={w}, allowed={sorted(allowed)}")


def _tail_c13(n: int) -> list[_Row]:
    _, (p, q) = order_shape(n)
    if p > q:
        return []
    expected = [e for e in (_special_p2q(p, q),
                            _named("A4") if (p, q) == (2, 3) else None)
                if e is not None]
    found = [g for g in _nonabelian_classes(n) if abelian_profile(
        subgroup_as_group(g, sylow(g, p).subgroup)).kind == "elementary_abelian"]
    unmatched = list(expected)
    for g in found:
        hit = next((e for e in unmatched
                    if find_isomorphism(g, e) is not None), None)
        if hit is None:
            break
        unmatched.remove(hit)
    ok = not unmatched and len(found) == len(expected)
    return [{
        "order": n, "label": f"p={p},q={q}", "ok": bool(ok),
        "note": (f"classes with elementary Sylow-{p}: "
                 f"{[g.label for g in found]}, "
                 f"expected {[g.label for g in expected]}"),
    }]


def _c13_built(n: int) -> tuple[int, ...]:
    """The orders a unit of C13 builds under the cap: n, if p < q and n
    has a nonabelian class.  ``_tail_c13`` builds nothing for p > q, and
    its C_p x (C_q : C_p) under a cap of its own order."""
    _, (p, q) = order_shape(n)
    return _nonabelian_built(n) if p < q else ()


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class _Claim:
    """A claim as data, made into rows by the one loop in :func:`_run_unit`.

    ``units(params)`` lists the sweep units.  A unit is the tuple of
    arguments of the claim's source: ``groups(*unit)`` yields the unit's
    groups, ``check(g, *unit)`` gives each one's (ok, note, extra), and
    ``tail(*unit)`` adds rows about no single group (C13's one row per
    unit).  A classification sweep's unit is ``(n,)``, so its source is
    the catalog's own per-order generator.
    """

    claim_id: str
    statement: str
    sweep_default: str
    defaults: dict[str, Any]
    units: Callable[[dict[str, Any]], list[tuple]]
    groups: Callable[..., Iterable[Group]] = lambda *unit: ()
    check: Callable[..., _Check] | None = None
    tail: Callable[..., list[_Row]] | None = None


def _orders(ps: dict[str, Any], kind: str | None = None, *rest: Any,
            built: Callable[[int], Iterable[int]] = lambda n: (n,)) -> list[tuple]:
    """Units ``(n, *rest)``, one per catalog order n <= ``max_order`` (of
    shape ``kind``, if given), in ascending order.  They are listed under
    the cap the units build under, C9's ``order_cap`` or else the
    library's: ``built(n)`` are the orders of the groups unit n builds, so
    the first unit that would build past the cap is refused here, before a
    unit runs, and a unit that builds nothing is never refused."""
    return [(n, *rest) for n in _capped_orders(
        ps["max_order"], ps.get("order_cap"), kind, built)]


def _nonabelian_built(n: int) -> tuple[int, ...]:
    """The orders a unit of C2, C3 or C7 builds: n, if it has a nonabelian
    class."""
    return (n,) if next(_nonabelian_makers(n), None) else ()


def _witness_units(ps: dict[str, Any]) -> list[tuple]:
    """C9w's units ``(p, q, order_cap, i)``, p-major, q ascending.  The
    primes q are walked one at a time, and each order p^3 q of a prime p
    is checked against the cap before its exponents i are listed."""
    units = []
    for p in ps["p_list"]:
        for q in range(2, ps["q_max"] + 1):
            if q % p == 1 and is_prime(q):
                _check_order_cap(p ** 3 * q, ps["order_cap"])
                units += [(p, q, ps["order_cap"], i) for i in witness_exponents(p, q)]
    return units


def _shape_units(ps: dict[str, Any]) -> list[tuple]:
    return [(kind, tuple(primes)) for kind, primes in ps["shapes"]]


def _triple_units(ps: dict[str, Any]) -> list[tuple]:
    return [("pqr", tuple(t)) for t in ps["triples"]]


_C1_SHAPES = (("pqr", (2, 3, 5)), ("p2q", (2, 3)), ("p2q", (3, 2)),
              ("pq2", (2, 3)), ("pq2", (2, 5)), ("p3", (2,)), ("p3", (3,)))
_C5_TRIPLES = ((2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 7, 13))
_C10_SHAPES = (("p2q", (2, 3)), ("p2q", (2, 5)), ("p2q", (2, 7)),
               ("p2q", (3, 7)), ("pq2", (2, 3)), ("pq2", (2, 5)),
               ("pq2", (3, 5)))

_CLAIMS: dict[str, _Claim] = {claim.claim_id: claim for claim in (
    _Claim(
        "C0",
        "No group has exactly 2 or 3 distinct element centralizers; a group "
        "has exactly 4 precisely when its central quotient is the Klein "
        "four-group, and exactly 5 precisely when its central quotient is S3 "
        "or C3 x C3.",
        "every catalog group of order at most 100",
        {"max_order": 100}, _orders,
        _order_groups, _check_c0),
    _Claim(
        "C1",
        "When the central quotient has order a product of three primes, not "
        "necessarily distinct, every proper centralizer is abelian and two "
        "distinct proper centralizers intersect exactly in the center.",
        "curated central-quotient instances for shapes pqr, p^2 q, p q^2, p^3",
        {"shapes": _C1_SHAPES}, _shape_units, central_quotient_examples,
        _check_c1),
    _Claim(
        "C2",
        "A nonabelian group of order pqr with p < q < r has exactly q+2, r+2, "
        "or qr+2 distinct centralizers.",
        "all nonabelian groups of order pqr up to 500",
        {"max_order": 500}, lambda ps: _orders(ps, "pqr", built=_nonabelian_built),
        _nonabelian_classes, _check_c2),
    _Claim(
        "C3",
        "A nonabelian group of order pqr has centralizer count equal to the "
        "order of its derived subgroup plus 2.",
        "all nonabelian groups of order pqr up to 500",
        {"max_order": 500}, lambda ps: _orders(ps, "pqr", built=_nonabelian_built),
        _nonabelian_classes, _check_c3),
    _Claim(
        "C4",
        "A group of order pqr with p < q < r is a central quotient exactly "
        "when its center is trivial.",
        "all groups of order pqr up to 500, with a self-witness where capable",
        {"max_order": 500}, lambda ps: _orders(ps, "pqr"),
        _order_groups, lambda g, n: _capable_check(g, "C4")),
    _Claim(
        "C5",
        "When the central quotient has order pqr with p < q < r, the "
        "centralizer count is r+2 or qr+2.",
        "curated central-quotient instances over four prime triples",
        {"triples": _C5_TRIPLES}, _triple_units, central_quotient_examples,
        lambda g, _, t: _count_in(g, {t[2] + 2, t[1] * t[2] + 2})),
    _Claim(
        "C6",
        "When the central quotient has order pqr, the group has the same "
        "centralizer count as its central quotient.",
        "curated central-quotient instances over four prime triples",
        {"triples": _C5_TRIPLES}, _triple_units, central_quotient_examples,
        _check_c6),
    _Claim(
        "C7",
        "A nonabelian group of order p^2 q with p < q has centralizer count "
        "q+2, except A4 which has 6; a nonabelian group of order p q^2 with "
        "p < q has centralizer count q+2 or q^2+2.",
        "all nonabelian groups of orders p^2 q and p q^2 up to 300",
        {"max_order": 300}, lambda ps: _orders(ps, "p2q", built=_nonabelian_built),
        _nonabelian_classes, _check_c7),
    _Claim(
        "C8",
        "A nonabelian group whose proper centralizers are all abelian and "
        "whose central quotient is abelian has an elementary abelian central "
        "quotient.",
        "every catalog group of order at most 100",
        {"max_order": 100}, _orders,
        lambda n: (g for g in _order_groups(n) if cent_structure(g).is_ca),
        _check_c8),
    _Claim(
        "C9",
        "A group of order p^2 q with p < q is a central quotient exactly when "
        "its center is trivial or it is C_p x (C_q : C_p); a group of order "
        "p q^2 with p < q is a central quotient exactly when its center is "
        "trivial.",
        "all groups of orders p^2 q and p q^2 up to 300, with witnesses",
        # the swept groups and the witness covers, of order p^3 q, are
        # built under order_cap
        {"max_order": 300, "order_cap": 4096},
        lambda ps: _orders(ps, "p2q", ps["order_cap"], built=_c9_built),
        _order_groups, _check_c9),
    _Claim(
        "C9w",
        "For primes with q = 1 (mod p) and any unit i of order p modulo q, "
        "the group (C_p x C_p x C_q) : C_p of order p^3 q built from i has "
        "central quotient C_p x (C_q : C_p).",
        "p in {2, 3, 5}, prime q at most 31 with q = 1 (mod p), every valid i",
        {"p_list": (2, 3, 5), "q_max": 31, "order_cap": 4096},
        _witness_units,
        lambda p, q, cap, i: [witness_h(p, q, i, order_cap=cap)], _check_c9w),
    _Claim(
        "C10",
        "When the central quotient has order 12 the centralizer count is 6 "
        "or 8; order p^2 q with p < q and not 12 gives pq+2 or q+2; order "
        "p q^2 with p < q gives q^2+2 or q^2+q+2.",
        "curated central-quotient instances over seven shape choices",
        {"shapes": _C10_SHAPES}, _shape_units, central_quotient_examples,
        _check_c10),
    _Claim(
        "C11",
        "Among groups of order p^3 the central quotients are exactly the "
        "elementary abelian one, D8 when p = 2, and the exponent-p "
        "nonabelian one when p is odd.",
        "all five classes of order p^3 for p in {2, 3, 5}, with covers",
        {"p_list": (2, 3, 5)}, lambda ps: [(p,) for p in ps["p_list"]],
        lambda p: chain(_order_groups(p ** 3),
                        [dihedral(16) if p == 2 else heisenberg_cover(p)]),
        _check_c11),
    _Claim(
        "C12",
        "Every nonabelian group of order p^3 has exactly p+2 centralizers; "
        "when the central quotient has order p^3 the centralizer count is "
        "p^2+2 or p^2+p+2 and exceeds the largest pairwise non-commuting "
        "set by exactly 1.",
        "curated covers with central quotient of order p^3, p in {2, 3}",
        {"p_list": (2, 3)}, lambda ps: [(p,) for p in ps["p_list"]],
        lambda p: chain(central_quotient_examples("p3", (p,)),
                        _nonabelian_classes(p ** 3)),
        _check_c12),
    _Claim(
        "C13",
        "For p < q, the nonabelian groups of order p^2 q whose Sylow "
        "p-subgroup is elementary abelian are exactly C_p x (C_q : C_p) when "
        "q = 1 (mod p) and none otherwise, except that A4 also qualifies for "
        "(p, q) = (2, 3).",
        "all prime pairs p < q with p^2 q up to 300",
        {"max_order": 300}, lambda ps: _orders(ps, "p2q", built=_c13_built),
        tail=_tail_c13),
)}


def claim_ids() -> list[str]:
    return list(_CLAIMS)


def claim_index() -> list[dict[str, str]]:
    return [{"claim_id": c.claim_id, "statement": c.statement,
             "sweep_default": c.sweep_default} for c in _CLAIMS.values()]


def _run_unit(arg: tuple[str, tuple]) -> list[_Row]:
    """The rows of one sweep unit, for every claim: one per source group,
    then the tail.  The unit is the tuple of arguments of the claim's
    source, and its check and tail take the same arguments after the
    group.  The catalog and classification sources stream one order's
    ``_order_groups`` (or its nonabelian classes), so the unit holds one
    group at a time: each is dropped before the next is built.  Only the
    curated central-quotient lists arrive whole, and C11's cover, built
    as its unit starts."""
    claim_id, unit = arg
    spec = _CLAIMS[claim_id]
    rows = []
    for g in spec.groups(*unit):
        ok, note, extra = spec.check(g, *unit)
        rows.append({"order": g.order, "label": g.label, "ok": bool(ok),
                     "note": note, **extra})
        del g
    if spec.tail is not None:
        rows += spec.tail(*unit)
    return rows


# ((workers, pid, the order cap variable), pool): the process's one pool
_pool: tuple[tuple[int, int, str | None], ProcessPoolExecutor] | None = None


def _drop_pool() -> None:
    """Shut the kept pool down and wait for its workers; a pool inherited
    across a fork belongs to the parent and is only forgotten."""
    global _pool
    if _pool is not None and _pool[0][1] == os.getpid():
        _pool[1].shutdown(cancel_futures=True)
    _pool = None


def _kept_pool(workers: int) -> ProcessPoolExecutor:
    """The process's pool of ``workers`` workers, started on first use and
    replaced when the worker count, the process or the order cap variable
    (which workers read at call time) is not the pool's own."""
    global _pool
    key = (workers, os.getpid(), os.environ.get(ORDER_CAP_ENV))
    if _pool is not None and _pool[0] != key:
        _drop_pool()
    if _pool is None:
        _pool = (key, ProcessPoolExecutor(max_workers=workers))
    return _pool[1]


def _run_units(args: list[tuple[str, tuple]]) -> list[_Row]:
    return [row for arg in args for row in _run_unit(arg)]


def _pool_rows(args: list[tuple[str, tuple]], workers: int) -> list[_Row]:
    """The rows of ``args`` from the kept pool, in unit order.  Units go
    in consecutive batches, a quarter of a worker's share each, submitted
    last batch first: sources list their units in ascending order, so the
    largest start first and the small ones fill the tail.  Results are
    read in unit order, so an error is the first in unit order; it
    cancels the queued batches and leaves the pool in use, and an
    interrupt (not an Exception) also drops the pool."""
    size = max(1, len(args) // (4 * workers))
    batches = [args[i:i + size] for i in range(0, len(args), size)][::-1]
    try:
        futures = [_kept_pool(workers).submit(_run_units, b) for b in batches]
    except BrokenProcessPool:  # its workers died after its last sweep
        _drop_pool()
        futures = [_kept_pool(workers).submit(_run_units, b) for b in batches]
    try:
        return [row for f in reversed(futures) for row in f.result()]
    except BaseException as exc:
        for f in futures:
            f.cancel()
        if not isinstance(exc, Exception):  # workers may be dead or busy
            _drop_pool()
        raise


def verify_claim(claim_id: str, jobs: int | None = None,
                 **params: Any) -> ClaimReport:
    """Run one claim's sweep and aggregate a deterministic report.

    jobs=None uses all available processors; jobs=1 stays in-process;
    jobs below 1 raise BadParameters, and so does a ``p_list`` entry that
    is not a prime integer, before a unit is listed.  Unknown claim ids
    raise UnknownClaim; parameter sets that produce no instances raise
    EmptySweep.

    With jobs above 1 and more than one unit, the sweep runs on the
    process's one pool of ``jobs`` workers, which later calls reuse.  It
    is shut down and replaced when a call asks for another worker count
    or sees another value of CENT_ATLAS_ORDER_CAP, and when its workers
    have died; a forked child starts its own.  Workers see the library
    as it was when the pool started, plus that key: code patched into
    this process later is not seen by them.  The rows, the report and
    any error raised are those of jobs=1.

    A sweep over an order range (C0, C2-C4, C7-C9, C13) and C9w list
    their units under the cap their groups are built under, so the first
    unit that would build a group past the cap raises OrderCapExceeded
    in this process, before a group is built or the pool is used, and a
    unit that builds none is not refused; a curated sweep raises it from
    the unit that builds the group.
    """
    spec = _CLAIMS.get(claim_id)
    if spec is None:
        raise UnknownClaim(
            f"unknown claim {claim_id!r}; known: {', '.join(_CLAIMS)}")
    if jobs is not None and _integer(jobs, "verify_claim", "jobs") < 1:
        raise BadParameters(f"jobs must be at least 1, got {jobs}")
    unknown = next((key for key in params if key not in spec.defaults), None)
    if unknown is not None:
        raise BadParameters(
            f"claim {claim_id} takes {sorted(spec.defaults)}, not {unknown!r}")
    merged = {**spec.defaults, **params}
    # max_order is checked where every sweep reads it, in catalog._shapes
    if "q_max" in merged:
        _integer(merged["q_max"], f"claim {claim_id}", "q_max")
    for p in merged.get("p_list", ()):
        _require_prime(_integer(p, f"claim {claim_id}", "p_list entry"), "p")
    units = spec.units(merged)
    if not units:
        raise EmptySweep(f"claim {claim_id}: no instances under {merged}")
    start = time.perf_counter()
    args = [(claim_id, u) for u in units]
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(args) == 1:
        rows = _run_units(args)
    else:
        rows = _pool_rows(args, jobs)
    rows.sort(key=lambda r: (r["order"], r["label"],
                             json.dumps(r, sort_keys=True)))
    failing = next((r for r in rows if not r["ok"]), None)
    return ClaimReport(
        claim_id=claim_id,
        instances_checked=len(rows),
        passed=failing is None,
        counterexample=None if failing is None else (
            f"{failing['label']} (order {failing['order']}): {failing['note']}"),
        elapsed=time.perf_counter() - start,
        rows=tuple(rows),
    )
