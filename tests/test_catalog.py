"""Named families, order classifications, and the catalog sweep."""

import hashlib
import json

import numpy as np
import pytest

import cent_atlas.catalog as catalog
from cent_atlas.catalog import (
    _abelian_classes,
    _nonabelian_classes,
    build,
    alternating,
    abelian,
    catalog_by_order,
    catalog_up_to,
    central_quotient_examples,
    covered_orders,
    cyclic,
    dicyclic,
    dihedral,
    elementary,
    groups_of_covered_order,
    heisenberg,
    heisenberg_cover,
    metacyclic,
    modular_p3,
    sl23,
    symmetric,
    unit_of_order,
    witness_exponents,
    witness_h,
)
from cent_atlas.claims import report_to_jsonable, verify_claim
from cent_atlas.core import direct_product, quotient
from cent_atlas.enumeration import enumerate_groups
from cent_atlas.errors import BadParameters, NoInstanceAvailable, OrderCapExceeded
from cent_atlas.invariants import center, is_isomorphic
from cent_atlas.numbers import order_shape, primes_up_to
from cent_atlas.report import read_group_file

from oracles import p2q_split_extensions, squarefree_class_count

# class counts per covered order, frozen after independent verification
CLASS_COUNTS = {
    8: 5, 12: 5, 18: 5, 20: 5, 27: 5, 28: 4, 30: 4, 42: 6, 44: 4, 45: 2,
    50: 5, 52: 5, 63: 4, 66: 4, 68: 5, 70: 4, 75: 3, 76: 4, 78: 6, 92: 4,
    98: 5, 99: 2, 102: 4, 105: 2, 110: 6, 125: 5, 147: 6, 148: 5, 175: 2,
    242: 5, 245: 2, 275: 4,
}


class TestBuilders:
    def test_cyclic(self):
        g = cyclic(7)
        assert g.order == 7 and g.is_abelian() and g.label == "C7"

    def test_abelian_factors(self):
        g = abelian([2, 6])
        assert g.order == 12 and g.exponent() == 6

    def test_elementary(self):
        g = elementary(3, 2)
        assert g.order == 9 and g.exponent() == 3

    def test_dihedral(self):
        g = dihedral(12)
        assert g.order == 12 and not g.is_abelian()
        assert sorted(int(o) for o in g.element_orders).count(2) == 7

    def test_dihedral_rejects_odd(self):
        with pytest.raises(BadParameters):
            dihedral(7)

    def test_dicyclic_labels(self):
        assert dicyclic(8).label == "Q8"
        assert dicyclic(16).label == "Q16"
        assert dicyclic(12).label == "Dic12"
        assert dicyclic(24).label == "Dic24"

    def test_dicyclic_unique_involution(self):
        for n in (8, 12, 16, 20, 24):
            g = dicyclic(n)
            assert sorted(int(o) for o in g.element_orders).count(2) == 1

    def test_symmetric_alternating(self):
        assert symmetric(4).order == 24
        assert alternating(4).order == 12
        assert alternating(5).order == 60
        assert is_isomorphic(alternating(3), cyclic(3))

    def test_metacyclic_validates_congruence(self):
        with pytest.raises(BadParameters, match=r"k\^n = 1 \(mod m\) fails"):
            metacyclic(5, 3, 2)
        with pytest.raises(BadParameters):
            metacyclic(6, 2, 2)  # gcd(k, m) != 1

    def test_metacyclic_s3(self):
        assert is_isomorphic(metacyclic(3, 2, 2), symmetric(3))

    def test_heisenberg(self):
        g = heisenberg(3)
        assert g.order == 27 and g.exponent() == 3
        assert len(center(g)) == 3

    def test_modular_p3(self):
        g = modular_p3(3)
        assert g.label == "M27"
        assert g.order == 27 and g.exponent() == 9
        with pytest.raises(BadParameters):
            modular_p3(2)

    def test_modular_not_heisenberg(self):
        assert not is_isomorphic(modular_p3(3), heisenberg(3))

    def test_sl23(self):
        g = sl23()
        assert g.order == 24
        assert sorted(int(o) for o in g.element_orders).count(2) == 1
        assert is_isomorphic(quotient(g, center(g)), alternating(4))

    def test_prime_validation(self):
        with pytest.raises(BadParameters):
            heisenberg(4)
        with pytest.raises(BadParameters):
            elementary(6, 2)

    @pytest.mark.parametrize("build, message", [
        (lambda: cyclic(0), "cyclic order must be positive, got 0"),
        (lambda: elementary(2, 0), "rank must be positive, got 0"),
        (lambda: dicyclic(6),
         "dicyclic order must be a multiple of 4 and >= 8, got 6"),
        (lambda: symmetric(0), "degree must be positive, got 0"),
        (lambda: alternating(2), "degree must be at least 3, got 2"),
        (lambda: metacyclic(0, 2, 1), "orders must be positive, got m=0, n=2"),
        (lambda: groups_of_covered_order(16),
         "order 16 is not of shape pqr, p^2 q, or p^3"),
        (lambda: central_quotient_examples("pqr", (2, 2, 3)),
         "shape 'pqr' needs distinct primes, got (2, 2, 3)"),
    ], ids=["cyclic", "elementary", "dicyclic", "symmetric", "alternating",
            "metacyclic", "covered-order", "central-quotient"])
    def test_refusal_names_the_bad_parameter(self, build, message):
        with pytest.raises(BadParameters) as info:
            build()
        assert str(info.value) == message

    def test_abelian_of_no_factors_is_trivial(self):
        g = abelian(())
        assert (g.label, g.table.tolist()) == ("C1", [[0]])


class TestWitnessFamily:
    def test_parameters_validated(self):
        with pytest.raises(BadParameters):
            witness_h(2, 5, 2)  # 2^2 != 1 mod 5
        with pytest.raises(BadParameters):
            witness_h(2, 3, 1)  # trivial action excluded
        with pytest.raises(BadParameters):
            witness_h(3, 5, 2)  # 5 != 1 mod 3

    def test_small_witness_quotient(self):
        h = witness_h(2, 3, 2)
        assert h.order == 24 and h.label == "H(2,3,2)"
        target = direct_product(cyclic(2), metacyclic(3, 2, 2))
        assert is_isomorphic(quotient(h, center(h)), target)

    def test_witness_center_order(self):
        for p, q, i in ((2, 3, 2), (2, 5, 4), (3, 7, 2)):
            h = witness_h(p, q, i)
            assert h.order == p ** 3 * q
            assert len(center(h)) == p
            assert quotient(h, center(h)).order == p * p * q

    def test_heisenberg_cover(self):
        w = heisenberg_cover(3)
        assert w.order == 81 and w.label == "W(3)"
        assert is_isomorphic(quotient(w, center(w)), heisenberg(3))
        with pytest.raises(BadParameters):
            heisenberg_cover(2)


class TestFamilySpec:
    """build(family, **params): a family is named by a FAMILIES key and
    its keyword parameters."""

    def test_build_dispatch(self):
        g = build("dihedral", n=10)
        assert g.order == 10
        assert is_isomorphic(build("sl23"), sl23())

    def test_missing_parameter(self):
        with pytest.raises(BadParameters, match="--n"):
            build("cyclic")
        with pytest.raises(BadParameters, match="--n"):
            build("cyclic", n=None)

    @pytest.mark.parametrize("family, params, message", [
        ("cyclic", {"n": 3, "p": 7}, "family 'cyclic' takes --n, not --p"),
        ("metacyclic", {"m": 7, "n": 6, "k": 3, "q": 5, "i": 1},
         "family 'metacyclic' takes --m --n --k, not --q"),
        ("sl23", {"i": 2}, "family 'sl23' takes no parameters, not --i"),
        ("heisenberg", {"n": 4}, "family 'heisenberg' takes --p, not --n"),
        ("cyclic", {"n": 3, "r": 2}, "family 'cyclic' takes --n, not --r"),
    ], ids=["cyclic", "metacyclic", "sl23", "missing-and-unused", "unknown-name"])
    def test_unused_parameter_is_refused(self, family, params, message):
        with pytest.raises(BadParameters) as info:
            build(family, **params)
        assert str(info.value) == message

    @pytest.mark.parametrize("value, shown", [(True, "True"), (6.0, "6.0"),
                                              ("6", "'6'")],
                             ids=["bool", "float", "str"])
    def test_non_integer_parameter_is_refused(self, value, shown):
        with pytest.raises(BadParameters) as info:
            build("cyclic", n=value)
        assert str(info.value) == f"family 'cyclic' needs an integer --n, got {shown}"

    def test_numpy_integers_are_accepted(self):
        g = build("metacyclic", m=np.int64(7), n=np.int32(3), k=np.int16(2))
        assert g.table.tolist() == metacyclic(7, 3, 2).table.tolist()

    @pytest.mark.parametrize("builder, args, message", [
        (cyclic, (True,), "cyclic needs an integer n, got True"),
        (dihedral, (8.0,), "dihedral needs an integer order, got 8.0"),
        (metacyclic, (7, 3, "2"), "metacyclic needs an integer k, got '2'"),
        (heisenberg_cover, (3.0,), "heisenberg_cover needs an integer p, got 3.0"),
        (central_quotient_examples, ("p3", (2.0,)),
         "central_quotient_examples needs an integer prime, got 2.0"),
        (catalog_by_order, (12.5,),
         "an order sweep needs an integer max_order, got 12.5"),
        (catalog_up_to, (12.5,),
         "an order sweep needs an integer max_order, got 12.5"),
    ], ids=["cyclic-bool", "dihedral-float", "metacyclic-str",
            "heisenberg_cover-float", "central_quotient_examples-float",
            "catalog_by_order-float", "catalog_up_to-float"])
    def test_builders_refuse_a_non_integer(self, builder, args, message):
        with pytest.raises(BadParameters) as info:
            builder(*args)
        assert str(info.value) == message

    def test_builders_take_numpy_integers_as_ints(self):
        g = metacyclic(np.int64(7), np.int32(3), np.int16(2))
        assert g.label == "C7:C3(2)"
        assert g.table.tolist() == metacyclic(7, 3, 2).table.tolist()
        assert cyclic(np.int8(5)).label == "C5"

    def test_unknown_family(self):
        with pytest.raises(BadParameters):
            build("sporadic")

    def test_order_cap_is_keyword_only(self):
        with pytest.raises(TypeError):
            build("cyclic", 5)


class TestNumberTheoryHelpers:
    def test_unit_of_order(self):
        u = unit_of_order(3, 7)
        assert pow(u, 3, 7) == 1 and u != 1


COVERED_500 = sorted(covered_orders(500))


class TestClassifications:
    @pytest.mark.parametrize("p,q,r", [(2, 3, 5), (2, 3, 7), (2, 5, 7),
                                       (3, 5, 7), (2, 3, 11), (2, 5, 11),
                                       (3, 7, 13), (2, 7, 11), (5, 7, 11)])
    def test_pqr_count_matches_divisor_formula(self, p, q, r):
        got = len(groups_of_covered_order(p * q * r))
        assert got == squarefree_class_count(p * q * r)

    def test_pqr_pairwise_distinct(self):
        gs = groups_of_covered_order(30)
        for i in range(len(gs)):
            for j in range(i + 1, len(gs)):
                assert not is_isomorphic(gs[i], gs[j])

    @pytest.mark.parametrize("order", sorted(CLASS_COUNTS))
    def test_frozen_class_counts(self, order):
        assert len(groups_of_covered_order(order)) == CLASS_COUNTS[order]

    @pytest.mark.parametrize("order", COVERED_500)
    def test_pairwise_non_isomorphic(self, order):
        gs = groups_of_covered_order(order)
        for i in range(len(gs)):
            for j in range(i + 1, len(gs)):
                assert not is_isomorphic(gs[i], gs[j]), (gs[i].label, gs[j].label)

    @pytest.mark.parametrize("order", [n for n in covered_orders(100)
                                       if order_shape(n)[0] == "p2q"])
    def test_p2q_lists_match_every_split_extension(self, order):
        # an independent list: every action with a normal Sylow subgroup
        _, (p, q) = order_shape(order)
        built = p2q_split_extensions(p, q)
        listed = groups_of_covered_order(order)
        match = [[is_isomorphic(g, h) for h in listed] for g in built]
        assert len(built) == len(listed)
        assert all(row.count(True) == 1 for row in match)
        assert all(col.count(True) == 1 for col in zip(*match))

    def test_p3_families(self):
        labels8 = {g.label for g in groups_of_covered_order(8)}
        assert "D8" in labels8 and "Q8" in labels8
        gs27 = groups_of_covered_order(27)
        assert len(gs27) == 5
        assert sum(1 for g in gs27 if not g.is_abelian()) == 2

    def test_p2q_counts(self):
        for n in (12, 18, 20, 50):  # 2^2 3, 3^2 2, 2^2 5 and 5^2 2
            assert len(groups_of_covered_order(n)) == 5, n

    def test_covered_orders_shapes(self):
        cov = covered_orders(130)
        assert cov[30][0] == "pqr"
        assert cov[12][0] == "p2q"
        assert cov[8][0] == "p3"
        assert 16 not in cov  # p^4 is out of scope
        assert 60 not in cov  # not of a covered shape


# (p, k) for C_p^k, up to C2^11 at order 2048
_ELEMENTARY_GRID = [(2, 1), (2, 2), (2, 3), (2, 6), (2, 11), (3, 1), (3, 2),
                    (3, 6), (5, 2), (5, 3), (7, 3), (11, 2), (13, 1)]


def _same_group(g, h):
    return (np.array_equal(g.table, h.table)
            and np.array_equal(g.inverse, h.inverse)
            and np.array_equal(g.element_orders, h.element_orders))


class TestOneAbelianWriter:
    @pytest.mark.parametrize("p,k", _ELEMENTARY_GRID)
    def test_elementary_is_abelian_relabelled(self, p, k):
        g = elementary(p, k)
        assert g.label == f"C{p}^{k}"
        assert _same_group(g, abelian((p,) * k))
        # digitwise addition mod p, written independently of both builders
        x = np.arange(p ** k, dtype=np.int32)
        table, inverse = np.zeros((x.size, x.size), np.int32), np.zeros_like(x)
        for w in (p ** j for j in range(k)):
            d = x // w % p
            table += (d[:, None] + d) % p * w
            inverse += -d % p * w
        assert np.array_equal(g.table, table)
        assert np.array_equal(g.inverse, inverse)
        assert np.array_equal(g.element_orders, np.where(x > 0, p, 1))

    @pytest.mark.parametrize("order", COVERED_500)
    def test_abelian_classes_are_abelian_products(self, order):
        kind, (p, *_) = order_shape(order)
        factors = {"pqr": [(order,)], "p2q": [(order,), (p, order // p)],
                   "p3": [(order,), (p * p, p), (p, p, p)]}[kind]
        for g, fs in zip(_abelian_classes(order), factors, strict=True):
            want = abelian(fs)
            assert _same_group(g, want)
            assert g.label == (f"C{p}^3" if len(fs) == 3 else want.label)


class TestCapNamesTheBuiltOrder:
    @pytest.mark.parametrize("build_it,order,cap", [
        (lambda: witness_h(2, 3, 2, order_cap=10), 24, 10),
        (lambda: heisenberg_cover(5, order_cap=100), 625, 100),
        (lambda: abelian((2,) * 11, order_cap=1000), 2048, 1000),
        (lambda: elementary(2, 11, order_cap=1000), 2048, 1000),
        # the one nonabelian class of order 75 is (C5 x C5) : C3
        (lambda: central_quotient_examples("p2q", (5, 3), order_cap=20), 75, 20),
    ], ids=["witness_h", "heisenberg_cover", "abelian", "elementary", "p2q-75"])
    def test_message_names_the_whole_order(self, build_it, order, cap):
        with pytest.raises(OrderCapExceeded,
                           match=rf"^order {order} exceeds cap {cap}$"):
            build_it()

    def test_parameters_are_checked_before_the_cap(self):
        with pytest.raises(BadParameters):
            witness_h(2, 5, 2, order_cap=10)
        with pytest.raises(BadParameters):
            heisenberg_cover(2, order_cap=10)


class TestAbelianNonabelianSplit:
    @pytest.mark.parametrize("order", COVERED_500)
    def test_split_is_the_list(self, order):
        abelian_part = list(_abelian_classes(order))
        nonabelian_part = list(_nonabelian_classes(order))
        assert all(g.is_abelian() for g in abelian_part)
        assert not any(g.is_abelian() for g in nonabelian_part)
        assert [g.label for g in abelian_part + nonabelian_part] == [
            g.label for g in groups_of_covered_order(order)]

    @pytest.mark.parametrize("claim_id,params", [("C2", {"max_order": 150}),
                                                 ("C7", {"max_order": 100})])
    def test_nonabelian_sweeps_build_no_abelian_class(
            self, monkeypatch, claim_id, params):
        want = report_to_jsonable(verify_claim(claim_id, jobs=1, **params))

        def refuse(*args, **kwargs):
            raise AssertionError("an abelian class was built")

        # the one owner: every catalog and claims source reads it
        monkeypatch.setattr(catalog, "_abelian_classes", refuse)
        got = verify_claim(claim_id, jobs=1, **params)
        assert got.passed and report_to_jsonable(got) == want


class TestCentralQuotientExamples:
    def test_p2q_members(self):
        gs = central_quotient_examples("p2q", (2, 3))
        labels = {g.label for g in gs}
        assert "SL(2,3)" in labels
        assert any(lbl.startswith("H(2,3,") for lbl in labels)
        for g in gs:
            q = quotient(g, center(g))
            assert q.order == 12

    def test_pq2_members(self):
        gs = central_quotient_examples("pq2", (2, 3))
        for g in gs:
            assert quotient(g, center(g)).order == 18

    def test_p3_members(self):
        gs = central_quotient_examples("p3", (2,))
        labels = {g.label for g in gs}
        assert {"D16", "SD16", "Q16"} <= labels
        gs3 = central_quotient_examples("p3", (3,))
        assert any(g.label == "W(3)" for g in gs3)

    def test_no_instances(self):
        # no group of order 105 has trivial center
        with pytest.raises(NoInstanceAvailable):
            central_quotient_examples("pqr", (3, 5, 7))

    def test_bad_shape(self):
        with pytest.raises(BadParameters):
            central_quotient_examples("p4", (2,))
        with pytest.raises(BadParameters):
            central_quotient_examples("pqr", (2, 3))
        with pytest.raises(BadParameters):
            central_quotient_examples("p2q", (4, 3))

    def test_order_cap_propagates(self):
        with pytest.raises(OrderCapExceeded):
            central_quotient_examples("p3", (7,), order_cap=1000)


class TestCatalog:
    def test_catalog_by_order_merges_extras(self):
        cat = catalog_by_order(100)
        assert {g.label for g in cat[16]} == {"D16", "SD16", "Q16", "M16"}
        assert len(cat[12]) == 5

    def test_catalog_up_to_100(self):
        groups = catalog_up_to(100)
        assert len(groups) == 111
        assert all(g.order <= 100 for g in groups)
        orders = sorted({g.order for g in groups})
        assert orders[0] == 8 and orders[-1] == 99

    def test_catalog_respects_cap(self):
        small = catalog_up_to(30)
        assert {g.order for g in small} == {8, 12, 16, 18, 20, 24, 27, 28, 30}

    def test_builds_no_extra_above_max_order(self, monkeypatch):
        # in the catalog these build only extras, at orders 24 to 88
        built = []

        def recording(builder):
            def record(*args, **kwargs):
                g = builder(*args, **kwargs)
                built.append(g.label)
                return g
            return record

        for name in ("witness_h", "heisenberg_cover", "_c2_times"):
            monkeypatch.setattr(catalog, name, recording(getattr(catalog, name)))
        catalog_up_to(30)
        assert built == ["C2xA4", "H(2,3,2)"]

    @pytest.mark.parametrize("sweep", [
        catalog_by_order, catalog_up_to,
        lambda max_order, order_cap: next(catalog.catalog_orders(
            max_order, order_cap=order_cap))])
    def test_cap_refuses_before_building(self, monkeypatch, sweep):
        # order 12 is the first catalog order over the cap; order 8 must
        # not be built first
        def refuse(n, order_cap=None):
            raise AssertionError(f"built order {n}")

        monkeypatch.setattr(catalog, "_order_groups", refuse)
        with pytest.raises(OrderCapExceeded,
                           match="^order 12 exceeds cap 10$"):
            sweep(20, order_cap=10)

    def test_cap_stops_listing_orders(self, monkeypatch):
        # order 2054 = 2 * 13 * 79 is the first catalog order over the
        # cap; no order past it is looked at
        shapes = []

        def counted(n):
            shapes.append(n)
            return order_shape(n)

        monkeypatch.setattr(catalog, "order_shape", counted)
        with pytest.raises(OrderCapExceeded,
                           match="^order 2054 exceeds cap 2048$"):
            next(catalog.catalog_orders(100_000, order_cap=2048))
        assert max(shapes) == 2054

    @pytest.mark.parametrize("kind, order", [(None, 102), ("pqr", 102),
                                             ("p2q", 116), ("p3", 125)])
    def test_listing_of_one_kind_stops_at_its_first_order_over_the_cap(
            self, monkeypatch, kind, order):
        # the claims list their units by kind; a kind's refusal names its
        # own first order over the cap, as its first over-cap unit would
        shapes = []

        def counted(n):
            shapes.append(n)
            return order_shape(n)

        monkeypatch.setattr(catalog, "order_shape", counted)
        with pytest.raises(OrderCapExceeded,
                           match=f"^order {order} exceeds cap 100$"):
            catalog._capped_orders(10_000, 100, kind)
        assert max(shapes) == order

    def test_capped_listing_checks_only_the_orders_built(self):
        # 255 = 3 * 5 * 17 has no nonabelian class, so a sweep over those
        # classes builds nothing there and is not refused
        built = lambda n: (n,) if next(catalog._nonabelian_makers(n), None) else ()
        assert catalog._capped_orders(255, 250, "pqr", built)[-1] == 255
        # a built order past the cap is refused at its own order n = 27
        with pytest.raises(OrderCapExceeded, match="^order 108 exceeds cap 100$"):
            catalog._capped_orders(100, 100, "p3", lambda n: (n, 4 * n))

    def test_kind_listing_and_uncapped_covered_orders(self):
        assert list(catalog._shapes(30, kind="p3")) == [(8, ("p3", (2,))),
                                                        (27, ("p3", (3,)))]
        assert max(covered_orders(3000)) > 2048  # past the default cap
        assert covered_orders(0) == {} == covered_orders(-5)

    def test_listing_nonabelian_makers_builds_nothing(self, monkeypatch):
        # every maker checks the cap before it builds, so a cap check
        # that always fails shows that listing them builds nothing; the
        # makers list the classes in catalog order
        want = {n: [g.label for g in _nonabelian_classes(n)]
                for n in covered_orders(100)}

        def refuse(n, order_cap=None):
            raise AssertionError(f"built order {n}")

        monkeypatch.setattr(catalog, "_check_order_cap", refuse)
        makers = {n: list(catalog._nonabelian_makers(n)) for n in covered_orders(500)}
        assert not makers[255] and all(makers[n] for n in (30, 105, 116, 125))
        monkeypatch.undo()
        assert {n: [make().label for make in makers[n]] for n in want} == want


# The groups whose construction tables are pinned: the catalog to 500, the
# central-quotient instances of every default C1, C5, C10 and C12 shape,
# the C9w witnesses for p in {2, 3}, the irreducible action at order 1,183,
# and the dihedral and dicyclic extremes.
_PINNED_GROUPS = {
    "catalog-500": lambda: [g for gs in catalog_by_order(500).values() for g in gs],
    "shapes": lambda: [g for shape in (
        ("pqr", (2, 3, 5)), ("pqr", (2, 3, 7)), ("pqr", (2, 5, 7)),
        ("pqr", (3, 7, 13)), ("p2q", (2, 3)), ("p2q", (3, 2)),
        ("p2q", (2, 5)), ("p2q", (2, 7)), ("p2q", (3, 7)), ("pq2", (2, 3)),
        ("pq2", (2, 5)), ("pq2", (3, 5)), ("p3", (2,)), ("p3", (3,)),
    ) for g in central_quotient_examples(*shape)],
    "witness-h": lambda: [witness_h(p, q, i) for p in (2, 3)
                          for q in primes_up_to(31) if q % p == 1
                          for i in witness_exponents(p, q)],
    "p2q-13-7": lambda: groups_of_covered_order(13 * 13 * 7),
    "dihedral": lambda: [dihedral(n) for n in (2, 4, 8, 2048)],
    "dicyclic": lambda: [dicyclic(n) for n in (8, 12, 2048)],
}

# SHA-256 over each group's label and its table, inverse and element
# orders as little-endian int32, frozen from the builders before the
# metacyclic families shared one presentation law: any change to a
# table, an index layout or a label shows here.
PINNED_DIGESTS = {
    "catalog-500": "fb160ca4c88f11759585b87557e7e5207668d05c62b7b4e186d5ffcb7e8fd46b",
    "dicyclic": "96f1accf31f0d1c8190eaa6f851fcaad61501be7c794505174baa47975eaa4d9",
    "dihedral": "c1fcc1cdb591c1b83de8c74406783cff1535cbdee502def4a4006542be3c7f19",
    "p2q-13-7": "7e1ff14751c743c7fb9ee4804c28d90f33f20e36c62ddb5944d3e03ef18d6329",
    "shapes": "3005f7b4901a1da5ae0953be23a6f53ef844b05d7affc497a124cf5fa257bb6c",
    "witness-h": "8df8c5a1d16ac7eba043bae2550b4175580cfebd9e205707d60d205098e1d661",
}


def _construction_digest(groups) -> str:
    h = hashlib.sha256()
    for g in groups:
        h.update(g.label.encode() + b"\0")
        for arr in (g.table, g.inverse, g.element_orders):
            h.update(arr.astype("<i4").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(_PINNED_GROUPS))
def test_construction_tables_pinned(name):
    assert _construction_digest(_PINNED_GROUPS[name]()) == PINNED_DIGESTS[name]


# Groups no pin above covers, pinned the same way before their builders
# stated the acting generator as a matrix on abelian's coordinates and the
# enumerator's search shared one placement branch: both covers, the
# witnesses of order 1,375, the diagonal classes at order 507, the
# irreducible class at order 1,805, and every enumerated table to order 12.
_ACTION_PINNED_GROUPS = {
    "heisenberg-cover-5": lambda: [heisenberg_cover(5)],
    "heisenberg-cover-7": lambda: [heisenberg_cover(7, order_cap=2401)],
    "witness-h-5-11": lambda: [witness_h(5, 11, i)
                               for i in witness_exponents(5, 11)],
    "p2q-13-3": lambda: groups_of_covered_order(13 * 13 * 3),
    "p2q-19-5": lambda: groups_of_covered_order(19 * 19 * 5),
    "enumerated-12": lambda: [g for n in range(1, 13)
                              for g in enumerate_groups(n)],
}

ACTION_DIGESTS = {
    "enumerated-12": "6e5008ef0f4ad7bce8395629918519d23f2f8d25912f6a55b72a4b4eefdc238d",
    "heisenberg-cover-5": "08c5454c53967f12d3c51895bd6e9cd3b78dbeef1625fae483f7acb2dd317828",
    "heisenberg-cover-7": "3c246421edb7021edbecd08744c4e3dd61ab82b71440c6a6442a07cccd095cee",
    "p2q-13-3": "60979e4624f016739a3f786bafb07d404f66decd620b34c41c3a20fa92b54cfd",
    "p2q-19-5": "e1ea96b4947d9ec38015aa0cd6974791051762880a47be3c3469954d76a44ded",
    "witness-h-5-11": "4707f098721d939963194ed60fc1d5856452651f8dd6f3a2c11a673054cd909d",
}


@pytest.mark.parametrize("name", sorted(_ACTION_PINNED_GROUPS))
def test_action_tables_pinned(name):
    groups = _ACTION_PINNED_GROUPS[name]()
    assert _construction_digest(groups) == ACTION_DIGESTS[name]


# Permutation-built groups, pinned the same way while their tables were
# still filled by composing every pair of elements: the symmetric and
# alternating families, and S3 wr C2 read from a permutation file with
# three generators and a label.
PERMUTATION_DIGESTS = {
    "alternating-4-6": "e08b78b729fbc3d68e98372d4069c0139be5afe961a91826a4c2287b3bdf48c7",
    "permutation-file": "559f8b0019effd2c3439c37344487d622685cacf0d0f712158de9d9b2608a23a",
    "symmetric-3-6": "8fefa7337223475e090eaf13214ba803d117934c3d1141b1cf99ab627c376f48",
}


def test_permutation_tables_pinned(tmp_path):
    path = tmp_path / "wreath.json"
    path.write_text(json.dumps({
        "degree": 6, "label": "S3wrC2",
        "generators": [[1, 0, 2, 3, 4, 5], [1, 2, 0, 3, 4, 5],
                       [3, 4, 5, 0, 1, 2]]}))
    wreath = read_group_file(path)
    assert wreath.order == 72
    assert {
        "alternating-4-6": _construction_digest(
            [alternating(n) for n in range(4, 7)]),
        "permutation-file": _construction_digest([wreath]),
        "symmetric-3-6": _construction_digest(
            [symmetric(n) for n in range(3, 7)]),
    } == PERMUTATION_DIGESTS
