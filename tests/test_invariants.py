"""Centralizer structure, abelian profiles, Sylow data, and isomorphism."""

import hashlib
import json
import random
import time
import tracemalloc
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from cent_atlas import claims, core, invariants
from cent_atlas.catalog import (
    abelian,
    alternating,
    catalog_up_to,
    cyclic,
    dicyclic,
    dihedral,
    elementary,
    heisenberg,
    metacyclic,
    sl23,
    symmetric,
    witness_h,
)
from cent_atlas.core import (ActionSpec, Group, SubsetMask,
                             _centralizer_sizes,
                             direct_product, from_cayley_table,
                             quotient, semidirect_product, subgroup_as_group)
from cent_atlas.errors import (BadParameters, NotPrime, NotSubgroup,
                               OrderCapExceeded,
                               SearchBudgetExceeded)
from cent_atlas.invariants import (
    _max_clique,
    abelian_profile,
    cent_structure,
    center,
    centralizer,
    conjugacy_classes,
    derived_subgroup,
    find_isomorphism,
    frobenius_structure,
    is_isomorphic,
    is_prime,
    normalizer,
    omega,
    sylow,
)
from cent_atlas.numbers import factor, order_shape, unit_of_order
from cent_atlas.report import analyze

import oracles

# (builder, |Cent(G)|) frozen from independent hand/brute-force computation
CENT_COUNTS = [
    (lambda: symmetric(3), 5),
    (lambda: alternating(4), 6),
    (lambda: dihedral(12), 5),
    (lambda: dicyclic(12), 5),
    (lambda: dihedral(16), 6),
    (lambda: metacyclic(8, 2, 3, label="SD16"), 6),
    (lambda: dicyclic(16), 6),
    (lambda: metacyclic(8, 2, 5, label="M16"), 4),
    (lambda: dihedral(24), 8),
    (lambda: dicyclic(24), 8),
    (lambda: sl23(), 8),
    (lambda: metacyclic(7, 6, 3), 9),
    (lambda: direct_product(cyclic(2), metacyclic(7, 6, 3)), 9),
    (lambda: metacyclic(5, 4, 2), 7),
    (lambda: dihedral(36), 11),
    (lambda: dihedral(18), 11),
    (lambda: heisenberg(3), 5),
]


@pytest.mark.parametrize("build,expected", CENT_COUNTS,
                         ids=[b().label for b, _ in CENT_COUNTS])
def test_cent_count_frozen(build, expected):
    assert cent_structure(build()).count == expected


@pytest.mark.parametrize("build,_", CENT_COUNTS[:8],
                         ids=[b().label for b, _ in CENT_COUNTS[:8]])
def test_cent_count_matches_oracle(build, _):
    g = build()
    table = g.table.tolist()
    assert cent_structure(g).count == oracles.cent_count(table)
    assert sorted(center(g).elements()) == oracles.center(table)
    assert sorted(derived_subgroup(g).elements()) == sorted(oracles.derived_subgroup(table))
    assert omega(g) == oracles.omega(table)


def test_cent_structure_s3_details():
    g = symmetric(3)
    cs = cent_structure(g)
    assert cs.count == 5
    assert cs.proper_indices == (2, 3, 3, 3)
    assert all(len(m) in (2, 3) for m in cs.proper())


def test_cent_structure_a4_details():
    cs = cent_structure(alternating(4))
    assert cs.count == 6
    assert cs.proper_indices == (3, 4, 4, 4, 4)


def test_centralizer_and_normalizer():
    g = symmetric(3)
    orders = [int(o) for o in g.element_orders]
    r = orders.index(3)
    c = centralizer(g, r)
    assert len(c) == 3
    assert len(normalizer(g, c)) == 6  # <r> is normal in S3


def test_center_frozen_orders():
    assert len(center(dihedral(16))) == 2
    assert len(center(alternating(4))) == 1
    assert len(center(heisenberg(3))) == 3
    assert len(center(sl23())) == 2


def test_conjugacy_classes_s3():
    sizes = sorted(len(c) for c in conjugacy_classes(symmetric(3)))
    assert sizes == [1, 2, 3]


def test_conjugacy_classes_partition():
    g = sl23()
    classes = conjugacy_classes(g)
    assert sorted(x for c in classes for x in c) == list(range(24))
    assert sorted(len(c) for c in classes) == [1, 1, 4, 4, 4, 4, 6]


class TestOmega:
    def test_frozen(self):
        assert omega(symmetric(3)) == 4
        assert omega(alternating(4)) == 5
        assert omega(dihedral(16)) == 5
        assert omega(cyclic(12)) == 1

    def test_ca_iff_count(self):
        # CA groups: every proper centralizer abelian; then |Cent| = omega+1
        for g in (symmetric(3), alternating(4), dihedral(16), dicyclic(12)):
            cs = cent_structure(g)
            assert cs.is_ca
            assert cs.count == omega(g) + 1

    def test_frozen_a5_s5(self):
        assert omega(alternating(5)) == 21
        assert omega(symmetric(5)) == 31

    def test_s5_analyze_is_fast(self):
        g = symmetric(5)
        start = time.perf_counter()
        analyze(g)
        assert time.perf_counter() - start < 1.0

    def test_budget_overrun_raises(self):
        # two disjoint 5-cycles: clique number 2, but each cycle needs a
        # third colour, so two vertices must be branched on to refute 3
        adj = np.zeros((10, 10), dtype=bool)
        for v in range(10):
            w = v // 5 * 5 + (v + 1) % 5
            adj[v, w] = adj[w, v] = True
        assert _max_clique(adj, max_nodes=2) == 2
        with pytest.raises(SearchBudgetExceeded, match="budget of 1 nodes"):
            _max_clique(adj, max_nodes=1)

    def test_abelian_not_flagged_ca(self):
        # the CA flag requires a proper centralizer to exist, so that
        # count == omega + 1 holds exactly when the flag does
        cs = cent_structure(cyclic(6))
        assert not cs.is_ca
        assert cs.count == 1 and omega(cyclic(6)) == 1


@st.composite
def graphs(draw) -> np.ndarray:
    """Symmetric boolean adjacency matrices on up to 14 vertices."""
    k = draw(st.integers(0, 14))
    density = draw(st.integers(1, 9))
    draws = draw(st.lists(st.integers(0, 9), min_size=k * k, max_size=k * k))
    adj = np.triu(np.array(draws, dtype=int).reshape(k, k) < density, 1)
    return adj | adj.T


def needs_branching(adj: np.ndarray) -> bool:
    try:
        _max_clique(adj, max_nodes=0)
    except SearchBudgetExceeded:
        return True
    return False


def test_random_graphs_include_branching_ones():
    adj = find(graphs(), needs_branching,
               settings=settings(phases=[Phase.generate], database=None,
                                 derandomize=True))
    assert _max_clique(adj) == oracles.max_clique(adj.tolist())


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_max_clique_matches_brute_force(adj):
    assert _max_clique(adj) == oracles.max_clique(adj.tolist())


class TestSylow:
    def test_a4(self):
        g = alternating(4)
        s2 = sylow(g, 2)
        s3_ = sylow(g, 3)
        assert (s2.count, len(s2.subgroup)) == (1, 4)
        assert (s3_.count, len(s3_.subgroup)) == (4, 3)

    def test_s3(self):
        g = symmetric(3)
        assert sylow(g, 2).count == 3
        assert sylow(g, 3).count == 1

    def test_f20(self):
        assert sylow(metacyclic(5, 4, 2), 2).count == 5

    def test_sl23(self):
        g = sl23()
        assert sylow(g, 2).count == 1
        assert sylow(g, 3).count == 4

    def test_sylow_subgroup_is_subgroup(self):
        g = dihedral(24)
        s = sylow(g, 2)
        h = subgroup_as_group(g, s.subgroup)
        assert h.order == 8

    def test_rejects_composite(self):
        with pytest.raises(NotPrime):
            sylow(symmetric(3), 4)

    def test_rejects_a_prime_not_dividing_the_order(self):
        with pytest.raises(BadParameters,
                           match="^5 does not divide the group order 6$"):
            sylow(symmetric(3), 5)

    def test_counts_vs_oracle(self):
        for g in catalog_up_to(100):
            table = g.table.tolist()
            for p in sorted(factor(g.order)):
                assert sylow(g, p).count == oracles.sylow_count(table, p), (
                    g.label, p)


def _sylow_digest(groups) -> str:
    """SHA-256 over (order, prime, count, subgroup bits) for every prime of
    every group, in order."""
    h = hashlib.sha256()
    for g in groups:
        for p in sorted(factor(g.order)):
            s = sylow(g, p)
            h.update(f"{g.order} {p} {s.count} {s.subgroup.bits:x};".encode())
    return h.hexdigest()


# Frozen from the normalizer growth alone, run for every prime: the normal
# and cyclic cases read off the element orders must return the same
# representative and count as that growth.
SYLOW_DIGESTS = {
    "catalog-300":
        "8b2a3d0f99304d7c7d725f49710f54b09186526cfcdda668f9ddab0d3e452149",
    "catalog-300-relabelled":
        "bfbbc6206d9bc3b26af1fba1eb3aa6384a82b39b042ec82c388f0ac6c6033046",
    "large":
        "93fbfbb9e2cb1cd42801506d291308db15852a86d4af8f13cce042e5b52c487f",
}


@pytest.mark.parametrize("name", sorted(SYLOW_DIGESTS))
def test_sylow_data_pinned(name):
    if name == "large":
        groups = [build() for build in LARGE_GROUPS[:4]]
    elif name == "catalog-300":
        groups = catalog_up_to(300)
    else:
        groups = relabelled_catalog(max_order=300, seed=27)
    assert _sylow_digest(groups) == SYLOW_DIGESTS[name]


# (group, prime, a group isomorphic to its Sylow subgroups, their count):
# one case per way ``sylow`` can find its answer
SYLOW_CASES = {
    "normal-C2xC4xC3": (lambda: abelian((2, 4, 3)), 2, lambda: abelian((2, 4)), 1),
    "cyclic-S3": (lambda: symmetric(3), 2, lambda: cyclic(2), 3),
    "cyclic-A5": (lambda: alternating(5), 5, lambda: cyclic(5), 6),
    "cyclic-Dic12": (lambda: dicyclic(12), 2, lambda: cyclic(4), 3),
    "growth-A5": (lambda: alternating(5), 2, lambda: elementary(2, 2), 5),
    "growth-S4": (lambda: symmetric(4), 2, lambda: dihedral(8), 3),
}


@pytest.mark.parametrize("case", sorted(SYLOW_CASES))
def test_sylow_named_cases(case, monkeypatch):
    build, p, kind, count = SYLOW_CASES[case]
    g = build()
    closures = []
    monkeypatch.setattr(invariants, "_close", lambda *a: closures.append(
        core._close(*a)))
    s = sylow(g, p)
    # only the growth path takes a closure
    assert bool(closures) == case.startswith("growth"), closures
    monkeypatch.undo()
    assert s.count == count == oracles.sylow_count(g.table.tolist(), p)
    assert is_isomorphic(subgroup_as_group(g, s.subgroup), kind())


def test_normalizer_matches_oracle_on_every_subgroup_sylow_visits(
        monkeypatch):
    seen = []
    real = invariants._normalizing

    def spy(g, flags, gens):
        got = real(g, flags, gens)
        seen.append((g, flags.copy(), got))
        return got

    # the growth path's normalizers, and each Sylow subgroup's through
    # ``normalizer``, which the normal and cyclic paths never take
    monkeypatch.setattr(invariants, "_normalizing", spy)
    for g in catalog_up_to(60):
        for p in factor(g.order):
            normalizer(g, sylow(g, p).subgroup)
    monkeypatch.undo()
    # 152 normalizers, 56 of them proper
    assert len(seen) > 150 and not all(got.all() for _, _, got in seen)
    for g, flags, got in seen:
        want = oracles.normalizer(g.table.tolist(), np.flatnonzero(flags))
        mask = SubsetMask.from_bool(flags)
        assert set(np.flatnonzero(got)) == want, g
        assert set(normalizer(g, mask).elements()) == want, g


# SHA-256 over, for every catalog group up to order 60 and every prime p
# of its order, the generating set ``core._spanning`` finds for its Sylow
# p-subgroup as a standalone group, and that subgroup's normalizer: frozen
# before both moved to the gate's greedy routine.
SUBGROUP_SETS_DIGEST = (
    "ceec4e80104a57add81d644802a9904a6f865d9638bf8045a1f60c4c65a22b57")


def test_subgroup_sets_pinned():
    h = hashlib.sha256()
    for g in catalog_up_to(60):
        for p in sorted(factor(g.order)):
            s = sylow(g, p).subgroup
            gens = core._spanning(subgroup_as_group(g, s))
            h.update(f"{g.order} {p} {gens} {normalizer(g, s).bits:x};".encode())
    assert h.hexdigest() == SUBGROUP_SETS_DIGEST


def test_normalizer_rejects_a_non_subgroup():
    g = symmetric(3)
    x = int(np.flatnonzero(g.element_orders == 3)[0])
    with pytest.raises(NotSubgroup, match=rf"^not closed: {x}\*{x} = "
                                          rf"{g.mul(x, x)} is outside$"):
        normalizer(g, SubsetMask.from_elements([0, x], 6))


@pytest.mark.parametrize("order", [6, 16])
def test_normalizer_refuses_another_groups_mask(order):
    with pytest.raises(BadParameters, match=f"mask of order {order}"):
        normalizer(dihedral(8), SubsetMask.from_elements([0, 1], order))


class TestAbelianProfile:
    def test_matches_power_counts(self):
        """In an abelian group the number of solutions of x^k = 1 is the
        product of gcd(k, d) over the invariant factors d, and these counts
        for k dividing |G| fix the group."""
        groups = [g for g in catalog_up_to(300) if g.is_abelian()]
        groups += [abelian(f) for f in ((2, 2, 2, 2), (4, 2, 2), (8, 4, 2),
                                       (9, 3), (27, 3, 3), (6, 6, 2))]
        for g in groups:
            factors = abelian_profile(g).invariant_factors
            assert prod(factors) == g.order
            assert all(a % b == 0 for a, b in zip(factors, factors[1:]))
            table = g.table.tolist()
            for k in range(1, g.order + 1):
                if g.order % k == 0:
                    assert oracles.solutions_of_power(table, k) == prod(
                        gcd(k, d) for d in factors), (g, k)

    def test_cyclic(self):
        p = abelian_profile(cyclic(12))
        assert p.kind == "cyclic"
        assert p.invariant_factors == (12,)

    def test_elementary(self):
        p = abelian_profile(elementary(3, 2))
        assert p.kind == "elementary_abelian"
        assert p.prime == 3
        assert p.invariant_factors == (3, 3)

    def test_other(self):
        p = abelian_profile(direct_product(cyclic(2), cyclic(4)))
        assert p.kind == "other_abelian"
        # largest first, each dividing the previous
        assert p.invariant_factors == (4, 2)

    def test_nonabelian(self):
        assert abelian_profile(symmetric(3)).kind == "nonabelian"


class TestFrobenius:
    def test_s3(self):
        f = frobenius_structure(symmetric(3))
        assert f is not None
        assert (len(f.kernel), len(f.complement)) == (3, 2)
        assert f.complement_is_cyclic

    def test_a4(self):
        f = frobenius_structure(alternating(4))
        assert f is not None
        assert (len(f.kernel), len(f.complement)) == (4, 3)

    def test_f20(self):
        f = frobenius_structure(metacyclic(5, 4, 2))
        assert f is not None
        assert (len(f.kernel), len(f.complement)) == (5, 4)

    def test_none_for_nontrivial_center(self):
        assert frobenius_structure(dihedral(12)) is None
        assert frobenius_structure(cyclic(6)) is None

    def test_noncyclic_complement(self):
        def on_f3_squared(a, b, c, d):
            return [(a * x + b * y) % 3 + 3 * ((c * x + d * y) % 3)
                    for y in range(3) for x in range(3)]

        action = ActionSpec.from_pairs([(1, on_f3_squared(0, -1, 1, 0)),
                                        (4, on_f3_squared(1, 1, 1, -1))])
        g = semidirect_product(elementary(3, 2), dicyclic(8), action)
        f = frobenius_structure(g)
        assert f is not None
        assert (len(f.kernel), len(f.complement),
                f.complement_is_cyclic) == (9, 8, False)

    def test_matches_definition_oracle(self):
        verdicts = set()
        for g in catalog_up_to(60):
            table = g.table.tolist()
            f = frobenius_structure(g)
            verdicts.add(f is None)
            if f is None:
                assert not oracles.has_small_frobenius_complement(table), g
                continue
            comp = set(f.complement.elements())
            assert oracles.is_frobenius_complement(table, comp), g
            assert oracles.frobenius_kernel(table, comp) == set(f.kernel), g
            assert f.complement_is_cyclic == any(
                oracles.element_order(table, h) == len(comp) for h in comp)
        assert verdicts == {True, False}


def _digest(maps: list[list[int] | None]) -> str:
    return hashlib.sha256(json.dumps(maps).encode()).hexdigest()


# SHA-256 of the image lists find_isomorphism returns.  The first
# isomorphism in search order is set by the generators and the candidate
# order, not by the pruning, so a change of pruning must leave these as
# they are.
PINNED_SELF_MAPS = (
    "0e406108866d67de84b8b04b6c90e2bd0bb534a9aa2194633a1d808dc1434478")
PINNED_PAIR_MAPS = (
    "1d14da4d13d5026a90ba4da7165a8402ce73d295ec4c98d5feb32fbebc562d68")


def _walk_digest(groups) -> str:
    """SHA-256 over (order, generators, walks) for every group, in order:
    find_isomorphism's generators of g and the walks that grow each
    prefix's subgroup to the next."""
    h = hashlib.sha256()
    for g in groups:
        gens, walks = invariants._prefix_walks(g)
        h.update(repr((g.order, gens, walks)).encode())
    return h.hexdigest()


# Frozen from the greedy set by element order that the search followed
# when a group's memo held it: the search's own choice of generators must
# give the same generators and walks, so the same maps and node counts.
WALK_DIGESTS = {
    "catalog-300":
        "6fbcb1e54d07f8723bc4e07fbee61a38d01d62d466a89beb70e0ed8c98ff2171",
    "catalog-300-relabelled":
        "fe989ecb729f1c66780ed7b94ecab7fa96e18a5309cf4c5b5b0851fdaacada0f",
    "large":
        "f6a99fc279c15691107ede750c5018e70b7fa17bba42dc0eaa5ce07dcd8664dc",
}


@pytest.mark.parametrize("name", sorted(WALK_DIGESTS))
def test_search_generators_and_walks_pinned(name):
    if name == "large":
        groups = [dihedral(2048), relabel(witness_h(5, 31, 2, order_cap=3875),
                                          random.Random(1))]
    elif name == "catalog-300":
        groups = catalog_up_to(300)
    else:
        groups = relabelled_catalog(max_order=300, seed=29)
    assert _walk_digest(groups) == WALK_DIGESTS[name]


def _closure_digest(groups) -> str:
    """SHA-256 over (order, G' bits, Frobenius kernel and complement bits
    and cyclic flag, or None) for every group, in order."""
    h = hashlib.sha256()
    for g in groups:
        f = frobenius_structure(g)
        frob = f and (f"{f.kernel.bits:x}", f"{f.complement.bits:x}",
                      f.complement_is_cyclic)
        h.update(repr((g.order, f"{derived_subgroup(g).bits:x}", frob)).encode())
    return h.hexdigest()


# Frozen from derived_subgroup and _centralizer_closure when each ran its
# own loop around core._close.
CLOSURE_DIGESTS = {
    "catalog-300":
        "629c05a6128bb3d24a4c3a432ac90363e1748f7b12cad6c734d474fbb6b9b8ff",
    "catalog-300-relabelled":
        "c295e3687accd56f7dfa1a99b8922d2d8cb743ed33c2ee2323143c5d6cc93b96",
    "large":
        "2f56690c48c7f8c85b3e93b43f6c36e5b7c1962bba3cc8a8f10fa22057a0428a",
}


@pytest.mark.parametrize("name", sorted(CLOSURE_DIGESTS))
def test_derived_and_frobenius_pinned(name):
    if name == "large":
        # and a Frobenius group whose kernel closure passes 512 elements
        frob = metacyclic(1033, 3, unit_of_order(3, 1033), order_cap=3099)
        groups = [*(build() for build in LARGE_GROUPS[:4]),
                  *(relabel(g, random.Random(32)) for g in
                    (witness_h(5, 31, 2, order_cap=3875), frob))]
    elif name == "catalog-300":
        groups = catalog_up_to(300)
    else:
        groups = relabelled_catalog(max_order=300, seed=32)
    assert _closure_digest(groups) == CLOSURE_DIGESTS[name]


class TestIsomorphism:
    def test_positive(self):
        assert is_isomorphic(symmetric(3), metacyclic(3, 2, 2))
        assert is_isomorphic(direct_product(cyclic(2), cyclic(3)), cyclic(6))
        assert is_isomorphic(dicyclic(8), dicyclic(8))

    def test_negative(self):
        assert not is_isomorphic(cyclic(4), elementary(2, 2))
        assert not is_isomorphic(dihedral(8), dicyclic(8))
        assert not is_isomorphic(dihedral(12), dicyclic(12))

    def test_map_is_checked(self):
        f = find_isomorphism(symmetric(3), metacyclic(3, 2, 2))
        assert f is not None
        g, h = symmetric(3), metacyclic(3, 2, 2)
        for x in range(6):
            for y in range(6):
                assert f[g.mul(x, y)] == h.mul(f[x], f[y])

    def test_order_mismatch(self):
        assert find_isomorphism(cyclic(4), cyclic(6)) is None

    def test_budget_overrun_has_its_own_error(self):
        # D16 needs two generators, so the search expands at least 2 nodes
        with pytest.raises(SearchBudgetExceeded, match="budget of 1 nodes"):
            find_isomorphism(dihedral(16), dihedral(16), max_nodes=1)
        assert issubclass(SearchBudgetExceeded, OrderCapExceeded)

    def test_shared_table_takes_the_identity_map(self):
        # G/1 shares g's table, so the identity comes back with no node
        # expanded, even at max_nodes=0; a gate-built copy of the same
        # table is a separate object, whose search finds the same map
        groups = catalog_up_to(200)
        for g in groups:
            ident = list(range(g.order))
            assert find_isomorphism(g, quotient(g, [0]), max_nodes=0) == ident
            assert find_isomorphism(g, g, max_nodes=0) == ident, g.label
            assert find_isomorphism(
                g, from_cayley_table(g.table, order_cap=g.order)) == ident, g.label
        assert len(groups) == 218

    def test_maps_onto_relabelled_copies_are_pinned(self):
        maps = []
        for g, copy in zip(catalog_up_to(100), relabelled_catalog()):
            phi = find_isomorphism(g, copy)
            assert phi is not None, g.label
            assert oracles.is_isomorphism(g.table.tolist(),
                                          copy.table.tolist(), phi), g.label
            maps.append(phi)
        assert len(maps) == 111
        assert _digest(maps) == PINNED_SELF_MAPS

    def test_maps_between_catalog_groups_are_pinned(self):
        groups, copies = catalog_up_to(100), list(relabelled_catalog())
        maps = []
        for a, g in enumerate(groups):
            for b, h in enumerate(copies):
                if a == b or g.order != h.order:
                    continue
                phi = find_isomorphism(g, h)
                assert phi is None or oracles.is_isomorphism(
                    g.table.tolist(), h.table.tolist(), phi), (g.label, h.label)
                maps.append(phi)
        assert len(maps) == 380
        assert _digest(maps) == PINNED_PAIR_MAPS

    @pytest.mark.parametrize("seed,nodes", [(1, 12_658), (2, 43_898)])
    def test_scales_to_a_relabelled_order_3875_cover(self, seed, nodes):
        g = witness_h(5, 31, 2, order_cap=3875)
        copy = relabel(g, random.Random(seed))
        phi = np.array(find_isomorphism(g, copy, max_nodes=nodes))
        assert np.array_equal(np.sort(phi), np.arange(g.order))
        assert np.array_equal(phi[g.table], copy.table[np.ix_(phi, phi)])
        with pytest.raises(SearchBudgetExceeded):
            find_isomorphism(g.relabeled(None), copy.relabeled(None),
                             max_nodes=nodes - 1)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_scales_to_a_relabelled_order_837_cover(self, seed):
        g = witness_h(3, 31, 5)
        copy = relabel(g, random.Random(seed))
        phi = find_isomorphism(g, copy, max_nodes=10_000)
        assert phi is not None
        assert oracles.is_isomorphism(g.table.tolist(), copy.table.tolist(),
                                      phi)

    def test_abelian_groups_with_equal_order_counts_are_isomorphic(self):
        # the prefilter passes two abelian groups with equal counts of
        # elements of each order without a search: over every abelian
        # group up to order 64 the counts agree exactly when the
        # invariant factors do
        for n in range(1, 65):
            groups = [abelian(f) for f in invariant_factor_tuples(n)]
            for g in groups:
                for h in groups:
                    same_counts = np.array_equal(np.bincount(g.element_orders),
                                                 np.bincount(h.element_orders))
                    assert same_counts == (
                        abelian_profile(g).invariant_factors
                        == abelian_profile(h).invariant_factors), (g, h)
        assert [abelian_profile(abelian(f)).invariant_factors
                for f in invariant_factor_tuples(64)] == invariant_factor_tuples(64)

    @pytest.mark.parametrize("p", [3, 5])
    def test_heisenberg_shares_the_order_counts_of_elementary(self, p):
        # exponent p and order p^3 both: the counts alone would pass them,
        # so the prefilter must refuse them for commutativity
        g, h = heisenberg(p), elementary(p, 3)
        assert np.array_equal(np.bincount(g.element_orders),
                              np.bincount(h.element_orders))
        assert not invariants._iso_prefilter(g, h)
        assert not invariants._iso_prefilter(h, g)
        assert not is_isomorphic(g, h) and not is_isomorphic(h, g)

    def test_generators_greedy_by_order(self):
        # find_isomorphism's generators: the first element of largest
        # order outside the closure so far
        for g in catalog_up_to(100):
            table = g.table.tolist()
            members, want = {0}, []
            while len(members) < g.order:
                pick = max((x for x in range(g.order) if x not in members),
                           key=lambda x: (oracles.element_order(table, x), -x))
                want.append(pick)
                members = oracles.closure(table, want)
            assert invariants._prefix_walks(g)[0] == want, g.label


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)


def test_catalog_counts_vs_oracle_small():
    for g in catalog_up_to(30):
        table = g.table.tolist()
        assert cent_structure(g).count == oracles.cent_count(table), g.label
        assert omega(g) == oracles.omega(table), g.label


def invariant_factor_tuples(n: int, bound: int = 0) -> list[tuple[int, ...]]:
    """Every (d_1, ..., d_k) with product n, each d_i > 1 dividing the one
    before (d_1 dividing ``bound`` when it is not 0), in lexicographic
    order: the invariant factors of each abelian group of order n."""
    if n == 1:
        return [()]
    return [(d, *rest) for d in range(2, n + 1)
            if n % d == 0 and bound % d == 0
            for rest in invariant_factor_tuples(n // d, d)]


def relabel(g: Group, rng: random.Random) -> Group:
    """g under a random renaming of its elements that keeps 0 at 0, read
    back through the validating gate."""
    perm = np.array([0, *rng.sample(range(1, g.order), g.order - 1)])
    table = np.empty_like(g.table)
    table[np.ix_(perm, perm)] = perm[g.table]
    return from_cayley_table(table, label=g.label, order_cap=g.order)


def relabelled_catalog(max_order=100, seed=7):
    """Every catalog group up to max_order, relabelled."""
    rng = random.Random(seed)
    for g in catalog_up_to(max_order):
        yield relabel(g, rng)


class TestPerGroupMemo:
    def test_memoised_values_match_oracles(self):
        for g in relabelled_catalog():
            table = g.table.tolist()
            want = (oracles.center(table), oracles.derived_subgroup(table),
                    oracles.cent_count(table), oracles.class_reps(table))
            first = (center(g), derived_subgroup(g), cent_structure(g),
                     invariants._class_reps(g))
            again = (center(g), derived_subgroup(g), cent_structure(g),
                     invariants._class_reps(g))
            assert all(a is b for a, b in zip(first, again)), g.label
            for z, d, cs, reps in (first, again):
                assert z.elements() == want[0], g.label
                assert set(d) == want[1], g.label
                assert cs.count == want[2], g.label
                assert reps.tolist() == want[3], g.label

    def test_memo_holds_only_linear_size_values(self):
        # the n x n commuting matrix or a quotient kept per group would
        # raise peak memory on the largest sweep groups
        for g in relabelled_catalog():
            analyze(g)
            assert g._memo, g.label
            for key, value in g._memo.items():
                assert not isinstance(value, Group), (g.label, key)
                if isinstance(value, np.ndarray):
                    assert value.size <= g.order, (g.label, key)
                    assert not value.flags.writeable, (g.label, key)
                    with pytest.raises(ValueError):
                        value[0] = value[0]

    def test_cent_structure_seeds_centralizer_sizes(self):
        # the commuting matrix's row sums are the sizes, so C2's check
        # (and anything else that calls cent_structure first) never needs
        # class representatives; an entry already there is kept
        key = _centralizer_sizes.__qualname__
        pqr = 0
        for g in relabelled_catalog(max_order=300, seed=11):
            fresh = Group(g.table, g.inverse, g.element_orders, g.label)
            shape = order_shape(g.order)
            if shape and shape[0] == "pqr" and not g.is_abelian():
                pqr += 1
                claims._check_c2(fresh, g.order)
            else:
                cent_structure(fresh)
            sizes = _centralizer_sizes(fresh)
            assert not sizes.flags.writeable, g.label
            assert np.array_equal(
                sizes, oracles.dense_centralizer_sizes(g.table)), g.label
            assert invariants._class_reps.__qualname__ not in fresh._memo
            first = Group(g.table, g.inverse, g.element_orders, g.label)
            sizes = _centralizer_sizes(first)
            cent_structure(first)
            assert first._memo[key] is sizes, g.label
        assert pqr == 98

    def test_public_attributes_stay_read_only(self):
        g = dihedral(8)
        cent_structure(g)
        for name in ("order", "table", "inverse", "element_orders", "label",
                     "_memo"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)


# Groups beyond the catalog's reach up to 300, checked against the dense
# references both as built and relabelled.
LARGE_GROUPS = [
    lambda: symmetric(5),
    lambda: direct_product(symmetric(3), alternating(5)),
    lambda: direct_product(symmetric(3), symmetric(4)),
    lambda: dihedral(2048),
    lambda: witness_h(5, 31, 2, order_cap=3875),
    lambda: witness_h(3, 31, 5),
]


class TestAgainstDenseReferences:
    """The generator-based class representatives, derived subgroup, center
    and centralizer sizes equal the whole-table formulas."""

    @staticmethod
    def check(g):
        reps = oracles.dense_class_reps(g.table)
        sizes = oracles.dense_centralizer_sizes(g.table)
        got = invariants._class_reps(g)
        assert got.dtype == np.int32, g.label
        assert np.array_equal(got, reps), g.label
        assert np.array_equal(_centralizer_sizes(g), sizes), g.label
        assert np.array_equal(center(g).as_bool(), sizes == g.order), g.label
        assert np.array_equal(derived_subgroup(g).as_bool(),
                              oracles.dense_derived_subgroup(g.table)), g.label

    def test_relabelled_catalog_up_to_300(self):
        for g in relabelled_catalog(max_order=300, seed=9):
            self.check(g)

    @pytest.mark.parametrize("build", LARGE_GROUPS,
                             ids=["S5", "S3xA5", "S3xS4", "D2048",
                                  "H(5,31,2)", "H(3,31,5)"])
    def test_large_groups_as_built_and_relabelled(self, build):
        g = build()
        self.check(g)
        self.check(relabel(g, random.Random(g.order)))


class TestCentStructureAgainstOracles:
    """Every field of ``cent_structure`` against the brute-force
    centralizers, the CA flag included."""

    @staticmethod
    def check(g):
        table = g.table.tolist()
        cents = oracles.centralizers(table)
        cs = cent_structure(g)
        assert [set(c) for c in cs.centralizers] == sorted(
            set(cents), key=lambda c: sum(1 << x for x in c)), g.label
        assert cs.representatives == tuple(
            cents.index(set(c)) for c in cs.centralizers), g.label
        assert cs.proper_indices == tuple(sorted(
            g.order // len(c) for c in set(cents) if len(c) < g.order)), g.label
        assert set(cs.center) == set(oracles.center(table)), g.label
        assert cs.is_ca == oracles.is_ca(table), g.label
        return cs.is_ca

    def test_relabelled_catalog_up_to_300(self):
        verdicts = {self.check(g)
                    for g in relabelled_catalog(max_order=300, seed=5)}
        assert verdicts == {True, False}

    @pytest.mark.parametrize("build", LARGE_GROUPS[:3],
                             ids=["S5", "S3xA5", "S3xS4"])
    def test_large_groups(self, build):
        self.check(build())


def test_class_reps_and_derived_subgroup_build_no_n_squared_array():
    # the whole-table formulas allocate 4 n^2 bytes (60 MB) at order 3875;
    # the generator-based ones stay near O(n k), closures included: the
    # same table with an empty memo, so the greedy generating set is found
    # inside the measurement
    h = witness_h(5, 31, 2, order_cap=3875)
    g = Group(h.table, h.inverse, h.element_orders, None)
    assert not g._memo
    tracemalloc.start()
    try:
        invariants._class_reps(g)
        derived_subgroup(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.order ** 2 // 4


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_omega_builds_no_commuting_matrix():
    # past the memoised cent_structure, omega gathers one k x k block for
    # the k distinct proper centralizers; the n x n commuting matrix it
    # used to build peaked at 20.8 MB here (n^2 / 4 is 3.75 MB)
    g = relabel(witness_h(5, 31, 2, order_cap=3875), random.Random(1))
    cent_structure(g)
    assert _peak_bytes(omega, g) < g.order ** 2 // 4


def test_frobenius_structure_builds_no_commuting_matrix():
    # commuting rows are read only for the members of the subgroups being
    # closed; the n x n matrix peaked at 1.93 MB here (n^2 / 2 is 432 kB)
    g = metacyclic(31, 30, 3)
    cent_structure(g)
    assert _peak_bytes(frobenius_structure, g) < g.order ** 2 // 2
