"""Groups built by construction against the full Cayley-table gate.

Products, subgroups, quotients and the closed-form families skip
``from_cayley_table``; every such Group must equal the one the gate
returns for the same table, and no path that takes a table from outside
the library may reach the trusted constructor.  The generating set a
builder hands over must generate its group, and the class data and G'
taken from it must equal those the gate-built copy takes from the set
Light's test used.
"""

import json
import sys
from functools import cache
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cent_atlas import catalog, core
from cent_atlas.catalog import (
    FAMILIES,
    build,
    catalog_up_to,
    cyclic,
    heisenberg_cover,
    witness_exponents,
    witness_h,
)
from cent_atlas.cli import main
from cent_atlas.core import (
    direct_product,
    from_cayley_table,
    from_permutation_generators,
    quotient,
    quotient_with_cosets,
    subgroup_as_group,
    subgroup_generated,
)
from cent_atlas.enumeration import enumerate_groups
from cent_atlas.errors import OrderCapExceeded
from cent_atlas.invariants import (
    center,
    conjugacy_classes,
    derived_subgroup,
    normalizer,
    sylow,
)
from cent_atlas.numbers import factor, primes_up_to
from cent_atlas.report import read_group_file

import oracles
from test_catalog import _PINNED_GROUPS

SPANNING = core._spanning.__qualname__


def assert_matches_gate(g):
    checked = from_cayley_table(g.table, label=g.label, order_cap=g.order)
    for name, dtype in (("table", core._CELL), ("inverse", np.int32),
                        ("element_orders", np.int32)):
        got, want = getattr(g, name), getattr(checked, name)
        assert got.dtype == want.dtype == dtype, (g, name)
        assert np.array_equal(got, want), (g, name)
    assert not g.table.flags.writeable and g.table.flags.c_contiguous
    assert (g.order, g.label) == (checked.order, checked.label)
    assert_spanning_matches(g, checked)


def assert_spanning_matches(g, checked):
    """g's generating set closes to g, and its class data and G' equal
    those of ``checked``, a gate-built copy that keeps the set Light's
    test used."""
    gens = core._spanning(g)
    assert len(subgroup_generated(g, gens)) == g.order, (g, gens)
    assert checked._memo[SPANNING] == tuple(oracles.greedy_generators(checked.table))
    assert core._spanning(checked) is checked._memo[SPANNING]
    assert np.array_equal(core._class_reps(g), core._class_reps(checked)), g
    assert conjugacy_classes(g) == conjugacy_classes(checked), g
    assert derived_subgroup(g) == derived_subgroup(checked), g


def _metacyclic_grid():
    return [(m, n, k) for m in range(1, 13) for n in range(1, 7)
            for k in range(m) if gcd(k, m) == 1 and pow(k, n, m) == 1 % m]


FAMILY_GRID = {
    "cyclic": [{"n": n} for n in range(1, 61)],
    "dihedral": [{"n": n} for n in range(2, 61, 2)],
    "dicyclic": [{"n": n} for n in range(8, 65, 4)],
    "symmetric": [{"n": n} for n in range(1, 6)],
    "alternating": [{"n": n} for n in range(3, 6)],
    "metacyclic": [{"m": m, "n": n, "k": k} for m, n, k in _metacyclic_grid()],
    "heisenberg": [{"p": p} for p in (2, 3, 5)],
    "modular-p3": [{"p": p} for p in (3, 5)],
    "elementary": [{"p": p, "k": k} for p, top in ((2, 6), (3, 3), (5, 2), (7, 2))
                   for k in range(1, top + 1)],
    "witness-h": [{"p": p, "q": q, "i": i} for p in (2, 3)
                  for q in primes_up_to(19) if q % p == 1
                  for i in witness_exponents(p, q)],
    "sl23": [{}],
}


def test_grid_covers_every_family():
    assert set(FAMILY_GRID) == set(FAMILIES)


# families whose builders hand a generating set to the trusted constructor
HANDING_OVER = {"cyclic", "dihedral", "dicyclic", "metacyclic", "heisenberg",
                "modular-p3", "elementary", "witness-h"}
# families built through the gate, which keeps the set Light's test used
GATE_BUILT = {"symmetric", "alternating"}


@pytest.mark.parametrize("family", sorted(FAMILY_GRID))
def test_family_matches_gate(family):
    for params in FAMILY_GRID[family]:
        g = build(family, **params)
        assert (SPANNING in g._memo) == (family in HANDING_OVER | GATE_BUILT), g
        assert_matches_gate(g)


def test_catalog_matches_gate():
    for g in catalog_up_to(300):
        assert_matches_gate(g)


def test_covers_match_gate():
    for p, q in ((2, 3), (2, 5), (2, 7), (3, 7), (3, 13), (5, 11)):
        for i in witness_exponents(p, q):
            assert_matches_gate(witness_h(p, q, i))
    for p in (3, 5):
        assert_matches_gate(heisenberg_cover(p))


@cache
def small_catalog():
    return catalog_up_to(60)


def test_subgroups_and_quotients_match_gate():
    for g in small_catalog():
        full = g.full_mask()
        subs = [center(g), derived_subgroup(g)]
        subs += [sylow(g, p).subgroup for p in factor(g.order)]
        for s in subs:
            assert_matches_gate(subgroup_as_group(g, s))
            if normalizer(g, s) == full:
                assert_matches_gate(quotient(g, s))


@pytest.mark.parametrize("name", sorted(_PINNED_GROUPS))
def test_pinned_constructions_hand_over_a_generating_set(name):
    for g in _PINNED_GROUPS[name]():
        assert_spanning_matches(g, from_cayley_table(g.table, order_cap=g.order))


def test_cyclic_closed_forms_match_oracles():
    for n in [*range(1, 61), 64, 97, 210]:
        g = cyclic(n)
        table = g.table.tolist()
        assert g.inverse.tolist() == [oracles.inverse(table, x) for x in range(n)]
        assert g.element_orders.tolist() == [
            oracles.element_order(table, x) for x in range(n)]
    assert core._spanning(cyclic(1)) == ()
    assert conjugacy_classes(cyclic(1)) == [[0]]
    assert derived_subgroup(cyclic(1)).elements() == [0]


def test_relabelled_group_keeps_the_memo():
    g = witness_h(2, 3, 2)
    reps = core._class_reps(g)
    h = g.relabeled("H")
    assert (h.label, g.label) == ("H", "H(2,3,2)")
    assert h._memo is not g._memo
    assert h._memo[SPANNING] == g._memo[SPANNING]
    assert h._memo[core._class_reps.__qualname__] is reps
    assert build("symmetric", n=1)._memo[SPANNING] == ()


def test_seed_keeps_an_existing_entry_and_freezes_an_array():
    g = from_cayley_table((np.arange(6)[:, None] + np.arange(6)) % 6)
    sizes = np.full(6, 6)
    core._centralizer_sizes.seed(g, sizes)
    assert core._centralizer_sizes(g) is sizes and not sizes.flags.writeable
    core._centralizer_sizes.seed(g, np.zeros(6, dtype=int))
    assert core._centralizer_sizes(g) is sizes
    assert list(g._memo) == [SPANNING, core._centralizer_sizes.__qualname__]


def test_known_computes_nothing():
    g = from_cayley_table((np.arange(6)[:, None] + np.arange(6)) % 6)
    assert core._class_reps.known(g) is None
    assert list(g._memo) == [SPANNING]
    reps = core._class_reps(g)
    assert core._class_reps.known(g) is reps


def test_products_combine_the_factors_sets():
    s3 = from_permutation_generators([(1, 0, 2), (1, 2, 0)])
    g = direct_product(s3, cyclic(4))
    assert core._spanning(g) == tuple(4 * s for s in core._spanning(s3)) + (1,)
    assert_matches_gate(g)


def test_quotient_hands_over_only_a_set_its_parent_already_has():
    # C12 as a subgroup of C24, so it has no set until one is asked for
    g = subgroup_as_group(cyclic(24), range(0, 24, 2))
    q = quotient(g, [0, 6])
    assert SPANNING not in g._memo and SPANNING not in q._memo
    center(g)  # class data memoises g's greedy set (1,)
    q = quotient(g, [0, 6])
    assert q._memo[SPANNING] == (1,)
    assert_matches_gate(q)


@st.composite
def presentations(draw):
    """(m, n, k, s) with k^n = 1 and s (k - 1) = 0 (mod m): the presentation
    <a, b | a^m = 1, b^n = a^s, b^-1 a b = a^k> of a group of order m n."""
    m, n = draw(st.integers(1, 24)), draw(st.integers(1, 8))
    k = draw(st.sampled_from([k for k in range(m) if gcd(k, m) == 1
                              and pow(k, n, m) == 1 % m]))
    s = draw(st.sampled_from([s for s in range(m) if s * (k - 1) % m == 0]))
    return m, n, k, s


@settings(max_examples=150, deadline=None)
@given(presentations())
@example((1, 1, 0, 0))
@example((1, 6, 0, 0))
@example((9, 1, 1, 4))
@example((8, 4, 1, 2))  # a^s central with k = 1: b^4 = a^2
@example((9, 3, 4, 3))  # s != 0 with k of order 3
@example((12, 2, 11, 6))  # Dic24
def test_presentation_hands_over_the_gates_orders_and_inverses(params):
    m, n, k, s = params
    assert_matches_gate(catalog._presented(m, n, k, s, "P", None))


def test_presented_families_find_no_orders_or_inverses(monkeypatch):
    def refuse(*args):
        raise AssertionError("closed forms not handed over")

    with monkeypatch.context() as patch:
        patch.setattr(core, "_element_orders", refuse)
        patch.setattr(core, "_inverses", refuse)
        built = [catalog.dihedral(n) for n in (2, 4, 30, 2048)]
        built += [catalog.dicyclic(n) for n in (8, 12, 64, 2048)]
        built += [catalog.metacyclic(m, n, k) for m, n, k in _metacyclic_grid()]
        built += [catalog.modular_p3(p) for p in (3, 5, 7)]
    for g in built:
        assert_matches_gate(g)


def test_quotient_by_the_trivial_subgroup_is_the_group():
    for g in [witness_h(3, 7, 2), catalog.sl23(), from_permutation_generators(
            [(1, 0, 2, 3), (1, 2, 3, 0)])]:
        reps = core._class_reps(g)
        q, cosets = quotient_with_cosets(g, [0], label="Q")
        assert cosets == [[x] for x in range(g.order)]
        assert q.label == "Q" and q.table is g.table
        assert q._memo[core._class_reps.__qualname__] is reps
        assert_matches_gate(q)
        assert core._spanning(q) == core._spanning(g)


def test_trusted_builders_check_the_cap_before_building():
    with pytest.raises(OrderCapExceeded, match="order 4096 exceeds cap 2048"):
        cyclic(4096)
    with pytest.raises(OrderCapExceeded, match="order 60 exceeds cap 59"):
        core.direct_product(cyclic(6), cyclic(10), order_cap=59)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_element_orders_match_oracle_on_relabelled_tables(data):
    g = data.draw(st.sampled_from(small_catalog()))
    rest = data.draw(st.permutations(range(1, g.order)))
    table = oracles.relabelled(g.table.tolist(), [0, *rest])
    got = from_cayley_table(table).element_orders.tolist()
    assert got == [oracles.element_order(table, x) for x in range(g.order)]


class TestUserTablesNeverTrusted:
    """With the trusted constructor made to raise unless the gate calls
    it, every path that takes a table or generators from outside the
    library still works: none skips the gate.  The gate's own call is its
    last step, after every check has passed.

    ``analyze`` builds reference groups for the capability of p^2 q and
    order-8 inputs, so the inputs here have other orders.
    """

    @pytest.fixture(autouse=True)
    def refuse_trusted(self, monkeypatch):
        def refuse(*args, **kwargs):
            if sys._getframe(1).f_code is core._validated.__code__:
                return real(*args, **kwargs)
            raise AssertionError("trusted constructor reached")

        real = core._trusted
        for name, mod in list(sys.modules.items()):
            if name.startswith("cent_atlas") and getattr(
                    mod, "_trusted", None) is real:
                monkeypatch.setattr(mod, "_trusted", refuse)
        with pytest.raises(AssertionError, match="trusted"):
            catalog.cyclic(3)

    def test_from_cayley_table(self):
        assert from_cayley_table(
            (np.arange(12)[:, None] + np.arange(12)) % 12).order == 12

    def test_permutations(self):
        gens = [(1, 0, 2, 3), (1, 2, 3, 0)]
        assert from_permutation_generators(gens).order == 24

    def test_enumeration(self):
        assert [len(enumerate_groups(n)) for n in range(1, 9)] == [
            1, 1, 1, 2, 1, 2, 1, 5]

    @pytest.mark.parametrize("payload", [
        {"label": "S4", "degree": 4,
         "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]},
        {"label": "S4", "table": from_permutation_generators(
            [(1, 0, 2, 3), (1, 2, 3, 0)]).table.tolist()},
        {"label": "C2xC2", "table": [[0, 1, 2, 3], [1, 0, 3, 2],
                                     [2, 3, 0, 1], [3, 2, 1, 0]]},
        {"label": "C6", "table": ((np.arange(6)[:, None] + np.arange(6))
                                  % 6).tolist()},
    ], ids=["perm-S4", "table-S4", "table-V4", "table-C6"])
    def test_read_and_analyze(self, tmp_path, capsys, payload):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        assert read_group_file(path).label == payload["label"]
        assert main(["analyze", "--in", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["label"] == payload["label"]
