"""Group construction, validation, and algebraic operations."""

import hashlib
import random
import re
import tracemalloc
from functools import cache
from itertools import combinations, product
from math import gcd

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from cent_atlas import core
from cent_atlas.catalog import (
    abelian,
    alternating,
    catalog_up_to,
    cyclic,
    dicyclic,
    dihedral,
    elementary,
    metacyclic,
    symmetric,
    witness_h,
)
from cent_atlas.core import (
    DEFAULT_ORDER_CAP,
    ActionSpec,
    Group,
    SubsetMask,
    check_subgroup,
    direct_product,
    from_cayley_table,
    from_permutation_generators,
    quotient,
    quotient_with_cosets,
    resolve_order_cap,
    semidirect_product,
    subgroup_as_group,
    subgroup_generated,
)
from cent_atlas.errors import (
    BadParameters,
    CentAtlasError,
    IndexOutOfRange,
    NoIdentityAtZero,
    NoInverse,
    NotAssociative,
    NotAutomorphism,
    NotHomomorphism,
    NotLatinSquare,
    NotNormal,
    NotSubgroup,
    OrderCapExceeded,
)
from cent_atlas.report import analyze, read_group_file, write_group_file

import oracles
from oracles import closure, is_associative


def cyclic_table(n: int) -> np.ndarray:
    return (np.arange(n)[:, None] + np.arange(n)[None, :]) % n


def s3() -> Group:
    return from_permutation_generators([(1, 0, 2), (1, 2, 0)], label="S3")


class TestFromCayleyTable:
    def test_cyclic_accepted(self):
        g = from_cayley_table(cyclic_table(6), label="C6")
        assert g.order == 6
        assert g.mul(2, 5) == 1
        assert g.inv(1) == 5
        assert g.is_abelian()

    def test_identity_not_at_zero(self):
        bad = cyclic_table(3)[[1, 0, 2]][:, [1, 0, 2]]
        with pytest.raises(NoIdentityAtZero):
            from_cayley_table(bad)

    def test_not_latin(self):
        bad = [[0, 1, 2], [1, 2, 0], [2, 2, 1]]
        with pytest.raises(NotLatinSquare):
            from_cayley_table(bad)

    def test_not_associative(self):
        # Latin square with identity row/column that fails associativity
        bad = [[0, 1, 2, 3, 4],
               [1, 0, 3, 4, 2],
               [2, 4, 0, 1, 3],
               [3, 2, 4, 0, 1],
               [4, 3, 1, 2, 0]]
        assert not is_associative(bad)
        with pytest.raises(NotAssociative):
            from_cayley_table(bad)

    def test_order_cap(self):
        with pytest.raises(OrderCapExceeded):
            from_cayley_table(cyclic_table(9), order_cap=8)
        assert from_cayley_table(cyclic_table(9), order_cap=9).order == 9

    # Each value would wrap in a two-byte cell: 32768 and 65535 to a
    # negative, 65541 to 5, the entry of a cyclic table of order 6 at
    # (2, 3), so a table narrowed before its range check would pass.
    @pytest.mark.parametrize("dtype, value", [
        (np.int64, 32768), (np.int64, 65536 + 5), (np.int64, 2 ** 32 + 5),
        (np.int64, -1), (np.uint16, 32768), (np.uint16, 65535),
    ])
    def test_entry_past_a_cell_is_named_as_given(self, dtype, value):
        table = cyclic_table(6).astype(dtype)
        table[2, 3] = value
        with pytest.raises(NotLatinSquare) as info:
            from_cayley_table(table)
        assert str(info.value) == f"entry at (2, 3) is {value}, outside 0..5"
        table[2, 3] = 5
        assert from_cayley_table(table).table.dtype == core._CELL

    @pytest.mark.parametrize("table, message", [
        ([[0, 1], [1]], "row 1 has 1 entries but row 0 has 2"),
        ([[0], [1, 0]], "row 1 has 2 entries but row 0 has 1"),
        ([[0, 1], 1], "row 1 has 0 entries but row 0 has 2"),
        ([[0, [1]], [1, 0]], "an entry is not an integer"),
    ], ids=["short-row", "long-row", "scalar-row", "nested-entry"])
    def test_ragged_table_names_its_first_odd_row(self, table, message):
        with pytest.raises(NotLatinSquare) as info:
            from_cayley_table(table)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == f"table is ragged: {message}"

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("CENT_ATLAS_ORDER_CAP", "0064")
        assert resolve_order_cap() == 64
        monkeypatch.setenv("CENT_ATLAS_ORDER_CAP", "7")
        assert resolve_order_cap() == 7
        with pytest.raises(OrderCapExceeded):
            from_cayley_table(cyclic_table(8))
        monkeypatch.delenv("CENT_ATLAS_ORDER_CAP")
        assert resolve_order_cap() == DEFAULT_ORDER_CAP
        assert resolve_order_cap(64) == 64

    def test_large_group_light_validation(self):
        g = from_cayley_table(cyclic_table(300))
        assert g.order == 300
        assert g.power(1, 300) == 0

    def test_switched_cyclic_names_failing_triple(self):
        # Switching the intercalate on rows and columns 1 and 101 of C200
        # leaves a loop with inverses that is not a group.
        bad = cyclic_table(200)
        for x, y in ((1, 1), (1, 101), (101, 1), (101, 101)):
            bad[x, y] = 102 if bad[x, y] == 2 else 2
        with pytest.raises(NotAssociative) as exc:
            from_cayley_table(bad)
        x, s, y = triple_in(exc.value)
        assert bad[bad[x, s], y] != bad[x, bad[s, y]]

    @pytest.mark.parametrize("build, gens", [
        (lambda: cyclic(1024), [1]),
        (lambda: dihedral(2048), [1, 1024]),
        (lambda: witness_h(5, 31, 2, order_cap=3875), [1, 5, 155]),
        (lambda: elementary(2, 6), [1, 2, 4, 8, 16, 32]),
    ], ids=["C1024", "D2048", "H(5,31,2)", "C2^6"])
    def test_validation_generators(self, build, gens):
        assert core._orbit_generators(build().table) == (gens, True)


def triple_in(exc: NotAssociative) -> tuple[int, int, int]:
    found = re.search(r"triple \((\d+), (\d+), (\d+)\)", str(exc))
    return tuple(int(v) for v in found.groups())


def loop_isotope(square: list[list[int]], r: int, c: int) -> list[list[int]]:
    """Principal loop isotope of a Latin square, identity moved to 0.

    x o y = L[R(x)][C(y)], where R(x) is the row holding x in column c and
    C(y) the column holding y in row r; its identity is e = L[r][c], and
    swapping the labels e and 0 puts it at 0.
    """
    n = len(square)
    row_of = {square[i][c]: i for i in range(n)}
    col_of = {square[r][j]: j for j in range(n)}
    e = square[r][c]

    def swap(v: int) -> int:
        return e if v == 0 else 0 if v == e else v

    return [[swap(square[row_of[swap(x)]][col_of[swap(y)]]) for y in range(n)]
            for x in range(n)]


@cache
def base_tables() -> list[list[list[int]]]:
    groups = [cyclic(n) for n in range(1, 9)]
    groups += [abelian((2, 2)), abelian((2, 4)), abelian((2, 2, 2)),
               dihedral(6), dihedral(8), dicyclic(8)]
    return [g.table.tolist() for g in groups]


@st.composite
def loop_squares(draw) -> list[list[int]]:
    """Identity-normalised Latin squares of order at most 8: isotopes of
    small group tables, some with intercalates switched, which makes
    about a quarter of them non-associative."""
    base = draw(st.sampled_from(base_tables()))
    n = len(base)
    rows, cols, syms = (draw(st.permutations(range(n))) for _ in range(3))
    square = [[syms[base[rows[i]][cols[j]]] for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        intercalates = [
            (i1, i2, j1, j2)
            for i1, i2 in combinations(range(n), 2)
            for j1, j2 in combinations(range(n), 2)
            if square[i1][j1] == square[i2][j2]
            and square[i1][j2] == square[i2][j1]]
        if intercalates:
            i1, i2, j1, j2 = draw(st.sampled_from(intercalates))
            a, b = square[i1][j1], square[i1][j2]
            square[i1][j1] = square[i2][j2] = b
            square[i1][j2] = square[i2][j1] = a
    return loop_isotope(square, draw(st.integers(0, n - 1)),
                        draw(st.integers(0, n - 1)))


def raises_not_associative(table: list[list[int]]) -> bool:
    try:
        from_cayley_table(table)
    except NotAssociative:
        return True
    except NoInverse:
        pass
    return False


def test_loop_squares_include_both_verdicts():
    assert is_associative(find(loop_squares(), is_associative))
    assert not is_associative(find(loop_squares(), raises_not_associative))


@settings(max_examples=300, deadline=None)
@given(loop_squares())
def test_light_test_matches_triple_oracle(table):
    associative = is_associative(table)
    try:
        from_cayley_table(table)
    except NotAssociative as exc:
        assert not associative
        x, s, y = triple_in(exc)
        assert table[table[x][s]][y] != table[x][table[s][y]]
    except NoInverse:
        assert not associative
    else:
        assert associative


def gate_outcome(validate, table):
    """What a gate makes of a table: the Group's arrays, or the exception's
    type and message."""
    try:
        g = validate(table)
    except CentAtlasError as exc:
        return type(exc), str(exc)
    return [(np.dtype("<i4"), a.astype("<i4").tobytes())  # digests of int32
            for a in (g.table, g.inverse, g.element_orders)]


def to_top(table: np.ndarray, elems: list[int]) -> np.ndarray:
    """The same table with elems[i] relabelled n - 1 - i, 0 kept at 0."""
    n = len(table)
    perm = np.arange(n)
    for i, x in enumerate(elems):
        y = int(np.flatnonzero(perm == n - 1 - i)[0])
        perm[x], perm[y] = perm[y], perm[x]
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def switched(g: Group, zero: bool, start: int = 2,
             table: np.ndarray | None = None) -> tuple[np.ndarray, list[int]]:
    """g's table (or ``table``, in place) with one intercalate switched, in
    rows a, au for the first a >= ``start`` whose rows are still g's, and
    its rows and columns.

    For an involution u the cells of rows a, au and columns b, ub hold two
    values crosswise, and trading them leaves a Latin square.  With
    b = a^-1 one value is 0, so some element loses its two-sided inverse;
    otherwise inverses stay and the loop is not associative.
    """
    table = g.table.copy() if table is None else table
    u = int(np.flatnonzero(g.element_orders == 2)[0])
    for a in range(start, g.order):
        b = int(g.inverse[a]) if zero else 1
        lines = [a, int(table[a, u]), b, int(table[u, b])]
        cells = [(x, y) for x in lines[:2] for y in lines[2:]]
        values = {int(table[c]) for c in cells}
        if len(set(lines)) == 4 and 0 not in lines and len(values) == 2 \
                and (0 in values) == zero \
                and np.array_equal(table[lines[:2]], g.table[lines[:2]]):
            break
    c, e = values
    for cell in cells:
        table[cell] = e if table[cell] == c else c
    return table, lines


def planted(g: Group, defect: str) -> np.ndarray:
    """g's table with one defect, relabelled so that the rows, columns or
    elements it names are the last four: all in the last row block."""
    table = g.table.copy()
    if defect == "row":
        table[3, 5] = table[3, 7]
        return to_top(table, [3, 5, 7])
    if defect == "column":
        table[3, [5, 7]] = table[3, [7, 5]]
        return to_top(table, [7, 5, 3])
    table, lines = switched(g, zero=defect == "inverse")
    return to_top(table, lines)


class TestBlockedGate:
    """The gate's row-block checks against the whole-table reference
    ``oracles.dense_from_cayley_table``: same Group, or same error."""

    EXPECTED = {"row": NotLatinSquare, "column": NotLatinSquare,
                "inverse": NoInverse, "associativity": NotAssociative}

    @pytest.mark.parametrize("defect", sorted(EXPECTED))
    @pytest.mark.parametrize("build", [lambda: cyclic(1024),
                                       lambda: dihedral(1030)],
                             ids=["C1024", "D1030"])
    def test_defect_in_the_last_block(self, build, defect):
        g = build()
        assert len(list(core._row_blocks(g.order, g.order))) >= 4
        table = planted(g, defect)
        want = gate_outcome(oracles.dense_from_cayley_table, table)
        assert want[0] is self.EXPECTED[defect], want
        assert gate_outcome(from_cayley_table, table) == want
        if defect != "associativity":  # the named line is one of the last 4
            assert int(re.findall(r"\d+", want[1])[0]) >= g.order - 4

    @pytest.mark.parametrize("defect", ["row", "column", "associativity"])
    @pytest.mark.parametrize("build", [lambda: cyclic(1024),
                                       lambda: dihedral(1030)],
                             ids=["C1024", "D1030"])
    def test_earlier_of_two_blocks_is_reported(self, build, defect):
        """One defect in row (or column) block 1 and one in block 3, the
        two checked at once on two threads: the error names block 1's."""
        g = build()
        step = next(core._row_blocks(g.order, g.order)).stop
        first = step + 3
        table = two_block_faults(g)[defect]
        want = gate_outcome(oracles.dense_from_cayley_table, table)
        assert want[0] is self.EXPECTED[defect], want
        assert gate_outcome(from_cayley_table, table) == want
        if defect != "associativity":
            assert want[1].startswith(f"{defect} {first} ")
        else:  # the reported generator fails in more than one block
            x, s, _ = map(int, re.findall(r"\d+", want[1])[:3])
            lhs, rhs = table[table[:, s]], np.take(table, table[s], axis=1)
            bad = np.flatnonzero((lhs != rhs).any(axis=1))
            assert x == bad[0] and len(set(bad // step)) > 1, bad

    @pytest.mark.parametrize("build", [lambda: cyclic(1024),
                                       lambda: dihedral(1030)],
                             ids=["C1024", "D1030"])
    def test_valid_table_is_copied(self, build):
        table = to_top(build().table, [5, 3])
        assert gate_outcome(from_cayley_table, table) == gate_outcome(
            oracles.dense_from_cayley_table, table)
        assert not np.shares_memory(from_cayley_table(table).table, table)


@st.composite
def gate_inputs(draw) -> list[list[int]]:
    """Loop squares, some with one cell overwritten or two cells of a row
    or column swapped."""
    table = draw(loop_squares())
    n = len(table)
    op = draw(st.sampled_from(["none", "cell", "row-swap", "column-swap"]))
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    if op == "cell":
        table[i][j] = draw(st.integers(0, n - 1))
    elif op == "row-swap":
        table[i][j], table[i][k] = table[i][k], table[i][j]
    elif op == "column-swap":
        table[j][i], table[k][i] = table[k][i], table[j][i]
    return table


@settings(max_examples=300, deadline=None)
@given(gate_inputs(), st.sampled_from([1, 5, 16, 1 << 18]))
def test_blocked_gate_matches_whole_table_checks(table, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_CLOSE_BLOCK", block)
        assert gate_outcome(from_cayley_table, table) == gate_outcome(
            oracles.dense_from_cayley_table, table)


@pytest.mark.parametrize("z", [0, 2, None], ids=["z0", "z2", "zk"])
@pytest.mark.parametrize("k", [3, 5, 7])
def test_cyclic_with_an_absorbed_element_is_refused(k, z):
    """C_k plus an element x = k with c*x = x*c = x for every c in C_k and
    x*x = z (x itself for None).  The closure of {1} is C_k, more than
    half the table, and Light's test passes over it, yet row k is
    constant: generation must be shown without assuming a Latin square."""
    table = np.full((k + 1, k + 1), k)
    table[:k, :k] = cyclic_table(k)
    table[k, k] = k if z is None else z
    assert closure(table.tolist(), [1]) == set(range(k))
    want = (NotLatinSquare, f"row {k} is not a permutation of 0..{k}")
    assert gate_outcome(oracles.dense_from_cayley_table, table) == want
    assert gate_outcome(from_cayley_table, table) == want


@st.composite
def absorbed_extensions(draw) -> np.ndarray:
    """A catalog group G of order at most 12 plus 1-3 extra elements that
    every member of G fixes on both sides (g*e = e*g = e), with any
    products among the extras, relabelled with 0 kept at 0.  Light's test
    passes over every set of members of G, and G is closed.  Half the
    products among the extras are drawn from the extras, so that they
    often form a semigroup, over which Light's test passes too."""
    g = draw(st.deferred(lambda: st.sampled_from(
        [h for h in small_catalog() if h.order <= 12])))
    n, m = g.order, draw(st.integers(1, 3))
    table = np.empty((n + m, n + m), dtype=np.int64)
    table[:n, :n] = g.table
    table[:n, n:] = np.arange(n, n + m)
    table[n:, :n] = np.arange(n, n + m)[:, None]
    entry = st.one_of(st.integers(n, n + m - 1), st.integers(0, n + m - 1))
    table[n:, n:] = np.reshape(draw(st.lists(entry, min_size=m * m,
                                             max_size=m * m)), (m, m))
    perm = np.array([0, *draw(st.permutations(range(1, n + m)))])
    relabelled = np.empty_like(table)
    relabelled[np.ix_(perm, perm)] = perm[table]
    return relabelled


@settings(max_examples=200, deadline=None)
@given(absorbed_extensions())
def test_gate_refuses_absorbed_extensions_as_the_dense_checks_do(table):
    assert gate_outcome(from_cayley_table, table) == gate_outcome(
        oracles.dense_from_cayley_table, table)


def test_valid_tables_never_reach_the_reject_path(monkeypatch):
    """Every catalog group up to order 300, D2048 and H(5,31,2), each
    relabelled, and D2048 as built, pass on the accept path: the reject
    path's row and column scans never run, and the gate keeps the greedy
    generating set.  One broken table shows that the spy sees the scans."""
    scans = []
    scan = core._first_non_permutation
    monkeypatch.setattr(core, "_first_non_permutation",
                        lambda rows: scans.append(len(rows)) or scan(rows))
    rng = np.random.default_rng(28)
    big = [dihedral(2048), witness_h(5, 31, 2, order_cap=3875)]
    tables = [big[0].table]
    for g in [*catalog_up_to(300), *big]:
        perm = np.concatenate([[0], 1 + rng.permutation(g.order - 1)])
        tables.append(np.empty_like(g.table))
        tables[-1][np.ix_(perm, perm)] = perm[g.table]
    for table in tables:
        checked = from_cayley_table(table, order_cap=len(table))
        assert core._spanning.known(checked) == tuple(
            oracles.greedy_generators(checked.table))
    assert scans == []
    broken = tables[-1].copy()
    broken[7, 3] = broken[7, 4]
    with pytest.raises(NotLatinSquare, match="^row 7 "):
        from_cayley_table(broken, order_cap=len(broken))
    assert scans


def row_block_outcomes(path) -> list:
    """What the row-block rule must not change, for every catalog group up
    to order 60 plus D200, S4 and H(2,7,6): its arrays as built, as a
    gate-built relabelled copy and as read back from its group file, the
    file's bytes and its ``analyze`` report."""
    rng = np.random.default_rng(26)
    out = []
    for g in [*catalog_up_to(60), dihedral(200), symmetric(4), witness_h(2, 7, 6)]:
        perm = np.concatenate([[0], 1 + rng.permutation(g.order - 1)])
        copy = np.empty_like(g.table)
        copy[np.ix_(perm, perm)] = perm[g.table]
        file = path / f"{len(out)}.json"
        write_group_file(g, file)
        out.append([gate_outcome(lambda _: g, None),
                    gate_outcome(from_cayley_table, copy),
                    gate_outcome(read_group_file, file),
                    file.read_bytes(), analyze(g).to_jsonable()])
    return out


def two_block_faults(g: Group) -> dict[str, np.ndarray]:
    """g's table with a fault in row (or column) block 1 and one in block
    3, or with an intercalate switched in each, for the current row-block
    size."""
    step = next(core._row_blocks(g.order, g.order)).stop
    first, second = step + 3, 3 * step + 3
    row, column = g.table.copy(), g.table.copy()
    row[[first, second], 5] = row[[first, second], 7]
    for r, c in ((3, first), (9, second)):
        column[r, [c, c + 2]] = column[r, [c + 2, c]]
    light = switched(g, False, first)[0]
    switched(g, False, second, light)
    return {"row": row, "column": column, "associativity": light}


@pytest.mark.parametrize("cells", [1, 97, 4099])
def test_shrunken_row_blocks_change_nothing(cells, tmp_path):
    """At 1 cell every pass runs a row at a time and the gate runs on two
    threads for every n >= 2; built groups, gate-built copies, group files
    and reports, and the gate's first error, match the default sizes."""
    (tmp_path / "default").mkdir()
    (tmp_path / "shrunk").mkdir()
    want = row_block_outcomes(tmp_path / "default")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_CLOSE_BLOCK", cells)
        got = row_block_outcomes(tmp_path / "shrunk")
        faults = two_block_faults(dihedral(200))
        errors = {name: gate_outcome(from_cayley_table, table)
                  for name, table in faults.items()}
    assert got == want
    for name, table in faults.items():
        assert errors[name] == gate_outcome(from_cayley_table, table)
        assert errors[name][0] is TestBlockedGate.EXPECTED[name], errors[name]


def intercalates(square: np.ndarray) -> list[tuple[int, int, int, int]]:
    """Every (i1, i2, j1, j2), i1 < i2 and j1 < j2, whose four cells hold
    two values crosswise, in lexicographic order."""
    n = len(square)
    where = np.argsort(square, axis=1)  # where[i, v]: the column of v in row i
    found = []
    for i1, i2 in combinations(range(n), 2):
        j2 = where[i2, square[i1]]
        for j1 in np.flatnonzero((square[i1, j2] == square[i2]) & (j2 > np.arange(n))):
            found.append((i1, i2, int(j1), int(j2[j1])))
    return found


def seeded_gate_tables() -> list[np.ndarray]:
    """2,000 loop squares of orders 4-16 drawn from ``random.Random(30)``:
    principal loop isotopes of group tables with up to three intercalates
    switched, about two in five with one cell overwritten or two cells of
    a row or column swapped.  No Hypothesis, so the list is fixed."""
    rng = random.Random(30)
    bases = [cyclic(n).table for n in range(4, 17)]
    bases += [g.table for g in (abelian((2, 2)), abelian((3, 3)), dihedral(6),
                                dihedral(10), dihedral(14), *catalog_up_to(16))]
    tables = []
    for _ in range(2000):
        base = rng.choice(bases)
        n = len(base)
        rows, cols, syms = (np.array(rng.sample(range(n), n)) for _ in range(3))
        square = syms[base[np.ix_(rows, cols)]]
        for _ in range(rng.randint(0, 3)):
            if found := intercalates(square):
                i1, i2, j1, j2 = rng.choice(found)
                square[[i1, i2, i1, i2], [j1, j2, j2, j1]] = square[
                    [i1, i2, i1, i2], [j2, j1, j1, j2]]
        r, c = rng.randrange(n), rng.randrange(n)
        row_of, col_of = np.argsort(square[:, c]), np.argsort(square[r])
        e = square[r, c]
        swap = np.arange(n)
        swap[[0, e]] = swap[[e, 0]]
        table = swap[square[np.ix_(row_of[swap], col_of[swap])]]
        op = rng.choice(["none", "none", "none", "cell", "row-swap", "column-swap"])
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if op == "cell":
            table[i, j] = rng.randrange(n)
        elif op == "row-swap":
            table[i, [j, k]] = table[i, [k, j]]
        elif op == "column-swap":
            table[[j, k], i] = table[[k, j], i]
        tables.append(table)
    return tables


def planted_gate_tables() -> list[np.ndarray]:
    """The tables of :class:`TestBlockedGate`, and those of
    ``two_block_faults`` on D200 at the row-block sizes of
    ``test_shrunken_row_blocks_change_nothing``."""
    big = [cyclic(1024), dihedral(1030)]
    tables = [planted(g, d) for g in big for d in sorted(TestBlockedGate.EXPECTED)]
    tables += [two_block_faults(g)[d] for g in big
               for d in ("row", "column", "associativity")]
    tables += [to_top(g.table, [5, 3]) for g in big]
    for cells in (1, 97, 4099):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_CLOSE_BLOCK", cells)
            tables += two_block_faults(dihedral(200)).values()
    return tables


# SHA-256 over ``gate_outcome`` of each table, frozen before the gate's
# reject path was changed: every Group and every error message, whichever
# path the gate takes.
GATE_DIGESTS = {
    "seeded":
        "4bad0a56642525e0ca24bd386eb4aeaf6f513dfe2ae14f2c876540ea4996a110",
    "planted":
        "73090e9b951b821955a2d376c141adfde5b419a294e8cc2390a354f862662324",
}


@pytest.mark.parametrize("name", sorted(GATE_DIGESTS))
def test_gate_outcomes_pinned(name):
    tables = seeded_gate_tables() if name == "seeded" else planted_gate_tables()
    h = hashlib.sha256()
    kinds = set()
    for table in tables:
        out = gate_outcome(from_cayley_table, table)
        if isinstance(out, tuple):
            kinds.add(out[0])
            h.update(f"{out[0].__name__}: {out[1]};".encode())
        else:
            kinds.add(Group)
            for dtype, raw in out:
                h.update(dtype.str.encode() + raw)
    assert kinds == {Group, NotLatinSquare, NoIdentityAtZero, NoInverse,
                     NotAssociative} - ({NoIdentityAtZero} if name == "planted"
                                        else set())
    assert h.hexdigest() == GATE_DIGESTS[name]


def test_group_repr_names_label_and_order():
    assert repr(cyclic(4)) == "<C4 of order 4>"
    assert repr(from_cayley_table([[0]])) == "<Group of order 1>"


class TestPermutationGenerators:
    def test_s3(self):
        g = s3()
        assert g.order == 6
        assert not g.is_abelian()
        assert g.exponent() == 6

    def test_identity_only(self):
        g = from_permutation_generators([(0, 1, 2)])
        assert g.order == 1

    def test_cap_enforced(self):
        big = tuple(range(1, 9)) + (0,)
        with pytest.raises(OrderCapExceeded):
            from_permutation_generators([big], order_cap=8)

    @pytest.mark.parametrize("gens", [
        [(1, 2, 3, 4, 5, 6, 0), (0, 6, 5, 4, 3, 2, 1)],  # D14
        [(1, 2, 3, 4, 5, 6, 0), (0, 2, 4, 6, 1, 3, 5)],  # C7 : C3
        [(1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5), (3, 4, 5, 0, 1, 2)],
    ], ids=["D14", "F21", "S3wrC2"])
    def test_table_matches_pairwise_compositions(self, gens):
        table = from_permutation_generators(gens).table
        assert table.tolist() == oracles.permutation_table(gens)

    @given(st.integers(1, 5).flatmap(lambda d: st.lists(
        st.permutations(range(d)), min_size=1, max_size=3)))
    @settings(max_examples=40, deadline=None)
    def test_random_table_matches_pairwise_compositions(self, gens):
        table = from_permutation_generators(gens).table
        assert table.tolist() == oracles.permutation_table(gens)

    def test_one_composition_per_element_and_generator(self, monkeypatch):
        # the search composes each element with each generator once, and
        # the table is read off that search, not recomposed pairwise
        calls = []

        def counted(p, q):
            calls.append(None)
            return compose(p, q)

        compose = core._compose
        monkeypatch.setattr(core, "_compose", counted)
        gens = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
        g = from_permutation_generators(gens)
        assert g.order == 120
        assert len(calls) <= g.order * len(gens)


class TestProducts:
    def test_direct_product_orders(self):
        g = direct_product(from_cayley_table(cyclic_table(4), label="C4"),
                           from_cayley_table(cyclic_table(5), label="C5"))
        assert g.order == 20
        assert g.exponent() == 20
        assert g.label == "C4xC5"

    def test_semidirect_nontrivial(self):
        c3 = from_cayley_table(cyclic_table(3), label="C3")
        c2 = from_cayley_table(cyclic_table(2), label="C2")
        act = ActionSpec.from_pairs([(1, (0, 2, 1))])
        g = semidirect_product(c3, c2, act)
        assert g.order == 6
        assert not g.is_abelian()

    def test_semidirect_rejects_non_automorphism(self):
        c4 = from_cayley_table(cyclic_table(4), label="C4")
        c2 = from_cayley_table(cyclic_table(2), label="C2")
        act = ActionSpec.from_pairs([(1, (0, 2, 1, 3))])
        with pytest.raises(NotAutomorphism):
            semidirect_product(c4, c2, act)

    def test_trivial_action_is_direct(self):
        c3 = from_cayley_table(cyclic_table(3), label="C3")
        c2 = from_cayley_table(cyclic_table(2), label="C2")
        g = semidirect_product(c3, c2, ActionSpec.trivial(c2, c3))
        assert g.is_abelian()
        assert g.exponent() == 6

    @pytest.mark.parametrize("h", [cyclic(1024), dihedral(512), elementary(2, 10)],
                             ids=lambda h: h.label)
    def test_trivial_action_names_a_generating_set(self, monkeypatch, h):
        # each acting generator's image is checked as an automorphism; the
        # action named every non-identity element, 1,023 checks here
        checked = []
        check = core._check_automorphism
        monkeypatch.setattr(core, "_check_automorphism",
                            lambda n_grp, img: checked.append(1) or check(n_grp, img))
        c2 = cyclic(2)
        g = semidirect_product(c2, h, ActionSpec.trivial(h, c2))
        assert 1 <= len(checked) <= 10  # log2 |H|
        assert g.table.tobytes() == direct_product(c2, h).table.tobytes()

    def test_trivial_action_of_the_trivial_group_is_refused(self):
        c1 = cyclic(1)
        with pytest.raises(BadParameters,
                           match="^action must name at least one acting generator$"):
            semidirect_product(cyclic(2), c1, ActionSpec.trivial(c1, cyclic(2)))


def assert_matches_product_oracle(g, n_grp, h_grp, theta=None):
    """g's table, inverses and element orders against the cell-by-cell
    N x| H of ``oracles.semidirect_table``."""
    table = oracles.semidirect_table(n_grp.table.tolist(), h_grp.table.tolist(), theta)
    n = len(table)
    assert g.table.tolist() == table
    assert g.inverse.tolist() == [oracles.inverse(table, x) for x in range(n)]
    assert g.element_orders.tolist() == [oracles.element_order(table, x)
                                         for x in range(n)]


def check_cyclic_action(data, n_grp, step):
    """C_k acting on n_grp, its generator 1 by the automorphism ``step``,
    for k a drawn multiple of the order of ``step`` (at least 2)."""
    powers = [list(range(n_grp.order))]
    while (nxt := [step(v) for v in powers[-1]]) != powers[0]:
        powers.append(nxt)
    k = max(2, len(powers) * data.draw(st.integers(1, 2), label="multiple"))
    theta = [powers[h % len(powers)] for h in range(k)]
    h_grp = cyclic(k)
    g = semidirect_product(n_grp, h_grp, ActionSpec.from_pairs([(1, theta[1])]))
    assert_matches_product_oracle(g, n_grp, h_grp, theta)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_semidirect_product_matches_cell_oracle_on_cyclic_n(data):
    # x -> x^u on C_m
    m = data.draw(st.integers(2, 16), label="m")
    u = data.draw(st.sampled_from([u for u in range(1, m) if gcd(u, m) == 1]), label="u")
    check_cyclic_action(data, cyclic(m), lambda x: u * x % m)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_semidirect_product_matches_cell_oracle_on_gl2(data):
    # a matrix of GL(2, p) on C_p x C_p, whose element x + y*p is the
    # vector (x, y), as in elementary()
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    a, b, c, d = data.draw(st.tuples(*[st.integers(0, p - 1)] * 4).filter(
        lambda m: (m[0] * m[3] - m[1] * m[2]) % p), label="matrix")
    check_cyclic_action(data, elementary(p, 2), lambda v: (
        (a * (v % p) + b * (v // p)) % p + (c * (v % p) + d * (v // p)) % p * p))


_SMALL_NONABELIAN = {"S3": lambda: dihedral(6), "D8": lambda: dihedral(8),
                     "Q8": lambda: dicyclic(8), "A4": lambda: alternating(4)}


@pytest.mark.parametrize("left,right", list(product(_SMALL_NONABELIAN, repeat=2)))
def test_direct_product_matches_cell_oracle(left, right):
    g, h = _SMALL_NONABELIAN[left](), _SMALL_NONABELIAN[right]()
    prod = direct_product(g, h)
    assert prod.label == f"{g.label}x{h.label}"
    assert_matches_product_oracle(prod, g, h)
    trivial = semidirect_product(g, h, ActionSpec.trivial(h, g))
    assert np.array_equal(trivial.table, prod.table)
    assert np.array_equal(trivial.inverse, prod.inverse)
    assert np.array_equal(trivial.element_orders, prod.element_orders)


def traced_peak(build):
    """The tracemalloc peak of ``build()``, in bytes."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_products_are_written_in_place():
    # the table plus row blocks of at most _CLOSE_BLOCK cells: 31.0 MiB
    # for H(5,31,2), whose table is 28.6 MiB, and 32.4 MiB for D2048 x C2,
    # whose table is 32 MiB (with int32 tables and one |N| x |N| block,
    # 61.9 and 80 MiB; 87 and 128 MiB with a temporary per coset and a
    # reshape or transpose copy of the table)
    table = 3875 ** 2 * 2
    assert traced_peak(lambda: witness_h(5, 31, 2, order_cap=4096)) < table + 8 * 2 ** 20
    d, c2 = dihedral(2048), cyclic(2)
    table = 4096 ** 2 * 2
    assert traced_peak(lambda: direct_product(d, c2, order_cap=4096)) < 1.1 * table


def test_largest_witness_is_built_and_checked_in_40_mb():
    # H(5,31,2), the largest group the default sweeps build: 32.5 MB to
    # build and 31.6 MB for the gate's copy and checks, with its 30 MB
    # table of two-byte cells (64.9 and 63.2 MB with int32 cells)
    g = witness_h(5, 31, 2, order_cap=3875)
    assert traced_peak(lambda: witness_h(5, 31, 2, order_cap=3875)) < 40e6
    assert traced_peak(lambda: from_cayley_table(g.table, order_cap=3875)) < 40e6


class TestLargestOrder:
    """No table past order 2^15, whose indices a two-byte cell cannot
    hold, is allocated, whatever the cap: each is refused first."""

    @staticmethod
    def refused(build):
        """The tracemalloc peak of ``build()``, which must refuse order
        32769 past the largest order a table holds."""
        def refusal():
            with pytest.raises(OrderCapExceeded, match=(
                    "^order 32769 exceeds 32768, the largest order a table "
                    "holds$")):
                build()
        return traced_peak(refusal)

    def test_gate_refuses_before_it_copies(self):
        # a broadcast view of 32769^2 zeros holds one cell
        view = np.broadcast_to(np.int16(0), (32769, 32769))
        assert self.refused(lambda: core._validated(view, None, 10 ** 6)) < 2 ** 20

    def test_cyclic_refuses_before_it_builds(self):
        assert self.refused(lambda: cyclic(32769, order_cap=10 ** 6)) < 2 ** 20

    def test_cap_message_comes_first(self):
        with pytest.raises(OrderCapExceeded,
                           match="^order 32769 exceeds cap 2048$"):
            cyclic(32769)

    def test_permutation_closure_stops_at_the_largest_order(self):
        # cycles of lengths 2, 3, ..., 17 generate a cyclic group of order
        # 510510; the search stops at element 32769
        cycles, start = [], 0
        for length in (2, 3, 5, 7, 11, 13, 17):
            cycles += list(range(start + 1, start + length)) + [start]
            start += length
        # its 32768 elements of degree 58 are Python tuples
        assert self.refused(lambda: from_permutation_generators(
            [cycles], order_cap=10 ** 6)) < 32 * 2 ** 20


def test_semidirect_products_are_written_in_row_blocks():
    # the 3.6 MiB table of H(5,11,3) plus blocks of at most _CLOSE_BLOCK
    # cells and O(n) index arrays: 4.6 MiB
    table = 1375 ** 2 * 2
    assert traced_peak(lambda: witness_h(5, 11, 3, order_cap=4096)) < 1.6 * table


def test_closed_form_families_write_their_tables_in_place():
    # the 8 MiB table of two-byte cells plus blocks of at most _CLOSE_BLOCK
    # cells: 8.0, 9.1, 10.6, 10.4 and 8.4 MiB (16.1, 24.1, 24.1, 16.3 and
    # 25.0 MiB with int32 tables, m x m blocks and n x n b parts, 64, 68,
    # 96 and 96 MiB with int64 temporaries and an n x n search for the
    # inverses)
    table = 2048 ** 2 * 2
    for build in (lambda: cyclic(2048), lambda: dihedral(2048),
                  lambda: dicyclic(2048), lambda: elementary(2, 11),
                  lambda: metacyclic(2, 1024, 1)):
        assert traced_peak(build) < 1.6 * table


class TestSubgroupsAndQuotients:
    def test_subgroup_generated(self):
        g = from_cayley_table(cyclic_table(12))
        mask = subgroup_generated(g, [4])
        assert sorted(mask.elements()) == [0, 4, 8]

    def test_check_subgroup_rejects_nonclosed(self):
        g = from_cayley_table(cyclic_table(12))
        with pytest.raises(NotSubgroup):
            check_subgroup(g, [0, 4])

    def test_subgroup_as_group(self):
        g = from_cayley_table(cyclic_table(12))
        h = subgroup_as_group(g, subgroup_generated(g, [3]))
        assert h.order == 4
        assert h.exponent() == 4

    def test_quotient_rejects_non_normal(self):
        g = s3()
        orders = [int(o) for o in g.element_orders]
        x = orders.index(2)
        with pytest.raises(NotNormal):
            quotient(g, subgroup_generated(g, [x]))

    def test_not_normal_names_first_conjugation(self):
        g = s3()
        with pytest.raises(NotNormal, match=r"^conjugation by 2 moves 1 outside the subgroup$"):
            quotient(g, subgroup_generated(g, [1]))

    def test_quotient_by_derived(self):
        g = s3()
        orders = [int(o) for o in g.element_orders]
        three = orders.index(3)
        q = quotient(g, subgroup_generated(g, [three]))
        assert q.order == 2

    @pytest.mark.parametrize("mask", [[1], [0, 4]],
                             ids=["no-identity", "not-closed"])
    def test_quotient_refuses_a_non_subgroup(self, mask):
        g = from_cayley_table(cyclic_table(12))
        with pytest.raises(NotSubgroup):
            quotient_with_cosets(g, mask)

    def test_quotient_with_cosets_partition(self):
        g = from_cayley_table(cyclic_table(12))
        q, cosets = quotient_with_cosets(g, subgroup_generated(g, [4]))
        assert q.order == 4
        flat = sorted(x for c in cosets for x in c)
        assert flat == list(range(12))

    def test_index_errors(self):
        g = s3()
        with pytest.raises(IndexOutOfRange):
            g.check_index(6)
        with pytest.raises(IndexOutOfRange):
            g.check_index(-1)


def has_two_sided_inverses(table: list[list[int]]) -> bool:
    return all(table[row.index(0)][x] == 0 for x, row in enumerate(table))


@settings(max_examples=100, deadline=None)
@given(loop_squares().filter(has_two_sided_inverses))
def test_validation_generators_are_greedy_over_magma_closure(table):
    """The gate's orbit set is the greedy set over magma closures up to
    and including its first generator that fails Light's test, and the
    whole of it when none fails: the reject path's Light's test relies
    on that to name the fault the magma-closure set would."""
    n = len(table)
    gens, whole = core._orbit_generators(np.array(table))
    want = oracles.greedy_generators(np.array(table))
    fails = [any(table[table[x][s]][y] != table[x][table[s][y]]
                 for x in range(n) for y in range(n)) for s in want]
    if any(fails):
        k = fails.index(True) + 1
        assert gens[:k] == want[:k]
    else:
        assert (gens, whole) == (want, True)


@cache
def small_catalog():
    return catalog_up_to(60)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_subgroup_generated_matches_closure_oracle(data):
    g = data.draw(st.deferred(lambda: st.sampled_from(small_catalog())))
    seeds = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    got = subgroup_generated(g, seeds)
    assert set(got.elements()) == closure(g.table.tolist(), seeds)


def test_quotient_matches_coset_oracle():
    for g in small_catalog():
        table = g.table.tolist()
        for normal in (oracles.center(table), oracles.derived_subgroup(table)):
            q, cosets = quotient_with_cosets(g, normal)
            assert (cosets, q.table.tolist()) == oracles.quotient_cosets(
                table, sorted(normal)), g


class TestSubsetMask:
    def test_roundtrip(self):
        m = SubsetMask.from_elements([0, 2, 5], 6)
        assert len(m) == 3
        assert list(m) == [0, 2, 5]
        assert 2 in m and 3 not in m
        assert m == SubsetMask.from_bool(m.as_bool())

    @pytest.mark.parametrize("make, error, message", [
        (lambda: SubsetMask(0, 0), BadParameters,
         "mask owner order must be positive, got 0"),
        (lambda: SubsetMask(-1, 3), IndexOutOfRange,
         "mask bits out of range for order 3"),
        (lambda: SubsetMask(8, 3), IndexOutOfRange,
         "mask bits out of range for order 3"),
        (lambda: SubsetMask.from_elements([3], 3), IndexOutOfRange,
         "element 3 out of range for order 3"),
    ], ids=["order-0", "negative-bits", "bits-past-order", "element-past-order"])
    def test_refuses_a_bad_mask(self, make, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=24))
def test_cyclic_axioms_roundtrip(n):
    g = from_cayley_table(cyclic_table(n))
    assert g.order == n
    assert g.power(1 % n, n) == 0
    assert is_associative(g.table.tolist())


@pytest.mark.parametrize("g", [cyclic(1), cyclic(10), elementary(3, 2),
                               dihedral(16), dicyclic(24)],
                         ids=lambda g: g.label)
def test_power_is_repeated_multiplication(g):
    n = g.order
    table = g.table.tolist()
    for x in range(n):
        x_inv = table[x].index(0)
        up, down = [0], [0]  # x^k and x^-k by repeated products
        for _ in range(2 * n):
            up.append(table[up[-1]][x])
            down.append(table[down[-1]][x_inv])
        for k in range(2 * n + 1):
            assert g.power(x, k) == up[k], (x, k)
            assert g.power(x, -k) == down[k], (x, -k)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=8))
def test_direct_product_axioms(a, b):
    g = direct_product(from_cayley_table(cyclic_table(a)),
                       from_cayley_table(cyclic_table(b)))
    assert g.order == a * b
    table = g.table.tolist()
    assert all(table[x][0] == x == table[0][x] for x in range(g.order))
    assert is_associative(table)


class TestRefusals:
    """Each refusal names its error type and what was wrong."""

    @pytest.mark.parametrize("h_order,action,error,message", [
        (2, ActionSpec((1, 1), ((0, 2, 1), (0, 1, 2))), NotHomomorphism,
         "two different images given for generator 1"),
        (2, ActionSpec((0, 1), ((0, 2, 1), (0, 2, 1))), NotHomomorphism,
         "identity of H must act trivially"),
        # inversion has order 2, so it cannot be the image of an element
        # of order 3
        (3, ActionSpec((1,), ((0, 2, 1),)), NotHomomorphism,
         "generator images are inconsistent at element 0"),
        (4, ActionSpec((2,), ((0, 1, 2),)), NotHomomorphism,
         "acting generators do not generate the acting group "
         "(element 1 unreachable)"),
        (2, ActionSpec((1,), ()), BadParameters,
         "acting_generators and automorphism_images differ in length"),
        (2, ActionSpec((), ()), BadParameters,
         "action must name at least one acting generator"),
        (2, ActionSpec((1,), ((0, 1, 1),)), NotAutomorphism,
         "image is not a permutation of 0..2"),
        (2, ActionSpec((1,), ((1, 0, 2),)), NotAutomorphism,
         "automorphism must fix the identity"),
    ])
    def test_semidirect_product_refuses_action(self, h_order, action, error,
                                               message):
        c3 = from_cayley_table(cyclic_table(3))
        h = from_cayley_table(cyclic_table(h_order))
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            semidirect_product(c3, h, action)

    @pytest.mark.parametrize("build,k,swap,cell", [
        (lambda: cyclic(8), 3, (5, 7), (1, 4)),
        (lambda: cyclic(8), 3, (2, 6), (1, 1)),
        (lambda: cyclic(8), 3, (4, 6), (1, 3)),
        (lambda: elementary(5, 2), 2, (7, 19), (1, 6)),
        (lambda: elementary(5, 2), 2, (23, 24), (1, 22)),
        (lambda: elementary(5, 2), 2, (3, 11), (1, 2)),
    ])
    def test_planted_non_automorphism_names_first_bad_cell(self, build, k,
                                                           swap, cell):
        # the power map x -> x^k with two images swapped fixes 0 and is a
        # bijection; the generator-set check rejects it, and the message
        # names the first bad cell of the whole product, as built and
        # through the gate (whose generating set differs)
        for n_grp in (build(), from_cayley_table(build().table)):
            img = [n_grp.power(x, k) for x in range(n_grp.order)]
            core._check_automorphism(n_grp, np.array(img, dtype=np.int32))
            u, v = swap
            img[u], img[v] = img[v], img[u]
            act = ActionSpec((1,), (tuple(img),))
            with pytest.raises(NotAutomorphism, match=re.escape(
                    f"map breaks the product at {cell}") + "$"):
                semidirect_product(n_grp, cyclic(2), act)

    @pytest.mark.parametrize("build, shown", [
        (lambda: cyclic(5, order_cap=10.5), "10.5"),
        (lambda: cyclic(5, order_cap=True), "True"),
        (lambda: from_cayley_table([[0]], order_cap="9"), "'9'"),
    ], ids=["float", "bool", "str"])
    def test_non_integer_order_cap_is_refused(self, build, shown):
        with pytest.raises(BadParameters) as info:
            build()
        assert str(info.value) == (
            f"the order cap needs an integer value, got {shown}")

    def test_order_cap_zero_is_refused(self):
        with pytest.raises(BadParameters,
                           match="^order cap must be positive, got 0$"):
            resolve_order_cap(0)

    @pytest.mark.parametrize("value,message", [
        ("abc", "CENT_ATLAS_ORDER_CAP must be an integer, got 'abc'"),
        ("0", "CENT_ATLAS_ORDER_CAP must be positive, got 0"),
        # int() reads each of these as a number; the cap takes ASCII digits
        *((text, f"CENT_ATLAS_ORDER_CAP must be an integer, got {text!r}")
          for text in ("1_000", " 64 ", "+64", "\u0664\u0660\u0669\u0666")),
    ])
    def test_bad_order_cap_variable_is_refused(self, monkeypatch, value,
                                               message):
        monkeypatch.setenv("CENT_ATLAS_ORDER_CAP", value)
        with pytest.raises(BadParameters, match=f"^{re.escape(message)}$"):
            resolve_order_cap()

    def test_no_permutation_generators(self):
        with pytest.raises(BadParameters, match="^at least one generator "
                           "permutation is required$"):
            from_permutation_generators([])

    def test_subgroup_without_identity(self):
        with pytest.raises(NotSubgroup,
                           match="^subgroup must contain the identity 0$"):
            check_subgroup(from_cayley_table(cyclic_table(4)), [2])
