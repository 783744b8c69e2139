"""Naive reference implementations used as independent test oracles.

Everything here works directly on a Cayley table as nested lists, with no
numpy and no shortcuts shared with the library code, except the dense
references at the end: whole-table numpy formulas, O(n^2) in time and
memory, fast enough to check the generator-based library code on groups
of order in the thousands, the whole-table validation gate and the
json-only group-file loader.  The last, ``canonical_rows``, reads one
chunk of the writer's table layout by regular expression and split.
"""

from __future__ import annotations

import json
import re
from itertools import combinations, product
from pathlib import Path

import numpy as np

from cent_atlas.core import (
    ActionSpec,
    Group,
    _check_order_cap,
    _element_orders,
    from_cayley_table,
    from_permutation_generators,
    semidirect_product,
)
from cent_atlas.errors import (
    BadGroupFile,
    BadParameters,
    NoIdentityAtZero,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
)
from cent_atlas.invariants import find_isomorphism


def center(table: list[list[int]]) -> list[int]:
    n = len(table)
    return [x for x in range(n)
            if all(table[x][y] == table[y][x] for y in range(n))]


def centralizers(table: list[list[int]]) -> list[frozenset[int]]:
    """C(x) for every x, in element order."""
    n = len(table)
    return [frozenset(y for y in range(n) if table[x][y] == table[y][x])
            for x in range(n)]


def centralizer_sets(table: list[list[int]]) -> set[frozenset[int]]:
    return set(centralizers(table))


def cent_count(table: list[list[int]]) -> int:
    return len(centralizer_sets(table))


def is_ca(table: list[list[int]]) -> bool:
    """Nonabelian, and every proper centralizer is pairwise commuting."""
    n = len(table)
    proper = [c for c in centralizer_sets(table) if len(c) < n]
    return bool(proper) and all(table[x][y] == table[y][x]
                                for c in proper for x in c for y in c)


def inverse(table: list[list[int]], x: int) -> int:
    return table[x].index(0)


def closure(table: list[list[int]], seeds) -> set[int]:
    """Smallest set containing 0 and the seeds that is closed under the
    table's product."""
    members = {0, *seeds}
    frontier = list(members)
    while frontier:
        nxt = []
        for a in frontier:
            for b in members.copy():
                for c in (table[a][b], table[b][a]):
                    if c not in members:
                        members.add(c)
                        nxt.append(c)
        frontier = nxt
    return members


def derived_subgroup(table: list[list[int]]) -> set[int]:
    n = len(table)
    gens = set()
    for x in range(n):
        for y in range(n):
            xi, yi = inverse(table, x), inverse(table, y)
            gens.add(table[table[xi][yi]][table[x][y]])
    return closure(table, gens)


def class_reps(table: list[list[int]]) -> list[int]:
    """Smallest member of each element's conjugacy class, element by element."""
    n = len(table)
    inv = [inverse(table, g) for g in range(n)]
    return [min(table[table[g][x]][inv[g]] for g in range(n))
            for x in range(n)]


def element_order(table: list[list[int]], x: int) -> int:
    k, cur = 1, x
    while cur != 0:
        cur = table[cur][x]
        k += 1
    return k


def omega(table: list[list[int]]) -> int:
    """Largest pairwise non-commuting set, by brute-force expansion."""
    n = len(table)
    zs = set(center(table))
    verts = [x for x in range(n) if x not in zs]
    if not verts:
        return 1
    best = 1

    def grow(chosen: list[int], rest: list[int]) -> None:
        nonlocal best
        best = max(best, len(chosen))
        for idx, v in enumerate(rest):
            if all(table[v][u] != table[u][v] for u in chosen):
                grow(chosen + [v], rest[idx + 1:])

    grow([], verts)
    return best


def max_clique(adj: list[list[bool]]) -> int:
    """Clique number of a graph given by an adjacency matrix, by growing
    every clique in increasing vertex order with no bound."""
    best = 0

    def grow(chosen: list[int], start: int) -> None:
        nonlocal best
        best = max(best, len(chosen))
        for v in range(start, len(adj)):
            if all(adj[v][u] for u in chosen):
                grow(chosen + [v], v + 1)

    grow([], 0)
    return best


def sylow_count(table: list[list[int]], p: int) -> int:
    """Number of distinct conjugates of one Sylow p-subgroup.

    The subgroup is grown greedily: an element joins when the closure
    stays a p-group, which cannot stall below full p-part size, since a
    p-subgroup that is not Sylow has a p-element of its normalizer
    outside it.
    """
    n = len(table)
    full = 1
    while n % (full * p) == 0:
        full *= p
    sub = {0}
    while len(sub) < full:
        for x in range(n):
            if x in sub:
                continue
            grown = closure(table, sub | {x})
            size = len(grown)
            while size % p == 0:
                size //= p
            if size == 1:
                sub = grown
                break
        else:
            raise AssertionError("p-subgroup growth stalled")
    return len({frozenset(table[table[x][s]][inverse(table, x)] for s in sub)
                for x in range(n)})


def normalizer(table: list[list[int]], sub) -> set[int]:
    """Elements x with x S x^-1 = S, conjugating every member of S."""
    sub = set(sub)
    return {x for x in range(len(table))
            if {table[table[x][s]][inverse(table, x)] for s in sub} == sub}


def solutions_of_power(table: list[list[int]], k: int) -> int:
    """Number of x with x^k equal to the identity."""
    count = 0
    for x in range(len(table)):
        cur = 0
        for _ in range(k):
            cur = table[cur][x]
        count += cur == 0
    return count


def is_associative(table: list[list[int]]) -> bool:
    n = len(table)
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def _prime_factors(n: int) -> list[int]:
    out, d, m = [], 2, n
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def squarefree_class_count(n: int) -> int:
    """Number of groups of squarefree order n, by the classical divisor
    formula: sum over d | n of prod over primes p | d of
    (p^c(p, n/d) - 1)/(p - 1), with c counting prime divisors of n/d
    congruent to 1 mod p."""
    total = 0
    for d in range(1, n + 1):
        if n % d:
            continue
        e = n // d
        term = 1
        for p in _prime_factors(d):
            c = sum(1 for r in _prime_factors(e) if r % p == 1)
            term *= (p ** c - 1) // (p - 1)
        total += term
    return total


def order_shapes(limit: int) -> dict[int, tuple[str, tuple[int, ...]]]:
    """Every n <= limit of shape pqr (p < q < r), p^2 q (p != q, p squared)
    or p^3, found by multiplying primes together rather than factoring n."""
    primes = [p for p in range(2, limit + 1)
              if all(p % d for d in range(2, p))]
    out: dict[int, tuple[str, tuple[int, ...]]] = {}
    for p in primes:
        if p ** 3 <= limit:
            out[p ** 3] = ("p3", (p,))
        for q in primes:
            if p * p * q <= limit and q != p:
                out[p * p * q] = ("p2q", (p, q))
            for r in primes:
                if p * q * r > limit:
                    break
                if p < q < r:
                    out[p * q * r] = ("pqr", (p, q, r))
    return out


def quotient_cosets(table: list[list[int]],
                    normal: list[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Cosets xN as sorted lists, numbered by smallest member, and the
    product table of the cosets, got by multiplying smallest members."""
    n = len(table)
    cosets = [list(c) for c in sorted(
        {tuple(sorted(table[x][k] for k in normal)) for x in range(n)})]
    where = {x: i for i, c in enumerate(cosets) for x in c}
    return cosets, [[where[table[a[0]][b[0]]] for b in cosets] for a in cosets]


def is_frobenius_complement(table: list[list[int]], sub: set[int]) -> bool:
    """Whether sub is a subgroup with 1 < |sub| < |G| and sub & sub^g = 1
    for every g outside sub."""
    n = len(table)
    if not 1 < len(sub) < n or closure(table, sub) != sub:
        return False
    for g in range(n):
        if g in sub:
            continue
        gi = inverse(table, g)
        if any(table[table[g][h]][gi] in sub for h in sub if h != 0):
            return False
    return True


def frobenius_kernel(table: list[list[int]], complement: set[int]) -> set[int]:
    """The identity together with every element in no conjugate of the
    complement."""
    n = len(table)
    covered = set()
    for g in range(n):
        gi = inverse(table, g)
        covered |= {table[table[g][h]][gi] for h in complement}
    return {0} | (set(range(n)) - covered)


def has_small_frobenius_complement(table: list[list[int]]) -> bool:
    """Whether some cyclic subgroup, or the join of two, is a Frobenius
    complement."""
    n = len(table)
    cyclics = {frozenset(closure(table, [x])) for x in range(1, n)}
    subs = cyclics | {frozenset(closure(table, a | b))
                      for a, b in combinations(cyclics, 2)}
    return any(is_frobenius_complement(table, set(s)) for s in subs)


def relabelled(table: list[list[int]], perm: list[int]) -> list[list[int]]:
    """The table with element x renamed perm[x]; perm fixes 0."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return out


def permutation_table(generators) -> list[list[int]]:
    """The Cayley table of the group the permutations generate, with
    (p*q)(x) = p(q(x)) and the elements numbered in breadth-first order
    of right multiplication by the generators from the identity, filled
    by composing every pair of elements."""
    gens = [tuple(g) for g in generators]
    elems = [tuple(range(len(gens[0])))]
    index = {elems[0]: 0}
    for cur in elems:
        for g in gens:
            nxt = tuple(cur[v] for v in g)
            if nxt not in index:
                index[nxt] = len(elems)
                elems.append(nxt)
    return [[index[tuple(p[v] for v in q)] for q in elems] for p in elems]


def semidirect_table(n_table: list[list[int]], h_table: list[list[int]],
                     theta: list[list[int]] | None = None) -> list[list[int]]:
    """N x| H cell by cell: (a, h1)(b, h2) = (a theta_h1(b), h1 h2), with
    the pair (a, h) at index a*|H| + h.  theta[h][b] is the image of b
    under h; None is the trivial action, the direct product."""
    nn, nh = len(n_table), len(h_table)
    out = [[0] * (nn * nh) for _ in range(nn * nh)]
    for a in range(nn):
        for h1 in range(nh):
            row = out[a * nh + h1]
            for b in range(nn):
                tb = b if theta is None else theta[h1][b]
                for h2 in range(nh):
                    row[b * nh + h2] = n_table[a][tb] * nh + h_table[h1][h2]
    return out


def p2q_split_extensions(p: int, q: int) -> list[Group]:
    """One group per isomorphism class of order p^2 q, by Burnside
    (*Theory of Groups of Finite Order*, 2nd ed., 1911): every group of
    that order has a normal Sylow subgroup, and its complement splits off
    as the orders are coprime.  So each is P : C_q for P in
    {C_(p^2), C_p x C_p} and an automorphism of P of order dividing q, or
    C_q : K for K in {C_(p^2), C_p x C_p} and a homomorphism
    K -> (Z/q)^x.  Every such action is built with ``semidirect_product``
    on tables written here; ``find_isomorphism`` keeps the first of each
    class."""
    def cyclic(m):
        return from_cayley_table([[(x + y) % m for y in range(m)]
                                  for x in range(m)])

    pairs = [(x, y) for x in range(p) for y in range(p)]  # (x, y) at x p + y
    cp2 = from_cayley_table([[(a + c) % p * p + (b + d) % p for c, d in pairs]
                             for a, b in pairs])
    cq, cp_sq = cyclic(q), cyclic(p * p)

    def power(m, e):  # the 2x2 matrix m = (a, b, c, d) to the e-th, mod p
        out = (1, 0, 0, 1)
        for _ in range(e):
            a, b, c, d = out
            out = tuple(v % p for v in (a * m[0] + b * m[2], a * m[1] + b * m[3],
                                        c * m[0] + d * m[2], c * m[1] + d * m[3]))
        return out

    # (N, H, [(generator of H, image of N's elements under it), ...])
    actions = [(cp_sq, cq, [(1, [u * x % (p * p) for x in range(p * p)])])
               for u in range(p * p)
               if u % p and pow(u, q, p * p) == 1]
    actions += [(cp2, cq, [(1, [(a * x + b * y) % p * p + (c * x + d * y) % p
                                for x, y in pairs])])
                for a, b, c, d in product(range(p), repeat=4)
                if power((a, b, c, d), q) == (1, 0, 0, 1)]

    def scale(u):  # z -> u z on C_q
        return [u * z % q for z in range(q)]

    actions += [(cq, cp_sq, [(1, scale(u))])
                for u in range(1, q) if pow(u, p * p, q) == 1]
    units = [u for u in range(1, q) if pow(u, p, q) == 1]
    actions += [(cq, cp2, [(p, scale(u)), (1, scale(v))])
                for u in units for v in units]
    reps: list[Group] = []
    for n_grp, h_grp, images in actions:
        g = semidirect_product(n_grp, h_grp, ActionSpec.from_pairs(images))
        if all(find_isomorphism(g, h) is None for h in reps):
            reps.append(g)
    return reps


def is_isomorphism(g_table: list[list[int]], h_table: list[list[int]],
                   phi: list[int]) -> bool:
    """phi is a bijection onto h with phi(xy) = phi(x) phi(y) for every
    pair x, y."""
    n = len(g_table)
    if len(h_table) != n or sorted(phi) != list(range(n)):
        return False
    return all(phi[g_table[x][y]] == h_table[phi[x]][phi[y]]
               for x in range(n) for y in range(n))


# Dense references on a numpy table, each touching all n^2 cells.

def dense_inverse(table: np.ndarray) -> np.ndarray:
    return np.argmax(table == 0, axis=1)


def dense_class_reps(table: np.ndarray) -> np.ndarray:
    """Smallest member of each class, from the n x n table of conjugates
    g x g^-1."""
    return table[table, dense_inverse(table)[:, None]].min(axis=0)


def dense_closure(table: np.ndarray, member: np.ndarray) -> np.ndarray:
    """The flags ``member`` closed by multiplying all members together
    until nothing is new: the magma closure, with no shortcut."""
    while True:
        idx = np.flatnonzero(member)
        grown = member.copy()
        grown[table[np.ix_(idx, idx)]] = True
        if (grown == member).all():
            return member
        member = grown


def dense_derived_subgroup(table: np.ndarray) -> np.ndarray:
    """Flags of the subgroup generated by the whole commutator table."""
    inv = dense_inverse(table)
    member = np.zeros(len(table), dtype=bool)
    member[table[table[np.ix_(inv, inv)], table]] = True
    return dense_closure(table, member)


def greedy_generators(table: np.ndarray) -> list[int]:
    """The smallest element outside the magma closure of the identity and
    the elements chosen before it, until that closure is everything."""
    member = np.arange(len(table)) == 0
    gens = []
    while not member.all():
        gens.append(int(np.argmin(member)))
        member[gens[-1]] = True
        member = dense_closure(table, member)
    return gens


def dense_centralizer_sizes(table: np.ndarray) -> np.ndarray:
    """Row sums of the commuting matrix."""
    return np.equal(table, table.T).sum(axis=1)


def dense_from_cayley_table(table, label: str | None = None,
                            order_cap: int | None = None) -> Group:
    """The validation gate as whole-table checks: n x n flag scatters for
    the Latin property, an n x n comparison for inverses and two n x n
    products per generator for Light's test.  The library's blocked gate
    must return the same Group or raise the same error with the same
    message."""
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise BadParameters(
            f"table must be a nonempty square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    _check_order_cap(n, order_cap)
    if arr.dtype.kind not in "iu":
        raise NotLatinSquare(
            f"table entries must be integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() >= n:
        bad = np.argwhere((arr < 0) | (arr >= n))[0]
        raise NotLatinSquare(
            f"entry at ({int(bad[0])}, {int(bad[1])}) is "
            f"{int(arr[bad[0], bad[1]])}, outside 0..{n - 1}")
    arr = arr.astype(np.int32)
    idx = np.arange(n, dtype=np.int32)
    if not np.array_equal(arr[0], idx):
        j = int(np.flatnonzero(arr[0] != idx)[0])
        raise NoIdentityAtZero(f"0*{j} = {int(arr[0, j])}, expected {j}")
    if not np.array_equal(arr[:, 0], idx):
        i = int(np.flatnonzero(arr[:, 0] != idx)[0])
        raise NoIdentityAtZero(f"{i}*0 = {int(arr[i, 0])}, expected {i}")
    seen = np.zeros((n, n), dtype=bool)
    seen[idx[:, None], arr] = True
    if not seen.all():
        i = int(np.flatnonzero(~seen.all(axis=1))[0])
        raise NotLatinSquare(f"row {i} is not a permutation of 0..{n - 1}")
    seen[:] = False
    seen[idx[:, None], arr.T] = True
    if not seen.all():
        j = int(np.flatnonzero(~seen.all(axis=1))[0])
        raise NotLatinSquare(f"column {j} is not a permutation of 0..{n - 1}")
    right_inv = np.argmax(arr == 0, axis=1).astype(np.int32)
    if not np.array_equal(arr[right_inv, idx], np.zeros(n, dtype=np.int32)):
        i = int(np.flatnonzero(arr[right_inv, idx] != 0)[0])
        raise NoInverse(f"element {i} has no two-sided inverse")
    for s in greedy_generators(arr):
        lhs = arr[arr[:, s], :]
        rhs = np.take(arr, arr[s], axis=1)
        if not np.array_equal(lhs, rhs):
            x, y = np.argwhere(lhs != rhs)[0]
            raise NotAssociative(
                f"associativity fails at triple ({int(x)}, {s}, {int(y)}): "
                f"({int(x)}*{s})*{int(y)} = {int(lhs[x, y])} but "
                f"{int(x)}*({s}*{int(y)}) = {int(rhs[x, y])}")
    arr.setflags(write=False)
    return Group(arr, right_inv, _element_orders(arr), label)


# The group-file loader through json.loads alone, with no canonical-layout
# fast path: the library's loader must agree with it on every file.

def read_group_file_json(path, order_cap: int | None = None) -> Group:
    try:
        text = Path(path).read_text(encoding="utf-8")
        raw = json.loads(text)
    except ValueError as exc:  # decode errors and json.loads' int limit
        raise BadGroupFile(f"{path}: {exc}") from exc
    maybe_bool = "true" in text or "false" in text
    del text
    if not isinstance(raw, dict):
        raise BadParameters(f"{path}: expected a JSON object")
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise BadGroupFile(
            f"{path}: field 'label' must be a string or null, got {label!r}")
    if "table" in raw:
        if maybe_bool and any(
                type(v) is bool
                for v in np.asarray(raw["table"], dtype=object).flat):
            raise BadGroupFile(f"{path}: field 'table' has a boolean entry")
        try:
            g = from_cayley_table(raw["table"], label=label or "",
                                  order_cap=order_cap)
        except NotLatinSquare as exc:  # a ragged table names the field
            ragged = str(exc).removeprefix("table is ragged")
            if ragged == str(exc):
                raise
            raise BadGroupFile(
                f"{path}: field 'table' is ragged{ragged}") from None
        order = raw.get("order")
        if order is not None and (type(order) is not int or order != g.order):
            raise BadGroupFile(f"{path}: field 'order' is {order!r} but the "
                               f"table has {g.order} rows")
        return g
    if "generators" in raw:
        gens = raw["generators"]
        if not isinstance(gens, list) or not all(
                isinstance(p, list) for p in gens):
            raise BadGroupFile(
                f"{path}: field 'generators' must be a list of lists")
        gens = [tuple(p) for p in gens]
        degree = raw.get("degree")
        if degree is not None and type(degree) is not int:
            raise BadGroupFile(
                f"{path}: field 'degree' must be an integer, got {degree!r}")
        if degree is not None and any(len(p) != degree for p in gens):
            raise BadParameters(
                f"{path}: generator length disagrees with degree {degree}")
        return from_permutation_generators(gens, label=label or "",
                                           order_cap=order_cap)
    raise BadParameters(f"{path}: neither a group nor a permutation file")


# One chunk of the canonical table layout by regular expression and split:
# the group-file fast path's chunk parse must agree with it on every chunk.

_CANONICAL_TOKEN = re.compile(rb"0|[1-9][0-9]{0,8}")


def canonical_rows(chunk: bytes) -> list[list[int]] | None:
    """The rows of ``chunk`` as lists of ints if it is k >= 1 rows of the
    same number n >= 1 of tokens ``0|[1-9][0-9]{0,8}``, the tokens of a row
    joined by ``,`` and the rows by ``],[``; else None."""
    rows = [row.split(b",") for row in chunk.split(b"],[")]
    if any(len(row) != len(rows[0]) for row in rows) or not all(
            _CANONICAL_TOKEN.fullmatch(token)
            for row in rows for token in row):
        return None
    return [[int(token) for token in row] for row in rows]
