"""Constructors for named group families and complete isomorphism-class
lists for orders pqr (distinct primes), p^2 q, and p^3.

Builders return :class:`~cent_atlas.core.Group` values with systematic
labels.  Metacyclic, dihedral and dicyclic groups share one presentation
law, <a, b | a^m = 1, b^n = a^s, b^-1 a b = a^k> on a^x b^y at index x + m y.
These and the other closed-form families (cyclic, Heisenberg, SL(2,3))
check their parameters and the order cap, then wrap their tables without
the Cayley-table gate; a tier-1 test rebuilds each through the gate.
Abelian groups have one builder, ``abelian``, a chain of direct products
of cyclic groups; ``elementary`` is its C_p^k, relabelled.  The covers and
the (C_p x C_p) : C_q classes are N : C_k products, built by one helper
from the matrix of the acting generator on ``abelian``'s coordinates.
The public builders made of parts (``abelian``, ``witness_h``,
``heisenberg_cover``) check the cap on the order of the group they
return before they build a part, so a refusal names that order.

One order's classes are ``groups_of_covered_order(n)``, for n of shape
pqr, p^2 q or p^3.  The catalog has one source per order:
``_order_groups(n)`` yields the groups of order n one at a time, for a
covered n the abelian classes (``_abelian_classes``) and then the
nonabelian ones (``_nonabelian_classes``), then the named extras of
order n, which lie outside the covered shapes.  The classification
lists, ``catalog_orders`` and the claims' catalog and classification
sweeps all read it, so a sweep holds one group at a time; a sweep over
nonabelian groups reads only the second generator, so it builds no
abelian class; ``_nonabelian_makers`` lists those classes without
building them.  The sweeps list their orders first, through
``_capped_orders``, which checks the orders each one builds against the
cap as it reaches it, so a sweep past the cap is refused before a group
is built.  Tests confirm the classification lists are pairwise
non-isomorphic for every covered order up to 500 and, at small orders,
match an independent exhaustive enumerator."""

from __future__ import annotations

from functools import partial
from math import gcd, prod
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import (
    ActionSpec,
    Group,
    _CELL,
    _check_order_cap,
    _row_blocks,
    _trusted,
    direct_product,
    from_permutation_generators,
    semidirect_product,
)
from .errors import BadParameters, NoInstanceAvailable
from .invariants import center
from .numbers import _SHAPES, _integer, crt, is_prime, order_shape, unit_of_order

__all__ = [
    "FAMILIES",
    "abelian",
    "alternating",
    "build",
    "catalog_by_order",
    "catalog_orders",
    "catalog_up_to",
    "central_quotient_examples",
    "covered_orders",
    "cyclic",
    "dicyclic",
    "dihedral",
    "elementary",
    "groups_of_covered_order",
    "heisenberg",
    "heisenberg_cover",
    "metacyclic",
    "modular_p3",
    "sl23",
    "symmetric",
    "unit_of_order",
    "witness_exponents",
    "witness_h",
]


def _require_prime(value: int, name: str) -> None:
    if not is_prime(value):
        raise BadParameters(f"{name} = {value} must be prime")


def _windows(cells: np.ndarray) -> np.ndarray:
    """The n x n view, for 2n - 1 contiguous ``cells``, whose row i is
    cells[i:i + n]: no copy, and no arithmetic per cell."""
    n = (len(cells) + 1) // 2
    return np.ndarray((n, n), cells.dtype, cells, 0, cells.strides * 2)


def cyclic(n: int, order_cap: int | None = None) -> Group:
    n = _integer(n, "cyclic", "n")
    if n < 1:
        raise BadParameters(f"cyclic order must be positive, got {n}")
    _check_order_cap(n, order_cap)
    x = np.arange(n, dtype=np.int32)
    # row x is x, x + 1, ..., n - 1, 0, ..., x - 1, which _trusted copies
    table = _windows(np.concatenate([x, x[:-1]]).astype(_CELL))
    # -x, the order n / gcd(x, n), and the generator 1 (none for n = 1)
    return _trusted(table, f"C{n}", (-x) % n, n // np.gcd(x, n), x[1:2])


def abelian(factors: tuple[int, ...], order_cap: int | None = None) -> Group:
    """Direct product of cyclic groups of the given orders.  An element's
    coordinates are its digits in the mixed radix ``factors``, the first
    the most significant: ``np.unravel_index(x, factors)``."""
    _check_order_cap(prod(factors), order_cap)
    if not factors:
        return cyclic(1, order_cap=order_cap)
    g = cyclic(factors[0], order_cap=order_cap)
    for n in factors[1:]:
        g = direct_product(g, cyclic(n, order_cap=order_cap), order_cap=order_cap)
    return g


def elementary(p: int, k: int, order_cap: int | None = None) -> Group:
    """C_p^k: :func:`abelian` of k factors p, relabelled."""
    p, k = _integer(p, "elementary", "p"), _integer(k, "elementary", "k")
    _require_prime(p, "p")
    if k < 1:
        raise BadParameters(f"rank must be positive, got {k}")
    return abelian((p,) * k, order_cap=order_cap).relabeled(f"C{p}^{k}")


def dihedral(order: int, order_cap: int | None = None) -> Group:
    """Dihedral group of the given (even) order: rotations and reflections."""
    order = _integer(order, "dihedral", "order")
    if order < 2 or order % 2:
        raise BadParameters(f"dihedral order must be even and >= 2, got {order}")
    return _presented(order // 2, 2, -1, 0, f"D{order}", order_cap)


def dicyclic(order: int, order_cap: int | None = None) -> Group:
    """Dicyclic group of the given order (divisible by 4); the generalized
    quaternion group when the order is a power of 2."""
    order = _integer(order, "dicyclic", "order")
    if order < 8 or order % 4:
        raise BadParameters(f"dicyclic order must be a multiple of 4 and >= 8, got {order}")
    label = f"Q{order}" if order & (order - 1) == 0 else f"Dic{order}"
    return _presented(order // 2, 2, -1, order // 4, label, order_cap)


def symmetric(n: int, order_cap: int | None = None) -> Group:
    n = _integer(n, "symmetric", "n")
    if n < 1:
        raise BadParameters(f"degree must be positive, got {n}")
    if n == 1:
        return cyclic(1, order_cap=order_cap).relabeled("S1")
    cycle = tuple(range(1, n)) + (0,)
    swap = (1, 0) + tuple(range(2, n))
    g = from_permutation_generators([swap, cycle], label=f"S{n}", order_cap=order_cap)
    return g


def alternating(n: int, order_cap: int | None = None) -> Group:
    n = _integer(n, "alternating", "n")
    if n < 3:
        raise BadParameters(f"degree must be at least 3, got {n}")
    three = (1, 2, 0) + tuple(range(3, n))
    if n % 2:
        big = tuple(range(1, n)) + (0,)
    else:
        big = (0,) + tuple(range(2, n)) + (1,)
    gens = [three] if n == 3 else [three, big]
    return from_permutation_generators(gens, label=f"A{n}", order_cap=order_cap)


def _presented(m: int, n: int, k: int, s: int, label: str,
               order_cap: int | None) -> Group:
    """Group <a, b | a^m = 1, b^n = a^s, b^-1 a b = a^k> on a^x b^y at
    index x + m y; the caller checks k^n = 1 and a^s central (mod m).

    The table is written in place, a ``_row_blocks`` run of its rows at a
    time, each cell the sum of its a and b parts, formed in int32 and
    narrowed once each is below m n.  The b parts of row y, and the a^s
    of the products that wrap past b^n, are row y of ``_windows`` over
    2n - 1 values, so the working memory beyond the table is one block
    and O(n).  Inverses and element orders come in closed form, in O(n)
    and with no pass over the table.
    With t = k^-1 (mod m), b a b^-1 = a^t, and a^s is central, so
    s t = s (mod m), and t^n = 1:

    - the inverse of a^x b^y is a^-x for y = 0, and otherwise
      a^(-s - x t^(n-y)) b^(n-y), since a^x b^y a^u b^(n-y) = a^(x + u t^y + s);
    - with g = gcd(y, n) and d = n / g, the least power of a^x b^y in
      <a> is the d-th, (a^x b^y)^d = a^(x S_g + s y / g), where the b part
      wraps past b^n y / g times and S_g = sum of t^(j g) over j < d, as
      the exponents j y for j < d run over the multiples of g mod n.  So
      |a^x b^y| = d m / gcd(x S_g + s y / g, m).
    """
    _check_order_cap(m * n, order_cap)
    # a^x b^y * a^u b^v = a^(x + u t^y) b^(y+v)
    t = pow(k, -1, m)
    table = np.empty((m * n, m * n), dtype=_CELL)
    by_col = table.reshape(m * n, n, m)  # row x + m y, column (v, u)
    x = np.arange(m, dtype=np.int32)
    y = np.arange(n, dtype=np.int32)
    t_y = np.array([pow(t, e, m) for e in range(n)], dtype=np.int64)[:, None]
    x64, g = x.astype(np.int64), np.gcd(y, n)[:, None]
    inverse = -(x64 * t_y[-y] + s * (y > 0)[:, None]) % m + m * (-y[:, None] % n)
    s_g = np.array([t_y[::e].sum() for e in g.ravel().tolist()])[:, None]
    orders = n // g * m // np.gcd(x64 * s_g + s * (y[:, None] // g), m)
    row_y, row_x = np.divmod(np.arange(m * n, dtype=np.int32), m)
    t_row = t_y[row_y].astype(np.int32)  # t^y of each row, below m
    # b^(y+v) = a^s b^(y+v-n) where y + v wraps past n; each part, and
    # the cell they add up to, is below m n, so they add in _CELL
    b_part = _windows((m * np.concatenate([y, y[:-1]])).astype(_CELL))
    a_s = _windows(np.repeat(np.int32([0, s]), [n, n - 1]))
    for rows in _row_blocks(m * n, m * n):
        a_exp = x * t_row[rows]  # u t^y < m^2 <= 2^30, then x + u t^y
        a_exp += row_x[rows, None]
        a_exp %= m
        a_exp = a_exp[:, None, :]
        if s:
            a_exp = (a_exp + a_s[row_y[rows], :, None]) % m
        np.add(a_exp.astype(_CELL), b_part[row_y[rows], :, None],
               out=by_col[rows])
    # a at 1 and b at m: the indices in {1, m} below the order generate,
    # also when m = 1 or n = 1 makes a or b trivial
    return _trusted(table, label, inverse.ravel(), orders.ravel(),
                    [e for e in sorted({1, m}) if e < m * n])


def metacyclic(m: int, n: int, k: int, order_cap: int | None = None,
               label: str | None = None) -> Group:
    """Group <a, b | a^m = b^n = 1, b^-1 a b = a^k>; needs k^n = 1 (mod m)."""
    m, n, k = (_integer(v, "metacyclic", name) for v, name in zip((m, n, k), "mnk"))
    if m < 1 or n < 1:
        raise BadParameters(f"orders must be positive, got m={m}, n={n}")
    if gcd(k, m) != 1:
        raise BadParameters(f"k = {k} must be coprime to m = {m}")
    if pow(k, n, m) != 1 % m:
        raise BadParameters(f"k^n = 1 (mod m) fails: {k}^{n} != 1 (mod {m})")
    return _presented(m, n, k, 0, label or f"C{m}:C{n}({k})", order_cap)


def heisenberg(p: int, order_cap: int | None = None) -> Group:
    """Unitriangular 3x3 group over the p-element field; exponent p for odd p."""
    p = _integer(p, "heisenberg", "p")
    _require_prime(p, "p")
    n = p ** 3
    _check_order_cap(n, order_cap)
    table = np.empty((n, n), dtype=_CELL)
    d = np.arange(p, dtype=np.int32)
    a1, b1, c1, a2, b2, c2 = [d.reshape([p if i == j else 1 for i in range(6)])
                              for j in range(6)]
    # (a, b, c) at a p^2 + b p + c; (0, 1, 0) = p and (0, 0, 1) = 1 generate
    # modulo the center, and their commutator (1, 0, 0) generates the center
    np.add((a1 + a2 + b1 * c2) % p * p ** 2 + (b1 + b2) % p * p, (c1 + c2) % p,
           out=table.reshape((p,) * 6))
    return _trusted(table, f"Heis({p})", gens=(1, p))


def modular_p3(p: int, order_cap: int | None = None) -> Group:
    """Nonabelian group of order p^3 and exponent p^2, for odd p."""
    p = _integer(p, "modular_p3", "p")
    _require_prime(p, "p")
    if p == 2:
        raise BadParameters("p must be odd (the order-8 relatives are D8 and Q8)")
    return metacyclic(p * p, p, 1 + p, order_cap=order_cap, label=f"M{p ** 3}")


def sl23(order_cap: int | None = None) -> Group:
    """SL(2,3): the 2x2 matrices over the 3-element field of determinant 1.

    [[a, b], [c, d]] has the base-3 code 27a + 9b + 3c + d; the elements
    are the identity (code 28), then the other matrices by ascending code.
    """
    _check_order_cap(24, order_cap)
    entries = np.array(np.unravel_index(np.arange(81), (3, 3, 3, 3)))
    a, b, c, d = entries
    codes = np.flatnonzero((a * d - b * c) % 3 == 1)
    codes = codes[np.argsort(codes != 28, kind="stable")]
    index = np.empty(81, dtype=_CELL)
    index[codes] = np.arange(codes.size)
    mats = entries.T[codes].reshape(-1, 2, 2)
    prods = np.einsum("iab,jbc->ijac", mats, mats) % 3
    return _trusted(index[prods.reshape(24, 24, 4) @ (27, 9, 3, 1)], "SL(2,3)")


def _linear(moduli: tuple[int, ...], matrix, k: int, label: str,
            order_cap: int | None) -> Group:
    """abelian(moduli) : C_k, the generator 1 of C_k acting by ``matrix``
    on the coordinates of :func:`abelian`, row i taken mod moduli[i]."""
    base = abelian(moduli, order_cap=order_cap)
    coords = np.array(np.unravel_index(np.arange(base.order), moduli))
    mods = np.array(moduli)[:, None]
    img = np.ravel_multi_index(np.array(matrix) @ coords % mods, moduli)
    act = ActionSpec.from_pairs([(1, img.tolist())])
    return semidirect_product(base, cyclic(k, order_cap=order_cap), act,
                              label=label, order_cap=order_cap)


def witness_h(p: int, q: int, i: int, order_cap: int | None = None) -> Group:
    """Group of order p^3 q whose central quotient is C_p x (C_q : C_p).

    Realized as (C_p x C_p x C_q) : C_p where the acting generator fixes a,
    sends b to ab, and raises d to the i-th power: (x, y, z) -> (x + y, y, iz).
    """
    p, q, i = (_integer(v, "witness_h", name) for v, name in zip((p, q, i), "pqi"))
    _require_prime(p, "p")
    _require_prime(q, "q")
    if q % p != 1:
        raise BadParameters(f"q = 1 (mod p) fails: {q} != 1 (mod {p})")
    if pow(i, p, q) != 1:
        raise BadParameters(f"i^p = 1 (mod q) fails: {i}^{p} != 1 (mod {q})")
    if i % q == 1:
        raise BadParameters(f"i = {i} must not be 1 (mod q)")
    _check_order_cap(p ** 3 * q, order_cap)
    return _linear((p, p, q), [[1, 1, 0], [0, 1, 0], [0, 0, i]], p,
                   f"H({p},{q},{i})", order_cap)


def heisenberg_cover(p: int, order_cap: int | None = None) -> Group:
    """Group of order p^4 (odd p) whose central quotient is Heis(p).

    A single-Jordan-block action of C_p on C_p x C_p x C_p:
    (x, y, z) -> (x, x + y, y + z).
    """
    p = _integer(p, "heisenberg_cover", "p")
    _require_prime(p, "p")
    if p == 2:
        raise BadParameters("p must be odd (use D16 for covers of D8)")
    _check_order_cap(p ** 4, order_cap)
    return _linear((p, p, p), [[1, 0, 0], [1, 1, 0], [0, 1, 1]], p,
                   f"W({p})", order_cap)


# family name -> (builder, the parameters it takes, in call order); the
# one statement of the family parameters, read by build() and the CLI's
# construct flags.
FAMILIES: dict[str, tuple[Callable[..., Group], tuple[str, ...]]] = {
    "cyclic": (cyclic, ("n",)),
    "dihedral": (dihedral, ("n",)),
    "dicyclic": (dicyclic, ("n",)),
    "symmetric": (symmetric, ("n",)),
    "alternating": (alternating, ("n",)),
    "metacyclic": (metacyclic, ("m", "n", "k")),
    "heisenberg": (heisenberg, ("p",)),
    "modular-p3": (modular_p3, ("p",)),
    "elementary": (elementary, ("p", "k")),
    "witness-h": (witness_h, ("p", "q", "i")),
    "sl23": (sl23, ()),
}


def build(family: str, *, order_cap: int | None = None,
          **params: int | None) -> Group:
    """The :data:`FAMILIES` group ``family`` with integer ``params``, e.g.
    ``build("dihedral", n=10)``; a parameter given as None counts as not
    given.  BadParameters names an unknown family, a parameter the family
    does not take (rather than ignore it), one it needs and lacks, or one
    that is a bool or not an integer (no ``__index__``, as a float or a
    str); numpy integers are accepted and passed on as ints."""
    if family not in FAMILIES:
        raise BadParameters(f"unknown family {family!r}")
    builder, names = FAMILIES[family]
    extra = [name for name, v in params.items() if name not in names and v is not None]
    if extra:
        takes = " ".join(f"--{name}" for name in names) or "no parameters"
        raise BadParameters(f"family {family!r} takes {takes}, not --{extra[0]}")
    args = []
    for name in names:
        v = params.get(name)
        if v is None:
            raise BadParameters(f"family {family!r} needs --{name}")
        args.append(_integer(v, f"family {family!r}", f"--{name}"))
    return builder(*args, order_cap=order_cap)


def groups_of_covered_order(n: int, order_cap: int | None = None) -> list[Group]:
    """One representative per isomorphism class of order n, of shape pqr,
    p^2 q or p^3: the abelian classes first, then the nonabelian ones."""
    if order_shape(n) is None:
        raise BadParameters(f"order {n} is not of shape pqr, p^2 q, or p^3")
    return list(_order_groups(n, order_cap))


def _order_groups(n: int, order_cap: int | None = None) -> Iterator[Group]:
    """The catalog's groups of order n, built one at a time: for a covered
    n the abelian classes and then the nonabelian ones, then the named
    extras of order n, if any (none lies at a covered order)."""
    if order_shape(n) is not None:
        yield from _abelian_classes(n, order_cap)
        yield from _nonabelian_classes(n, order_cap)
    if n in _NAMED_EXTRAS:
        yield from _NAMED_EXTRAS[n](order_cap)


def _abelian_classes(n: int, order_cap: int | None = None) -> Iterator[Group]:
    """The abelian classes of the covered order n, built one at a time."""
    kind, (p, *_) = order_shape(n)
    yield cyclic(n, order_cap=order_cap)
    if kind == "p2q":
        yield abelian((p, n // p), order_cap=order_cap)
    elif kind == "p3":
        yield abelian((p * p, p), order_cap=order_cap)
        yield elementary(p, 3, order_cap=order_cap)


def _nonabelian_classes(n: int, order_cap: int | None = None) -> Iterator[Group]:
    """The nonabelian classes of the covered order n, built one at a time."""
    return (make(order_cap=order_cap) for make in _nonabelian_makers(n))


def _nonabelian_makers(n: int) -> Iterator[Callable[..., Group]]:
    """One builder call per nonabelian class of the covered order n, in
    catalog order, each waiting for its ``order_cap``; listing them builds
    nothing."""
    kind, primes = order_shape(n)
    if kind == "pqr":
        p, q, r = primes
        # C_m : C_(n/m), the generator acting by a unit of order d mod m
        for d, m in ((p, q), (p, r), (q, r), (p * q, r)):
            if m % d == 1:
                yield partial(metacyclic, m, n // m, unit_of_order(d, m))
        if q % p == 1 and r % p == 1:
            u = unit_of_order(p, q)
            v = unit_of_order(p, r)
            # one class per power pairing (u, v^j); normalizing the q-component
            # to u leaves no further identification
            for j in range(1, p):
                c = crt(u, q, pow(v, j, r), r)
                yield partial(metacyclic, q * r, p, c)
    elif kind == "p2q":
        p, q = primes
        if q % p == 1:
            yield partial(metacyclic, q, p * p, unit_of_order(p, q))
            yield partial(_cp_x_cq_cp, p, q)
        if q % (p * p) == 1:
            yield partial(metacyclic, q, p * p, unit_of_order(p * p, q))
        if p % q == 1:
            yield partial(metacyclic, p * p, q, unit_of_order(q, p * p))
            lam = unit_of_order(q, p)
            # diagonal actions diag(lam, lam^b); swapping coordinates identifies
            # exponent b with its inverse mod q
            reps = sorted({0, 1} | {min(b, pow(b, -1, q)) for b in range(2, q)})
            for b in reps:
                yield partial(_diagonal_p2q, p, q, lam, b)
        if q % 2 == 1 and (p + 1) % q == 0 and (p - 1) % q != 0:
            yield partial(_irreducible_p2q, p, q)
    elif primes == (2,):  # order 8
        yield partial(dihedral, 8)
        yield partial(dicyclic, 8)
    else:  # order p^3, p odd
        (p,) = primes
        yield partial(heisenberg, p)
        yield partial(modular_p3, p)


def _cp_x_cq_cp(p: int, q: int, order_cap: int | None = None) -> Group:
    """C_p x (C_q : C_p), for q = 1 (mod p): the one capable class of order
    p^2 q with nontrivial center."""
    return direct_product(
        cyclic(p, order_cap=order_cap),
        metacyclic(q, p, unit_of_order(p, q), order_cap=order_cap),
        order_cap=order_cap)


def _diagonal_p2q(p: int, q: int, lam: int, b: int,
                  order_cap: int | None = None) -> Group:
    return _linear((p, p), np.diag([pow(lam, b, p), lam]), q,
                   f"(C{p}xC{p}):C{q}[{b}]", order_cap)


def _irreducible_p2q(p: int, q: int, order_cap: int | None = None) -> Group:
    _check_order_cap(p * p * q, order_cap)
    for t in range(p):
        # a companion matrix, (x, y) -> (t x + y, -x); q is prime and the
        # matrix is not the identity, so M^q = I (mod p) means order q
        matrix = power = np.array([[t, 1], [-1, 0]])
        for _ in range(q - 1):
            power = power @ matrix % p
        if (power == np.eye(2)).all():
            return _linear((p, p), matrix, q, f"(C{p}xC{p}):C{q}", order_cap)
    raise BadParameters(f"no order-{q} companion matrix over F_{p}")


def central_quotient_examples(kind: str, primes: tuple[int, ...],
                              order_cap: int | None = None) -> list[Group]:
    """Curated groups G whose central quotient has the requested order shape.

    Trivial-center groups of the target order stand as their own instances;
    doubling by C2 and the named covers supply instances with nontrivial
    center.  Every instance is checked against the shape before it is
    returned.
    """
    # the exponent of each given prime in the order of G/Z(G); "pq2" is
    # the p2q shape with the squared prime given last
    exps = _SHAPES["p2q"][::-1] if kind == "pq2" else _SHAPES.get(kind)
    if exps is None:
        raise BadParameters(f"unknown shape kind {kind!r}")
    if len(primes) != len(exps):
        raise BadParameters(
            f"shape {kind!r} needs {len(exps)} primes, got {len(primes)}")
    for v in primes:
        _require_prime(_integer(v, "central_quotient_examples", "prime"), "prime")
    if len(set(primes)) != len(primes):
        raise BadParameters(f"shape {kind!r} needs distinct primes, got {primes}")
    target = prod(p ** e for p, e in zip(primes, exps))

    out: list[Group] = []
    # abelian groups and groups of order p^3 have nontrivial center: none
    # is its own instance
    members = () if kind == "p3" else _nonabelian_classes(target, order_cap)
    for g in members:
        if len(center(g)) == 1:
            out.append(g)
            out.append(_c2_times(g, order_cap))

    if kind == "p2q":
        p, q = primes
        if q % p == 1:
            for i in witness_exponents(p, q):
                out.append(witness_h(p, q, i, order_cap=order_cap))
        if p == 2:
            out.append(dihedral(8 * q, order_cap=order_cap))
            out.append(dicyclic(8 * q, order_cap=order_cap))
        if (p, q) == (2, 3):
            out.append(sl23(order_cap=order_cap))
    elif kind == "pq2":
        p, q = primes
        if p == 2:
            out.append(dihedral(4 * q * q, order_cap=order_cap))
    elif kind == "p3":
        p = primes[0]
        if p == 2:
            out.append(dihedral(16, order_cap=order_cap))
            out.append(metacyclic(8, 2, 3, order_cap=order_cap, label="SD16"))
            out.append(dicyclic(16, order_cap=order_cap))
        else:
            out.append(heisenberg_cover(p, order_cap=order_cap))

    if not out:
        raise NoInstanceAvailable(
            f"no curated group has central quotient of shape {kind} {primes}")
    for g in out:
        got = g.order // len(center(g))
        if got != target:
            raise BadParameters(
                f"curated instance {g.label} has central quotient of order "
                f"{got}, expected {target}")
    return out


def witness_exponents(p: int, q: int) -> list[int]:
    """Every i in 2..q-1 with i^p = 1 (mod q): the valid witness_h exponents."""
    return [i for i in range(2, q) if pow(i, p, q) == 1]


def covered_orders(max_order: int) -> dict[int, tuple[str, tuple[int, ...]]]:
    """Orders up to max_order that the classification lists cover, each
    with its :func:`~cent_atlas.numbers.order_shape`, in ascending order.
    Every catalog view and order sweep reads its orders from
    :func:`_shapes`, which refuses a bool or non-integer ``max_order``."""
    return {n: shape for n, shape in _shapes(max_order) if shape is not None}


def _c2_times(g: Group, order_cap: int | None) -> Group:
    return direct_product(cyclic(2, order_cap=order_cap), g, order_cap=order_cap)


# order -> the named extras of that order under an order cap, in catalog
# order; none lies at a covered order
_NAMED_EXTRAS: dict[int, Callable[[int | None], list[Group]]] = {
    16: lambda cap: [dihedral(16, order_cap=cap),
                     metacyclic(8, 2, 3, order_cap=cap, label="SD16"),
                     dicyclic(16, order_cap=cap),
                     metacyclic(8, 2, 5, order_cap=cap, label="M16")],
    24: lambda cap: [sl23(order_cap=cap), dihedral(24, order_cap=cap),
                     dicyclic(24, order_cap=cap),
                     _c2_times(alternating(4, order_cap=cap), cap),
                     witness_h(2, 3, 2, order_cap=cap)],
    40: lambda cap: [witness_h(2, 5, 4, order_cap=cap),
                     _c2_times(metacyclic(5, 4, 2, order_cap=cap), cap)],
    56: lambda cap: [witness_h(2, 7, 6, order_cap=cap)],
    81: lambda cap: [heisenberg_cover(3, order_cap=cap)],
    84: lambda cap: [_c2_times(metacyclic(7, 6, 3, order_cap=cap), cap)],
    88: lambda cap: [witness_h(2, 11, 10, order_cap=cap)],
}


def _shapes(max_order: int, kind: str | None = None
            ) -> Iterator[tuple[int, tuple[str, tuple[int, ...]] | None]]:
    """The catalog's orders up to max_order, ascending, each with its
    order shape and each found only when it is reached: the covered
    orders and the orders of the named extras, whose shape is None, or
    with ``kind`` only the covered orders of that shape kind.
    ``max_order`` is checked at the call."""
    max_order = _integer(max_order, "an order sweep", "max_order")
    return ((n, shape) for n in range(2, max_order + 1)
            if (shape := order_shape(n)) and kind in (None, shape[0])
            or kind is None and n in _NAMED_EXTRAS)


def _capped_orders(max_order: int, order_cap: int | None, kind: str | None = None,
                   built: Callable[[int], Iterable[int]] = lambda n: (n,)
                   ) -> list[int]:
    """The orders of ``_shapes(max_order, kind)``, listed under the cap:
    ``built(n)``, the orders of the groups a sweep builds for order n, are
    checked against it as n is reached, so OrderCapExceeded names the
    first of them above the cap and no order past it is listed.  A sweep
    that lists its orders here first is refused before it builds."""
    orders = []
    for n, _ in _shapes(max_order, kind):
        for m in built(n):
            _check_order_cap(m, order_cap)
        orders.append(n)
    return orders


def catalog_orders(max_order: int, order_cap: int | None = None
                   ) -> Iterator[tuple[int, list[Group]]]:
    """All classification-list groups plus named extras, one order at a
    time in ascending order.

    Each order's groups are built only when it is reached, so a caller
    that does not keep the lists holds about one order's groups at a time,
    where ``catalog_by_order`` holds them all.  The orders are listed
    first, under the cap (:func:`_capped_orders`), so a catalog that
    reaches past the cap is refused whole, before a group is built, and
    the orders are listed only up to the first one above the cap.
    """
    for n in _capped_orders(max_order, order_cap):
        yield n, list(_order_groups(n, order_cap))


def catalog_by_order(max_order: int,
                     order_cap: int | None = None) -> dict[int, list[Group]]:
    """:func:`catalog_orders` as one dict keyed by order."""
    return dict(catalog_orders(max_order, order_cap=order_cap))


def catalog_up_to(max_order: int, order_cap: int | None = None) -> list[Group]:
    return [g for _, groups in catalog_orders(max_order, order_cap=order_cap)
            for g in groups]
