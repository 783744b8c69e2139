"""Number theory helpers and the order shapes built on them."""

from math import gcd, prod

import pytest

from cent_atlas.catalog import covered_orders
from cent_atlas.errors import BadParameters
from cent_atlas.numbers import (
    crt,
    factor,
    is_prime,
    order_shape,
    primes_up_to,
    unit_of_order,
)

import oracles

# the pqr triples and p^2 q pairs of covered_orders(500), by product,
# frozen from the nested-loop implementations it replaces
TRIPLES_500 = [
    (2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 5, 7), (2, 3, 13), (2, 3, 17),
    (3, 5, 7), (2, 5, 11), (2, 3, 19), (2, 5, 13), (2, 3, 23), (2, 7, 11),
    (3, 5, 11), (2, 5, 17), (2, 3, 29), (2, 7, 13), (2, 3, 31), (2, 5, 19),
    (3, 5, 13), (2, 3, 37), (2, 5, 23), (3, 7, 11), (2, 7, 17), (2, 3, 41),
    (3, 5, 17), (2, 3, 43), (2, 7, 19), (3, 7, 13), (2, 3, 47), (3, 5, 19),
    (2, 11, 13), (2, 5, 29), (2, 5, 31), (2, 3, 53), (2, 7, 23), (3, 5, 23),
    (2, 3, 59), (3, 7, 17), (2, 3, 61), (2, 5, 37), (2, 11, 17), (5, 7, 11),
    (3, 7, 19), (2, 3, 67), (2, 7, 29), (2, 5, 41), (2, 11, 19), (2, 3, 71),
    (3, 11, 13), (2, 5, 43), (2, 7, 31), (3, 5, 29), (2, 3, 73),
    (2, 13, 17), (5, 7, 13), (3, 5, 31), (2, 5, 47), (2, 3, 79), (3, 7, 23),
    (2, 13, 19), (2, 3, 83),
]

SQUARE_PAIRS_500 = [
    (2, 3), (3, 2), (2, 5), (2, 7), (2, 11), (3, 5), (5, 2), (2, 13),
    (3, 7), (2, 17), (5, 3), (2, 19), (2, 23), (7, 2), (3, 11), (2, 29),
    (3, 13), (2, 31), (7, 3), (2, 37), (3, 17), (2, 41), (3, 19), (2, 43),
    (5, 7), (2, 47), (3, 23), (2, 53), (2, 59), (11, 2), (2, 61), (7, 5),
    (3, 29), (2, 67), (5, 11), (3, 31), (2, 71), (2, 73), (2, 79), (5, 13),
    (2, 83), (3, 37), (13, 2), (2, 89), (11, 3), (3, 41), (3, 43), (2, 97),
    (2, 101), (2, 103), (3, 47), (5, 17), (2, 107), (2, 109), (2, 113),
    (5, 19), (3, 53),
]


def test_order_shape_matches_oracle():
    shapes = oracles.order_shapes(1000)
    for n in range(-2, 1001):
        assert order_shape(n) == shapes.get(n), n


def test_covered_orders_frozen():
    want = {p * q * r: ("pqr", (p, q, r)) for p, q, r in TRIPLES_500}
    want.update({p * p * q: ("p2q", (p, q)) for p, q in SQUARE_PAIRS_500})
    want.update({p ** 3: ("p3", (p,)) for p in (2, 3, 5, 7)})
    got = covered_orders(500)
    assert got == want and list(got) == sorted(want)


def test_factor_and_primes():
    for n in range(1, 1001):
        fac = factor(n)
        assert all(is_prime(p) for p in fac)
        assert prod(p ** e for p, e in fac.items()) == n
    assert primes_up_to(1000) == [p for p in range(2, 1001)
                                  if all(p % d for d in range(2, p))]
    assert primes_up_to(1) == [] and primes_up_to(-5) == []


def _mult_order(a: int, n: int) -> int:
    k, x = 1, a % n
    while x != 1:
        x, k = x * a % n, k + 1
    return k


def test_unit_of_order_is_smallest_of_exact_order():
    for d, n in ((2, 7), (3, 7), (6, 7), (5, 31), (4, 25), (3, 13), (6, 13)):
        u = unit_of_order(d, n)
        assert _mult_order(u, n) == d
        assert all(_mult_order(a, n) != d
                   for a in range(2, u) if gcd(a, n) == 1)
    with pytest.raises(BadParameters):
        unit_of_order(4, 7)


def test_crt():
    for m1, m2 in ((3, 7), (5, 31), (4, 9)):
        for a1 in range(m1):
            for a2 in range(m2):
                x = crt(a1, m1, a2, m2)
                assert 0 <= x < m1 * m2
                assert x % m1 == a1 and x % m2 == a2
