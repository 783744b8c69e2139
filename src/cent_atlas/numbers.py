"""Elementary number theory for group orders.

The one home of primality, factorization, primes up to a bound, units of a
given multiplicative order, the Chinese remainder theorem for two moduli,
and :func:`order_shape`, which names the shape of a group order that the
classification lists and the capability decision cover.  Plain integers
only, no numpy; ``_integer`` is the one check that a public integer
parameter is one.
"""

from __future__ import annotations

import operator
from math import gcd, isqrt

from .errors import BadParameters

__all__ = ["crt", "factor", "is_prime", "order_shape", "primes_up_to",
           "unit_of_order"]

# shape kind -> the exponent of each prime in the order, with the primes
# as order_shape lists them
_SHAPES = {"pqr": (1, 1, 1), "p2q": (2, 1), "p3": (3,)}


def _integer(value: object, owner: str, name: str) -> int:
    """``value`` as an int, numpy integers included; BadParameters for a
    bool or a value with no ``__index__``, as a float or a str."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise BadParameters(f"{owner} needs an integer {name}, got {value!r}")


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def factor(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of n >= 1, by trial division."""
    out: dict[int, int] = {}
    d, m = 2, n
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def primes_up_to(n: int) -> list[int]:
    """The primes p <= n in ascending order."""
    return [p for p in range(2, n + 1) if is_prime(p)]


def unit_of_order(d: int, n: int) -> int:
    """Smallest unit of multiplicative order exactly d modulo n."""
    for a in range(2, n):
        if (gcd(a, n) == 1 and pow(a, d, n) == 1
                and all(pow(a, d // r, n) != 1 for r in factor(d))):
            return a
    raise BadParameters(f"no unit of order {d} modulo {n}")


def crt(a1: int, m1: int, a2: int, m2: int) -> int:
    """The x mod m1*m2 with x = a1 (mod m1) and x = a2 (mod m2), coprime moduli."""
    u = pow(m1, -1, m2)
    return (a1 + (a2 - a1) * u % m2 * m1) % (m1 * m2)


def order_shape(n: int) -> tuple[str, tuple[int, ...]] | None:
    """Shape of the order n: ("pqr", (p, q, r)) with p < q < r, ("p2q",
    (p, q)) with p the squared prime (either may be larger), ("p3", (p,)),
    or None for any other n."""
    fac = factor(n)
    primes = tuple(sorted(fac, key=lambda p: (-fac[p], p)))
    for kind, exps in _SHAPES.items():
        if exps == tuple(fac[p] for p in primes):
            return kind, primes
    return None
