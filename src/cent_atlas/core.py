"""Finite groups as Cayley tables.

Elements of a group of order n are the integers 0..n-1 and 0 is always the
identity.  A ``Group`` in hand is always a genuine group, whatever recipe
produced it, by one of two paths:

- Tables from outside the library go through :func:`from_cayley_table`:
  the public constructor itself, group files (``report.read_group_file``),
  permutation generators and enumeration candidates.  That gate checks the
  shape and order cap, integer entries in 0..n-1 and the identity at 0,
  then accepts by proof: the rows of a greedy generating set S of at most
  log2(n) elements are permutations, S reaches every element, and Light's
  test passes over S, which makes the table a group, in O(|S| n^2) time.
  Only a table that fails the proof has its rows and columns scanned, its
  two-sided inverses checked and Light's test rerun over the same S, in
  that order, to name its first fault; ``_validated``'s docstring gives
  the proof and ``from_cayley_table``'s the cost of each check.  The
  gate keeps one int32 copy of the table, which becomes the Group's, and
  checks it in row blocks on the calling thread, so its working memory
  beyond that copy is O(n).  A group file's freshly parsed table is
  handed over without the copy.  A table that passes is wrapped by
  ``_trusted``, the one constructor of every ``Group``.  Permutation
  generators fill their table in the one breadth-first search that
  numbers the elements: each column is an earlier column gathered
  through one generator's right-multiplication map, so the table costs
  n gathers and n times |generators| compositions, not n^2.
- Tables the library builds from groups it already holds, or from checked
  parameters, are groups by construction and skip the gate through the
  private ``_trusted``: direct products of two groups; semidirect products,
  once ``_extend_action`` has checked that the action is a homomorphism
  into Aut(N); subgroups, once ``check_subgroup`` has checked closure; and
  quotients, once the subgroup has been checked to be normal.  The
  closed-form families in ``catalog`` use it too, and a tier-1 test
  rebuilds each of them, and every product, subgroup and quotient it
  covers, through the gate and asserts the two Groups are equal.

Every numpy pass over a run of table rows, in the gate, the closures, the
product and family writers and the group-file writer, takes its runs from
one helper, ``_row_blocks``: at most ``_CLOSE_BLOCK`` cells and at
least one row each.

A group's memo holds one generating set, ``_spanning``.  Class data, G'
and the automorphism check can use any generating set, so a builder
that knows one hands it over: the families their presentation
generators, products those of their factors, and quotients their
parent's, where the parent already has one, all through ``_trusted``;
gate-built tables hand over the gate's set, the one Light's test has
just used, so permutation groups, group files and enumeration
candidates pay no second closure for one.  Subgroups, and quotients of
a parent with no set, fall back to the same greedy orbit set,
``_orbit_generators``, the library's one greedy routine, found on their
own table.  ``find_isomorphism`` chooses its own
generators as it walks (``invariants._prefix_walks``).  Tier-1 tests
check every handed-over set against a gate-built copy.
Builders hand over the inverses and element orders they know as well:
direct products and subgroups both, from the factors or the parent;
semidirect products and quotients their inverses; ``cyclic`` and the
presented families (``catalog._presented``) both, in closed form.  A
quotient by the trivial subgroup is the group itself, relabelled, memo
and all.

Any ``Group`` can be re-checked in full with ``from_cayley_table(g.table)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import wraps
from typing import Callable, Iterable, Iterator, Sequence, Sized

import numpy as np

from .errors import (
    BadParameters,
    InconsistentInvariants,
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
from .numbers import _integer, factor

__all__ = [
    "DEFAULT_ORDER_CAP",
    "ORDER_CAP_ENV",
    "ActionSpec",
    "Group",
    "SubsetMask",
    "check_subgroup",
    "direct_product",
    "from_cayley_table",
    "from_permutation_generators",
    "quotient",
    "quotient_with_cosets",
    "resolve_order_cap",
    "semidirect_product",
    "subgroup_as_group",
    "subgroup_generated",
]

DEFAULT_ORDER_CAP = 2048
ORDER_CAP_ENV = "CENT_ATLAS_ORDER_CAP"


def resolve_order_cap(explicit: int | None = None) -> int:
    """Return the effective order cap: explicit arg, else env var, else default."""
    if explicit is not None:
        explicit = _integer(explicit, "the order cap", "value")
        if explicit < 1:
            raise BadParameters(f"order cap must be positive, got {explicit}")
        return explicit
    env = os.environ.get(ORDER_CAP_ENV)
    if env:
        try:
            cap = int(env)
        except ValueError as exc:
            raise BadParameters(f"{ORDER_CAP_ENV} must be an integer, got {env!r}") from exc
        if cap < 1:
            raise BadParameters(f"{ORDER_CAP_ENV} must be positive, got {cap}")
        return cap
    return DEFAULT_ORDER_CAP


def _check_order_cap(n: int, order_cap: int | None) -> None:
    cap = resolve_order_cap(order_cap)
    if n > cap:
        raise OrderCapExceeded(f"order {n} exceeds cap {cap}")


@dataclass(frozen=True)
class SubsetMask:
    """Subset of a group's elements, stored as a bitmask.

    ``bits`` has bit i set iff element i belongs to the subset; ``order`` is
    the order of the owning group, so masks from different groups never
    compare equal by accident.  ``from_bool`` and ``as_bool`` convert
    from and to one flag per element through numpy's little-endian bit
    packing, with no Python loop over the elements; ``elements`` reads
    the members off ``as_bool``.
    """

    bits: int
    order: int

    def __post_init__(self) -> None:
        if self.order < 1:
            raise BadParameters(f"mask owner order must be positive, got {self.order}")
        if self.bits < 0 or self.bits >> self.order:
            raise IndexOutOfRange(f"mask bits out of range for order {self.order}")

    @classmethod
    def from_elements(cls, elements: Iterable[int], order: int) -> "SubsetMask":
        bits = 0
        for e in elements:
            if not 0 <= e < order:
                raise IndexOutOfRange(f"element {e} out of range for order {order}")
            bits |= 1 << e
        return cls(bits, order)

    @classmethod
    def from_bool(cls, flags: np.ndarray) -> "SubsetMask":
        packed = np.packbits(flags.astype(np.uint8), bitorder="little")
        return cls(int.from_bytes(packed.tobytes(), "little"), len(flags))

    def elements(self) -> list[int]:
        return np.flatnonzero(self.as_bool()).tolist()

    def as_bool(self) -> np.ndarray:
        raw = self.bits.to_bytes((self.order + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(raw, np.uint8), count=self.order,
                             bitorder="little").astype(bool)

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.order and bool(self.bits >> i & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self):
        return iter(self.elements())


class Group:
    """Immutable finite group given by its Cayley table.

    Do not call directly; use :func:`from_cayley_table` or one of the other
    constructors, which either validate the axioms or build a group by
    construction (see the module docstring).

    The private ``_memo`` dict is the one mutable slot: functions wrapped
    in :func:`_per_group` keep their result there, so each is computed at
    most once per group and freed with it.  It holds only values of O(n)
    size: masks, flags, one generating set (``_spanning``), read-only
    length-n arrays and ``CentStructure`` (one mask per distinct
    centralizer); never the n x n commuting matrix, which
    ``cent_structure`` builds and drops, or another ``Group``.
    """

    __slots__ = ("order", "table", "inverse", "element_orders", "label", "_memo")

    def __init__(self, table: np.ndarray, inverse: np.ndarray, element_orders: np.ndarray,
                 label: str | None):
        object.__setattr__(self, "order", int(table.shape[0]))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "element_orders", element_orders)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("Group is immutable")

    def __repr__(self) -> str:
        name = self.label or "Group"
        return f"<{name} of order {self.order}>"

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

    def power(self, x: int, k: int) -> int:
        self.check_index(x)
        if k < 0:
            x, k = self.inv(x), -k
        return int(_powers(self.table, np.array([x]), k)[0])

    def is_abelian(self) -> bool:
        return bool((_centralizer_sizes(self) == self.order).all())

    def exponent(self) -> int:
        return int(np.lcm.reduce(self.element_orders))

    def check_index(self, i: int) -> None:
        if not 0 <= i < self.order:
            raise IndexOutOfRange(f"element index {i} out of range for order {self.order}")

    def relabeled(self, label: str | None) -> "Group":
        """Same group, different display label, with a copy of the memo:
        no memoised value depends on the label."""
        g = Group(self.table, self.inverse, self.element_orders, label)
        g._memo.update(self._memo)
        return g

    def full_mask(self) -> SubsetMask:
        return SubsetMask((1 << self.order) - 1, self.order)


def _per_group(fn: Callable) -> Callable:
    """Compute ``fn(g)`` once per group and keep it in ``g._memo``, keyed
    by fn's qualified name.

    A stored array is made read-only.  Only for values of O(n) size (see
    :class:`Group`).  Code that already holds the value hands it over with
    ``seed(g, value)``, which stores it unless a value is there already,
    and ``known(g)`` returns the stored value or None, computing nothing;
    nothing else reads or writes the memo.
    """
    key = fn.__qualname__

    def seed(g: Group, value) -> None:
        if key not in g._memo:
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            g._memo[key] = value

    @wraps(fn)
    def once(g: Group):
        if key not in g._memo:
            seed(g, fn(g))
        return g._memo[key]

    once.seed = seed
    once.known = lambda g: g._memo.get(key)
    return once


@_per_group
def _spanning(g: Group) -> tuple[int, ...]:
    """g's one generating set: the one its builder handed to
    :func:`_trusted`, or for a gate-built table the set Light's test used
    (``_check_associative``), either stored here when g is made, else the
    greedy set of :func:`_orbit_generators`, at most log2(n) elements,
    whose orbit is always all of a group.  Class data, G' and
    ``_check_automorphism`` take any set; ``find_isomorphism`` chooses its
    own (``invariants._prefix_walks``)."""
    return tuple(_orbit_generators(g.table)[0])


def _conjugators(g: Group) -> np.ndarray:
    """k x n array whose row i maps x to s x s^-1 for the i-th generator s
    of :func:`_spanning`; each row is a permutation.  Not memoised: it is
    longer than n."""
    s = np.array(_spanning(g), dtype=np.intp)
    return g.table[g.table[s], g.inverse[s, None]]


@_per_group
def _class_reps(g: Group) -> np.ndarray:
    """Smallest member of each element's conjugacy class, as int32.

    Root hooking with full pointer jumping (Shiloach & Vishkin, J.
    Algorithms 3, 1982) on the graph x -- s x s^-1, one edge set per
    generator s of :func:`_spanning`.  For each edge set, with a = rep[x]
    and b = rep[s x s^-1], the larger label is hooked under the smaller,
    rep[max(a, b)] = min(rep[max(a, b)], min(a, b)) as a grouped minimum
    (a plain fancy assignment could let a later duplicate overwrite a
    smaller label), then rep = rep[rep] until stable.  Rounds over all
    generators repeat until one changes nothing; each is O(n k).

    Three invariants hold throughout: rep[x] <= x, rep[x] lies in x's
    class, and labels only fall.  At the fixed point every label is a root
    (rep[r] = r), and along every edge rep[max(a, b)] <= min(a, b), so
    a = b: rep is constant on each orbit of the generators, which is a
    class, and since rep[x] <= x for each member it is the class minimum.
    On the 316 nonabelian catalog groups up to order 500 this takes 2.2
    rounds on average, the last changing nothing, and at most 4, where
    propagating labels one conjugation step a round took 12.7 and up to 68.
    """
    conj = _conjugators(g)
    rep = np.arange(g.order, dtype=np.int32)
    while True:
        before = rep.copy()
        for c in conj:
            a, b = rep, rep[c]
            np.minimum.at(rep, np.maximum(a, b), np.minimum(a, b))
            while not np.array_equal(jumped := rep[rep], rep):
                rep = jumped
        if np.array_equal(rep, before):
            return rep


@_per_group
def _centralizer_sizes(g: Group) -> np.ndarray:
    """|C_G(x)| for every x: n over the size of x's conjugacy class."""
    reps = _class_reps(g)
    return g.order // np.bincount(reps, minlength=g.order)[reps]


# Cells one numpy pass over a run of table rows touches at most (1 MB of
# int32), so the working memory of every blocked pass stays O(n): see
# ``_row_blocks``, the one place a block size is computed.
_CLOSE_BLOCK = 1 << 18


def _row_blocks(count: int, width: int) -> Iterator[slice]:
    """Slices cutting rows 0..count-1 of ``width`` cells each into runs of
    at most ``_CLOSE_BLOCK`` cells, read at call time, and at least one
    row, in order."""
    step = max(1, _CLOSE_BLOCK // width)
    return map(slice, range(0, count, step), range(step, count + step, step))


def _close(table: np.ndarray, member: np.ndarray, fresh: np.ndarray,
           also: Callable[[np.ndarray], np.ndarray] | None = None) -> None:
    """Grow the flags ``member`` in place to the smallest set closed under
    the product and, when given, under ``also``.

    ``table`` must be a group's, and ``member`` closed except for the
    elements ``fresh`` (which it contains).  ``also(xs)`` returns elements
    (indices or flags) the set must hold once it holds xs; it is applied
    to ``fresh`` and to every member added later, a ``_row_blocks`` run of
    them at a time, and never to the members closed at the call (so a
    centralizer closure that starts with the identity closed never takes
    its centralizer, all of G).  Each round multiplies the previous
    round's new elements by the set F found so far, on both sides, a
    ``_row_blocks`` run of rows at a time, so no product is formed more
    than twice: O(n^2) in all.  The products of two older members were
    formed in an earlier round, so a round adds every product the
    current set lacks.  A closed set of a group is a subgroup, and by
    Lagrange a proper one has at most half the elements, so the closure
    of more than n/2 elements is everything.
    """
    while fresh.size:
        found = np.flatnonzero(member)
        if 2 * found.size > member.size:
            member[:] = True
            return
        hit = np.zeros_like(member)
        for rows in _row_blocks(fresh.size, member.size):
            hit[np.take(table[fresh[rows]], found, axis=1)] = True
        for rows in _row_blocks(found.size, member.size):
            hit[np.take(table[found[rows]], fresh, axis=1)] = True
        if also is not None:
            for rows in _row_blocks(fresh.size, member.size):
                hit[also(fresh[rows])] = True
        hit &= ~member
        member |= hit
        fresh = np.flatnonzero(hit)


def _orbit_generators(table: np.ndarray) -> tuple[list[int], bool]:
    """The library's one greedy generating set S, found without assuming
    a Latin square, and whether its orbit W is everything: the set so far
    and False when the next generator's row is not a permutation or S
    would need more than log2(n) elements.

    W, the orbit of 0 under x -> x*t, starts as {0}.  Each round takes s,
    the smallest element outside W, checks its row in O(n), and grows W
    to its exact closure under right multiplication by the steps: each s,
    the product of s with the generator before it, and the repeated
    squares of both (at most log2(n) + 1 each).  Squares write a power of
    s in as many rounds as its exponent has binary digits; the product
    does the same for the rotations of a dihedral group generated by two
    reflections, which otherwise take a round each (1,026 rounds for
    D2048).  Members new to W are multiplied by every step, older ones by
    the new steps only, ``_row_blocks`` cells at a time: O(n) gathers per
    step, and O(n) per round.  Every step is a product of generators, so
    in a group W is <S>: S is the greedy set over subgroup closures, and
    it is whole after at most log2(n) rounds, as each at least doubles W.
    ``_close`` is no use here: its n/2 rule holds only in a group.
    """
    n = table.shape[0]
    member = np.arange(n) == 0
    gens, steps = [], np.empty(0, dtype=int)
    while not member.all():
        s = int(np.argmin(member))
        if len(gens) == n.bit_length() - 1 or not np.bincount(table[s], minlength=n).all():
            return gens, False
        new = []
        for t in (s, int(table[gens[-1], s])) if gens else (s,):
            for _ in range(n.bit_length()):
                new.append(t)
                t = int(table[t, t])
        gens.append(s)
        rows, cols = np.flatnonzero(member), np.array(sorted(set(new)))
        steps = np.concatenate([steps, cols])
        while rows.size:
            hit = np.zeros_like(member)
            for b in _row_blocks(rows.size, cols.size):
                hit[table[rows[b, None], cols]] = True
            rows, cols = np.flatnonzero(hit & ~member), steps
            member[rows] = True
    return gens, True


def _check_associative(table: np.ndarray, gens: Sequence[int]) -> None:
    """Light's associativity test (Clifford & Preston, *Algebraic Theory of
    Semigroups* I, section 1.2): if (x*s)*y = x*(s*y) for all x, y and every
    s in a generating set S = ``gens``, the table is associative; raises
    NotAssociative otherwise, at the first triple in the order of S, then
    of x, then of y.  O(|S| n^2), over ``_row_blocks``; each s's row must
    be a permutation, as the gate has shown before either call.
    """
    n = table.shape[0]
    for s in gens:
        y_of = np.argsort(table[s])  # s*y -> y: row s is a permutation
        for rows in _row_blocks(n, n):
            # row x*s with each y moved to column s*y is row x if the test
            # passes; "wrap" skips a bounds check that y_of never needs
            moved = np.take(table[table[rows, s]], y_of, axis=1, mode="wrap")
            if not np.array_equal(moved, table[rows]):
                lhs = table[table[rows, s]]
                rhs = np.take(table[rows], table[s], axis=1)
                dx, y = map(int, np.argwhere(lhs != rhs)[0])
                x = rows.start + dx
                raise NotAssociative(
                    f"associativity fails at triple ({x}, {s}, {y}): ({x}*{s})*{y}"
                    f" = {lhs[dx, y]} but {x}*({s}*{y}) = {rhs[dx, y]}")


def _powers(table: np.ndarray, x: np.ndarray, e: int) -> np.ndarray:
    """x[i] to the power e for every i at once, by square-and-multiply:
    O(len(x)) gathers per bit of e."""
    acc = np.zeros_like(x)
    while e:
        if e & 1:
            acc = table[acc, x]
        e >>= 1
        if e:
            x = table[x, x]
    return acc


def _element_orders(table: np.ndarray) -> np.ndarray:
    """Order of every element of a group table, one prime at a time.

    By Lagrange every order divides n.  For p^a exactly dividing n,
    y = x^(n / p^a) has order the p-part of |x|, so the number of p-th
    powers that take y to the identity, at most a, is its exponent.
    O(n log n) gathers per prime.  The table must be a group.
    """
    n = table.shape[0]
    orders = np.ones(n, dtype=np.int32)
    idx = np.arange(n, dtype=np.int32)
    for p, a in factor(n).items():
        live, y = idx, _powers(table, idx, n // p ** a)
        for _ in range(a):
            keep = y != 0
            live, y = live[keep], y[keep]
            orders[live] *= p
            y = _powers(table, y, p)
    return orders


def _inverses(arr: np.ndarray) -> np.ndarray:
    """Right inverse of every element of a Latin square with identity 0, as
    int32: the column of each row's 0, found over ``_row_blocks``."""
    n = arr.shape[0]
    return np.concatenate([np.argmax(arr[rows] == 0, axis=1)
                           for rows in _row_blocks(n, n)]).astype(np.int32)


def _trusted(table: np.ndarray, label: str | None,
             inverse: np.ndarray | None = None,
             orders: np.ndarray | None = None,
             gens: Iterable[int] | None = None) -> Group:
    """Wrap a table that is a group as a Group: the one constructor.

    ``_validated`` calls it last, with the set S of its proof; every other
    caller skips the gate, and the module docstring lists them and why
    each table is a group by construction.  Such a caller checks the
    order cap before it builds the table, and may pass inverses, element
    orders and a generating set it already knows.  The set is stored as
    the group's :func:`_spanning` set, which class data and G' read; any
    generating set serves them, so the group never pays a closure for
    one.  The result equals what :func:`from_cayley_table` returns for the
    same table.  A table that is not int32 and C-contiguous costs a copy;
    without element orders they cost O(n log n) gathers per prime, and
    without inverses one pass over ``_row_blocks``.
    """
    arr = np.ascontiguousarray(table, dtype=np.int32)
    arr.setflags(write=False)
    if orders is None:
        orders = _element_orders(arr)
    if inverse is None:
        inverse = _inverses(arr)
    g = Group(arr, inverse.astype(np.int32, copy=False),
              orders.astype(np.int32, copy=False), label)
    if gens is not None:
        _spanning.seed(g, tuple(int(s) for s in gens))
    return g


def from_cayley_table(table: Sequence[Sequence[int]] | np.ndarray,
                      label: str | None = None,
                      order_cap: int | None = None) -> Group:
    """Validate a Cayley table and wrap it as a Group.

    Checks, in order, for a table of order n:

    - a nonempty square shape, and n within the order cap;
    - integer entries: bool, float and object tables are refused, not cast;
    - every entry in 0..n-1, before narrowing to int32, so none can wrap;
    - row 0 and column 0 are the identity;
    - the accept path: a greedy generating set S, |S| <= log2(n), whose
      rows are permutations and whose right-multiplication orbit of 0 is
      everything, O(n) per generator and O(n) gathers per orbit step
      (``_orbit_generators``); Light's test over S, O(|S| n^2); and the
      right inverses, one O(n^2) elementwise pass.  These prove the table
      a group (see ``_validated``), so the Latin property and two-sided
      inverses need no n^2 scatter; the Group keeps S as its generating set.
    - only if that proof fails, the reject path names the first fault:
      every row, then every column, is a permutation of 0..n-1 (one n^2
      bool scatter each); every element has a two-sided inverse, O(n^2);
      associativity by Light's test over the accept path's set S, whole
      or not, which fails at the same generator and (x, y) as over the
      greedy set of the Latin square's magma closures (``_validated``).

    Element orders then come from their p-parts in O(n log n) gathers
    per prime dividing n.  The whole gate costs O(|S| n^2) on either
    path; no check is skipped for any table, and an invalid table pays
    the failed proof on top of the scans.  The Group holds a copy of the
    table, never the caller's array.  Besides that int32 copy (and, for a
    wider input, the copy it is narrowed from), the checks work over
    ``_row_blocks``, one block at a time in order on the calling thread,
    so their working memory is O(n) at every order and the first faulty
    block is the one named.  At order 3875 the gate peaks at about 60 MiB
    of Python allocations (60.3 MiB), the 57 MiB copy included.
    """
    try:
        arr = np.array(table)
    except ValueError:  # numpy's rows-of-unequal-length error
        raise NotLatinSquare(f"table is {_ragged(table)}") from None
    return _validated(arr, label, order_cap)


def _ragged(rows: Sequence) -> str:
    """How a table numpy cannot make rectangular is ragged: its first row
    whose length differs from row 0's, a row that is not a sequence
    having none."""
    sizes = [len(row) if isinstance(row, Sized) else 0 for row in rows]
    i = next((i for i, k in enumerate(sizes) if k != sizes[0]), None)
    if i is None:
        return "ragged: an entry is not an integer"
    return f"ragged: row {i} has {sizes[i]} entries but row 0 has {sizes[0]}"


def _first_non_permutation(rows: np.ndarray) -> int | None:
    """Index of the first of the k x n ``rows``, entries in 0..n-1, that is
    not a permutation of 0..n-1, or None: one scatter into k x n flags."""
    k, n = rows.shape
    seen = np.zeros(k * n, dtype=bool)
    seen[rows + np.arange(0, k * n, n, dtype=np.int32)[:, None]] = True
    bad = ~seen.reshape(k, n).all(axis=1)
    return int(np.argmax(bad)) if bad.any() else None


def _validated(arr: np.ndarray, label: str | None,
               order_cap: int | None) -> Group:
    """The gate of :func:`from_cayley_table`, on an array it owns.

    The array is narrowed to int32 in place of a copy where it already is
    int32 and C-contiguous, and is frozen into the Group, so no caller may
    keep it: ``from_cayley_table`` hands over a copy of its input, and
    ``report.read_group_file`` the table it has just parsed.  A table
    that passes is wrapped by :func:`_trusted` with the set S, so the
    gate is a check in front of the one constructor.

    After the shape, cap, dtype, range and identity checks, the accept
    path proves the table a group.  Let A be the set of a with
    (x*a)*y = x*(a*y) for all x, y.  Light's test puts every s of S in A,
    and so does the identity.  A is closed under products: for a, b in
    A, (x*(a*b))*y = ((x*a)*b)*y = (x*a)*(b*y) = x*(a*(b*y)) =
    x*((a*b)*y).  Every member w of the orbit W of ``_orbit_generators``
    is a product of generators, so it lies in A, and for each step t,
    row w*t is row w composed with row t: by induction along W from the
    identity's row, with the generators' rows checked and each square
    or product of generators' row a composite of theirs, every row of W
    is a permutation.  W is everything, so the table is associative and
    each element has a right inverse: a monoid in which every element
    has a right inverse is a group, so its columns are permutations and
    right inverses are two-sided.  In a group W = <S>, which at least
    doubles with each generator, so every group passes.

    A table that fails the proof (a generator's row, more than log2(n)
    generators, or Light's test) takes the reject path: the ordered
    checks of :func:`from_cayley_table`, which name its first fault.
    Its row and column scans take the blocks in order, so the first
    faulty block is the one named.  Its Light's test
    reuses S, whole or not, and still names the fault that the greedy set
    over magma closures M_j would: the first s_j of that set to fail, at
    the first (x, y).  For while s_1..s_(j-1) pass, they lie in A, so
    every bracketed product of them equals the left-bracketed one and
    W_(j-1) = M_(j-1): both rules pick the same s_j.  In a Latin square
    each M_j is a subquasigroup, so it at least doubles with each
    generator, and the test fails within the log2(n) bound.  A table
    that passes every check is a group and took the accept path, so the
    reject path ends in a raise it cannot reach.
    """
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise BadParameters(f"table must be a nonempty square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    _check_order_cap(n, order_cap)
    if arr.dtype.kind not in "iu":
        raise NotLatinSquare(f"table entries must be integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() >= n:
        i, j = map(int, np.argwhere((arr < 0) | (arr >= n))[0])
        raise NotLatinSquare(f"entry at ({i}, {j}) is {arr[i, j]}, outside 0..{n - 1}")
    arr = np.ascontiguousarray(arr, dtype=np.int32)
    idx = np.arange(n, dtype=np.int32)
    if not np.array_equal(arr[0], idx):
        j = int(np.flatnonzero(arr[0] != idx)[0])
        raise NoIdentityAtZero(f"0*{j} = {int(arr[0, j])}, expected {j}")
    if not np.array_equal(arr[:, 0], idx):
        i = int(np.flatnonzero(arr[:, 0] != idx)[0])
        raise NoIdentityAtZero(f"{i}*0 = {int(arr[i, 0])}, expected {i}")
    gens, whole = _orbit_generators(arr)
    if whole:
        try:
            _check_associative(arr, gens)
        except NotAssociative:
            whole = False
    if not whole:  # the reject path: the ordered checks name the fault
        for line, lines in (("row", arr), ("column", arr.T)):
            for rows in _row_blocks(n, n):
                i = _first_non_permutation(lines[rows])
                if i is not None:
                    raise NotLatinSquare(
                        f"{line} {rows.start + i} is not a permutation of 0..{n - 1}")
        if (bad := np.flatnonzero(arr[_inverses(arr), idx])).size:
            raise NoInverse(f"element {bad[0]} has no two-sided inverse")
        _check_associative(arr, gens)
        raise InconsistentInvariants("table passed the reject path's checks but not the proof")
    return _trusted(arr, label, gens=gens)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p*q)(x) = p(q(x))
    return tuple(p[v] for v in q)


def from_permutation_generators(generators: Sequence[Sequence[int]],
                                label: str | None = None,
                                order_cap: int | None = None) -> Group:
    """Group generated by permutations, as a Cayley table.

    Permutations map positions 0..degree-1; elements are numbered in
    breadth-first discovery order from the identity, so index 0 is the
    identity.  Raises OrderCapExceeded if the closure grows past the cap.

    The search composes each element x with each generator g_k once,
    giving ``right[k][x]``, the index of x*g_k, and records the (x, k)
    that first reached each new element j (a Schreier vector).  That is
    the whole table: y*j = (y*x)*g_k, so column j is column x gathered
    through ``right[k]``, one O(n) gather per element in discovery
    order.  The table then goes through :func:`from_cayley_table`.
    """
    if not generators:
        raise BadParameters("at least one generator permutation is required")
    degree = len(generators[0])
    gens: list[tuple[int, ...]] = []
    for g in generators:
        arr = np.asarray(g)
        if (arr.dtype.kind not in "iu" or arr.shape != (degree,)
                or sorted(arr.tolist()) != list(range(degree))):
            raise BadParameters(f"generator {g!r} is not a permutation of 0..{degree - 1}")
        gens.append(tuple(arr.tolist()))
    cap = resolve_order_cap(order_cap)
    elems: list[tuple[int, ...]] = [tuple(range(degree))]
    index: dict[tuple[int, ...], int] = {elems[0]: 0}
    right: list[list[int]] = [[] for _ in gens]
    reached: list[tuple[int, int]] = []  # (x, k) for elements 1, 2, ...
    for x, cur in enumerate(elems):  # elems grows as the search runs
        for k, g in enumerate(gens):
            nxt = _compose(cur, g)
            if nxt not in index:
                if len(elems) >= cap:
                    raise OrderCapExceeded(
                        f"closure of permutation generators exceeds cap {cap}")
                index[nxt] = len(elems)
                elems.append(nxt)
                reached.append((x, k))
            right[k].append(index[nxt])
    n = len(elems)
    rights = np.array(right, dtype=np.int32)
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n, dtype=np.int32)
    for j, (x, k) in enumerate(reached, start=1):
        table[:, j] = rights[k][table[:, x]]
    return from_cayley_table(table, label=label, order_cap=cap)


def direct_product(g: Group, h: Group, label: str | None = None,
                   order_cap: int | None = None) -> Group:
    """Direct product on pairs (a, b), encoded as a*|H| + b.

    The trivial-action case of :func:`semidirect_product`'s writer, with
    inverses and element orders taken pairwise from the factors.  Working
    memory beyond the table is one |G| x |G| block and O(n).
    """
    if label is None and g.label and h.label:
        label = f"{g.label}x{h.label}"
    return _product(g, h, None, label, order_cap)


def _product(n_grp: Group, h_grp: Group, theta: np.ndarray | None,
             label: str | None, order_cap: int | None) -> Group:
    """N x| H on pairs (a, h) at a*|H| + h, for the action ``theta``, an
    (|H|, |N|) array of permutations, or None for the direct product.

    The direct product is written in one broadcast add through the
    table's (a, h1, b, h2) view, with one |N| x |N| block of working
    memory.  A semidirect product is written a whole row at a time: row
    (a, h1) is row a of N's table, times |H|, gathered at theta(h1)
    repeated |H| times, plus row h1 of H's table tiled |N| times, for a
    ``_row_blocks`` run of values of a at a time, so the working memory is
    O(n).
    """
    nn, nh = n_grp.order, h_grp.order
    _check_order_cap(nn * nh, order_cap)
    table = np.empty((nn * nh, nn * nh), dtype=np.int32)
    h_inv = h_grp.inverse[None, :]
    # (a, 0) for a in N's set and (0, h) for h in H's generate N x| H
    gens = [a * nh for a in _spanning(n_grp)] + list(_spanning(h_grp))
    if theta is None:  # (a, h1)(b, h2) = (ab, h1h2) for every h1 at once
        np.add((n_grp.table * nh)[:, None, :, None], h_grp.table[:, None, :],
               out=table.reshape(nn, nh, nn, nh))
        inverse = n_grp.inverse[:, None] * nh + h_inv
        return _trusted(table, label, inverse.ravel(), np.lcm(
            n_grp.element_orders[:, None], h_grp.element_orders).ravel(), gens)
    by_a, blocks = table.reshape(nn, nh, -1), tuple(_row_blocks(nn, nn * nh))
    for h1 in range(nh):  # rows (a, h1): (a, h1)(b, h2) = (a theta(h1)(b), h1h2)
        cols, h_part = np.repeat(theta[h1], nh), np.tile(h_grp.table[h1], nn)
        for a in blocks:
            run = np.take(n_grp.table[a] * nh, cols, axis=1)
            np.add(run, h_part, out=by_a[a, h1])
    # (a, h)^-1 = (theta(h^-1)(a^-1), h^-1)
    inverse = theta[h_inv, n_grp.inverse[:, None]] * nh + h_inv
    return _trusted(table, label, inverse.ravel(), gens=gens)


@dataclass(frozen=True)
class ActionSpec:
    """Action of a group H on a group N by automorphisms.

    ``acting_generators`` are element indices that must generate H;
    ``automorphism_images`` gives, for each, a permutation of N's elements.
    The assignment is extended to all of H during product construction and
    rejected if it does not define a homomorphism H -> Aut(N).
    """

    acting_generators: tuple[int, ...]
    automorphism_images: tuple[tuple[int, ...], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, Sequence[int]]]) -> "ActionSpec":
        gens, images = [], []
        for g, img in pairs:
            gens.append(int(g))
            images.append(tuple(int(v) for v in img))
        return cls(tuple(gens), tuple(images))

    @classmethod
    def trivial(cls, h: Group, n: Group) -> "ActionSpec":
        """H acting trivially: each element of H's generating set
        (:func:`_spanning`, at most log2|H|) acts as the identity."""
        ident = tuple(range(n.order))
        gens = _spanning(h)
        return cls(gens, tuple(ident for _ in gens))


def _check_automorphism(n_grp: Group, img: np.ndarray) -> None:
    """Raise NotAutomorphism unless ``img`` is a bijection of N fixing 0
    with img(x y) = img(x) img(y).

    It suffices that img(x s) = img(x) img(s) for every x and every s of
    a generating set S (:func:`_spanning`), O(n |S|): by induction on word
    length it then holds for every positive word in S, and those cover the
    finite N.  Only a map failing that is compared on the whole table, so
    the error names the first bad cell in row-major order.
    """
    n = n_grp.order
    if img.shape != (n,) or sorted(img.tolist()) != list(range(n)):
        raise NotAutomorphism(f"image is not a permutation of 0..{n - 1}")
    if img[0] != 0:
        raise NotAutomorphism("automorphism must fix the identity")
    t = n_grp.table
    s = np.array(_spanning(n_grp), dtype=np.intp)
    if not np.array_equal(img[t[:, s]], t[np.ix_(img, img[s])]):
        x, y = np.argwhere(img[t] != t[np.ix_(img, img)])[0]
        raise NotAutomorphism(f"map breaks the product at ({x}, {y})")


def _extend_action(n_grp: Group, h_grp: Group, action: ActionSpec) -> np.ndarray:
    """Extend generator images to a full map H -> Aut(N), returned as an
    (|H|, |N|) array of permutations; raises NotHomomorphism on conflict.

    Rows are filled by a walk from the identity over the acting
    generators.  A row is unknown while it holds -1: every image fixes 0
    (``_check_automorphism``), so a known row's entry at 0 is 0."""
    if len(action.acting_generators) != len(action.automorphism_images):
        raise BadParameters("acting_generators and automorphism_images differ in length")
    if not action.acting_generators:
        raise BadParameters("action must name at least one acting generator")
    nn, nh = n_grp.order, h_grp.order
    gen_imgs: dict[int, np.ndarray] = {}
    for g, img in zip(action.acting_generators, action.automorphism_images):
        h_grp.check_index(g)
        arr = np.asarray(img, dtype=np.int32)
        _check_automorphism(n_grp, arr)
        if g in gen_imgs and not np.array_equal(gen_imgs[g], arr):
            raise NotHomomorphism(f"two different images given for generator {g}")
        gen_imgs[g] = arr
    theta = np.full((nh, nn), -1, dtype=np.int32)
    theta[0] = np.arange(nn, dtype=np.int32)
    if 0 in gen_imgs and not np.array_equal(gen_imgs[0], theta[0]):
        raise NotHomomorphism("identity of H must act trivially")
    queue = [0]
    while queue:
        h = queue.pop()
        for g, img in gen_imgs.items():
            hg = int(h_grp.table[h, g])
            composed = theta[h][img]
            if theta[hg, 0] < 0:
                theta[hg] = composed
                queue.append(hg)
            elif not np.array_equal(theta[hg], composed):
                raise NotHomomorphism(
                    f"generator images are inconsistent at element {hg}"
                )
    missing = np.flatnonzero(theta[:, 0] < 0)
    if missing.size:
        raise NotHomomorphism(
            f"acting generators do not generate the acting group "
            f"(element {missing[0]} unreachable)"
        )
    return theta


def semidirect_product(n_grp: Group, h_grp: Group, action: ActionSpec,
                       label: str | None = None,
                       order_cap: int | None = None) -> Group:
    """Semidirect product N x| H on pairs (a, h) encoded as a*|H| + h.

    Product rule: (a, h1)(b, h2) = (a * theta(h1)(b), h1*h2).  A trivial
    action reproduces direct_product exactly, table and all.  The table is
    written in place over ``_row_blocks``; working memory beyond it is the
    (|H|, |N|) action and O(n).
    """
    return _product(n_grp, h_grp, _extend_action(n_grp, h_grp, action), label, order_cap)


def subgroup_generated(g: Group, seeds: Iterable[int]) -> SubsetMask:
    """Mask of the subgroup generated by the seed elements."""
    member = np.zeros(g.order, dtype=bool)
    member[0] = True
    for s in seeds:
        g.check_index(int(s))
        member[int(s)] = True
    _close(g.table, member, np.flatnonzero(member))
    return SubsetMask.from_bool(member)


def _as_mask(g: Group, subgroup: SubsetMask | Iterable[int]) -> SubsetMask:
    if isinstance(subgroup, SubsetMask):
        if subgroup.order != g.order:
            raise BadParameters(
                f"mask of order {subgroup.order} used with group of order {g.order}"
            )
        return subgroup
    return SubsetMask.from_elements(subgroup, g.order)


def check_subgroup(g: Group, subgroup: SubsetMask | Iterable[int]) -> SubsetMask:
    """Validate closure and identity membership; returns the mask."""
    mask = _as_mask(g, subgroup)
    if 0 not in mask:
        raise NotSubgroup("subgroup must contain the identity 0")
    idx = np.array(mask.elements(), dtype=np.int32)
    prods = g.table[np.ix_(idx, idx)]
    flags = mask.as_bool()
    if not flags[prods.ravel()].all():
        a, b = np.argwhere(~flags[prods])[0]
        raise NotSubgroup(
            f"not closed: {int(idx[a])}*{int(idx[b])} = {int(prods[a, b])} is outside"
        )
    return mask


def subgroup_as_group(g: Group, subgroup: SubsetMask | Iterable[int],
                      label: str | None = None) -> Group:
    """Extract a subgroup as a standalone Group.

    Members are renumbered in ascending order; the identity stays at 0.
    """
    mask = check_subgroup(g, subgroup)
    idx = np.array(mask.elements(), dtype=np.int32)
    pos = np.full(g.order, -1, dtype=np.int32)
    pos[idx] = np.arange(len(idx), dtype=np.int32)
    return _trusted(pos[g.table[np.ix_(idx, idx)]], label,
                    pos[g.inverse[idx]], g.element_orders[idx])


def quotient(g: Group, normal: SubsetMask | Iterable[int],
             label: str | None = None) -> Group:
    """Quotient of g by a normal subgroup, elements = cosets.

    Cosets are numbered by their smallest member, ascending, which puts the
    subgroup itself (the identity coset) at index 0.
    """
    grp, _ = quotient_with_cosets(g, normal, label=label)
    return grp


def quotient_with_cosets(g: Group, normal: SubsetMask | Iterable[int],
                         label: str | None = None) -> tuple[Group, list[list[int]]]:
    mask = check_subgroup(g, normal)
    if len(mask) == 1:  # G/1 is G, memo and all, each element its own coset
        return g.relabeled(label), [[x] for x in range(g.order)]
    members = np.array(mask.elements(), dtype=np.int32)
    flags = mask.as_bool()
    conj = g.table[g.table[:, members], g.inverse[:, None]]
    moved = ~flags[conj]
    if moved.any():
        x, j = np.argwhere(moved)[0]
        raise NotNormal(
            f"conjugation by {int(x)} moves {int(members[j])} outside the subgroup"
        )
    reps, coset_id = np.unique(g.table[:, members].min(axis=1),
                               return_inverse=True)
    coset_id = coset_id.astype(np.int32)
    q_table = coset_id[g.table[np.ix_(reps, reps)]]
    cosets = np.argsort(coset_id, kind="stable").reshape(len(reps), -1).tolist()
    # g's set maps onto one of G/N, but is not worth a closure on g
    gens = _spanning.known(g)
    if gens is not None:
        gens = coset_id[list(gens)]
    return _trusted(q_table, label, coset_id[g.inverse[reps]], gens=gens), cosets
