"""Structural invariants: centralizers, Sylow data, Frobenius structure,
the non-commuting clique number, and isomorphism testing.

Everything here works on validated :class:`~cent_atlas.core.Group` values and
returns plain data.  Nothing mutates the group except its private memo:
``center``, ``cent_structure``, ``derived_subgroup``, the generating sets,
the class representatives and the centralizer sizes are computed once per
group (see :func:`~cent_atlas.core._per_group`).

Class data (hence centralizer sizes, ``center`` and ``is_abelian``) and
``derived_subgroup`` come from a generating set S alone, in O(n |S|) per
round with no n x n array.  Any S serves, so they take the one the
group's builder handed over; only ``find_isomorphism`` needs the greedy
set, whose order its search follows.  Only ``cent_structure`` builds the
commuting matrix, and ``omega`` and ``frobenius_structure`` build none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (_CLOSE_BLOCK, Group, SubsetMask, _as_mask,
                   _centralizer_sizes, _class_reps, _close, _conjugators,
                   _generating_indices, _generators, _per_group, _powers,
                   _spanning)
from .errors import (BadParameters, InconsistentInvariants, NotPrime,
                     SearchBudgetExceeded)
from .numbers import factor, is_prime

__all__ = [
    "AbelianProfile",
    "CentStructure",
    "FrobeniusStructure",
    "SylowData",
    "abelian_profile",
    "cent_structure",
    "center",
    "centralizer",
    "conjugacy_classes",
    "derived_subgroup",
    "find_isomorphism",
    "frobenius_structure",
    "is_isomorphic",
    "normalizer",
    "omega",
    "sylow",
]


@_per_group
def center(g: Group) -> SubsetMask:
    """Mask of elements commuting with everything."""
    return SubsetMask.from_bool(_centralizer_sizes(g) == g.order)


def centralizer(g: Group, x: int) -> SubsetMask:
    """Mask of elements commuting with x."""
    g.check_index(x)
    return SubsetMask.from_bool(np.equal(g.table[x], g.table[:, x]))


@dataclass(frozen=True)
class CentStructure:
    """All distinct centralizers of a group.

    ``centralizers`` lists every distinct Cent(x) once, sorted ascending by
    bitmask value; the whole group (centralizer of a central element) is
    always present.  ``representatives[i]`` is the smallest x with
    Cent(x) = ``centralizers[i]``.  ``proper_indices`` is the sorted
    multiset of [G : C] over the proper members.  ``is_ca`` says the group
    is nonabelian with every proper centralizer abelian; only then does
    count = omega + 1.  That is when |Cent(x)| - |Z(G)| counts the y with
    Cent(y) = Cent(x) for every noncentral x: Cent(x) holds those y and
    Z(G), and is abelian exactly when it holds nothing else.
    """

    order: int
    center: SubsetMask
    centralizers: tuple[SubsetMask, ...]
    representatives: tuple[int, ...]
    proper_indices: tuple[int, ...]
    is_ca: bool

    @property
    def count(self) -> int:
        return len(self.centralizers)

    def proper(self) -> list[SubsetMask]:
        full = (1 << self.order) - 1
        return [m for m in self.centralizers if m.bits != full]


@_per_group
def cent_structure(g: Group) -> CentStructure:
    """One ``np.unique`` over the bit-packed commuting rows, each viewed as
    one opaque value (``axis=0`` sorts far slower); ``ids`` maps x to C(x)."""
    n = g.order
    packed = np.packbits(np.equal(g.table, g.table.T), axis=1,
                         bitorder="little")
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, ids = np.unique(rows, return_index=True, return_inverse=True)
    by_bits = sorted((int.from_bytes(packed[x].tobytes(), "little"), int(x))
                     for x in first)
    sizes = _centralizer_sizes(g)
    z = center(g)
    noncentral = sizes < n
    proper = sizes[first][noncentral[first]]
    abelian_cent = sizes - len(z) == np.bincount(ids)[ids]
    return CentStructure(
        order=n,
        center=z,
        centralizers=tuple(SubsetMask(bits, n) for bits, _ in by_bits),
        representatives=tuple(x for _, x in by_bits),
        proper_indices=tuple(np.sort(n // proper).tolist()),
        is_ca=bool(proper.size and abelian_cent[noncentral].all()),
    )


@_per_group
def derived_subgroup(g: Group) -> SubsetMask:
    """Mask of the subgroup generated by all commutators x^-1 y^-1 x y.

    Built as the normal closure of the commutators [s, t] of the members
    s, t of any generating set (:func:`~cent_atlas.core._spanning`):
    closing under the product alternates with adding the generators'
    conjugates of the members until neither adds anything.
    That closure N is the smallest normal subgroup holding every [s, t];
    G' is normal and holds them, and G/N is abelian because its generators
    commute, so N = G'.  O(n k) per round besides the closure.
    """
    s = np.array(_spanning(g), dtype=np.intp)
    inv = g.inverse[s]
    comms = g.table[g.table[np.ix_(inv, inv)], g.table[np.ix_(s, s)]]
    conj = _conjugators(g)
    member = np.zeros(g.order, dtype=bool)
    member[0] = True
    member[comms] = True
    fresh = np.flatnonzero(member)
    while fresh.size:
        _close(g.table, member, fresh)
        hit = np.zeros_like(member)
        hit[conj[:, member]] = True
        hit &= ~member
        member |= hit
        fresh = np.flatnonzero(hit)
    return SubsetMask.from_bool(member)


def conjugacy_classes(g: Group) -> list[list[int]]:
    """Conjugacy classes, each sorted, ordered by smallest member."""
    reps = _class_reps(g)
    out: dict[int, list[int]] = {}
    for x in range(g.order):
        out.setdefault(int(reps[x]), []).append(x)
    return [out[r] for r in sorted(out)]


def _normalizing(g: Group, flags: np.ndarray, gens: list[int]) -> np.ndarray:
    """Flags of the x with x s x^-1 in S for every s in ``gens``: N_G(S)
    when ``gens`` generate the subgroup S flagged by ``flags``.  One
    n x |gens| gather."""
    conj = g.table[g.table[:, gens], g.inverse[:, None]]
    return flags[conj].all(axis=1)


def normalizer(g: Group, mask: SubsetMask) -> SubsetMask:
    """Mask of elements x with x * S * x^-1 = S, for a subgroup S.

    Conjugates a greedy generating set of S, at most log2|S| elements;
    raises NotSubgroup when the mask is not closed under the product and
    BadParameters when it belongs to a group of another order.
    """
    flags = _as_mask(g, mask).as_bool()
    gens = _generating_indices(g.table, within=flags)
    return SubsetMask.from_bool(_normalizing(g, flags, gens))


@dataclass(frozen=True)
class SylowData:
    prime: int
    count: int
    subgroup: SubsetMask


def sylow(g: Group, l: int) -> SylowData:
    """Sylow l-subgroup representative and the number of conjugates.

    The representative starts from a cyclic subgroup on an element of
    maximal l-power order and grows through normalizers until it reaches
    full l-part size, adding each time the smallest y of N_G(P) outside P
    with y^l in P, and carrying the elements added as generators of P.
    The conjugates of P number [G : N_G(P)].
    """
    if not is_prime(l):
        raise NotPrime(f"{l} is not prime")
    e = factor(g.order).get(l, 0)
    if e == 0:
        raise BadParameters(f"{l} does not divide the group order {g.order}")
    pk = l ** e
    orders = g.element_orders
    lpow = orders[np.isin(orders, [l ** i for i in range(1, e + 1)])]
    best = int(lpow.max())
    gens = [int(np.flatnonzero(orders == best)[0])]
    member = np.zeros(g.order, dtype=bool)
    member[[0, gens[0]]] = True
    _close(g.table, member, np.array(gens))
    while member.sum() < pk:
        cand = np.flatnonzero(_normalizing(g, member, gens) & ~member)
        grows = member[_powers(g.table, cand, l)]
        if not grows.any():
            raise BadParameters("normalizer growth stalled; table is corrupt")
        gens.append(int(cand[np.argmax(grows)]))
        member[gens[-1]] = True
        _close(g.table, member, np.array(gens[-1:]))
    count = g.order // int(_normalizing(g, member, gens).sum())
    return SylowData(prime=l, count=count,
                     subgroup=SubsetMask.from_bool(member))


@dataclass(frozen=True)
class AbelianProfile:
    """Classification of the abelian structure.

    kind is one of "nonabelian", "cyclic", "elementary_abelian",
    "other_abelian".  For abelian groups ``invariant_factors`` lists the
    cyclic factor orders largest first, each dividing the previous;
    ``prime`` is set only for the elementary abelian kind.
    """

    kind: str
    prime: int | None
    invariant_factors: tuple[int, ...]


def abelian_profile(g: Group) -> AbelianProfile:
    """The abelian kind and invariant factors, read off the element orders.

    If the Sylow p-subgroup of an abelian G is the product of cyclic groups
    of orders p^e_1 >= p^e_2 >= ..., the elements of order dividing p^k
    number p^(sum_i min(e_i, k)), so each k in turn shows how many e_i are
    at least k.  The j-th invariant factor is the product over p of
    p^(e_j).
    """
    if not g.is_abelian():
        return AbelianProfile("nonabelian", None, ())
    orders = g.element_orders
    factors: list[int] = []
    for p, a in factor(g.order).items():
        rank = 0  # log_p of the number of elements of order dividing p^(k-1)
        for k in range(1, a + 1):
            count = int(np.isin(orders, [p ** i for i in range(k + 1)]).sum())
            at_least_k = factor(count)[p] - rank
            rank += at_least_k
            factors += [1] * (at_least_k - len(factors))
            for j in range(at_least_k):
                factors[j] *= p
    if len(factors) <= 1:
        return AbelianProfile("cyclic", None, tuple(factors))
    if len(set(factors)) == 1 and is_prime(factors[0]):
        return AbelianProfile("elementary_abelian", factors[0], tuple(factors))
    return AbelianProfile("other_abelian", None, tuple(factors))


@dataclass(frozen=True)
class FrobeniusStructure:
    kernel: SubsetMask
    complement: SubsetMask
    complement_is_cyclic: bool


def _centralizer_closure(g: Group, seeds: list[int]) -> SubsetMask | None:
    """Smallest subgroup containing the seeds and C_G(x) for each of its
    non-identity members x, or None when that is all of G.  It is normal
    when the seeds are a union of conjugacy classes.  Each member's
    commuting row is read once, in blocks of at most ``_CLOSE_BLOCK``."""
    member = np.zeros(g.order, dtype=bool)
    done = member.copy()
    member[0] = done[0] = True
    fresh = np.asarray(seeds)
    member[fresh] = True
    step = max(1, _CLOSE_BLOCK // g.order)
    while fresh.size:
        _close(g.table, member, fresh)
        if member.all():
            return None
        new = np.flatnonzero(member & ~done)
        done |= member
        for x in np.split(new, range(step, new.size, step)):
            member |= (g.table[x] == g.table[:, x].T).any(axis=0)
        fresh = np.flatnonzero(member & ~done)
    return SubsetMask.from_bool(member)


def frobenius_structure(g: Group) -> FrobeniusStructure | None:
    """The Frobenius kernel K and a complement H, or None.

    A normal subgroup N with 1 < N < G and C_G(n) <= N for every n != 1 in N
    is exactly a Frobenius kernel (Isaacs, *Finite Group Theory*, ch. 6):
    for p dividing |N|, a Sylow p-subgroup P of G meets N in a nontrivial
    normal subgroup of P, which holds some z != 1 of Z(P), so
    P <= C_G(z) <= N; hence N is a normal Hall subgroup, Schur-Zassenhaus
    gives a complement H, and C_H(n) <= H & N = 1 makes the action
    fixed-point-free.  The kernel is unique, so the first conjugacy class
    whose centralizer closure is proper closes to K.

    Outside K, each element x lies in exactly one conjugate of H, which
    holds C_G(y) for each of its members y != 1 and has a nontrivial
    center, so the centralizer closure of {x} is that conjugate.  Abelian
    groups and groups with nontrivial center never qualify.  Raises
    InconsistentInvariants if |K| |H| != |G|.
    """
    if len(center(g)) > 1:  # includes every abelian G != 1
        return None
    for cls in conjugacy_classes(g)[1:]:
        kernel = _centralizer_closure(g, cls)
        if kernel is not None:
            break
    else:
        return None
    outside = np.flatnonzero(~kernel.as_bool())
    x = int(outside[np.argmax(g.element_orders[outside])])
    comp = _centralizer_closure(g, [x])
    if comp is None or len(kernel) * len(comp) != g.order:
        raise InconsistentInvariants(
            f"{g.label or 'group'} of order {g.order}: Frobenius kernel of "
            f"order {len(kernel)} but no complement through element {x}")
    orders_in = g.element_orders[comp.elements()]
    return FrobeniusStructure(
        kernel=kernel, complement=comp,
        complement_is_cyclic=bool((orders_in == len(comp)).any()))


# A safety cap, not a tuning knob: one node costs about 20 us on random
# graphs of 150 to 2000 vertices, so the cap is roughly 20 s of search.
# No catalog or benchmark group branches at all.
_DEFAULT_CLIQUE_BUDGET = 1_000_000


def _max_clique(adj: np.ndarray, max_nodes: int = _DEFAULT_CLIQUE_BUDGET) -> int:
    """Clique number of the graph with symmetric boolean adjacency ``adj``.

    Tomita & Seki's MCQ (DMTCS 2003) on Python-int bitsets, as in
    San Segundo et al.'s BBMC (2011): vertices are numbered by descending
    degree, a greedy clique in that order is the first lower bound, and
    each node colours its candidates greedily and branches on them from
    the highest colour down, cutting once size + colour <= best.  A vertex
    branched on counts as one node; more than ``max_nodes`` of them raise
    SearchBudgetExceeded.
    """
    by_degree = np.argsort(-adj.sum(axis=1), kind="stable")
    packed = np.packbits(adj[np.ix_(by_degree, by_degree)], axis=1,
                         bitorder="little")
    nbrs = [int.from_bytes(row.tobytes(), "little") for row in packed]
    best = 0
    cand = (1 << len(nbrs)) - 1
    while cand:
        best += 1
        cand &= nbrs[(cand & -cand).bit_length() - 1]
    nodes = 0

    def colour_sort(cand: int) -> tuple[list[int], list[int]]:
        verts: list[int] = []
        colours: list[int] = []
        colour = 0
        while cand:
            colour += 1
            free = cand
            while free:
                low = free & -free
                v = low.bit_length() - 1
                free &= ~nbrs[v] & ~low
                cand ^= low
                verts.append(v)
                colours.append(colour)
        return verts, colours

    def expand(size: int, cand: int) -> None:
        nonlocal best, nodes
        verts, colours = colour_sort(cand)
        for v, colour in zip(reversed(verts), reversed(colours)):
            if size + colour <= best:
                return
            nodes += 1
            if nodes > max_nodes:
                raise SearchBudgetExceeded(
                    f"clique search exceeded budget of {max_nodes} nodes")
            sub = cand & nbrs[v]
            if sub:
                expand(size + 1, sub)
            elif size + 1 > best:
                best = size + 1
            cand &= ~(1 << v)

    expand(0, (1 << len(nbrs)) - 1)
    return best


def omega(g: Group) -> int:
    """Largest set of pairwise non-commuting elements (1 for abelian groups).

    Elements sharing a centralizer commute, so it suffices to search one
    representative per distinct proper centralizer, taken ascending from
    ``cent_structure``; the answer is the max clique of the non-commuting
    graph on those k representatives, one k x k gather of the table, found
    by ``_max_clique`` within its default node budget.
    """
    if g.is_abelian():
        return 1
    reps = np.sort(cent_structure(g).representatives)
    reps = reps[_centralizer_sizes(g)[reps] < g.order]
    t = g.table[np.ix_(reps, reps)]
    return _max_clique(t != t.T)


def _order_histogram(g: Group) -> tuple[tuple[int, int], ...]:
    vals, counts = np.unique(g.element_orders, return_counts=True)
    return tuple((int(v), int(c)) for v, c in zip(vals, counts))


def _iso_prefilter(g: Group, h: Group) -> bool:
    if g.order != h.order:
        return False
    if _order_histogram(g) != _order_histogram(h):
        return False
    ga, ha = g.is_abelian(), h.is_abelian()
    if ga != ha:
        return False
    if ga:
        return abelian_profile(g).invariant_factors == abelian_profile(h).invariant_factors
    if sorted(_centralizer_sizes(g).tolist()) != sorted(
            _centralizer_sizes(h).tolist()):
        return False
    if len(derived_subgroup(g)) != len(derived_subgroup(h)):
        return False
    return True


def _prefix_walks(g: Group, gens: list[int]) -> list[list[tuple[int, int, int, bool]]]:
    """For each depth i, the products that grow K = <gens[:i]> to
    <gens[:i+1]>: x * gens[i] for each x of K in turn, each followed by a
    breadth-first walk from the new element it meets (if any), which takes
    w * gens[s] for every s <= i and every new w.  An entry (x, s, z, new)
    has z = x * gens[s] and says whether z is met there first.
    """
    right = g.table[:, gens].tolist()
    known = bytearray(g.order)
    known[0] = 1
    members = [0]
    walks = []
    for i in range(len(gens)):
        walk = []
        for x in members[:]:
            queue = [(x, i)]
            for w, s in queue:  # grows as new elements are met
                z = right[w][s]
                walk.append((w, s, z, not known[z]))
                if not known[z]:
                    known[z] = 1
                    members.append(z)
                    queue += [(z, t) for t in range(i + 1)]
        walks.append(walk)
    return walks


# A safety cap, not a tuning knob: with the invariants memoised, one node
# costs about 5 us on order 147 and 7 to 50 us on order 3875 (relabelled
# H(5,31,i) on a 2-core host), so the cap is about 3 s of search on small
# groups and 25 s on the largest the sweeps build.
_DEFAULT_ISO_BUDGET = 500_000


def find_isomorphism(g: Group, h: Group, max_nodes: int = _DEFAULT_ISO_BUDGET) -> list[int] | None:
    """Explicit isomorphism g -> h as an image list, or None.

    Backtracks over images of g's greedy generators g_0, g_1, ..., each
    ranging over the elements of h with the same order and centralizer size
    (hence class size); the first over conjugacy class representatives
    only, since conjugate tuples extend identically.  Each image tried counts as
    one node; more than ``max_nodes`` raise SearchBudgetExceeded.

    A prefix g_0..g_i -> y_0..y_i survives exactly when it extends to an
    injective homomorphism phi of K_i = <g_0..g_i>: walking the products
    that grow K_{i-1} to K_i, it sets phi(x g_s) = phi(x) y_s at each new
    element (which must not map to 1) and checks it at each known one.  If
    phi(x s) = phi(x) phi(s) for every x of K and every generator s, phi is
    a homomorphism on K, and its trivial kernel makes it injective.
    """
    if not _iso_prefilter(g, h):
        return None
    n = g.order
    gens = list(_generators(g))
    k = len(gens)
    g_cent, h_cent = _centralizer_sizes(g), _centralizer_sizes(h)
    is_rep = _class_reps(h) == np.arange(n)
    cands = [np.flatnonzero((h.element_orders == g.element_orders[x])
                            & (h_cent == g_cent[x])
                            & (is_rep | (i > 0))).tolist()
             for i, x in enumerate(gens)]
    if not all(cands):
        return None
    walks = _prefix_walks(g, gens)
    h_mul = memoryview(h.table)
    phi = [0] * n
    images: list[int] = []
    nodes = 0

    def extends(i: int) -> bool:
        for x, s, z, new in walks[i]:
            y = h_mul[phi[x], images[s]]
            if new:
                if y == 0:
                    return False
                phi[z] = y
            elif y != phi[z]:
                return False
        return True

    def dfs(pos: int) -> list[int] | None:
        nonlocal nodes
        if pos == k:
            return phi[:]
        for cand in cands[pos]:
            if cand in images:
                continue
            nodes += 1
            if nodes > max_nodes:
                raise SearchBudgetExceeded(
                    f"isomorphism search exceeded budget of {max_nodes} nodes"
                )
            images.append(cand)
            if extends(pos):
                got = dfs(pos + 1)
                if got is not None:
                    return got
            images.pop()
        return None

    return dfs(0)


def is_isomorphic(g: Group, h: Group, max_nodes: int = _DEFAULT_ISO_BUDGET) -> bool:
    return find_isomorphism(g, h, max_nodes=max_nodes) is not None
