"""Structural invariants: centralizers, Sylow data, Frobenius structure,
the non-commuting clique number, and isomorphism testing.

Everything here works on validated :class:`~cent_atlas.core.Group` values and
returns plain data.  Nothing mutates the group except its private memo:
``center``, ``cent_structure``, ``derived_subgroup``, the one generating
set, the class representatives and the centralizer sizes are computed
once per group (see :func:`~cent_atlas.core._per_group`).

Class data (hence centralizer sizes, ``center`` and ``is_abelian``) and
``derived_subgroup`` come from a generating set S alone, in O(n |S|) per
round with no n x n array.  Any S serves, so they take the one the
group's builder handed over.  ``find_isomorphism`` keeps none: its
search picks its own generators, by element order, as it walks
(``_prefix_walks``).  Only ``cent_structure`` builds the
commuting matrix, and ``omega`` and ``frobenius_structure`` build none.
The matrix's row sums are the centralizer sizes, so a group whose
``cent_structure`` comes first takes its sizes, ``center`` and
``is_abelian`` from there, with no class representatives.
The subgroup closures (G', Sylow growth and the Frobenius kernel and
complement) all run ``core._close``, the one closure loop: G' with each
new member's conjugates by S alongside the products, and the Frobenius
closures with each new member's centralizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Group, SubsetMask, _centralizer_sizes, _class_reps,
                   _close, _conjugators, _per_group, _powers, _spanning,
                   check_subgroup, subgroup_as_group)
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
    one opaque value (``axis=0`` sorts far slower); ``ids`` maps x to C(x).

    The commuting matrix's row sums are the centralizer sizes, so they
    seed :func:`~cent_atlas.core._centralizer_sizes`, which keeps an entry
    already there.  Groups reaching this point need no class
    representatives for their sizes, ``center`` or ``is_abelian``.
    The matrix itself is dropped once packed.
    """
    n = g.order
    commute = np.equal(g.table, g.table.T)
    _centralizer_sizes.seed(g, np.count_nonzero(commute, axis=1))
    packed = np.packbits(commute, axis=1, bitorder="little")
    del commute
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
    one ``_close`` under the product and the generators' conjugates of
    each new member.  That closure N is the smallest normal subgroup
    holding every [s, t]; G' is normal and holds them, and G/N is abelian
    because its generators commute, so N = G'.  O(k) conjugates per
    member besides the products.
    """
    s = np.array(_spanning(g), dtype=np.intp)
    inv = g.inverse[s]
    comms = g.table[g.table[np.ix_(inv, inv)], g.table[np.ix_(s, s)]]
    conj = _conjugators(g)
    member = np.zeros(g.order, dtype=bool)
    member[0] = True
    member[comms] = True
    _close(g.table, member, np.flatnonzero(member), lambda x: conj[:, x])
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

    Conjugates S's greedy generating set, at most log2|S| elements: the
    ``_spanning`` set of S as a standalone group, mapped back to g's
    labels, which keeps their order.  Raises NotSubgroup, naming the
    product that leaves the mask, when it is not closed (``check_subgroup``)
    and BadParameters when it belongs to a group of another order.
    """
    mask = check_subgroup(g, mask)
    members = np.array(mask.elements())
    gens = members[list(_spanning(subgroup_as_group(g, mask)))]
    return SubsetMask.from_bool(_normalizing(g, mask.as_bool(), gens))


@dataclass(frozen=True)
class SylowData:
    prime: int
    count: int
    subgroup: SubsetMask


def sylow(g: Group, l: int) -> SylowData:
    """Sylow l-subgroup representative and the number of conjugates.

    The representative is <x> for the first x of maximal l-power order,
    grown through normalizers until it reaches the l-part l^e of |G|: each
    time by the smallest y of N_G(P) outside P with y^l in P, carrying the
    elements added as generators of P.  The conjugates of P number
    [G : N_G(P)].  The element orders, whose l-power ones are those
    dividing l^e, settle two cases with no closure (Holt, Eick &
    O'Brien, *Handbook of Computational Group Theory*, 2005, 4.7):

    - exactly l^e elements of l-power order: each Sylow subgroup holds
      l^e of them and every one lies in some Sylow subgroup, so they form
      the only one, which the growth reaches too; the count is 1.
    - an element x of order l^e: <x> is a Sylow subgroup, so every Sylow
      subgroup is cyclic and holds phi(l^e) elements of order l^e, each
      generating it and lying in no other; they number
      #{order l^e} / phi(l^e).  The growth starts from this same <x>,
      already of full size, and never runs.  <x> is x's powers, doubled
      by one gather a round, about log2(l^e) gathers.
    """
    if not is_prime(l):
        raise NotPrime(f"{l} is not prime")
    e = factor(g.order).get(l, 0)
    if e == 0:
        raise BadParameters(f"{l} does not divide the group order {g.order}")
    pk = l ** e
    orders = g.element_orders
    lpow = pk % orders == 0  # the elements of l-power order
    if np.count_nonzero(lpow) == pk:
        return SylowData(prime=l, count=1, subgroup=SubsetMask.from_bool(lpow))
    gens = [int(np.argmax(np.where(lpow, orders, 0)))]
    member = np.zeros(g.order, dtype=bool)
    if orders[gens[0]] == pk:
        powers = np.array([0, gens[0]])
        while powers.size < pk:  # x^m times x^0..x^(m-1) gives x^m..x^(2m-1)
            powers = np.append(powers, g.table[g.table[powers[-1], gens[0]], powers])
        member[powers] = True
        count = int(np.count_nonzero(orders == pk)) // (pk - pk // l)
        return SylowData(prime=l, count=count, subgroup=SubsetMask.from_bool(member))
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
            count = int(np.count_nonzero(p ** k % orders == 0))
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
    when the seeds are a union of conjugacy classes.  One ``_close``
    under the product and each new member's commuting row, read once;
    the identity is closed at the call, so its row, all of G, is never
    read."""
    member = np.zeros(g.order, dtype=bool)
    member[[0, *seeds]] = True
    _close(g.table, member, np.asarray(seeds),
           lambda x: (g.table[x] == g.table[:, x].T).any(axis=0))
    return None if member.all() else SubsetMask.from_bool(member)


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


def _iso_prefilter(g: Group, h: Group) -> bool:
    """False when an invariant tells g and h apart: the count of elements
    of each order (hence the order), then commutativity.  Two abelian
    groups with equal counts are isomorphic, as the counts of elements of
    order dividing p^k give every Sylow p-subgroup's cyclic factors (see
    :func:`abelian_profile`), so they pass at once; nonabelian ones must
    also share their sorted centralizer sizes and |G'|."""
    if not np.array_equal(np.bincount(g.element_orders), np.bincount(h.element_orders)):
        return False
    abelian = g.is_abelian()
    if abelian != h.is_abelian():
        return False
    return abelian or (
        np.array_equal(np.sort(_centralizer_sizes(g)), np.sort(_centralizer_sizes(h)))
        and len(derived_subgroup(g)) == len(derived_subgroup(h)))


def _prefix_walks(g: Group) -> tuple[list[int], list[list[tuple[int, int, int, bool]]]]:
    """The search's generators g_0, g_1, ... of g and, for each depth i,
    the products that grow K_{i-1} = <g_0..g_{i-1}> to K_i.

    g_i is the smallest element of largest order outside K_{i-1}, which
    the walks so far have flagged in ``known``, so picking it costs one
    ``np.argmax``; each K_i at least doubles K_{i-1}, so there are at most
    log2(n) generators.  Walk i takes x * g_i for each x of K_{i-1} in
    turn, each followed by a breadth-first walk from the new element it
    meets (if any), which takes w * g_s for every s <= i and every new w.
    An entry (x, s, z, new) has z = x * g_s and says whether z is met
    there first.  Every member's product with every g_s is then in K_i,
    so K_i is closed and is the subgroup.
    """
    known = bytearray(g.order)
    known[0] = 1
    flags = np.frombuffer(known, dtype=bool)
    members, gens, right, walks = [0], [], [], []
    while len(members) < g.order:
        i = len(gens)
        gens.append(int(np.argmax(np.where(flags, 0, g.element_orders))))
        right.append(g.table[:, gens[i]].tolist())
        walk = []
        for x in members[:]:
            queue = [(x, i)]
            for w, s in queue:  # grows as new elements are met
                z = right[s][w]
                walk.append((w, s, z, not known[z]))
                if not known[z]:
                    known[z] = 1
                    members.append(z)
                    queue += [(z, t) for t in range(i + 1)]
        walks.append(walk)
    return gens, walks


# A safety cap, not a tuning knob: with the invariants memoised, one node
# costs about 5 us on order 147 and 7 to 50 us on order 3875 (relabelled
# H(5,31,i) on a 2-core host), so the cap is about 3 s of search on small
# groups and 25 s on the largest the sweeps build.
_DEFAULT_ISO_BUDGET = 500_000


def find_isomorphism(g: Group, h: Group, max_nodes: int = _DEFAULT_ISO_BUDGET) -> list[int] | None:
    """Explicit isomorphism g -> h as an image list, or None.

    Backtracks over images of the generators g_0, g_1, ... that
    :func:`_prefix_walks` picks in g, each ranging over the elements of h
    with the same order and centralizer size (hence class size); the first
    over conjugacy class representatives only, since conjugate tuples
    extend identically.  Each image tried counts as one node; more than
    ``max_nodes`` raise SearchBudgetExceeded.

    A prefix g_0..g_i -> y_0..y_i survives exactly when it extends to an
    injective homomorphism phi of K_i = <g_0..g_i>: walking the products
    that grow K_{i-1} to K_i, it sets phi(x g_s) = phi(x) y_s at each new
    element (which must not map to 1) and checks it at each known one.  If
    phi(x s) = phi(x) phi(s) for every x of K and every generator s, phi is
    a homomorphism on K, and its trivial kernel makes it injective.

    When h shares g's table object (``relabeled`` copies, G/1), the
    identity map is returned at once, expanding no nodes, so even
    ``max_nodes=0`` cannot raise.  It is the map the search would find
    first: g_0, the smallest element of largest order, is a class minimum
    and the first candidate at depth 0, and every candidate below g_i of
    g_i's order lies in K_{i-1}, where its image would give phi a
    non-trivial kernel.  Equal tables held in two objects take the search.
    """
    n = g.order
    if g.table is h.table:
        return list(range(n))
    if not _iso_prefilter(g, h):
        return None
    gens, walks = _prefix_walks(g)
    k = len(gens)
    g_cent, h_cent = _centralizer_sizes(g), _centralizer_sizes(h)
    is_rep = _class_reps(h) == np.arange(n)
    cands = [np.flatnonzero((h.element_orders == g.element_orders[x])
                            & (h_cent == g_cent[x])
                            & (is_rep | (i > 0))).tolist()
             for i, x in enumerate(gens)]
    if not all(cands):
        return None
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
