"""Exhaustive enumeration of groups of a given small order.

The search assigns labels to elements as they are first produced, so each
isomorphism class is visited a bounded number of times regardless of how
many labeled tables it has.  Labels grow along generator columns: label 0
is the identity, a new generator takes the next free label, and the
products of known elements with a new generator are forced onto a fresh
block of labels.  Associativity is enforced through column composition:
for every known cell y*g = v the relation x*v = (x*y)*g must hold for all
x, and these relations propagate to a fixpoint after every assignment.
Leaves are validated tables; isomorphism testing removes duplicates.
"""

from __future__ import annotations

import numpy as np

from .core import Group, from_cayley_table
from .errors import BadParameters
from .invariants import is_isomorphic

__all__ = ["MAX_ENUMERATION_ORDER", "count_groups", "enumerate_groups"]

MAX_ENUMERATION_ORDER = 15


class _Dead(Exception):
    """Internal: current branch is inconsistent."""


class _State:
    __slots__ = ("n", "size", "gens", "table", "row_used", "col_used")

    def __init__(self, n: int):
        self.n = n
        self.size = 1
        self.gens: list[int] = []
        self.table = [-1] * (n * n)
        self.row_used = [0] * n
        self.col_used = [0] * n
        self.table[0] = 0
        self.row_used[0] = 1
        self.col_used[0] = 1

    def copy(self) -> "_State":
        dup = _State.__new__(_State)
        dup.n = self.n
        dup.size = self.size
        dup.gens = self.gens[:]
        dup.table = self.table[:]
        dup.row_used = self.row_used[:]
        dup.col_used = self.col_used[:]
        return dup

    def place(self, x: int, j: int, v: int) -> None:
        """Record x*j = v in an empty cell; _Dead if row x or column j
        already holds v."""
        bit = 1 << v
        if self.row_used[x] & bit or self.col_used[j] & bit:
            raise _Dead
        self.table[x * self.n + j] = v
        self.row_used[x] |= bit
        self.col_used[j] |= bit

    def new_label(self) -> int:
        v = self.size
        self.size = v + 1
        self.place(v, 0, v)
        self.place(0, v, v)
        return v

    def propagate(self) -> None:
        n, table = self.n, self.table
        changed = True
        while changed:
            changed = False
            for gl in self.gens:
                for y in range(self.size):
                    v = table[y * n + gl]
                    if v < 0:
                        continue
                    # x*v = (x*y)*gl for every x
                    for x in range(self.size):
                        a = table[x * n + y]
                        if a < 0:
                            continue
                        b = table[a * n + gl]
                        tv = table[x * n + v]
                        if b >= 0:
                            if tv < 0:
                                self.place(x, v, b)
                                changed = True
                            elif tv != b:
                                raise _Dead
                        elif tv >= 0:
                            self.place(a, gl, tv)
                            changed = True

    def first_open_cell(self) -> tuple[int, int] | None:
        n, table = self.n, self.table
        for y in range(self.size):
            for gl in self.gens:
                if table[y * n + gl] < 0:
                    return y, gl
        return None

    def add_generator(self) -> None:
        """Introduce a generator outside the closed span of the current ones.

        Its products with the known elements are fresh and pairwise
        distinct, so they take the next block of labels in row order.
        """
        span = self.size
        gl = self.new_label()
        self.gens.append(gl)
        for y in range(1, span):
            w = self.new_label()
            self.place(y, gl, w)


def _search(n: int) -> list[np.ndarray]:
    """All completed tables the canonical search reaches, unreduced."""
    leaves: list[np.ndarray] = []

    def rec(state: _State) -> None:
        try:
            state.propagate()
        except _Dead:
            return
        cell = state.first_open_cell()
        if cell is None:
            if state.size < n:
                if n % state.size:
                    return
                state.add_generator()
                rec(state)
                return
            arr = np.array(state.table, dtype=np.int64).reshape(n, n)
            if (arr < 0).any():
                raise AssertionError("incomplete table at a closed leaf")
            leaves.append(arr)
            return
        y, gl = cell
        row_used = state.row_used[y]
        col_used = state.col_used[gl]
        # each free label, then a new one while labels remain
        for v in range(state.size + (state.size < n)):
            if (row_used >> v) & 1 or (col_used >> v) & 1:
                continue
            # v is free in row y and column gl; a new label's row and column are empty
            branch = state.copy()
            if v == state.size:
                branch.new_label()
            branch.place(y, gl, v)
            rec(branch)

    rec(_State(n))
    return leaves


def enumerate_groups(n: int, order_cap: int | None = None) -> list[Group]:
    """One group per isomorphism class of order n, in discovery order."""
    if n < 1:
        raise BadParameters(f"order must be positive, got {n}")
    if n > MAX_ENUMERATION_ORDER:
        raise BadParameters(
            f"order {n} exceeds the search limit {MAX_ENUMERATION_ORDER}")
    reps: list[Group] = []
    for arr in _search(n):
        g = from_cayley_table(arr, order_cap=order_cap)
        if any(is_isomorphic(g, h) for h in reps):
            continue
        reps.append(g.relabeled(f"E{n}.{len(reps) + 1}"))
    return reps


def count_groups(n: int) -> int:
    return len(enumerate_groups(n))
