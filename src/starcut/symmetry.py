"""Lazy vertex-orbit queries under automorphisms that keep a coloring.

Orbits(g, cells, poll, dist).follows(x) asks whether some automorphism found
so far maps a smaller vertex to x.  Only automorphisms that keep every mask
in cells as a color class count; the vertices in no cell form one more
class.  The answer grows with the automorphisms found, so it is sound however
far the search got: True proves x shares an orbit with a smaller vertex,
False proves nothing.

The first query builds the object.  It colors the vertices: the key of a
vertex is, per cell, the sorted distances to the cell's members, which every
automorphism that keeps the cells also keeps.  It then starts a union-find
whose classes are the orbits of the group generated so far.  A query x that
is not the least of its class answers True at once.

For a query x that is still the least of its class, the object tries each
class leader r < x of x's color in turn, and looks for σ with σ(r) = x in
the spirit of McKay & Piperno, *Practical graph isomorphism II* (2014): it
fixes r against x, splits both sides by distance to every vertex fixed so
far, fixes the least vertex of a cell that is not yet a singleton against
each candidate of the matching cell in turn, and backtracks when the two
sides' cells stop matching.  A discrete match is checked edge by edge before
its pairs v ~ σ(v) join the union-find.  AUT_NODE_BUDGET bounds the steps
of one object, and poll runs before each step and may stop it by raising.
"""

from __future__ import annotations

from typing import Callable

from .graph import Graph, bits

# Individualization steps one Orbits object may take over all its queries.
AUT_NODE_BUDGET = 64


def is_regular(g: Graph) -> bool:
    """True iff every vertex of g has the same degree."""
    masks = g.masks
    degree = masks[0].bit_count()
    for row in masks:
        if row.bit_count() != degree:
            return False
    return True


class Orbits:
    """Orbit queries under the automorphisms of g that keep each mask in cells.

    g must be connected.  dist caches each vertex's BFS distances and may be
    shared by every Orbits object on the same graph.
    """

    __slots__ = ("g", "cells", "poll", "dist", "color", "leader", "budget")

    def __init__(
        self,
        g: Graph,
        cells: tuple[int, ...],
        poll: Callable[[], None],
        dist: dict[int, list[int]],
    ):
        self.g = g
        self.cells = cells
        self.poll = poll
        self.dist = dist
        self.color: list[int] = []
        self.leader: list[int] = []  # union-find; each root is its class's least vertex
        self.budget = AUT_NODE_BUDGET

    def follows(self, x: int) -> bool:
        """True iff a found automorphism maps a vertex smaller than x to x."""
        if not self.leader:
            self._start()
        leader, color = self.leader, self.color
        if self._find(x) != x:
            return True
        want = color[x]
        for r in range(x):
            if self.budget <= 0:
                break
            if color[r] != want or leader[r] != r:
                continue
            step = self._fix(color, color, r, x)
            sigma = None if step is None else self._extend(*step)
            if sigma is not None:
                for v, w in enumerate(sigma):
                    a, b = self._find(v), self._find(w)
                    if a != b:
                        leader[max(a, b)] = min(a, b)
                return True
        return False

    def _start(self) -> None:
        n = self.g.n
        groups = [[self._distances(u) for u in bits(cell)] for cell in self.cells]
        ids: dict[tuple, int] = {}
        self.color = [
            ids.setdefault(
                tuple(tuple(sorted(d[v] for d in group)) for group in groups), len(ids)
            )
            for v in range(n)
        ]
        self.leader = list(range(n))

    def _find(self, x: int) -> int:
        leader = self.leader
        while leader[x] != x:
            leader[x] = x = leader[leader[x]]
        return x

    def _distances(self, u: int) -> list[int]:
        """BFS distance from u to every vertex, cached in dist."""
        out = self.dist.get(u)
        if out is not None:
            return out
        masks = self.g.masks
        out = self.dist[u] = [0] * self.g.n
        seen = frontier = 1 << u
        d = 0
        while frontier:
            d += 1
            nxt = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                nxt |= masks[bit.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= frontier
            for x in bits(frontier):
                out[x] = d
        return out

    def _fix(self, col_a: list[int], col_b: list[int], a: int, b: int):
        # One step: split both colorings by distance to a, resp. b.
        self.poll()
        if self.budget <= 0:
            return None
        self.budget -= 1
        ids: dict[tuple[int, int], int] = {}
        new_a = [ids.setdefault(key, len(ids)) for key in zip(col_a, self._distances(a))]
        left = [0] * len(ids)
        for k in new_a:
            left[k] += 1
        new_b = []
        for key in zip(col_b, self._distances(b)):
            k = ids.get(key, -1)
            if k < 0 or not left[k]:
                return None
            left[k] -= 1
            new_b.append(k)
        return new_a, new_b, len(ids)

    def _extend(self, col_a: list[int], col_b: list[int], cells: int) -> list[int] | None:
        n = self.g.n
        if cells == n:
            where = [0] * n
            for y, k in enumerate(col_b):
                where[k] = y
            sigma = [where[k] for k in col_a]
            return sigma if _is_automorphism(self.g, sigma) else None
        size = [0] * cells
        for k in col_a:
            size[k] += 1
        a = next(v for v, k in enumerate(col_a) if size[k] > 1)
        cell = col_a[a]
        for b, k in enumerate(col_b):
            if k != cell:
                continue
            step = self._fix(col_a, col_b, a, b)
            if step is not None:
                sigma = self._extend(*step)
                if sigma is not None:
                    return sigma
        return None


def _is_automorphism(g: Graph, sigma: list[int]) -> bool:
    """True iff the vertex bijection sigma maps every edge of g to an edge."""
    masks = g.masks
    for x, row in enumerate(masks):
        image = masks[sigma[x]]
        for y in bits(row):
            if not image >> sigma[y] & 1:
                return False
    return True
