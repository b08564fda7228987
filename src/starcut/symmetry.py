"""Lazy vertex-orbit queries under automorphisms that keep a coloring.

Orbits(shared, cells, poll).follows(x) asks whether some automorphism found
so far maps a smaller vertex to x.  Only automorphisms that keep every mask
in cells as a color class count; the vertices in no cell form one more
class.  The answer grows with the automorphisms found, so it is sound however
far the search got: True proves x shares an orbit with a smaller vertex,
False proves nothing.

The first query starts the object.  It colors the vertices: the key of a
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

One Shared record serves every object of a solve, so that each proof is
paid for once per solve.  It keeps the BFS distances, the neighbor lists of
the edge check, every automorphism any object verified, and each started
object's coloring under its cells.  A start refines the coloring of the
longest started prefix of its cells by the remaining cells only.  That gives
the partition, and even the color ids, of coloring by all cells at once: the
prefix's color is an injective function of the prefix's keys, and ids go by
first vertex either way.  The start then joins into its union-find every
stored automorphism that maps each of its cells onto itself, polling once
per automorphism.  Each was verified edge by edge, and any group of verified
automorphisms serves the search (the stabilizer lemma in starcut.solver), so
this is sound.  The record lives for one solve only, so a call never finds
proofs made for another.
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


class Shared:
    """What the Orbits objects of one solve on g learn, for all of them.

    g must be connected.  colors maps each started object's cells to its
    coloring; autos lists every automorphism verified so far.
    """

    __slots__ = ("g", "dist", "adj", "autos", "colors")

    def __init__(self, g: Graph):
        self.g = g
        self.dist: dict[int, list[int]] = {}
        self.adj = [bits(row) for row in g.masks]
        self.autos: list[list[int]] = []
        self.colors: dict[tuple[int, ...], list[int]] = {(): [0] * g.n}

    def distances(self, u: int) -> list[int]:
        """BFS distance from u to every vertex, cached."""
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

    def is_automorphism(self, sigma: list[int]) -> bool:
        """True iff the vertex bijection sigma maps every edge of g to an edge."""
        masks = self.g.masks
        for x, row in enumerate(self.adj):
            image = masks[sigma[x]]
            for y in row:
                if not image >> sigma[y] & 1:
                    return False
        return True


class Orbits:
    """Orbit queries under the automorphisms of shared.g that keep each mask in cells."""

    __slots__ = ("shared", "cells", "poll", "color", "leader", "budget")

    def __init__(self, shared: Shared, cells: tuple[int, ...], poll: Callable[[], None]):
        self.shared = shared
        self.cells = cells
        self.poll = poll
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
                self.shared.autos.append(sigma)
                self._join(sigma)
                return True
        return False

    def _start(self) -> None:
        shared, cells = self.shared, self.cells
        colors = shared.colors
        k = len(cells)
        while cells[:k] not in colors:
            k -= 1
        color = colors[cells[:k]]
        if k < len(cells):
            groups = [[shared.distances(u) for u in bits(cell)] for cell in cells[k:]]
            ids: dict[tuple, int] = {}
            color = colors[cells] = [
                ids.setdefault(
                    (c, *(tuple(sorted(d[v] for d in group)) for group in groups)), len(ids)
                )
                for v, c in enumerate(color)
            ]
        self.color = color
        self.leader = list(range(len(color)))
        members = [bits(cell) for cell in cells]
        for sigma in shared.autos:
            if all(cell >> sigma[v] & 1 for cell, vs in zip(cells, members) for v in vs):
                self.poll()
                self._join(sigma)

    def _join(self, sigma: list[int]) -> None:
        leader, find = self.leader, self._find
        for v, w in enumerate(sigma):
            a, b = find(v), find(w)
            if a != b:
                leader[max(a, b)] = min(a, b)

    def _find(self, x: int) -> int:
        leader = self.leader
        while leader[x] != x:
            leader[x] = x = leader[leader[x]]
        return x

    def _fix(self, col_a: list[int], col_b: list[int], a: int, b: int):
        # One step: split both colorings by distance to a, resp. b.
        self.poll()
        if self.budget <= 0:
            return None
        self.budget -= 1
        dist = self.shared.distances
        ids: dict[tuple[int, int], int] = {}
        new_a = [ids.setdefault(key, len(ids)) for key in zip(col_a, dist(a))]
        left = [0] * len(ids)
        for k in new_a:
            left[k] += 1
        new_b = []
        for key in zip(col_b, dist(b)):
            k = ids.get(key, -1)
            if k < 0 or not left[k]:
                return None
            left[k] -= 1
            new_b.append(k)
        return new_a, new_b, len(ids)

    def _extend(self, col_a: list[int], col_b: list[int], cells: int) -> list[int] | None:
        n = len(col_a)
        if cells == n:
            where = [0] * n
            for y, k in enumerate(col_b):
                where[k] = y
            sigma = [where[k] for k in col_a]
            return sigma if self.shared.is_automorphism(sigma) else None
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
