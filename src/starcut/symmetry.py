"""Vertex orbits of a regular graph, from automorphisms found by search.

orbit_followers(g, poll) returns the vertices whose orbit holds a smaller
vertex, under the group that the automorphisms it finds generate.  It does
nothing unless g is regular.  For each v not yet in 0's orbit it looks for
σ with σ(0) = v, in the spirit of McKay & Piperno, *Practical graph
isomorphism II* (2014): it fixes 0 against v, splits both sides by distance
to every vertex fixed so far, fixes the least vertex of a cell that is not
yet a singleton against each candidate of the matching cell in turn, and
backtracks when the two sides' cells stop matching.  A discrete match is
checked edge by edge before its pairs x ~ σ(x) join a union-find, whose
classes are then the orbits of the group generated so far.  So the answer
is sound however far the search got: AUT_NODE_BUDGET bounds its steps, and
poll may stop it by raising.
"""

from __future__ import annotations

from typing import Callable

from .graph import Graph, bits

# Individualization steps one orbit_followers call may take.
AUT_NODE_BUDGET = 64


def orbit_followers(g: Graph, poll: Callable[[], None]) -> int:
    """Mask of the vertices that share a found orbit with a smaller vertex.

    0 unless g is regular.  g must be connected.  poll runs before every
    search step.
    """
    masks = g.masks
    degree = masks[0].bit_count()
    for row in masks:
        if row.bit_count() != degree:
            return 0
    n = g.n
    leader = list(range(n))  # union-find; each root is its class's least vertex

    def find(x: int) -> int:
        while leader[x] != x:
            leader[x] = x = leader[leader[x]]
        return x

    budget = [AUT_NODE_BUDGET]
    dist: dict[int, list[int]] = {}
    for v in range(1, n):
        if find(v) == 0:
            continue
        sigma = _automorphism(g, v, poll, dist, budget)
        if sigma is None:
            if budget[0] <= 0:
                break
            continue
        for x, y in enumerate(sigma):
            a, b = find(x), find(y)
            if a != b:
                leader[max(a, b)] = min(a, b)
    skip = 0
    for x in range(n):
        if find(x) != x:
            skip |= 1 << x
    return skip


def _automorphism(
    g: Graph,
    v: int,
    poll: Callable[[], None],
    dist: dict[int, list[int]],
    budget: list[int],
) -> list[int] | None:
    """An automorphism σ with σ(0) = v as the list of images, or None.

    None also once budget[0], the steps left, runs out.  dist caches each
    fixed vertex's distances.
    """
    n = g.n

    def distances(u: int) -> list[int]:
        got = dist.get(u)
        if got is None:
            got = dist[u] = _distances(g, u)
        return got

    def fix(col_a: list[int], col_b: list[int], a: int, b: int):
        # One step: split both colorings by distance to a, resp. b.
        poll()
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        ids: dict[tuple[int, int], int] = {}
        new_a = [ids.setdefault(key, len(ids)) for key in zip(col_a, distances(a))]
        left = [0] * len(ids)
        for k in new_a:
            left[k] += 1
        new_b = []
        for key in zip(col_b, distances(b)):
            k = ids.get(key, -1)
            if k < 0 or not left[k]:
                return None
            left[k] -= 1
            new_b.append(k)
        return new_a, new_b, len(ids)

    def extend(col_a: list[int], col_b: list[int], cells: int) -> list[int] | None:
        if cells == n:
            where = [0] * n
            for y, k in enumerate(col_b):
                where[k] = y
            sigma = [where[k] for k in col_a]
            return sigma if _is_automorphism(g, sigma) else None
        size = [0] * cells
        for k in col_a:
            size[k] += 1
        a = next(x for x, k in enumerate(col_a) if size[k] > 1)
        cell = col_a[a]
        for b, k in enumerate(col_b):
            if k != cell:
                continue
            step = fix(col_a, col_b, a, b)
            if step is not None:
                sigma = extend(*step)
                if sigma is not None:
                    return sigma
        return None

    step = fix([0] * n, [0] * n, 0, v)
    return None if step is None else extend(*step)


def _distances(g: Graph, u: int) -> list[int]:
    """BFS distance from u to every vertex of the connected graph g."""
    masks = g.masks
    out = [0] * g.n
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


def _is_automorphism(g: Graph, sigma: list[int]) -> bool:
    """True iff the vertex bijection sigma maps every edge of g to an edge."""
    masks = g.masks
    for x, row in enumerate(masks):
        image = masks[sigma[x]]
        for y in bits(row):
            if not image >> sigma[y] & 1:
                return False
    return True
