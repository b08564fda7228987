"""Immutable simple-graph core.

Vertices are dense integers 0..n-1.  The adjacency is stored once, as one
neighbor bitmask per vertex: bit v of masks[u] is set iff uv is an edge.
The search, the verifiers and the reductions work on these vertex sets
directly.  Neighbor lists and edge lists are read off the masks in
increasing id order, so every derived artifact (certificates, serialized
files, search order) is deterministic.  `mask_connected` is one BFS that
stops at the first round that has reached the whole mask; `mask_span` is one
that runs to the end and also returns the neighborhood of what it reached.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def bits(mask: int) -> list[int]:
    """The vertex ids in a nonnegative mask, increasing."""
    out = []
    while mask:
        v = mask.bit_length() - 1
        out.append(v)
        mask ^= 1 << v
    out.reverse()
    return out


class Graph:
    """Finite simple undirected graph with vertices 0..n-1."""

    __slots__ = ("n", "masks", "full_mask", "edge_count")

    def __init__(self, masks: Sequence[int]):
        # `masks` is trusted here; construct through build() to validate input.
        self.masks = tuple(masks)
        self.n = len(self.masks)
        self.full_mask = (1 << self.n) - 1
        self.edge_count = sum(m.bit_count() for m in self.masks) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.masks[v]))

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return self.masks[u] >> v & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u, row in enumerate(self.masks):
            # One scan of the row above u, least bit first.
            for v, digit in enumerate(bin(row >> (u + 1))[:1:-1], u + 1):
                if digit == "1":
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.masks == other.masks

    def __hash__(self) -> int:
        return hash(self.masks)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def build(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list.

    Rejects self-loops and out-of-range endpoints.  Repeated edges collapse
    to one; use the text-format parser when duplicates must be an error.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    masks = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(masks)


def audit(g: Graph) -> None:
    """Check structural invariants; raises ValueError on any violation."""
    for u, row in enumerate(g.masks):
        if row >> g.n:
            raise ValueError(f"neighbor mask of {u} has a bit at or above n={g.n}")
        if row >> u & 1:
            raise ValueError(f"self-loop at {u}")
        for v in bits(row):
            if not g.masks[v] >> u & 1:
                raise ValueError(f"asymmetric edge ({u}, {v})")


def complete(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph([full ^ (1 << u) for u in range(n)])


def star(m: int) -> Graph:
    """K_{1,m}: center 0 with leaves 1..m."""
    if m < 0:
        raise ValueError("leaf count must be nonnegative")
    return build(m + 1, [(0, v) for v in range(1, m + 1)])


def path(n: int) -> Graph:
    return build(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build(n, [(v, (v + 1) % n) for v in range(n)])


def mask_connected(g: Graph, mask: int) -> bool:
    """True iff the vertices in `mask` induce a connected subgraph.

    The empty and single-vertex masks count as connected.
    """
    masks = g.masks
    reach = frontier = mask & -mask
    while frontier and reach != mask:
        nxt = 0
        rest = frontier
        while rest:
            v = rest.bit_length() - 1
            rest ^= 1 << v
            nxt |= masks[v]
        frontier = nxt & mask & ~reach
        reach |= frontier
    return reach == mask


def mask_span(g: Graph, mask: int) -> tuple[int, int]:
    """(C, N): the component C of G[mask] that holds mask's least vertex, and
    the OR of the neighbor masks of C's vertices.  Both are 0 for mask 0.

    Unlike mask_connected it never stops early, as N needs every row of C.
    """
    masks = g.masks
    reach = frontier = mask & -mask
    around = 0
    while frontier:
        nxt = 0
        while frontier:
            v = frontier.bit_length() - 1
            frontier ^= 1 << v
            nxt |= masks[v]
        around |= nxt
        frontier = nxt & mask & ~reach
        reach |= frontier
    return reach, around


def is_connected(g: Graph) -> bool:
    """Whole-graph connectivity; the empty graph counts as connected."""
    return mask_connected(g, g.full_mask)
