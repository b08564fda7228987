"""Immutable simple-graph core.

Vertices are dense integers 0..n-1.  Neighbor lists are kept sorted so that
every derived artifact (certificates, serialized files, search order) is
deterministic.  Adjacency bitmasks are built lazily for the search and
verification hot paths.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class Graph:
    """Finite simple undirected graph with vertices 0..n-1."""

    __slots__ = ("n", "adj", "_masks", "_edge_count")

    def __init__(self, adj: Sequence[Sequence[int]]):
        # `adj` is trusted here; construct through build() to validate input.
        self.n = len(adj)
        self.adj = tuple(tuple(row) for row in adj)
        self._masks: tuple[int, ...] | None = None
        self._edge_count: int | None = None

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return self.masks[u] >> v & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    @property
    def edge_count(self) -> int:
        if self._edge_count is None:
            self._edge_count = sum(len(row) for row in self.adj) // 2
        return self._edge_count

    @property
    def masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks (bit v set iff v is a neighbor)."""
        if self._masks is None:
            out = []
            for row in self.adj:
                m = 0
                for v in row:
                    m |= 1 << v
                out.append(m)
            self._masks = tuple(out)
        return self._masks

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def build(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list.

    Rejects self-loops and out-of-range endpoints.  Repeated edges collapse
    to one; use the text-format parser when duplicates must be an error.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        sets[u].add(v)
        sets[v].add(u)
    return Graph([sorted(s) for s in sets])


def audit(g: Graph) -> None:
    """Check structural invariants; raises ValueError on any violation."""
    if len(g.adj) != g.n:
        raise ValueError("adjacency length disagrees with n")
    for u, row in enumerate(g.adj):
        if list(row) != sorted(set(row)):
            raise ValueError(f"neighbor list of {u} not sorted and duplicate-free")
        for v in row:
            if not (0 <= v < g.n):
                raise ValueError(f"neighbor {v} of {u} out of range")
            if v == u:
                raise ValueError(f"self-loop at {u}")
            if u not in g.adj[v]:
                raise ValueError(f"asymmetric edge ({u}, {v})")


def complete(n: int) -> Graph:
    return Graph([[v for v in range(n) if v != u] for u in range(n)])


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


def disjoint_union(a: Graph, b: Graph) -> Graph:
    adj = [list(row) for row in a.adj]
    adj.extend([v + a.n for v in row] for row in b.adj)
    return Graph(adj)


def closed_neighborhood(g: Graph, xs: Iterable[int]) -> tuple[int, ...]:
    out = set()
    for x in xs:
        out.add(x)
        out.update(g.adj[x])
    return tuple(sorted(out))


def open_neighborhood(g: Graph, xs: Iterable[int]) -> tuple[int, ...]:
    xset = set(xs)
    out = set()
    for x in xset:
        out.update(g.adj[x])
    return tuple(sorted(out - xset))


def remove_vertices(g: Graph, xs: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Delete a vertex set and re-index densely.

    Returns (subgraph, old_ids) where old_ids[new_id] is the vertex's id in g.
    """
    gone = set(xs)
    for x in gone:
        if not (0 <= x < g.n):
            raise ValueError(f"vertex {x} out of range")
    old_ids = tuple(v for v in range(g.n) if v not in gone)
    new_id = {old: new for new, old in enumerate(old_ids)}
    adj = [[new_id[w] for w in g.adj[old] if w not in gone] for old in old_ids]
    return Graph(adj), old_ids


def mask_connected(g: Graph, mask: int) -> bool:
    """True iff the vertices in `mask` induce a connected subgraph.

    The empty and single-vertex masks count as connected.
    """
    if mask == 0:
        return True
    masks = g.masks
    reach = mask & -mask
    frontier = reach
    while frontier:
        nxt = 0
        rest = frontier
        while rest:
            bit = rest & -rest
            rest ^= bit
            nxt |= masks[bit.bit_length() - 1]
        frontier = nxt & mask & ~reach
        reach |= frontier
    return reach == mask


def is_connected(g: Graph) -> bool:
    """Whole-graph connectivity; the empty graph counts as connected."""
    return mask_connected(g, g.full_mask)
