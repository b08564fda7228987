"""Exact reference solvers for the two source problems.

Three-dimensional matching instances live over three disjoint ground sets of
size n, indexed 1..n per class.  Vertex cover instances pair a graph with a
budget k.  Both solvers are exhaustive and certificate-producing; every
certificate is re-verified by an independent checker before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bits, build

Triple = tuple[int, int, int]


@dataclass(frozen=True, slots=True)
class ThreeDMInstance:
    """A 3DM instance: ground-set size n and a list of (r, b, y) triples.

    Triple order matters: solutions are reported as indices into `triples`.
    Duplicate triples are representable (some desk-scale corpora need them);
    validate_3dm reports them as a structural defect.
    """

    n: int
    triples: tuple[Triple, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ground-set size must be at least 1")
        for t in self.triples:
            if len(t) != 3 or any(not (1 <= c <= self.n) for c in t):
                raise ValueError(f"triple {t} out of range for n={self.n}")


def element_slots(n: int, triple: Triple) -> Triple:
    """Flat indices of a triple's elements in W = R+B+Y, numbered 0..3n-1."""
    r, b, y = triple
    return (r - 1, n + b - 1, 2 * n + y - 1)


def element_occurrences(inst: ThreeDMInstance) -> list[int]:
    """Occurrence count per element of W, flat-indexed as in element_slots."""
    occ = [0] * (3 * inst.n)
    for triple in inst.triples:
        for slot in element_slots(inst.n, triple):
            occ[slot] += 1
    return occ


def validate_3dm(inst: ThreeDMInstance, enforce_restriction: bool = False) -> bool:
    """Structural validity, optionally plus the bounded-occurrence restriction.

    Structural: coordinates in range (guaranteed by construction) and triples
    pairwise distinct.  Restriction: every element occurs in exactly 2 or 3
    triples, and with m elements of occurrence 2 and n' of occurrence 3 the
    identity 2m + 3n' = 3|T| holds.
    """
    if len(set(inst.triples)) != len(inst.triples):
        return False
    if enforce_restriction:
        occ = element_occurrences(inst)
        if any(c not in (2, 3) for c in occ):
            return False
        twos = sum(1 for c in occ if c == 2)
        threes = sum(1 for c in occ if c == 3)
        if 2 * twos + 3 * threes != 3 * len(inst.triples):
            return False
    return True


def verify_matching(inst: ThreeDMInstance, indices: tuple[int, ...]) -> bool:
    """Check that `indices` selects n triples covering every element once."""
    if len(indices) != inst.n or len(set(indices)) != len(indices):
        return False
    if any(not (0 <= i < len(inst.triples)) for i in indices):
        return False
    seen_r: set[int] = set()
    seen_b: set[int] = set()
    seen_y: set[int] = set()
    for i in indices:
        r, b, y = inst.triples[i]
        if r in seen_r or b in seen_b or y in seen_y:
            return False
        seen_r.add(r)
        seen_b.add(b)
        seen_y.add(y)
    return len(seen_r) == inst.n and len(seen_b) == inst.n and len(seen_y) == inst.n


def solve_3dm(inst: ThreeDMInstance) -> tuple[int, ...] | None:
    """Exhaustive backtracking for a perfect matching; None when unsolvable.

    Branches on the uncovered element with the fewest remaining candidate
    triples (fail-first), which keeps desk-scale instances instant.
    """
    n = inst.n
    # candidates[slot] = triple indices touching that W slot (0..3n-1).
    candidates: list[list[int]] = [[] for _ in range(3 * n)]
    slots_of: list[Triple] = []
    for i, triple in enumerate(inst.triples):
        slots = element_slots(n, triple)
        slots_of.append(slots)
        for s in slots:
            candidates[s].append(i)

    covered = [False] * (3 * n)
    used = [False] * len(inst.triples)
    picked: list[int] = []

    def free_count(slot: int) -> int:
        return sum(
            1
            for i in candidates[slot]
            if not used[i] and not any(covered[s] for s in slots_of[i])
        )

    def search() -> bool:
        if len(picked) == n:
            return True
        # Fail-first: branch on the scarcest uncovered slot.
        best_slot = -1
        best = None
        for slot in range(3 * n):
            if covered[slot]:
                continue
            c = free_count(slot)
            if c == 0:
                return False
            if best is None or c < best:
                best, best_slot = c, slot
        for i in candidates[best_slot]:
            if used[i] or any(covered[s] for s in slots_of[i]):
                continue
            used[i] = True
            for s in slots_of[i]:
                covered[s] = True
            picked.append(i)
            if search():
                return True
            picked.pop()
            for s in slots_of[i]:
                covered[s] = False
            used[i] = False
        return False

    if not search():
        return None
    result = tuple(sorted(picked))
    if not verify_matching(inst, result):
        raise AssertionError("solver produced an invalid matching certificate")
    return result


@dataclass(frozen=True, slots=True)
class VertexCoverInstance:
    """A graph together with a cover budget k, 1 <= k < n."""

    graph: Graph
    k: int

    def __post_init__(self) -> None:
        if not (1 <= self.k < self.graph.n):
            raise ValueError("budget k must satisfy 1 <= k < n")


def is_vertex_cover(g: Graph, verts: tuple[int, ...]) -> bool:
    chosen = set(verts)
    if any(not (0 <= v < g.n) for v in chosen):
        return False
    return all(u in chosen or v in chosen for u, v in g.edges())


def solve_vertex_cover(inst: VertexCoverInstance) -> tuple[int, ...] | None:
    """Branch and bound on the max-degree vertex; exact for the decision.

    Returns some cover of size <= k when one exists (not necessarily a
    minimum one), re-verified against every edge, else None.
    """
    g = inst.graph

    def search(alive_mask: int, budget: int, chosen: list[int]) -> list[int] | None:
        # Find the max-degree vertex within the still-alive subgraph, and
        # the degree sum (twice the alive edge count) for the bound below.
        best_v = -1
        best_deg = 0
        degree_sum = 0
        masks = g.masks
        for v in bits(alive_mask):
            d = (masks[v] & alive_mask).bit_count()
            degree_sum += d
            if d > best_deg:
                best_deg, best_v = d, v
        if best_deg == 0:
            return chosen
        if budget == 0:
            return None
        # Matching-based lower bound: each budget unit kills at most best_deg
        # edges, so bail when even that cannot pay for the remaining edges.
        if degree_sum // 2 > budget * best_deg:
            return None
        # Branch 1: take best_v.
        got = search(alive_mask & ~(1 << best_v), budget - 1, chosen + [best_v])
        if got is not None:
            return got
        # Branch 2: exclude best_v, so all its alive neighbors are forced in.
        forced = masks[best_v] & alive_mask
        fc = forced.bit_count()
        if fc <= budget:
            got = search(
                alive_mask & ~forced & ~(1 << best_v), budget - fc, chosen + bits(forced)
            )
            if got is not None:
                return got
        return None

    found = search(g.full_mask, inst.k, [])
    if found is None:
        return None
    result = tuple(sorted(found))
    if len(result) > inst.k or not is_vertex_cover(g, result):
        raise AssertionError("solver produced an invalid cover certificate")
    return result


def bipartite_incidence(inst: ThreeDMInstance) -> Graph:
    """The triple-element incidence graph.

    Vertices 0..|T|-1 are triples, then 3n element vertices in class order
    R, B, Y.  Triple i is adjacent to the vertices of its three elements.
    """
    t = len(inst.triples)
    n = inst.n
    edges = [
        (i, t + slot)
        for i, triple in enumerate(inst.triples)
        for slot in element_slots(n, triple)
    ]
    return build(t + 3 * n, edges)
