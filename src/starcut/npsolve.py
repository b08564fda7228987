"""Exact reference solvers for the two source problems.

Three-dimensional matching instances live over three disjoint ground sets of
size n, indexed 1..n per class.  Vertex cover instances pair a graph with a
budget k.  Both solvers are exhaustive and certificate-producing; every
certificate is re-verified by an independent checker before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graph import Graph, bits

Triple = tuple[int, int, int]


@dataclass(frozen=True, slots=True)
class ThreeDMInstance:
    """A 3DM instance: ground-set size n and a list of (r, b, y) triples.

    Triple order matters: solutions are reported as indices into `triples`.
    Duplicate triples are representable (some desk-scale corpora need them);
    validate_3dm rejects them.
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


def _restriction_violation(inst: ThreeDMInstance) -> str | None:
    """What first breaks the restricted variant, or None when nothing does.

    Names the first repeated triple, else the first element (in slot order)
    whose occurrence count is not 2 or 3.
    """
    seen: set[Triple] = set()
    for triple in inst.triples:
        if triple in seen:
            return f"triple {triple} is repeated"
        seen.add(triple)
    for slot, count in enumerate(element_occurrences(inst)):
        if count not in (2, 3):
            cls, i = divmod(slot, inst.n)
            return f"element {'RBY'[cls]}{i + 1} occurs in {count} triples, not 2 or 3"
    return None


def validate_3dm(inst: ThreeDMInstance) -> bool:
    """The restricted variant: triples pairwise distinct, and every element
    occurs in exactly 2 or 3 triples.

    Coordinates are in range by construction.  The occurrence counts always
    sum to 3|T|, so no separate count identity needs checking.
    """
    return _restriction_violation(inst) is None


def verify_matching(inst: ThreeDMInstance, indices: tuple[int, ...]) -> bool:
    """Check that `indices` selects n triples covering every element once.

    n triples that repeat no slot cover all 3n of them; a repeated index
    repeats all three of its slots.
    """
    if len(indices) != inst.n or any(not (0 <= i < len(inst.triples)) for i in indices):
        return False
    covered = 0
    for i in indices:
        for slot in element_slots(inst.n, inst.triples[i]):
            if covered >> slot & 1:
                return False
            covered |= 1 << slot
    return True


def solve_3dm(inst: ThreeDMInstance) -> tuple[int, ...] | None:
    """Exhaustive backtracking for a perfect matching; None when unsolvable.

    Branches on the uncovered element with the fewest remaining candidate
    triples (fail-first, lowest slot on ties), trying its triples in index
    order, which keeps desk-scale instances instant.  The state is one
    bitmask of covered W slots; a triple is free while its slot mask misses
    it.  The backtracking keeps its own stack, one branch per chosen triple,
    so the matching size is not bounded by Python's recursion limit.
    """
    n = inst.n
    # candidates[slot] = triple indices touching that W slot (0..3n-1).
    candidates: list[list[int]] = [[] for _ in range(3 * n)]
    masks: list[int] = []
    for i, triple in enumerate(inst.triples):
        mask = 0
        for s in element_slots(n, triple):
            candidates[s].append(i)
            mask |= 1 << s
        masks.append(mask)

    def branch(covered: int) -> Iterator[int]:
        # Fail-first: the free triples of the scarcest uncovered slot, none
        # when some uncovered slot has no free triple left.
        best_slot = -1
        best = None
        for slot in range(3 * n):
            if covered >> slot & 1:
                continue
            c = sum(1 for i in candidates[slot] if not masks[i] & covered)
            if c == 0:
                return
            if best is None or c < best:
                best, best_slot = c, slot
        for i in candidates[best_slot]:
            if not masks[i] & covered:
                yield i

    picked: list[int] = []
    covered = 0
    # pending[k] yields the untried triples below the first k picks.
    pending = [branch(0)]
    while len(picked) < n:
        i = next(pending[-1], None)
        if i is not None:
            picked.append(i)
            covered |= masks[i]
            pending.append(branch(covered))
            continue
        pending.pop()
        if not picked:
            return None
        covered ^= masks[picked.pop()]
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

