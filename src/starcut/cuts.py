"""Star elements, cut families, and the cut verifiers.

A family F of pairwise vertex-disjoint connected subgraphs is a subgraph cut
when deleting V(F) leaves the host graph disconnected or trivial.  Structure
cuts require every element to be a K_{1,M}; substructure cuts allow any
connected subgraph of K_{1,M}, which is exactly K_1 or K_{1,j} with j <= M.

Two conventions are configurable everywhere:

* strict_trivial: by default a remainder with at most one vertex counts as
  trivial; the strict variant demands exactly one surviving vertex.
* induced: by default an element only needs its center-leaf edges to exist in
  the host.  The induced variant additionally requires the leaves to be
  pairwise non-adjacent, so the element is the induced subgraph on its
  vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .graph import Graph, mask_connected

STRUCTURE = "structure"
SUBSTRUCTURE = "substructure"


@dataclass(frozen=True, slots=True)
class Star:
    """A star subgraph: a center vertex and a tuple of leaf vertices.

    Leaves are stored strictly increasing.  A single-edge star has two valid
    orientations; canonical_star() picks the one with the smaller center.
    """

    center: int
    leaves: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.center < 0 or any(v < 0 for v in self.leaves):
            raise ValueError("vertex ids must be nonnegative")
        if any(a >= b for a, b in zip(self.leaves, self.leaves[1:])):
            raise ValueError("leaves must be strictly increasing")
        if self.center in self.leaves:
            raise ValueError("center cannot also be a leaf")

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted((self.center, *self.leaves)))

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.center, self.leaves)


def canonical_star(center: int, leaves: Iterable[int]) -> Star:
    """Build a star, orienting K_{1,1} so the smaller id is the center."""
    ls = tuple(sorted(leaves))
    if len(ls) == 1 and ls[0] < center:
        center, ls = ls[0], (center,)
    return Star(center, ls)


def star_valid_in(g: Graph, s: Star) -> bool:
    """True iff every leaf is adjacent to the center in g."""
    if s.center >= g.n or any(v >= g.n for v in s.leaves):
        raise ValueError("star vertex out of range for host graph")
    mask = g.masks[s.center]
    return all(mask >> v & 1 for v in s.leaves)


def star_induced_in(g: Graph, s: Star) -> bool:
    """star_valid_in, plus pairwise non-adjacent leaves."""
    if not star_valid_in(g, s):
        return False
    leaves = s.leaves
    for i, u in enumerate(leaves):
        m = g.masks[u]
        for v in leaves[i + 1:]:
            if m >> v & 1:
                return False
    return True


@dataclass(frozen=True, slots=True)
class CutFamily:
    """An ordered list of pairwise vertex-disjoint stars with a declared kind.

    kind is "structure" (every element has exactly m leaves) or
    "substructure" (every element has at most m leaves).
    """

    kind: str
    m: int
    elements: tuple[Star, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in (STRUCTURE, SUBSTRUCTURE):
            raise ValueError(f"unknown cut kind {self.kind!r}")
        if self.m < 0:
            raise ValueError("leaf bound must be nonnegative")
        for s in self.elements:
            if self.kind == STRUCTURE and s.leaf_count != self.m:
                raise ValueError(
                    f"structure element must have exactly {self.m} leaves, "
                    f"got {s.leaf_count}"
                )
            if self.kind == SUBSTRUCTURE and s.leaf_count > self.m:
                raise ValueError(
                    f"substructure element may have at most {self.m} leaves, "
                    f"got {s.leaf_count}"
                )
        seen: set[int] = set()
        for s in self.elements:
            for v in s.vertices():
                if v in seen:
                    raise ValueError(f"elements overlap at vertex {v}")
                seen.add(v)

    def __len__(self) -> int:
        return len(self.elements)


def family_mask(family: CutFamily) -> int:
    mask = 0
    for s in family.elements:
        mask |= 1 << s.center
        for v in s.leaves:
            mask |= 1 << v
    return mask


def _check_family(g: Graph, family: CutFamily, induced: bool) -> int:
    """Validate stars against g and disjointness; returns the removal mask.

    Malformed certificates are errors, never False: an invalid star or an
    overlap means the input is not a family at all.
    """
    mask = 0
    for s in family.elements:
        ok = star_induced_in(g, s) if induced else star_valid_in(g, s)
        if not ok:
            raise ValueError(f"element {s} is not a valid star in the host graph")
        smask = 0
        for v in s.vertices():
            smask |= 1 << v
        if mask & smask:
            raise ValueError("elements are not pairwise vertex-disjoint")
        mask |= smask
    return mask


def remainder_is_cut(
    g: Graph, removed_mask: int, *, strict_trivial: bool = False
) -> bool:
    """Cut predicate on a removal mask: disconnected or trivial remainder."""
    rest = g.full_mask & ~removed_mask
    count = rest.bit_count()
    if strict_trivial:
        if count == 1:
            return True
        if count == 0:
            return False
    elif count <= 1:
        return True
    return not mask_connected(g, rest)


def is_subgraph_cut(
    g: Graph,
    family: CutFamily,
    *,
    strict_trivial: bool = False,
    induced: bool = False,
) -> bool:
    """True iff deleting V(F) disconnects g or leaves a trivial remainder."""
    mask = _check_family(g, family, induced)
    return remainder_is_cut(g, mask, strict_trivial=strict_trivial)


def is_structure_cut(
    g: Graph,
    family: CutFamily,
    m: int,
    *,
    strict_trivial: bool = False,
    induced: bool = False,
) -> bool:
    """True iff family is a subgraph cut and every element is a K_{1,m}."""
    if any(s.leaf_count != m for s in family.elements):
        return False
    return is_subgraph_cut(g, family, strict_trivial=strict_trivial, induced=induced)


def is_substructure_cut(
    g: Graph,
    family: CutFamily,
    m: int,
    *,
    strict_trivial: bool = False,
    induced: bool = False,
) -> bool:
    """True iff family is a subgraph cut and every element fits inside K_{1,m}."""
    if any(s.leaf_count > m for s in family.elements):
        return False
    return is_subgraph_cut(g, family, strict_trivial=strict_trivial, induced=induced)
