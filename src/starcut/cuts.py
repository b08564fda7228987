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
from typing import Callable, Iterable

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
            raise ValueError("center repeated among the leaves")

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


def leaves_independent(masks: tuple[int, ...], leaves: Iterable[int]) -> bool:
    """True iff no two of `leaves` are adjacent under the neighbor masks."""
    seen = 0
    for leaf in leaves:
        if masks[leaf] & seen:
            return False
        seen |= 1 << leaf
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
        exact = self.kind == STRUCTURE
        used: set[int] = set()
        for s in self.elements:
            k = len(s.leaves)
            if (k != self.m) if exact else (k > self.m):
                bound = "must have exactly" if exact else "may have at most"
                raise ValueError(f"{self.kind} element {bound} {self.m} leaves, got {k}")
            vs = (s.center, *s.leaves)
            if not used.isdisjoint(vs):
                v = next(v for v in vs if v in used)
                raise ValueError(f"elements overlap at vertex {v}")
            used.update(vs)

    def __len__(self) -> int:
        return len(self.elements)


def trivial_remainder(rest: int, strict_trivial: bool = False) -> bool:
    """True iff the vertex set `rest` is a trivial remainder: at most one
    vertex, or exactly one under strict_trivial."""
    return not rest & (rest - 1) and (rest != 0 or not strict_trivial)


def remainder_is_cut(
    g: Graph, removed_mask: int, *, strict_trivial: bool = False
) -> bool:
    """Cut predicate on a removal mask: disconnected or trivial remainder."""
    rest = g.full_mask & ~removed_mask
    return trivial_remainder(rest, strict_trivial) or not mask_connected(g, rest)


def _is_cut(
    g: Graph,
    family: CutFamily,
    fits: Callable[[int], bool],
    strict_trivial: bool,
    induced: bool,
) -> bool:
    """The cut predicate behind both verifiers; `fits` takes a leaf count.

    An element whose leaf count does not fit makes the family a plain
    non-cut.  A star the host lacks is an error, never False: the input is
    then not a family in g at all.  Vertex ids are range-checked over the
    whole family before any edge is looked at.  CutFamily itself rejects
    overlapping elements.
    """
    if not all(fits(s.leaf_count) for s in family.elements):
        return False
    removed = 0
    for s in family.elements:
        for v in s.vertices():
            if v >= g.n:
                raise ValueError(
                    f"cut references vertex {v + 1} but the graph has {g.n} vertices"
                )
            removed |= 1 << v
    masks = g.masks
    for s in family.elements:
        row = masks[s.center]
        if not all(row >> v & 1 for v in s.leaves) or (
            induced and not leaves_independent(masks, s.leaves)
        ):
            raise ValueError(f"element {s} is not a valid star in the host graph")
    return remainder_is_cut(g, removed, strict_trivial=strict_trivial)


def is_structure_cut(
    g: Graph,
    family: CutFamily,
    m: int,
    *,
    strict_trivial: bool = False,
    induced: bool = False,
) -> bool:
    """True iff family is a subgraph cut and every element is a K_{1,m}."""
    return _is_cut(g, family, lambda k: k == m, strict_trivial, induced)


def is_substructure_cut(
    g: Graph,
    family: CutFamily,
    m: int,
    *,
    strict_trivial: bool = False,
    induced: bool = False,
) -> bool:
    """True iff family is a subgraph cut and every element fits inside K_{1,m}."""
    return _is_cut(g, family, lambda k: k <= m, strict_trivial, induced)
