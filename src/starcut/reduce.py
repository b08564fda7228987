"""Gadget constructions and the encode/decode procedures around them.

Two reductions live here.  The first turns a 3-dimensional matching instance
into a graph whose K_{1,M} structure connectivity is supposed to drop to the
ground-set size exactly when the instance is solvable.  The second turns a
vertex cover instance into a graph whose K_{1,M} substructure connectivity is
supposed to drop to the cover budget exactly when a small cover exists.
Builders record a role for every vertex so decoders and audits can reason
about gadget coordinates instead of raw ids.

Decoders are validating, not trusting: they rebuild a candidate solution
from the cut's center vertices and return it only when the independent
checker accepts it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cuts import (
    STRUCTURE,
    SUBSTRUCTURE,
    CutFamily,
    Star,
    is_structure_cut,
    is_substructure_cut,
)
from .graph import Graph, build, is_connected
from .npsolve import (
    ThreeDMInstance,
    VertexCoverInstance,
    element_occurrences,
    element_slots,
    is_vertex_cover,
    validate_3dm,
    verify_matching,
)

TRIPLE = "TRIPLE"
ELEM = "ELEM"
CLIQ = "CLIQ"
UBLK = "UBLK"
UPRM = "UPRM"
ORIG = "ORIG"

_TAGS_WITH_SECOND_INDEX = {CLIQ, UBLK}
_ALL_TAGS = {TRIPLE, ELEM, CLIQ, UBLK, UPRM, ORIG}


@dataclass(frozen=True, slots=True)
class VertexRole:
    """Gadget coordinates of one vertex; indices are 1-based like the layout.

    CLIQ carries (position in clique, clique number) and UBLK carries
    (position in block, block number); the other tags use only `i`.
    """

    tag: str
    i: int
    j: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in _ALL_TAGS:
            raise ValueError(f"unknown role tag {self.tag!r}")
        if self.i < 1:
            raise ValueError("role indices are 1-based")
        if self.tag in _TAGS_WITH_SECOND_INDEX:
            if self.j is None or self.j < 1:
                raise ValueError(f"{self.tag} roles need a positive second index")
        elif self.j is not None:
            raise ValueError(f"{self.tag} roles carry a single index")


@dataclass(frozen=True, slots=True)
class ReducedInstance:
    """A gadget graph, its per-vertex roles, and the decision bound.

    parameter is the bound of the decision question on the gadget: the
    ground-set size for the matching reduction, the cover budget for the
    vertex cover reduction.  m is the star size the question is asked for.
    source keeps the originating instance so decoders can validate.
    """

    graph: Graph
    roles: tuple[VertexRole, ...]
    parameter: int
    m: int
    source: ThreeDMInstance | VertexCoverInstance

    def __post_init__(self) -> None:
        if len(self.roles) != self.graph.n:
            raise ValueError("exactly one role per vertex is required")


# -- matching gadget -----------------------------------------------------


def reduce_3dm(
    inst: ThreeDMInstance,
    m: int = 5,
    *,
    allow_small_m: bool = False,
    allow_unrestricted: bool = False,
) -> ReducedInstance:
    """Build the matching gadget for star size m (m >= 5 by default).

    Layout, in id order: the |T| triple vertices, the 3n element vertices
    (first class, second class, third class), m-3 cliques of (m+1)|T|
    vertices each, 3n blocks of m vertices each (every block a clique),
    and one clique on 3nm vertices.  Edges: triple-element incidence; a tap
    from triple k to the k-th vertex of every big clique; the element l to
    the last vertex of block l; a perfect matching between the blocks and
    the final clique.

    allow_small_m lowers the floor to m >= 4 for experimentation.
    allow_unrestricted accepts instances with repeated triples or element
    occurrence counts outside {2, 3}.
    """
    floor = 4 if allow_small_m else 5
    if m < floor:
        raise ValueError(f"star size must be at least {floor}")
    t = len(inst.triples)
    if t < 1:
        raise ValueError("at least one triple is required")
    if not allow_unrestricted and not validate_3dm(inst, enforce_restriction=True):
        raise ValueError(
            "instance violates the occurrence restriction; "
            "pass allow_unrestricted to build anyway"
        )
    n = inst.n
    clique_size = (m + 1) * t
    base_elem = t
    base_cliq = t + 3 * n
    base_blocks = base_cliq + (m - 3) * clique_size
    base_tail = base_blocks + 3 * n * m
    total = base_tail + 3 * n * m

    roles: list[VertexRole] = []
    for k in range(1, t + 1):
        roles.append(VertexRole(TRIPLE, k))
    for l in range(1, 3 * n + 1):
        roles.append(VertexRole(ELEM, l))
    for j in range(1, m - 2):
        for i in range(1, clique_size + 1):
            roles.append(VertexRole(CLIQ, i, j))
    for l in range(1, 3 * n + 1):
        for i in range(1, m + 1):
            roles.append(VertexRole(UBLK, i, l))
    for i in range(1, 3 * n * m + 1):
        roles.append(VertexRole(UPRM, i))

    edges: list[tuple[int, int]] = [
        (k, base_elem + slot)
        for k, triple in enumerate(inst.triples)
        for slot in element_slots(n, triple)
    ]
    for j in range(m - 3):
        lo = base_cliq + j * clique_size
        edges.extend(_clique_edges(lo, clique_size))
        for k in range(t):
            edges.append((k, lo + k))
    for l in range(3 * n):
        lo = base_blocks + l * m
        edges.extend(_clique_edges(lo, m))
        edges.append((base_elem + l, lo + m - 1))
    edges.extend(_clique_edges(base_tail, 3 * n * m))
    for i in range(3 * n * m):
        edges.append((base_blocks + i, base_tail + i))

    red = ReducedInstance(
        graph=build(total, edges),
        roles=tuple(roles),
        parameter=n,
        m=m,
        source=inst,
    )
    audit_reduced_3dm(red)
    return red


def _clique_edges(lo: int, size: int) -> list[tuple[int, int]]:
    return [(lo + a, lo + b) for a in range(size) for b in range(a + 1, size)]


def audit_reduced_3dm(red: ReducedInstance, restricted_degrees: bool = False) -> None:
    """Check sizes, role layout, and exact per-role degrees; raises on defect.

    With restricted_degrees, additionally require every element vertex to
    have degree at most 4, which holds exactly when no element occurs in
    more than 3 triples.
    """
    inst = red.source
    if not isinstance(inst, ThreeDMInstance):
        raise ValueError("not a matching gadget")
    g = red.graph
    m = red.m
    t = len(inst.triples)
    n = inst.n
    clique_size = (m + 1) * t
    expected = t + 3 * n + (m - 3) * clique_size + 6 * n * m
    if g.n != expected:
        raise AssertionError(f"gadget has {g.n} vertices, expected {expected}")
    if red.parameter != n:
        raise AssertionError("decision bound must equal the ground-set size")
    occ = element_occurrences(inst)
    counts = {TRIPLE: 0, ELEM: 0, CLIQ: 0, UBLK: 0, UPRM: 0}
    for v, role in enumerate(red.roles):
        counts[role.tag] = counts.get(role.tag, 0) + 1
        d = g.degree(v)
        if role.tag == TRIPLE:
            if d != m:
                raise AssertionError(f"triple vertex {v} has degree {d}, want {m}")
        elif role.tag == ELEM:
            want = occ[role.i - 1] + 1
            if d != want:
                raise AssertionError(f"element vertex {v} has degree {d}, want {want}")
            if restricted_degrees and d > 4:
                raise AssertionError(f"element vertex {v} has degree {d} > 4")
        elif role.tag == CLIQ:
            want = clique_size - 1 + (1 if role.i <= t else 0)
            if d != want:
                raise AssertionError(f"clique vertex {v} has degree {d}, want {want}")
        elif role.tag == UBLK:
            want = m + 1 if role.i == m else m
            if d != want:
                raise AssertionError(f"block vertex {v} has degree {d}, want {want}")
        elif role.tag == UPRM:
            if d != 3 * n * m:
                raise AssertionError(
                    f"tail clique vertex {v} has degree {d}, want {3 * n * m}"
                )
        else:
            raise AssertionError(f"unexpected role {role.tag} in a matching gadget")
    if counts[TRIPLE] != t or counts[ELEM] != 3 * n:
        raise AssertionError("role counts disagree with the source instance")
    if counts[CLIQ] != (m - 3) * clique_size or counts[UBLK] != 3 * n * m:
        raise AssertionError("role counts disagree with the layout")
    if counts[UPRM] != 3 * n * m:
        raise AssertionError("role counts disagree with the layout")
    if not is_connected(g):
        raise AssertionError("matching gadget must be connected")


def matching_to_cut(red: ReducedInstance, chosen: tuple[int, ...]) -> CutFamily:
    """Encode a matching as a structure cut: one full-neighborhood star per
    chosen triple vertex.

    `chosen` holds 0-based indices into the source triple list and must be
    a valid perfect matching; each star's leaves are the triple's three
    element vertices plus its private tap in every big clique, exactly m.
    """
    inst = red.source
    if not isinstance(inst, ThreeDMInstance):
        raise ValueError("not a matching gadget")
    if not verify_matching(inst, tuple(chosen)):
        raise ValueError("chosen triples are not a valid matching")
    stars = tuple(
        Star(k, red.graph.neighbors(k)) for k in sorted(chosen)
    )
    family = CutFamily(STRUCTURE, red.m, stars)
    if not is_structure_cut(red.graph, family, red.m):
        raise AssertionError("encoded matching family fails the cut verifier")
    return family


def extract_matching(red: ReducedInstance, family: CutFamily) -> tuple[int, ...] | None:
    """Decode a structure cut back to a matching, or None.

    Takes the centers that sit on triple vertices and accepts exactly when
    those triples form a verified matching.  Cuts of any other shape (clique
    interiors, tail vertices, too few triple centers) decode to None.
    """
    inst = red.source
    if not isinstance(inst, ThreeDMInstance):
        raise ValueError("not a matching gadget")
    if not is_structure_cut(red.graph, family, red.m):
        raise ValueError("family is not a structure cut of the gadget")
    picked = tuple(
        sorted(
            red.roles[s.center].i - 1
            for s in family.elements
            if red.roles[s.center].tag == TRIPLE
        )
    )
    if verify_matching(inst, picked):
        return picked
    return None


# -- cover gadget ----------------------------------------------------------


def reduce_vertex_cover(
    inst: VertexCoverInstance, m: int | None = None
) -> ReducedInstance:
    """Build the cover gadget: k+2 cliques of |V| vertices plus private taps.

    Layout: the original vertices first, then clique 1..k+2, each |V|
    consecutive ids; vertex i keeps its edges and gains one tap into every
    clique (the i-th vertex there).  The star size is always the maximum
    degree of the source graph; passing a conflicting m is an error.
    """
    g = inst.graph
    n = g.n
    delta = max((g.degree(v) for v in range(n)), default=0)
    if m is not None and m != delta:
        raise ValueError(f"star size is fixed to the maximum degree {delta}")
    k = inst.k
    roles: list[VertexRole] = [VertexRole(ORIG, i + 1) for i in range(n)]
    edges: list[tuple[int, int]] = list(g.edges())
    for j in range(1, k + 3):
        lo = n * j
        edges.extend(_clique_edges(lo, n))
        for i in range(n):
            edges.append((i, lo + i))
        for i in range(1, n + 1):
            roles.append(VertexRole(CLIQ, i, j))
    red = ReducedInstance(
        graph=build(n * (k + 3), edges),
        roles=tuple(roles),
        parameter=k,
        m=delta,
        source=inst,
    )
    audit_reduced_vc(red)
    return red


def audit_reduced_vc(red: ReducedInstance) -> None:
    """Check sizes, roles, degrees, and the one-tap property; raises on defect."""
    inst = red.source
    if not isinstance(inst, VertexCoverInstance):
        raise ValueError("not a cover gadget")
    g = red.graph
    src = inst.graph
    n = src.n
    k = inst.k
    if g.n != n * (k + 3):
        raise AssertionError(f"gadget has {g.n} vertices, expected {n * (k + 3)}")
    if red.parameter != k:
        raise AssertionError("decision bound must equal the cover budget")
    delta = max((src.degree(v) for v in range(n)), default=0)
    if red.m != delta:
        raise AssertionError("star size must equal the source maximum degree")
    for v, role in enumerate(red.roles):
        d = g.degree(v)
        if role.tag == ORIG:
            want = src.degree(role.i - 1) + (k + 2)
            if d != want:
                raise AssertionError(f"original vertex {v} has degree {d}, want {want}")
        elif role.tag == CLIQ:
            if d != n:
                raise AssertionError(f"clique vertex {v} has degree {d}, want {n}")
            clique = ((1 << n) - 1) << (n * role.j)
            if g.masks[v] & ~clique != 1 << (role.i - 1):
                raise AssertionError(
                    f"clique vertex {v} must have exactly its original as the "
                    f"one neighbor outside its clique"
                )
        else:
            raise AssertionError(f"unexpected role {role.tag} in a cover gadget")
    if not is_connected(g):
        raise AssertionError("cover gadget must be connected")


def cover_to_cut(red: ReducedInstance, cover: tuple[int, ...]) -> CutFamily:
    """Encode a cover as a substructure cut.

    One star per cover vertex in increasing order: the center is the cover
    vertex, the leaves are its not-covered neighbors that no earlier star
    already absorbed.  The stars remove every original vertex that is in the
    cover or has a neighbor there, so the cliques fall apart into k+2
    separate components.  An isolated source vertex outside the cover would
    survive and, tapped into every clique, hold them together; such covers
    raise ValueError.
    """
    inst = red.source
    if not isinstance(inst, VertexCoverInstance):
        raise ValueError("not a cover gadget")
    chosen = tuple(sorted(set(cover)))
    if len(chosen) != len(tuple(cover)):
        raise ValueError("cover vertices must be distinct")
    if len(chosen) > inst.k:
        raise ValueError(f"cover exceeds the budget {inst.k}")
    if not is_vertex_cover(inst.graph, chosen):
        raise ValueError("chosen vertices do not cover every source edge")
    in_cover = set(chosen)
    stranded = [
        v for v in range(inst.graph.n) if not inst.graph.degree(v) and v not in in_cover
    ]
    if stranded:
        raise ValueError(
            f"isolated source vertices {stranded} are outside the cover; "
            "no star of the encoding removes them"
        )
    used: set[int] = set()
    stars = []
    for x in chosen:
        leaves = tuple(
            y for y in inst.graph.neighbors(x) if y not in in_cover and y not in used
        )
        used.update(leaves)
        stars.append(Star(x, leaves))
    family = CutFamily(SUBSTRUCTURE, red.m, tuple(stars))
    if not is_substructure_cut(red.graph, family, red.m):
        raise AssertionError("encoded cover family fails the cut verifier")
    return family


def extract_cover(red: ReducedInstance, family: CutFamily) -> tuple[int, ...] | None:
    """Decode a substructure cut back to a cover, or None.

    Candidate = original-vertex centers, plus the original attached to every
    clique-vertex center.  Accepted only when that set covers all source
    edges within the budget.
    """
    inst = red.source
    if not isinstance(inst, VertexCoverInstance):
        raise ValueError("not a cover gadget")
    if not is_substructure_cut(red.graph, family, red.m):
        raise ValueError("family is not a substructure cut of the gadget")
    candidate: set[int] = set()
    for s in family.elements:
        role = red.roles[s.center]
        if role.tag == ORIG:
            candidate.add(role.i - 1)
        elif role.tag == CLIQ:
            candidate.add(role.i - 1)
    picked = tuple(sorted(candidate))
    if len(picked) <= inst.k and is_vertex_cover(inst.graph, picked):
        return picked
    return None
