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
    _restriction_violation,
    element_occurrences,
    element_slots,
    is_vertex_cover,
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
_ROLE_WORDS = {
    TRIPLE: "triple", ELEM: "element", CLIQ: "clique", UBLK: "block", UPRM: "tail clique"
}


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
        if (self.tag in _TAGS_WITH_SECOND_INDEX) != (self.j is not None):
            arity = "one index" if self.j is not None else "two indices"
            raise ValueError(f"tag {self.tag} takes {arity}")
        if self.i < 1 or (self.j is not None and self.j < 1):
            raise ValueError("role indices are 1-based")


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


def _source(red: ReducedInstance, kind: type):
    """red.source if it is a `kind` instance; else the gadget is the wrong one."""
    if not isinstance(red.source, kind):
        gadget = "matching" if kind is ThreeDMInstance else "cover"
        raise ValueError(f"not a {gadget} gadget")
    return red.source


# -- matching gadget -----------------------------------------------------


def reduce_3dm(
    inst: ThreeDMInstance,
    m: int = 5,
    *,
    allow_unrestricted: bool = False,
) -> ReducedInstance:
    """Build the matching gadget for star size m; m must be at least 5.

    Layout, in id order: the |T| triple vertices, the 3n element vertices
    (first class, second class, third class), m-3 cliques of (m+1)|T|
    vertices each, 3n blocks of m vertices each (every block a clique),
    and one clique on 3nm vertices.  Edges: triple-element incidence; a tap
    from triple k to the k-th vertex of every big clique; the element l to
    the last vertex of block l; a perfect matching between the blocks and
    the final clique.

    allow_unrestricted accepts instances with repeated triples or element
    occurrence counts outside {2, 3}.
    """
    if m < 5:
        raise ValueError("star size must be at least 5")
    t = len(inst.triples)
    if t < 1:
        raise ValueError("at least one triple is required")
    violation = None if allow_unrestricted else _restriction_violation(inst)
    if violation is not None:
        raise ValueError(
            f"instance is not restricted: {violation}; "
            "pass allow_unrestricted to build anyway"
        )
    n = inst.n
    clique_size = (m + 1) * t
    tail = 3 * n * m
    # Each block is appended in id order, so its first id is len(roles).
    roles = [VertexRole(TRIPLE, k) for k in range(1, t + 1)]
    roles += [VertexRole(ELEM, l) for l in range(1, 3 * n + 1)]
    edges = [
        (k, t + slot)
        for k, triple in enumerate(inst.triples)
        for slot in element_slots(n, triple)
    ]
    cliques = []
    for j in range(1, m - 2):
        lo = len(roles)
        roles += [VertexRole(CLIQ, i, j) for i in range(1, clique_size + 1)]
        cliques.append((lo, clique_size))
        edges += [(k, lo + k) for k in range(t)]
    for l in range(1, 3 * n + 1):
        lo = len(roles)
        roles += [VertexRole(UBLK, i, l) for i in range(1, m + 1)]
        cliques.append((lo, m))
        edges.append((t + l - 1, lo + m - 1))
    lo = len(roles)
    roles += [VertexRole(UPRM, i) for i in range(1, tail + 1)]
    cliques.append((lo, tail))
    # the 3n blocks just below hold `tail` ids in all, one partner per tail vertex
    edges += [(v - tail, v) for v in range(lo, lo + tail)]
    red = ReducedInstance(
        graph=_join_cliques(build(len(roles), edges), cliques),
        roles=tuple(roles),
        parameter=n,
        m=m,
        source=inst,
    )
    audit_reduced_3dm(red)
    return red


def _join_cliques(g: Graph, cliques: list[tuple[int, int]]) -> Graph:
    """g plus a clique on the ids lo..lo+size-1 of each (lo, size).

    Cliques hold most of a gadget's edges, so each is written into its
    vertices' rows as one mask rather than passed to build() edge by edge.
    """
    masks = list(g.masks)
    for lo, size in cliques:
        span = ((1 << size) - 1) << lo
        for v in range(lo, lo + size):
            masks[v] |= span ^ (1 << v)
    return Graph(masks)


def audit_reduced_3dm(red: ReducedInstance) -> None:
    """Check sizes, role layout, and exact per-role degrees; raises on defect.

    Every element vertex must have degree exactly its occurrence count + 1,
    so on a restricted instance element degrees are 3 or 4.
    """
    inst = _source(red, ThreeDMInstance)
    g = red.graph
    m = red.m
    t = len(inst.triples)
    n = inst.n
    clique_size = (m + 1) * t
    tail = 3 * n * m
    layout = {TRIPLE: t, ELEM: 3 * n, CLIQ: (m - 3) * clique_size, UBLK: tail, UPRM: tail}
    expected = sum(layout.values())
    if g.n != expected:
        raise AssertionError(f"gadget has {g.n} vertices, expected {expected}")
    if red.parameter != n:
        raise AssertionError("decision bound must equal the ground-set size")
    occ = element_occurrences(inst)
    counts = dict.fromkeys(layout, 0)
    for v, role in enumerate(red.roles):
        if role.tag == TRIPLE:
            want = m
        elif role.tag == ELEM:
            want = occ[role.i - 1] + 1
        elif role.tag == CLIQ:
            want = clique_size - 1 + (role.i <= t)
        elif role.tag == UBLK:
            want = m + 1 if role.i == m else m
        elif role.tag == UPRM:
            want = tail
        else:
            raise AssertionError(f"unexpected role {role.tag} in a matching gadget")
        d = g.degree(v)
        if d != want:
            word = _ROLE_WORDS[role.tag]
            raise AssertionError(f"{word} vertex {v} has degree {d}, want {want}")
        counts[role.tag] += 1
    if counts[TRIPLE] != t or counts[ELEM] != 3 * n:
        raise AssertionError("role counts disagree with the source instance")
    if counts != layout:
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
    inst = _source(red, ThreeDMInstance)
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
    inst = _source(red, ThreeDMInstance)
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


def reduce_vertex_cover(inst: VertexCoverInstance) -> ReducedInstance:
    """Build the cover gadget: k+2 cliques of |V| vertices plus private taps.

    Layout: the original vertices first, then clique 1..k+2, each |V|
    consecutive ids; vertex i keeps its edges and gains one tap into every
    clique (the i-th vertex there).  The star size m is the maximum degree
    of the source graph.
    """
    g = inst.graph
    n = g.n
    roles = [VertexRole(ORIG, i + 1) for i in range(n)]
    roles += [VertexRole(CLIQ, i, j) for j in range(1, inst.k + 3) for i in range(1, n + 1)]
    # clique vertex v is the (v % n + 1)-th of its clique and taps original v % n
    edges = list(g.edges()) + [(v % n, v) for v in range(n, len(roles))]
    cliques = [(lo, n) for lo in range(n, len(roles), n)]
    red = ReducedInstance(
        graph=_join_cliques(build(len(roles), edges), cliques),
        roles=tuple(roles),
        parameter=inst.k,
        m=max((g.degree(v) for v in range(n)), default=0),
        source=inst,
    )
    audit_reduced_vc(red)
    return red


def audit_reduced_vc(red: ReducedInstance) -> None:
    """Check sizes, roles, degrees, and the one-tap property; raises on defect."""
    inst = _source(red, VertexCoverInstance)
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
                    "one neighbor outside its clique"
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
    inst = _source(red, VertexCoverInstance)
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
    inst = _source(red, VertexCoverInstance)
    if not is_substructure_cut(red.graph, family, red.m):
        raise ValueError("family is not a substructure cut of the gadget")
    # A cover gadget has only ORIG and CLIQ roles, and both name source
    # vertex i: ORIG is vertex i itself, CLIQ the i-th vertex of a clique,
    # whose one neighbor outside the clique is vertex i.
    picked = tuple(sorted({red.roles[s.center].i - 1 for s in family.elements}))
    if len(picked) <= inst.k and is_vertex_cover(inst.graph, picked):
        return picked
    return None
