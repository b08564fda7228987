from __future__ import annotations

import dataclasses

import pytest

from starcut import (
    CLIQ,
    ELEM,
    ORIG,
    STRUCTURE,
    TRIPLE,
    UBLK,
    UPRM,
    CutFamily,
    Star,
    SearchOptions,
    ThreeDMInstance,
    VertexCoverInstance,
    VertexRole,
    audit_reduced_3dm,
    audit_reduced_vc,
    build,
    complete,
    cover_to_cut,
    cycle,
    extract_cover,
    extract_matching,
    gen_random_3dm,
    gen_random_graph,
    is_connected,
    is_structure_cut,
    is_substructure_cut,
    matching_to_cut,
    path,
    reduce_3dm,
    reduce_vertex_cover,
    solve_vertex_cover,
    structure_connectivity,
    substructure_connectivity,
)

from helpers import (
    domination_number,
    edge_list_3dm_gadget,
    edge_list_vc_gadget,
    matching_gadget_sources,
)

ONE = ThreeDMInstance(1, ((1, 1, 1),))
# every element occurs exactly twice; no perfect matching exists
BALANCED = ThreeDMInstance(2, ((1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)))
SOLVABLE2 = ThreeDMInstance(2, ((1, 1, 1), (2, 2, 2), (1, 2, 2)))


def test_role_validation():
    VertexRole(TRIPLE, 1)
    VertexRole(CLIQ, 2, 1)
    with pytest.raises(ValueError):
        VertexRole("WAT", 1)
    with pytest.raises(ValueError):
        VertexRole(CLIQ, 1)  # needs the clique index
    with pytest.raises(ValueError):
        VertexRole(TRIPLE, 1, 2)  # takes no second index
    with pytest.raises(ValueError):
        VertexRole(ELEM, 0)


def test_reduce_3dm_rejects_small_m():
    with pytest.raises(ValueError, match="at least 5"):
        reduce_3dm(ONE, 4, allow_unrestricted=True)
    with pytest.raises(ValueError, match="at least 5"):
        reduce_3dm(ONE, 3, allow_unrestricted=True)


def test_reduce_3dm_restriction_gate():
    with pytest.raises(ValueError):
        reduce_3dm(ONE, 5)  # occurrence counts are 1, not in {2,3}
    reduce_3dm(ONE, 5, allow_unrestricted=True)
    reduce_3dm(BALANCED, 5)  # restricted instance passes without the flag


@pytest.mark.parametrize(
    "inst,reason",
    [
        # every occurrence count is 3, which is allowed
        (ThreeDMInstance(1, ((1, 1, 1),) * 3), r"triple \(1, 1, 1\) is repeated"),
        (ONE, "element R1 occurs in 1 triples, not 2 or 3"),
        (
            ThreeDMInstance(2, ((1, 1, 1), (1, 2, 2), (1, 1, 2), (1, 2, 1))),
            "element R1 occurs in 4 triples, not 2 or 3",
        ),
    ],
)
def test_reduce_3dm_names_what_breaks_the_restriction(inst, reason):
    with pytest.raises(ValueError, match=reason):
        reduce_3dm(inst)


def test_gadget_layout_n1():
    red = reduce_3dm(ONE, 5, allow_unrestricted=True)
    g = red.graph
    assert g.n == 46
    assert red.parameter == 1
    assert red.m == 5
    assert is_connected(g)
    tags = [r.tag for r in red.roles]
    assert tags.count(TRIPLE) == 1
    assert tags.count(ELEM) == 3
    assert tags.count(CLIQ) == 12  # two cliques of (m+1)*t = 6 vertices each
    assert tags.count(UBLK) == 15
    assert tags.count(UPRM) == 15
    # the lone triple vertex: 3 elements + one tap into each big clique
    assert g.degree(0) == 5
    assert g.neighbors(0) == (1, 2, 3, 4, 10)
    # elements hang off their block ends; occurrence 1 -> degree 2
    assert g.degree(1) == 2
    # first big-clique vertex is the tap: clique_size-1 + 1
    assert g.degree(4) == 6
    assert g.degree(5) == 5
    # block vertices: m-clique plus partner, +1 on the element end
    assert g.degree(28) == 5
    assert g.degree(20) == 6
    # tail clique vertices: 3nm - 1 inside plus one partner
    assert g.degree(45) == 15


def test_gadget_size_formula_tracks_t_and_m():
    for reps, m in ((1, 5), (2, 5), (3, 5), (2, 6)):
        inst = ThreeDMInstance(1, tuple([(1, 1, 1)] * reps))
        red = reduce_3dm(inst, m, allow_unrestricted=True)
        want = reps + 3 + (m - 3) * (m + 1) * reps + 6 * m
        assert red.graph.n == want
        audit_reduced_3dm(red)


def test_matching_encode_decode_roundtrip():
    red = reduce_3dm(SOLVABLE2, 5, allow_unrestricted=True)
    fam = matching_to_cut(red, (0, 1))
    assert fam.kind == STRUCTURE
    assert len(fam.elements) == 2
    assert is_structure_cut(red.graph, fam, 5)
    assert extract_matching(red, fam) == (0, 1)


def test_matching_to_cut_rejects_non_matchings():
    red = reduce_3dm(SOLVABLE2, 5, allow_unrestricted=True)
    with pytest.raises(ValueError):
        matching_to_cut(red, (0, 2))  # shared r-coordinate
    with pytest.raises(ValueError):
        matching_to_cut(red, (0,))


def test_extract_matching_requires_a_cut():
    red = reduce_3dm(ONE, 5, allow_unrestricted=True)
    not_a_cut = CutFamily(STRUCTURE, 5, (Star(45, (40, 41, 42, 43, 44)),))
    with pytest.raises(ValueError):
        extract_matching(red, not_a_cut)


def test_clique_severing_cut_decodes_to_none():
    # the known gadget defect: one star inside a big clique covering all taps
    red = reduce_3dm(SOLVABLE2, 5, allow_unrestricted=True)
    lo = next(v for v, r in enumerate(red.roles) if r.tag == CLIQ)
    sever = CutFamily(STRUCTURE, 5, (Star(lo, tuple(range(lo + 1, lo + 6))),))
    assert is_structure_cut(red.graph, sever, 5)
    assert extract_matching(red, sever) is None


def test_unsolvable_gadget_still_has_a_one_cut():
    # gadget defect pin: solvable and unsolvable instances are
    # indistinguishable through the gadget's connectivity
    unsolv = gen_random_3dm(2, 0, False, 3)
    red = reduce_3dm(unsolv, 5, allow_unrestricted=True)
    res = structure_connectivity(red.graph, 5, 2)
    assert res.value == 1
    assert extract_matching(red, res.certificate) is None


def _tail_partner_star(red):
    # Block 1's last vertex b carries the element edge; every block vertex
    # has one tail partner.  The star at b's partner, with b and the other
    # m-1 partners as leaves, strands the rest of block 1.
    m = red.m
    center = red.roles.index(VertexRole(UPRM, m))
    b = red.roles.index(VertexRole(UBLK, m, 1))
    partners = [red.roles.index(VertexRole(UPRM, i)) for i in range(1, m)]
    return Star(center, tuple(sorted([b, *partners])))


def test_every_matching_gadget_has_the_tail_partner_one_cut():
    # The law behind criterion 3's NO-side failure: kappa is 1 on every
    # gadget, so the gadget is decision-equivalent only when n = 1.
    red = reduce_3dm(gen_random_3dm(3, 4, True, 1), 5, allow_unrestricted=True)
    assert _tail_partner_star(red) == Star(149, (104, 145, 146, 147, 148))
    checked = 0
    for inst, m in matching_gadget_sources():
        red = reduce_3dm(inst, m, allow_unrestricted=True)
        cut = CutFamily(STRUCTURE, m, (_tail_partner_star(red),))
        assert is_structure_cut(red.graph, cut, m), (inst, m)
        checked += 1
    assert checked == 171


def test_complete_search_finds_kappa_one_on_every_matching_gadget():
    # The same law by exact search: every gadget's least cut is one star,
    # and each search completes (the slowest in well under 1 s).
    for inst, m in matching_gadget_sources():
        red = reduce_3dm(inst, m, allow_unrestricted=True)
        res = structure_connectivity(red.graph, m, 1, SearchOptions(time_limit=30))
        assert (res.value, res.complete) == (1, True), (inst, m)


def test_matching_gadgets_equal_the_edge_list_layout():
    for inst, m in matching_gadget_sources():
        red = reduce_3dm(inst, m, allow_unrestricted=True)
        assert (red.graph, red.roles) == edge_list_3dm_gadget(inst, m), (inst, m)


def test_reduce_vc_layout():
    red = reduce_vertex_cover(VertexCoverInstance(path(3), 1))
    g = red.graph
    assert g.n == 3 * (1 + 3)
    assert red.m == 2  # max degree of P_3
    assert red.parameter == 1
    assert is_connected(g)
    tags = [r.tag for r in red.roles]
    assert tags.count(ORIG) == 3
    assert tags.count(CLIQ) == 9
    audit_reduced_vc(red)
    # originals keep their source adjacency plus one tap per clique copy
    assert g.degree(1) == 2 + 3
    assert g.degree(0) == 1 + 3
    # clique vertices: n-1 inside plus exactly one original
    for v in range(3, 12):
        assert g.degree(v) == 3


def _edited(red, drop=(), add=()):
    """red with the edges in drop taken out of its graph and those in add put in."""
    edges = set(red.graph.edges()) - set(drop) | set(add)
    return dataclasses.replace(red, graph=build(red.graph.n, edges))


def _relabeled(red, v, role):
    return dataclasses.replace(red, roles=red.roles[:v] + (role,) + red.roles[v + 1 :])


def test_audit_vc_rejects_crossed_taps():
    red = reduce_vertex_cover(VertexCoverInstance(path(3), 1))
    # Originals 0 and 2 swap their taps into clique 1 (vertices 3 and 5);
    # every degree stays the same.
    crossed = _edited(red, drop=[(0, 3), (2, 5)], add=[(0, 5), (2, 3)])
    with pytest.raises(AssertionError, match="one neighbor outside its clique"):
        audit_reduced_vc(crossed)


# Each defect corrupts the n=1 matching gadget of test_gadget_layout_n1 in one
# way: triple 0, elements 1-3, cliques 4-9 and 10-15 (taps 4 and 10), blocks
# 16-20, 21-25, 26-30 (element ends 20, 25, 30), tail 31-45.  Vertex 5 has
# degree m = 5, as a triple and a non-last block vertex have.
_3DM_DEFECTS = {
    "m shifted": (lambda red: dataclasses.replace(red, m=6), "46 vertices, expected 61"),
    "parameter shifted": (lambda red: dataclasses.replace(red, parameter=2), "ground-set"),
    "triple edge dropped": (lambda red: _edited(red, drop=[(0, 1)]), "triple vertex 0 has degree 4"),
    "element edge dropped": (
        lambda red: _edited(red, drop=[(1, 20)]), "element vertex 1 has degree 1"
    ),
    "clique edge dropped": (lambda red: _edited(red, drop=[(5, 6)]), "clique vertex 5 has degree 4"),
    "block edge dropped": (lambda red: _edited(red, drop=[(16, 17)]), "block vertex 16 has degree 4"),
    "tail edge dropped": (
        lambda red: _edited(red, drop=[(31, 32)]), "tail clique vertex 31 has degree 14"
    ),
    "cover role": (lambda red: _relabeled(red, 0, VertexRole(ORIG, 1)), "unexpected role ORIG"),
    "clique vertex as a triple": (
        lambda red: _relabeled(red, 5, VertexRole(TRIPLE, 2)), "disagree with the source"
    ),
    "clique vertex as a block vertex": (
        lambda red: _relabeled(red, 5, VertexRole(UBLK, 1, 1)), "disagree with the layout"
    ),
}


@pytest.mark.parametrize("defect", sorted(_3DM_DEFECTS))
def test_audit_3dm_rejects_each_defect(defect):
    corrupt, reason = _3DM_DEFECTS[defect]
    red = reduce_3dm(ONE, 5, allow_unrestricted=True)
    with pytest.raises(AssertionError, match=reason):
        audit_reduced_3dm(corrupt(red))


def test_audit_3dm_rejects_a_disconnected_rewiring():
    # BALANCED has 4 triples and each element twice.  Trading every
    # triple-element edge for a K4 on the triples and a 6-cycle on the
    # elements keeps every degree, and cuts triples and cliques off the rest.
    red = reduce_3dm(BALANCED, 5)
    triples, elements = range(4), range(4, 10)
    incidence = [(k, e) for k in triples for e in elements if red.graph.has_edge(k, e)]
    ring = [(4 + i, 4 + (i + 1) % 6) for i in range(6)]
    k4 = [(a, b) for a in triples for b in triples if a < b]
    split = _edited(red, drop=incidence, add=k4 + ring)
    assert not is_connected(split.graph)
    with pytest.raises(AssertionError, match="matching gadget must be connected"):
        audit_reduced_3dm(split)


def test_audit_3dm_pins_degrees_not_wiring():
    # Trading element 1's block edge 1-20 and block vertex 21's tail edge
    # 21-36 for 1-36 and 20-21 keeps every degree, clique and connectivity:
    # the audit passes, though block 2's first vertex no longer meets the
    # tail.  Block 3 (26-30, tail partners 41-45) is untouched, so its
    # tail-partner cut remains.
    red = reduce_3dm(ONE, 5, allow_unrestricted=True)
    swapped = _edited(red, drop=[(1, 20), (21, 36)], add=[(1, 36), (20, 21)])
    audit_reduced_3dm(swapped)
    assert not any(swapped.graph.has_edge(21, w) for w in range(31, 46))
    cut = CutFamily(STRUCTURE, 5, (Star(45, (30, 41, 42, 43, 44)),))
    assert is_structure_cut(swapped.graph, cut, 5)


# The same for the path P_3 cover gadget with k = 1: originals 0-2, cliques
# 3-5, 6-8 and 9-11.
_VC_DEFECTS = {
    "budget shifted": (
        lambda red: dataclasses.replace(red, source=VertexCoverInstance(path(3), 2)),
        "12 vertices, expected 15",
    ),
    "parameter shifted": (lambda red: dataclasses.replace(red, parameter=2), "cover budget"),
    "m shifted": (lambda red: dataclasses.replace(red, m=3), "maximum degree"),
    "source edge dropped": (
        lambda red: _edited(red, drop=[(0, 1)]), "original vertex 0 has degree 3"
    ),
    "clique edge dropped": (lambda red: _edited(red, drop=[(3, 4)]), "clique vertex 3 has degree 2"),
    "matching role": (
        lambda red: _relabeled(red, 0, VertexRole(TRIPLE, 1)), "unexpected role TRIPLE"
    ),
}


@pytest.mark.parametrize("defect", sorted(_VC_DEFECTS))
def test_audit_vc_rejects_each_defect(defect):
    corrupt, reason = _VC_DEFECTS[defect]
    red = reduce_vertex_cover(VertexCoverInstance(path(3), 1))
    with pytest.raises(AssertionError, match=reason):
        audit_reduced_vc(corrupt(red))


def test_audit_vc_rejects_a_disconnected_rewiring():
    # Edgeless source on 3 vertices, k = 1: every vertex of clique j taps
    # original j - 1 instead of its own.  Each original still has k + 2 = 3
    # taps and each clique vertex one outside neighbor, its named original,
    # but the gadget falls into three components.
    red = reduce_vertex_cover(VertexCoverInstance(build(3, []), 1))
    taps = [(i, 3 * j + i) for j in (1, 2, 3) for i in range(3)]
    gathered = [(j - 1, 3 * j + i) for j in (1, 2, 3) for i in range(3)]
    split = _edited(red, drop=taps, add=gathered)
    for v in range(3, 12):
        split = _relabeled(split, v, VertexRole(CLIQ, v // 3, v // 3))
    with pytest.raises(AssertionError, match="cover gadget must be connected"):
        audit_reduced_vc(split)


def test_gadget_helpers_refuse_the_other_gadget():
    matching = reduce_3dm(ONE, 5, allow_unrestricted=True)
    cover = reduce_vertex_cover(VertexCoverInstance(path(3), 1))
    matched, covered = matching_to_cut(matching, (0,)), cover_to_cut(cover, (1,))
    for call in (
        lambda: audit_reduced_3dm(cover),
        lambda: matching_to_cut(cover, (0,)),
        lambda: extract_matching(cover, covered),
    ):
        with pytest.raises(ValueError, match="not a matching gadget"):
            call()
    for call in (
        lambda: audit_reduced_vc(matching),
        lambda: cover_to_cut(matching, (1,)),
        lambda: extract_cover(matching, matched),
    ):
        with pytest.raises(ValueError, match="not a cover gadget"):
            call()


def test_encoders_reject_a_gadget_their_family_does_not_cut():
    # Edges 5-11 and 11-31 join both big cliques to the tail once triple 0's
    # star is gone; edges 5-6 and 8-9 join the three P_3 cover cliques once
    # the originals are.
    matching = _edited(reduce_3dm(ONE, 5, allow_unrestricted=True), add=[(5, 11), (11, 31)])
    with pytest.raises(AssertionError, match="encoded matching family"):
        matching_to_cut(matching, (0,))
    cover = _edited(reduce_vertex_cover(VertexCoverInstance(path(3), 1)), add=[(5, 6), (8, 9)])
    with pytest.raises(AssertionError, match="encoded cover family"):
        cover_to_cut(cover, (1,))


def test_reduced_instance_needs_one_role_per_vertex():
    red = reduce_3dm(ONE, 5, allow_unrestricted=True)
    with pytest.raises(ValueError, match="one role per vertex"):
        dataclasses.replace(red, roles=red.roles[:-1])


def test_reduce_3dm_needs_a_triple():
    with pytest.raises(ValueError, match="at least one triple"):
        reduce_3dm(ThreeDMInstance(1, ()), allow_unrestricted=True)


def _cover_gadget_law(g):
    # The cut that removes the originals in I, by stars inside G[I], and the
    # n - |I| other vertices of one clique, by stars of Δ + 1 clique vertices.
    n = g.n
    delta = max(g.degree(v) for v in range(n))
    return min(
        domination_number(g, keep) + -(-(n - keep.bit_count()) // (delta + 1))
        for keep in range(1, 1 << n)
    )


def test_cover_gadget_value_follows_the_domination_law():
    # For sources with Δ >= 1 the gadget's substructure value is
    # min over nonempty I of γ(G[I]) + ⌈(n - |I|)/(Δ + 1)⌉, whatever k is.
    checked = 0
    for n in range(3, 9):
        for s in range(10):
            g = gen_random_graph(n, 0.5, 100 * n + s)
            if not g.edge_count:
                continue
            want = _cover_gadget_law(g)
            for k in range(1, min(3, n - 1) + 1):
                red = reduce_vertex_cover(VertexCoverInstance(g, k))
                res = substructure_connectivity(red.graph, red.m, want)
                assert (res.value, res.complete) == (want, True), (tuple(g.edges()), k)
                checked += 1
    assert checked == 168


def test_cover_gadget_value_on_edgeless_sources():
    # With Δ = 0 the law above reads n, but the stars are bare vertices, and
    # removing one original's k+2 taps strands it: κ_s = min(n, k + 2).
    for n in range(2, 6):
        for k in range(1, n):
            red = reduce_vertex_cover(VertexCoverInstance(build(n, []), k))
            res = substructure_connectivity(red.graph, red.m, n)
            assert (res.value, res.complete) == (min(n, k + 2), True), (n, k)


def test_cover_gadgets_equal_the_edge_list_layout():
    edgeless = isolated = 0
    for n in range(2, 9):
        for k in range(1, n):
            for p in (0.0, 0.2, 0.5, 0.9):
                g = gen_random_graph(n, p, 31 * n + k)
                degrees = [g.degree(v) for v in range(n)]
                edgeless += not g.edge_count
                isolated += bool(g.edge_count) and 0 in degrees
                inst = VertexCoverInstance(g, k)
                red = reduce_vertex_cover(inst)
                assert (red.graph, red.roles) == edge_list_vc_gadget(inst), (n, k, p)
    assert edgeless >= 28 and isolated > 0


def test_reduce_vc_m_is_the_max_degree():
    assert reduce_vertex_cover(VertexCoverInstance(path(3), 1)).m == 2


def test_cover_encode_decode_roundtrip():
    red = reduce_vertex_cover(VertexCoverInstance(path(3), 1))
    fam = cover_to_cut(red, (1,))
    assert [s.leaves for s in fam.elements] == [(0, 2)]
    assert is_substructure_cut(red.graph, fam, red.m)
    assert extract_cover(red, fam) == (1,)


def test_cover_to_cut_rejects_bad_covers():
    red = reduce_vertex_cover(VertexCoverInstance(path(3), 1))
    with pytest.raises(ValueError):
        cover_to_cut(red, (0,))  # leaves edge 1-2 uncovered
    red2 = reduce_vertex_cover(VertexCoverInstance(path(4), 2))
    with pytest.raises(ValueError):
        cover_to_cut(red2, (0, 1, 2))  # over budget
    with pytest.raises(ValueError, match="distinct"):
        cover_to_cut(red2, (1, 1))


def test_cover_to_cut_names_stranded_isolated_vertices():
    # Vertex 2 has no edges: no cover needs it, and no star of a cover
    # without it can remove it, so it would keep every clique connected.
    inst = VertexCoverInstance(build(4, [(0, 1), (1, 3)]), 2)
    red = reduce_vertex_cover(inst)
    with pytest.raises(ValueError, match=r"isolated source vertices \[2\]"):
        cover_to_cut(red, (1,))
    fam = cover_to_cut(red, (1, 2))
    assert is_substructure_cut(red.graph, fam, red.m)
    assert extract_cover(red, fam) == (1, 2)


def test_cover_roundtrip_on_larger_graphs():
    for g, k in ((path(4), 2), (cycle(6), 3), (complete(4), 3)):
        inst = VertexCoverInstance(g, k)
        cov = solve_vertex_cover(inst)
        assert cov is not None
        red = reduce_vertex_cover(inst)
        fam = cover_to_cut(red, cov)
        assert extract_cover(red, fam) == cov


def test_k3_gadget_defect_pins():
    # cover number of K_3 is 2, so k=1 is a NO instance; the gadget still
    # has a 1-element cut under the default semantics (all-originals star),
    # and none under the induced variant
    red = reduce_vertex_cover(VertexCoverInstance(complete(3), 1))
    plain = substructure_connectivity(red.graph, red.m, 1)
    assert plain.value == 1
    assert extract_cover(red, plain.certificate) is None
    induced = substructure_connectivity(red.graph, red.m, 1, SearchOptions(induced=True))
    assert (induced.value, induced.complete) == (None, True)


def test_c5_gadget_defect_survives_induced():
    # cover number of C_5 is 3; the gadget admits a 2-star cut whose leaves
    # are non-adjacent, so the induced reading does not rescue the claim
    red = reduce_vertex_cover(VertexCoverInstance(cycle(5), 2))
    for opts in (SearchOptions(), SearchOptions(induced=True)):
        res = substructure_connectivity(red.graph, red.m, 2, opts)
        assert res.value == 2


def test_extract_cover_requires_a_cut():
    red = reduce_vertex_cover(VertexCoverInstance(path(3), 1))
    lone = CutFamily(STRUCTURE, 2, (Star(4, (3, 5)),))
    with pytest.raises(ValueError):
        extract_cover(red, lone)
