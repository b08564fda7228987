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
    with pytest.raises(ValueError):
        reduce_3dm(ONE, 4, allow_unrestricted=True)
    red = reduce_3dm(ONE, 4, allow_small_m=True, allow_unrestricted=True)
    assert red.graph.n == 1 + 3 + 5 * 1 + 24
    with pytest.raises(ValueError):
        reduce_3dm(ONE, 3, allow_small_m=True, allow_unrestricted=True)


def test_reduce_3dm_restriction_gate():
    with pytest.raises(ValueError):
        reduce_3dm(ONE, 5)  # occurrence counts are 1, not in {2,3}
    reduce_3dm(ONE, 5, allow_unrestricted=True)
    reduce_3dm(BALANCED, 5)  # restricted instance passes without the flag


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


def test_audit_restricted_degrees_flag():
    red = reduce_3dm(BALANCED, 5)
    audit_reduced_3dm(red, restricted_degrees=True)


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


def test_audit_vc_rejects_crossed_taps():
    red = reduce_vertex_cover(VertexCoverInstance(path(3), 1))
    # Originals 0 and 2 swap their taps into clique 1 (vertices 3 and 5);
    # every degree stays the same.
    edges = set(red.graph.edges()) - {(0, 3), (2, 5)} | {(0, 5), (2, 3)}
    crossed = dataclasses.replace(red, graph=build(red.graph.n, edges))
    with pytest.raises(AssertionError, match="one neighbor outside its clique"):
        audit_reduced_vc(crossed)


def test_reduce_vc_m_override():
    reduce_vertex_cover(VertexCoverInstance(path(3), 1), 2)
    with pytest.raises(ValueError):
        reduce_vertex_cover(VertexCoverInstance(path(3), 1), 3)


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
