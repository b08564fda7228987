from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from starcut import (
    Graph,
    audit,
    build,
    closed_neighborhood,
    complete,
    cycle,
    disjoint_union,
    is_connected,
    mask_connected,
    open_neighborhood,
    path,
    remove_vertices,
    star,
)


def test_build_basics():
    g = build(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count == 3
    assert g.neighbors(1) == (0, 2)
    assert g.degree(1) == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    audit(g)


@pytest.mark.parametrize(
    "masks,message",
    [
        ((0b10, 0b00), "asymmetric edge"),
        ((0b01, 0b00), "self-loop"),
        ((0b100, 0b000), "at or above n"),
        ((-1, 0), "at or above n"),
    ],
    ids=["asymmetric", "self-loop", "bit-at-n", "negative"],
)
def test_audit_rejects_defective_masks(masks, message):
    with pytest.raises(ValueError, match=message):
        audit(Graph(masks))


def test_build_collapses_duplicates():
    g = build(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


@pytest.mark.parametrize("bad", [(0, 0), (1, 1)])
def test_build_rejects_self_loops(bad):
    with pytest.raises(ValueError):
        build(3, [bad])


@pytest.mark.parametrize("bad", [(0, 3), (-1, 0), (7, 1)])
def test_build_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        build(3, [bad])


def test_edges_sorted_unique():
    g = build(4, [(3, 2), (1, 0), (0, 2)])
    assert tuple(g.edges()) == ((0, 1), (0, 2), (2, 3))


@pytest.mark.parametrize(
    "g,n,m",
    [
        (complete(4), 4, 6),
        (complete(1), 1, 0),
        (star(5), 6, 5),
        (path(4), 4, 3),
        (path(1), 1, 0),
        (cycle(3), 3, 3),
        (cycle(6), 6, 6),
    ],
)
def test_constructors(g, n, m):
    assert (g.n, g.edge_count) == (n, m)
    audit(g)


def test_star_layout():
    g = star(3)
    assert g.neighbors(0) == (1, 2, 3)
    assert g.degree(1) == 1


def test_disjoint_union():
    g = disjoint_union(path(2), cycle(3))
    assert g.n == 5
    assert g.edge_count == 4
    assert g.has_edge(0, 1)
    assert g.has_edge(2, 3) and g.has_edge(2, 4)
    assert not is_connected(g)


def test_neighborhoods():
    g = path(3)
    assert closed_neighborhood(g, [1]) == (0, 1, 2)
    assert open_neighborhood(g, [1]) == (0, 2)
    assert open_neighborhood(path(4), [1, 2]) == (0, 3)
    assert closed_neighborhood(g, []) == ()


def test_remove_vertices_relabels():
    g = cycle(5)
    h, old = remove_vertices(g, [1, 3])
    assert h.n == 3
    assert old == (0, 2, 4)
    # survivors 0-4 stay adjacent through the original edge (4, 0)
    assert h.has_edge(0, 2)
    assert h.edge_count == 1


def test_remove_nothing_is_identity():
    g = cycle(4)
    h, old = remove_vertices(g, [])
    assert h == g
    assert old == (0, 1, 2, 3)


def test_connectivity_predicates():
    assert is_connected(cycle(4))
    assert is_connected(build(0, []))
    assert is_connected(build(1, []))
    assert not is_connected(build(2, []))
    g = path(4)
    assert mask_connected(g, 0b0011)
    assert not mask_connected(g, 0b1001)
    assert mask_connected(g, 0)
    assert mask_connected(g, 0b0100)


def test_equality_ignores_edge_order():
    a = build(3, [(0, 1), (1, 2)])
    b = build(3, [(1, 2), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != build(3, [(0, 1)])


@given(
    st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
                max_size=20,
            ),
        )
    )
)
def test_build_random_edge_lists(case):
    n, raw = case
    edges = [(u, v) for u, v in raw if u != v and u < n and v < n]
    g = build(n, edges)
    audit(g)
    assert g.edge_count == len({frozenset(e) for e in edges})
    for u, v in edges:
        assert g.has_edge(u, v)
