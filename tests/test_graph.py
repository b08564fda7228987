from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from starcut import (
    Graph,
    audit,
    build,
    complete,
    cycle,
    is_connected,
    mask_connected,
    path,
    star,
)
from starcut.graph import mask_span


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


@pytest.mark.parametrize(
    "make", [lambda: build(-1, []), lambda: star(-1), lambda: cycle(2)],
    ids=["build-negative", "star-negative", "cycle-2"],
)
def test_constructors_reject_bad_sizes(make):
    with pytest.raises(ValueError):
        make()


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


def _components(g, mask):
    # Union-find over the edges inside `mask`, independent of the BFS.
    parent = {v: v for v in range(g.n) if mask >> v & 1}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges():
        if u in parent and v in parent:
            parent[root(u)] = root(v)
    return {v: root(v) for v in parent}


# (n, raw edge list, vertex mask) on up to 8 vertices.
_MASK_CASES = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=16),
        st.integers(0, (1 << n) - 1),
    )
)


@given(_MASK_CASES)
def test_mask_connected_matches_components(case):
    n, raw, mask = case
    g = build(n, [(u, v) for u, v in raw if u != v])
    comp = _components(g, mask)
    assert mask_connected(g, mask) == (len(set(comp.values())) <= 1)
    assert mask_connected(g, 0)
    for v in range(n):
        assert mask_connected(g, 1 << v)


@given(_MASK_CASES)
def test_mask_span_matches_components(case):
    # The component of the mask's least vertex, and the OR of its rows.
    n, raw, mask = case
    g = build(n, [(u, v) for u, v in raw if u != v])
    assert mask_span(g, 0) == (0, 0)
    if not mask:
        return
    comp = _components(g, mask)
    least = comp[min(comp)]
    want = [v for v in comp if comp[v] == least]
    around = 0
    for v in want:
        around |= g.masks[v]
    assert mask_span(g, mask) == (sum(1 << v for v in want), around)
