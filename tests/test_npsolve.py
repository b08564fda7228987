from __future__ import annotations

import hashlib
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcut import (
    ThreeDMInstance,
    VertexCoverInstance,
    build,
    complete,
    cycle,
    element_occurrences,
    gen_random_3dm,
    gen_random_graph,
    is_vertex_cover,
    path,
    solve_3dm,
    solve_vertex_cover,
    validate_3dm,
    verify_matching,
)


def test_instance_validation():
    ThreeDMInstance(1, ((1, 1, 1),))
    with pytest.raises(ValueError):
        ThreeDMInstance(0, ())
    with pytest.raises(ValueError):
        ThreeDMInstance(2, ((1, 3, 1),))
    with pytest.raises(ValueError):
        ThreeDMInstance(2, ((0, 1, 1),))


def test_element_occurrences_flat_layout():
    inst = ThreeDMInstance(2, ((1, 1, 1), (1, 2, 2)))
    assert element_occurrences(inst) == [2, 0, 1, 1, 1, 1]


def test_validate_structural_and_restricted():
    one = ThreeDMInstance(1, ((1, 1, 1),))
    assert not validate_3dm(one)
    balanced = ThreeDMInstance(2, ((1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)))
    assert validate_3dm(balanced)
    # every occurrence count is 2, so only the distinctness check rejects it
    dup = ThreeDMInstance(1, ((1, 1, 1), (1, 1, 1)))
    assert not validate_3dm(dup)


def test_verify_matching():
    inst = ThreeDMInstance(2, ((1, 1, 1), (2, 2, 2), (1, 2, 2)))
    assert verify_matching(inst, (0, 1))
    assert not verify_matching(inst, (0, 2))  # r-coordinates collide
    assert not verify_matching(inst, (0,))
    assert not verify_matching(inst, (0, 0))
    assert not verify_matching(inst, (0, 9))
    assert not verify_matching(inst, (-1, 1))
    # Distinct indices of one repeated triple cover its slots twice.
    dup = ThreeDMInstance(1, ((1, 1, 1), (1, 1, 1)))
    assert verify_matching(dup, (1,)) and not verify_matching(dup, (0, 1))


def test_verify_matching_agrees_with_an_element_count():
    # Every index tuple of length 1..3 over eight triples on n = 2, against
    # "each of R, B, Y is hit exactly once per element".
    triples = ((1, 1, 1), (2, 2, 2), (1, 2, 2), (2, 1, 1), (2, 1, 2), (1, 1, 2),
               (2, 2, 1), (1, 1, 1))
    inst = ThreeDMInstance(2, triples)
    accepted = 0
    for size in (1, 2, 3):
        for indices in product(range(-1, len(triples) + 1), repeat=size):
            ok = size == 2 and all(0 <= i < len(triples) for i in indices) and all(
                sorted(triples[i][axis] for i in indices) == [1, 2] for axis in range(3)
            )
            assert verify_matching(inst, indices) == ok, indices
            accepted += ok
    assert accepted == 8


def test_solve_3dm_n1():
    assert solve_3dm(ThreeDMInstance(1, ((1, 1, 1),))) == (0,)


def test_solve_3dm_absent():
    inst = ThreeDMInstance(2, ((1, 1, 1), (1, 2, 2), (2, 1, 2)))
    assert solve_3dm(inst) is None


def test_solve_3dm_picks_cover():
    inst = ThreeDMInstance(2, ((1, 1, 1), (2, 2, 2), (1, 2, 2)))
    assert solve_3dm(inst) == (0, 1)


def test_solve_3dm_handles_duplicates():
    inst = ThreeDMInstance(1, ((1, 1, 1), (1, 1, 1)))
    got = solve_3dm(inst)
    assert got is not None and verify_matching(inst, got)


# sha256 of repr([solve_3dm(i) for i in _pinned_3dm_instances()]).  `oracle
# 3dm` prints the matching, so which one is returned must not drift.
SOLVE_3DM_SHA256 = "8048481f9a98c187c2aa32dfb8aa355f882cbb20f6ba21cb3c325238b2131cbc"


def _pinned_3dm_instances():
    insts = []
    for n in range(1, 6):
        for extra in range(4):
            for solvable in (True, False):
                for seed in range(10):
                    try:
                        insts.append(gen_random_3dm(n, extra, solvable, seed))
                    except ValueError:
                        pass
    # unrestricted lists, about half of them with a repeated triple
    for seed in range(1800):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        t = rng.randint(0, 3 * n)
        triples = [
            (rng.randint(1, n), rng.randint(1, n), rng.randint(1, n)) for _ in range(t)
        ]
        if triples and rng.random() < 0.5:
            triples.append(triples[rng.randrange(len(triples))])
        insts.append(ThreeDMInstance(n, tuple(triples)))
    return insts


def test_solve_3dm_returns_the_pinned_matchings():
    insts = _pinned_3dm_instances()
    assert len(insts) == 2120
    found = [solve_3dm(inst) for inst in insts]
    assert sum(f is not None for f in found) == 663
    assert hashlib.sha256(repr(found).encode()).hexdigest() == SOLVE_3DM_SHA256


def _matching_by_enumeration(inst):
    idx = range(len(inst.triples))
    return any(verify_matching(inst, sel) for sel in combinations(idx, inst.n))


@settings(deadline=None, max_examples=150)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(1, n), st.integers(1, n), st.integers(1, n)),
                min_size=0,
                max_size=8,
            ),
        )
    )
)
def test_solve_3dm_agrees_with_enumeration(case):
    n, triples = case
    inst = ThreeDMInstance(n, tuple(triples))
    got = solve_3dm(inst)
    assert (got is not None) == _matching_by_enumeration(inst)
    if got is not None:
        assert verify_matching(inst, got)


def test_cover_instance_validation():
    VertexCoverInstance(path(3), 1)
    with pytest.raises(ValueError):
        VertexCoverInstance(path(3), 0)
    with pytest.raises(ValueError):
        VertexCoverInstance(path(3), 3)


def test_is_vertex_cover():
    g = path(4)
    assert is_vertex_cover(g, (1, 2))
    assert not is_vertex_cover(g, (0, 3))
    assert is_vertex_cover(build(3, []), ())
    assert not is_vertex_cover(path(3), (5,))


def test_solve_vertex_cover_p3():
    assert solve_vertex_cover(VertexCoverInstance(path(3), 1)) == (1,)


def test_solve_vertex_cover_triangle_absent():
    assert solve_vertex_cover(VertexCoverInstance(complete(3), 1)) is None


def test_solve_vertex_cover_p4():
    inst = VertexCoverInstance(path(4), 2)
    got = solve_vertex_cover(inst)
    assert got is not None and len(got) <= 2
    assert is_vertex_cover(inst.graph, got)


# sha256 of repr(_pinned_covers()).  `oracle vc` prints the cover, so which
# one is returned must not drift.
SOLVE_VERTEX_COVER_SHA256 = "fe23bf4c4a6adcf5a7662fe5c29005f04568f21afcea2d5feaf89dded487ac16"


def _pinned_covers():
    found = []
    for n in range(2, 11):
        for p in (0.2, 0.5, 0.8):
            for seed in range(40):
                g = gen_random_graph(n, p, seed)
                found.extend(solve_vertex_cover(VertexCoverInstance(g, k)) for k in range(1, n))
    return found


def test_solve_vertex_cover_returns_the_pinned_covers():
    found = _pinned_covers()
    assert len(found) == 5400
    assert sum(f is not None for f in found) == 3140
    assert hashlib.sha256(repr(found).encode()).hexdigest() == SOLVE_VERTEX_COVER_SHA256


def test_solve_vertex_cover_answers_a_deep_cover():
    # Every other vertex of a 2400-vertex path, one branching step each: far
    # deeper than Python's default recursion limit.
    g = path(2400)
    got = solve_vertex_cover(VertexCoverInstance(g, 1200))
    assert got is not None and len(got) == 1200
    assert is_vertex_cover(g, got)


def _cover_by_enumeration(g, k):
    for size in range(k + 1):
        for sel in combinations(range(g.n), size):
            if is_vertex_cover(g, sel):
                return True
    return False


@settings(deadline=None, max_examples=120)
@given(st.integers(2, 8), st.integers(0, 400), st.sampled_from([0.2, 0.5, 0.8]))
def test_solve_vertex_cover_agrees_with_enumeration(n, seed, p):
    g = gen_random_graph(n, p, seed)
    for k in range(1, n):
        inst = VertexCoverInstance(g, k)
        got = solve_vertex_cover(inst)
        assert (got is not None) == _cover_by_enumeration(g, k)
        if got is not None:
            assert len(got) <= k and is_vertex_cover(g, got)


def test_cover_solver_on_cycles():
    # C_5 needs 3 vertices, C_6 needs 3
    assert solve_vertex_cover(VertexCoverInstance(cycle(5), 2)) is None
    got = solve_vertex_cover(VertexCoverInstance(cycle(6), 3))
    assert got is not None and is_vertex_cover(cycle(6), got)
