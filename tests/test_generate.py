from __future__ import annotations

import hashlib

import pytest

import starcut.generate as generate
from starcut import (
    OCCURRENCE_CAP,
    complete,
    element_occurrences,
    gen_random_3dm,
    gen_random_graph,
    solve_3dm,
    verify_matching,
)


def test_gen_graph_deterministic():
    a = gen_random_graph(9, 0.4, 77)
    b = gen_random_graph(9, 0.4, 77)
    assert a == b
    assert any(gen_random_graph(9, 0.4, s) != a for s in range(5))


def test_gen_graph_extremes():
    assert gen_random_graph(6, 0.0, 1).edge_count == 0
    assert gen_random_graph(6, 1.0, 1) == complete(6)
    assert gen_random_graph(0, 0.5, 1).n == 0


def test_gen_graph_validation():
    with pytest.raises(ValueError):
        gen_random_graph(-1, 0.5, 0)
    with pytest.raises(ValueError):
        gen_random_graph(4, 1.5, 0)
    with pytest.raises(ValueError):
        gen_random_graph(4, -0.1, 0)


def test_gen_3dm_deterministic():
    a = gen_random_3dm(3, 2, True, 5)
    b = gen_random_3dm(3, 2, True, 5)
    assert a == b


@pytest.mark.parametrize("seed", range(8))
def test_gen_3dm_solvable_has_matching(seed):
    inst = gen_random_3dm(2, 1, True, seed)
    assert inst.n == 2
    assert len(inst.triples) == 3
    assert len(set(inst.triples)) == 3
    sol = solve_3dm(inst)
    assert sol is not None
    assert verify_matching(inst, sol)
    assert max(element_occurrences(inst)) <= OCCURRENCE_CAP


@pytest.mark.parametrize("seed", range(6))
def test_gen_3dm_planted_prefix_is_a_matching(seed):
    inst = gen_random_3dm(4, 3, True, seed)
    assert verify_matching(inst, tuple(range(4)))


def test_gen_3dm_unsolvable():
    inst = gen_random_3dm(2, 0, False, 3)
    assert len(inst.triples) == 2
    assert solve_3dm(inst) is None
    assert max(element_occurrences(inst)) <= OCCURRENCE_CAP


def test_gen_3dm_unsolvable_impossible_for_singletons():
    # the only n=1 triple is (1,1,1), so every nonempty instance is solvable
    with pytest.raises(ValueError, match="no unsolvable instance"):
        gen_random_3dm(1, 0, False, 0)


def test_gen_3dm_extras_blocked_by_cap():
    # n=1 admits a single distinct triple, already spent on the planted one
    with pytest.raises(ValueError, match="lower extra or raise n"):
        gen_random_3dm(1, 1, True, 0)
    # n=2: first coordinates give at most 2*OCCURRENCE_CAP = 6 triples total
    with pytest.raises(ValueError):
        gen_random_3dm(2, 5, True, 0)


@pytest.mark.parametrize("n, extra, most", [(1, 1, 0), (2, 5, 999)])
def test_gen_3dm_blocked_extras_give_up_without_drawing_on(monkeypatch, n, extra, most):
    # The open triples are counted before each draw, so a parameter set the
    # cap cannot meet fails as soon as none is left.
    calls = []
    draw = generate._random_triple

    def counted(rng, size):
        calls.append(size)
        return draw(rng, size)

    monkeypatch.setattr(generate, "_random_triple", counted)
    with pytest.raises(ValueError, match="could not place the extra triples"):
        gen_random_3dm(n, extra, True, 0)
    assert len(calls) <= most


# sha256 of repr(records) for the sweep below, where a record is
# ("ok", n, extra, solvable, seed, triples) or ("err", ..., message).  Test
# corpora are referenced by their parameters, so no instance may drift.
GEN_3DM_SWEEP_SHA256 = "661e1fc1125467bba95ad03b7a9f883c2950fd159ed43bbf38c568bc75d882ac"


def test_gen_3dm_sweep_is_pinned():
    records = []
    for n in range(1, 6):
        for extra in range(5):
            for solvable in (True, False):
                for seed in range(10):
                    try:
                        inst = gen_random_3dm(n, extra, solvable, seed)
                        records.append(("ok", n, extra, solvable, seed, inst.triples))
                    except ValueError as exc:
                        records.append(("err", n, extra, solvable, seed, str(exc)))
    assert sum(r[0] == "ok" for r in records) == 390
    assert hashlib.sha256(repr(records).encode()).hexdigest() == GEN_3DM_SWEEP_SHA256


def test_gen_3dm_validation():
    with pytest.raises(ValueError):
        gen_random_3dm(0, 0, True, 0)
    with pytest.raises(ValueError):
        gen_random_3dm(2, -1, True, 0)
