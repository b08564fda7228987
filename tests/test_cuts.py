from __future__ import annotations

import hashlib
import random

import pytest

from helpers import connected_corpus
from starcut import (
    STRUCTURE,
    SUBSTRUCTURE,
    CutFamily,
    Star,
    build,
    canonical_star,
    complete,
    cycle,
    is_structure_cut,
    is_substructure_cut,
    path,
    remainder_is_cut,
)
from starcut.cuts import trivial_remainder

BOWTIE = build(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def test_star_stores_leaves_increasing():
    s = Star(3, (1, 5))
    assert s.leaf_count == 2
    assert s.vertices() == (1, 3, 5)


@pytest.mark.parametrize("leaves", [(5, 1), (1, 1), (2, 2, 3)])
def test_star_rejects_non_increasing_leaves(leaves):
    with pytest.raises(ValueError):
        Star(0, leaves)


def test_star_rejects_center_among_leaves():
    with pytest.raises(ValueError):
        Star(2, (1, 2))


def test_star_rejects_negative_ids():
    with pytest.raises(ValueError):
        Star(-1)
    with pytest.raises(ValueError):
        Star(0, (-1,))


def test_canonical_star_flips_single_edge():
    assert canonical_star(5, (2,)) == Star(2, (5,))
    assert canonical_star(2, (5,)) == Star(2, (5,))
    # larger stars keep their orientation; leaves get sorted
    assert canonical_star(5, (7, 2)) == Star(5, (2, 7))
    assert canonical_star(4, ()) == Star(4, ())


def _sub_cut(g, *stars, **kw):
    """is_substructure_cut on the family of `stars` at its own leaf bound."""
    fam = CutFamily(SUBSTRUCTURE, max(s.leaf_count for s in stars), stars)
    return is_substructure_cut(g, fam, fam.m, **kw)


def test_verifier_checks_center_leaf_edges():
    g = path(3)
    assert _sub_cut(g, Star(1, (0, 2)))
    with pytest.raises(ValueError, match="not a valid star"):
        _sub_cut(g, Star(0, (2,)))
    assert not _sub_cut(g, Star(2, ()))
    with pytest.raises(
        ValueError, match="cut references vertex 10 but the graph has 3 vertices"
    ):
        _sub_cut(g, Star(9, ()))


def test_induced_star_rejects_adjacent_leaves():
    t = cycle(3)
    assert _sub_cut(t, Star(0, (1, 2)))
    with pytest.raises(ValueError, match="not a valid star"):
        _sub_cut(t, Star(0, (1, 2)), induced=True)
    assert _sub_cut(path(3), Star(1, (0, 2)), induced=True)


def test_family_kind_bounds():
    with pytest.raises(ValueError):
        CutFamily(STRUCTURE, 2, (Star(0, (1,)),))
    with pytest.raises(ValueError):
        CutFamily(SUBSTRUCTURE, 1, (Star(0, (1, 2)),))
    CutFamily(SUBSTRUCTURE, 2, (Star(0, (1,)),))
    CutFamily(STRUCTURE, 0, (Star(0, ()),))
    with pytest.raises(ValueError):
        CutFamily("star", 1)
    with pytest.raises(ValueError):
        CutFamily(STRUCTURE, -1)


def test_family_requires_disjoint_elements():
    with pytest.raises(ValueError):
        CutFamily(SUBSTRUCTURE, 2, (Star(0, (1,)), Star(1, (2,))))


def test_verifier_removes_every_star_vertex():
    # The family removes {0, 2, 4}; only the edge 1-3 joins what is left.
    fam = CutFamily(SUBSTRUCTURE, 2, (Star(0, (2,)), Star(4, ())))
    linked = build(5, [(0, 1), (0, 2), (1, 3), (3, 4)])
    apart = build(5, [(0, 1), (0, 2), (1, 4), (2, 3), (3, 4)])
    assert not is_substructure_cut(linked, fam, fam.m)
    assert is_substructure_cut(apart, fam, fam.m)


def test_remainder_is_cut_conventions():
    g = cycle(6)
    assert remainder_is_cut(g, 0b111111) is True
    assert remainder_is_cut(g, 0b111111, strict_trivial=True) is False
    assert remainder_is_cut(g, 0b111110, strict_trivial=True) is True
    assert remainder_is_cut(g, 0b000110) is False  # leaves a connected path


def test_trivial_remainder():
    for strict in (False, True):
        assert trivial_remainder(0b100, strict) is True
        assert trivial_remainder(0b101, strict) is False
    assert trivial_remainder(0) is True
    assert trivial_remainder(0, strict_trivial=True) is False


def test_subgraph_cut_on_path_middle():
    g = path(3)
    fam = CutFamily(SUBSTRUCTURE, 1, (Star(1, ()),))
    assert is_substructure_cut(g, fam, fam.m)
    assert is_substructure_cut(g, fam, fam.m, strict_trivial=True)


def test_subgraph_cut_trivial_remainder():
    g = complete(4)
    fam = CutFamily(SUBSTRUCTURE, 2, (Star(0, (1, 2)),))
    # one survivor: trivial under both conventions
    assert is_substructure_cut(g, fam, fam.m)
    assert is_substructure_cut(g, fam, fam.m, strict_trivial=True)


def test_subgraph_cut_empty_remainder_depends_on_convention():
    g = cycle(6)
    fam = CutFamily(STRUCTURE, 2, (Star(0, (1, 5)), Star(3, (2, 4))))
    assert is_substructure_cut(g, fam, fam.m)
    assert not is_substructure_cut(g, fam, fam.m, strict_trivial=True)


def test_invalid_star_is_an_error_not_false():
    g = path(4)
    fam = CutFamily(SUBSTRUCTURE, 1, (Star(0, (2,)),))
    with pytest.raises(ValueError):
        is_substructure_cut(g, fam, fam.m)


def test_overlapping_family_cannot_be_built():
    with pytest.raises(ValueError):
        CutFamily(SUBSTRUCTURE, 2, (Star(2, (0, 3)), Star(3, (4,))))


def test_structure_cut_checks_exact_leaf_count():
    fam = CutFamily(SUBSTRUCTURE, 2, (Star(2, (0, 3)),))
    assert is_substructure_cut(BOWTIE, fam, 2)
    # same family read as a structure cut for m=2 has the right arity
    assert is_structure_cut(BOWTIE, fam, 2)
    # but not for m=3: wrong leaf count is False, not an error
    assert not is_structure_cut(BOWTIE, fam, 3)


def test_substructure_cut_rejects_oversized_elements():
    fam = CutFamily(STRUCTURE, 2, (Star(2, (0, 3)),))
    assert not is_substructure_cut(BOWTIE, fam, 1)
    assert is_substructure_cut(BOWTIE, fam, 5)


def test_induced_flag_threads_through_verifier():
    g = complete(4)
    fam = CutFamily(SUBSTRUCTURE, 2, (Star(0, (1, 2)),))
    assert is_substructure_cut(g, fam, fam.m)
    with pytest.raises(ValueError):
        is_substructure_cut(g, fam, fam.m, induced=True)


def test_induced_cut_accepts_independent_leaves():
    g = cycle(5)
    fam = CutFamily(SUBSTRUCTURE, 2, (Star(0, (1,)), Star(3, (2, 4))))
    assert is_substructure_cut(g, fam, 2, induced=True)


# sha256 of repr(verdicts) below, where a verdict is True, False or
# "ValueError".  Recorded before the verifiers were merged into one; the
# families include wrong leaf counts, non-edges, adjacent leaves and ids
# past the last vertex, so every branch of the check is pinned.
VERIFIER_VERDICTS_SHA256 = (
    "c827f92f2088610a1ed1a3afffc91ceaed8e5cc91e8f968bd4a2afde8aaccebb"
)


def _random_family(g, rng):
    """Up to three disjoint stars on ids 0..n+1, mostly along g's edges."""
    kind = rng.choice((STRUCTURE, SUBSTRUCTURE))
    m = rng.randint(0, 3)
    free = set(range(g.n + 2))
    stars = []
    for _ in range(rng.randint(1, 3)):
        in_range = free & set(range(g.n))
        centers = sorted(free if rng.random() < 0.15 else in_range)
        if not centers:
            break
        c = rng.choice(centers)
        free.discard(c)
        k = m if kind == STRUCTURE else rng.randint(0, m)
        near = [v for v in sorted(free) if c < g.n and g.masks[c] >> v & 1]
        pool = near if len(near) >= k and rng.random() < 0.8 else sorted(free)
        if len(pool) < k:
            break
        leaves = tuple(sorted(rng.sample(pool, k)))
        free.difference_update(leaves)
        stars.append(Star(c, leaves))
    return CutFamily(kind, m, tuple(stars))


def _verdict(check, g, fam, m, strict, induced):
    try:
        return check(g, fam, m, strict_trivial=strict, induced=induced)
    except ValueError:
        return "ValueError"


def test_verifier_verdicts_are_pinned():
    verdicts = []
    for g, _, _, seed in connected_corpus(60, max_n=9):
        rng = random.Random(seed)
        for _ in range(20):
            fam = _random_family(g, rng)
            for check in (is_structure_cut, is_substructure_cut):
                for m in (fam.m - 1, fam.m, fam.m + 1):
                    for strict in (False, True):
                        for induced in (False, True):
                            verdicts.append(
                                _verdict(check, g, fam, m, strict, induced)
                            )
    assert len(verdicts) == 28800
    assert [verdicts.count(v) for v in (True, False, "ValueError")] == [
        1852, 21034, 5914
    ]
    digest = hashlib.sha256(repr(verdicts).encode()).hexdigest()
    assert digest == VERIFIER_VERDICTS_SHA256
