from __future__ import annotations

import hashlib
import math
import random
import sys
import time
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    PRUNE_RULES,
    SIBLING_TEST,
    connected_corpus,
    connected_graphs_upto,
    pruning_off,
)
from starcut import (
    STRUCTURE,
    SUBSTRUCTURE,
    CutFamily,
    SearchOptions,
    Star,
    build,
    complete,
    cycle,
    gen_random_3dm,
    gen_random_graph,
    is_connected,
    is_structure_cut,
    is_substructure_cut,
    mask_connected,
    oracle_connectivity,
    path,
    reduce_3dm,
    remainder_is_cut,
    solver,
    star,
    structure_connectivity,
    substructure_connectivity,
    write_cut,
)
from starcut.graph import bits
from starcut.solver import ORACLE_SIZE_CAP, _best_partition, _Engine
from starcut.symmetry import Orbits, is_regular

BOWTIE = build(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def _cert(res):
    if res.certificate is None:
        return None
    return tuple((s.center, s.leaves) for s in res.certificate.elements)


# -- frozen values, each re-derivable by hand ------------------------------


def test_bowtie_structure_m2():
    res = structure_connectivity(BOWTIE, 2, 5)
    assert (res.value, res.bound, res.complete) == (1, 1, True)
    assert _cert(res) == ((2, (0, 3)),)


def test_cycle5_substructure_m1():
    res = substructure_connectivity(cycle(5), 1, 5)
    assert res.value == 2
    assert _cert(res) == ((0, ()), (2, ()))


def test_cycle6_structure_m2_conventions():
    res = structure_connectivity(cycle(6), 2, 6)
    assert res.value == 2
    assert _cert(res) == ((0, (1, 5)), (3, (2, 4)))
    strict = structure_connectivity(cycle(6), 2, 6, SearchOptions(strict_trivial=True))
    assert (strict.value, strict.complete) == (None, True)
    assert strict.bound == 6


def test_cycle5_structure_m2_absent():
    res = structure_connectivity(cycle(5), 2, 5)
    assert (res.value, res.certificate, res.complete) == (None, None, True)


def test_path4_structure_m1():
    res = structure_connectivity(path(4), 1, 4)
    assert res.value == 1
    assert _cert(res) == ((1, (2,)),)


def test_k4_substructure_m2():
    res = substructure_connectivity(complete(4), 2, 4)
    assert res.value == 1
    assert _cert(res) == ((0, (1, 2)),)


def test_k4_structure_m3_conventions():
    assert structure_connectivity(complete(4), 3, 4).value == 1
    strict = structure_connectivity(complete(4), 3, 4, SearchOptions(strict_trivial=True))
    assert (strict.value, strict.complete) == (None, True)


def test_path3_substructure_m1():
    assert substructure_connectivity(path(3), 1, 3).value == 1


def test_star_graph_center_is_a_cut():
    g = star(4)
    res = substructure_connectivity(g, 1, 4)
    assert res.value == 1
    # the bare center K_1 precedes any leafed star in lexicographic order
    assert _cert(res) == ((0, ()),)


def test_m0_families_are_singletons():
    g = cycle(4)
    res = structure_connectivity(g, 0, 4)
    assert res.value == 2
    assert _cert(res) == ((0, ()), (2, ()))
    sub = substructure_connectivity(g, 0, 4)
    assert (sub.value, _cert(sub)) == (res.value, _cert(res))


def test_induced_option_changes_k4():
    g = complete(4)
    plain = substructure_connectivity(g, 2, 4)
    induced = substructure_connectivity(g, 2, 4, SearchOptions(induced=True))
    assert plain.value == 1
    assert induced.value == 2
    assert is_substructure_cut(g, induced.certificate, 2, induced=True)


# -- input validation -------------------------------------------------------


def test_rejects_disconnected_input():
    g = build(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        structure_connectivity(g, 1, 2)


def test_rejects_tiny_input():
    with pytest.raises(ValueError):
        substructure_connectivity(build(1, []), 1, 1)


@pytest.mark.parametrize("m,tmax", [(-1, 2), (1, 0)])
def test_rejects_bad_parameters(m, tmax):
    with pytest.raises(ValueError):
        structure_connectivity(path(3), m, tmax)


@pytest.mark.parametrize("limit", [float("nan"), -1.0])
def test_rejects_a_nan_or_negative_time_limit(limit):
    # NaN would make a deadline no clock reading exceeds.
    with pytest.raises(ValueError, match="time_limit"):
        SearchOptions(time_limit=limit)


def test_infinite_time_limit_means_no_limit():
    res = structure_connectivity(cycle(6), 2, 3, SearchOptions(time_limit=math.inf))
    assert (res.value, res.complete) == (2, True)


def test_time_limit_reports_incomplete():
    res = structure_connectivity(BOWTIE, 2, 5, SearchOptions(time_limit=1e-9))
    assert (res.value, res.certificate, res.bound, res.complete) == (None, None, 0, False)


# -- result is independent of pruning ---------------------------------------


# Each entry is a set of prune rules to switch off: none, all, each alone.
_PRUNE_VARIANTS = ((), PRUNE_RULES, *((rule,) for rule in PRUNE_RULES))


@pytest.mark.parametrize("strict", [False, True])
def test_prune_toggles_do_not_change_answers(strict):
    opts = SearchOptions(strict_trivial=strict)
    for g, *_ in connected_corpus(12, max_n=8, seed0=100):
        for m in (1, 2):
            for fn in (structure_connectivity, substructure_connectivity):
                vals = set()
                for rules in _PRUNE_VARIANTS:
                    with pruning_off(*rules):
                        r = fn(g, m, g.n, opts)
                    vals.add((r.value, _cert(r), r.complete))
                assert len(vals) == 1, f"pruning changes {g.edges()} m={m}: {vals}"


# -- pinned certificates ------------------------------------------------------
#
# Literal write_cut texts recorded from the earlier two-pass solver, whose
# certificates came from a separate identity-order pass.  The single pass
# must reproduce them exactly.


def hypercube(d):
    n = 1 << d
    edges = [(v, v | 1 << i) for v in range(n) for i in range(d) if not v >> i & 1]
    return build(n, edges)


Q4_CERTS = {
    (STRUCTURE, 1): "cut structure 1 3\ns 1 2\ns 7 8\ns 11 12\n",
    (SUBSTRUCTURE, 1): "cut substructure 1 3\ns 1 2\ns 7 8\ns 11 12\n",
    (STRUCTURE, 2): "cut structure 2 2\ns 1 2 3\ns 16 8 12\n",
    (SUBSTRUCTURE, 2): "cut substructure 2 2\ns 1 2 3\ns 16 8 12\n",
    (STRUCTURE, 3): "cut structure 3 2\ns 1 2 3 5\ns 16 8 12 14\n",
    (SUBSTRUCTURE, 3): "cut substructure 3 2\ns 1 2 3\ns 16 8 12\n",
}

# Per graph of connected_corpus(12, max_n=8, seed0=100): the certificates
# for (structure, M=1), (substructure, M=1), (structure, M=2),
# (substructure, M=2), in that order.
CORPUS_CERTS = [
    (
        "cut structure 1 1\ns 1 3\n",
        "cut substructure 1 1\ns 1\n",
        "cut structure 2 1\ns 1 2 3\n",
        "cut substructure 2 1\ns 1\n",
    ),
    (
        "cut structure 1 1\ns 2 3\n",
        "cut substructure 1 1\ns 2 3\n",
        "cut structure 2 1\ns 2 3 4\n",
        "cut substructure 2 1\ns 2 3\n",
    ),
    (
        "cut structure 1 1\ns 4 5\n",
        "cut substructure 1 1\ns 4 5\n",
        "cut structure 2 1\ns 3 4 5\n",
        "cut substructure 2 1\ns 3 4 5\n",
    ),
    (
        "cut structure 1 2\ns 4 5\ns 6 7\n",
        "cut substructure 1 2\ns 4 5\ns 6 7\n",
        "cut structure 2 2\ns 1 4 6\ns 2 7 8\n",
        "cut substructure 2 2\ns 1 4\ns 6 7 8\n",
    ),
    (
        "cut structure 1 2\ns 1 2\ns 3 6\n",
        "cut substructure 1 2\ns 1\ns 3 6\n",
        "cut structure 2 1\ns 1 3 6\n",
        "cut substructure 2 1\ns 1 3 6\n",
    ),
    (
        "cut structure 1 1\ns 1 2\n",
        "cut substructure 1 1\ns 1\n",
        "cut structure 2 1\ns 1 2 6\n",
        "cut substructure 2 1\ns 1\n",
    ),
    (
        "cut structure 1 1\ns 1 2\n",
        "cut substructure 1 1\ns 1 2\n",
        "cut structure 2 1\ns 1 2 3\n",
        "cut substructure 2 1\ns 1 2\n",
    ),
    (
        "cut structure 1 1\ns 2 3\n",
        "cut substructure 1 1\ns 2 3\n",
        "cut structure 2 1\ns 2 3 4\n",
        "cut substructure 2 1\ns 2 3\n",
    ),
    (
        "cut structure 1 1\ns 3 4\n",
        "cut substructure 1 1\ns 3\n",
        "cut structure 2 1\ns 4 3 5\n",
        "cut substructure 2 1\ns 3\n",
    ),
    (
        "cut structure 1 1\ns 2 4\n",
        "cut substructure 1 1\ns 2\n",
        "cut structure 2 1\ns 2 1 4\n",
        "cut substructure 2 1\ns 2\n",
    ),
    (
        "cut structure 1 2\ns 1 2\ns 3 6\n",
        "cut substructure 1 2\ns 1 2\ns 3 6\n",
        "cut structure 2 2\ns 1 2 4\ns 3 5 6\n",
        "cut substructure 2 2\ns 1\ns 3 6 7\n",
    ),
    (
        "cut structure 1 1\ns 1 2\n",
        "cut substructure 1 1\ns 1\n",
        "cut structure 2 1\ns 1 2 3\n",
        "cut substructure 2 1\ns 1\n",
    ),
]


@pytest.mark.parametrize("kind", [STRUCTURE, SUBSTRUCTURE])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_q4_certificates_pinned(kind, m):
    fn = structure_connectivity if kind == STRUCTURE else substructure_connectivity
    res = fn(hypercube(4), m, 16)
    assert write_cut(res.certificate) == Q4_CERTS[kind, m]


def test_corpus_certificates_pinned():
    corpus = connected_corpus(12, max_n=8, seed0=100)
    for (g, *_), want in zip(corpus, CORPUS_CERTS, strict=True):
        got = tuple(
            write_cut(fn(g, m, g.n).certificate)
            for m in (1, 2)
            for fn in (structure_connectivity, substructure_connectivity)
        )
        assert got == want, g.edges()


def test_time_limit_bounds_the_whole_call():
    # kappa(Q6; K_{1,1}) is 5 and ruling out size 4 alone takes about a
    # second, so the deadline must stop this search.
    q6 = hypercube(6)
    for fn in (structure_connectivity, substructure_connectivity):
        t0 = time.monotonic()
        res = fn(q6, 1, 5, SearchOptions(time_limit=0.2))
        elapsed = time.monotonic() - t0
        assert res.complete is False
        assert elapsed < 1.0


def test_time_limit_stops_the_leaf_set_scan():
    # On this 310-vertex gadget the hopeless rule settles few size-1 centers,
    # and the scan of center 19 tests about 1.7M leaf sets, about 3 s even
    # with the walk inside N(19); only the poll inside that scan can stop it
    # on time.
    red = reduce_3dm(gen_random_3dm(4, 3, True, 0), 6, allow_unrestricted=True)
    opts = SearchOptions(time_limit=0.3)
    t0 = time.monotonic()
    res = structure_connectivity(red.graph, red.m, red.parameter, opts)
    elapsed = time.monotonic() - t0
    assert (res.bound, res.complete) == (0, False)
    assert elapsed < 0.4


def test_m6_gadgets_finish_with_the_forced_leaf_set():
    # At center 19, 42 of the 49 neighbors miss Z and form a clique whose
    # neighbors in N(19) are 20..25, exactly M of them, so only a star that
    # takes those leaves strands the clique from Z.  Each scan still tests
    # every leaf set that precedes them.
    for planted, seed in ((True, 0), (False, 1)):
        red = reduce_3dm(gen_random_3dm(4, 3, planted, seed), 6, allow_unrestricted=True)
        res = structure_connectivity(red.graph, red.m, red.parameter, SearchOptions(time_limit=30))
        assert (res.value, res.complete) == (1, True)
        assert res.certificate.elements == (Star(19, (20, 21, 22, 23, 24, 25)),)


# -- the leaf-set order --------------------------------------------------------


def _admissible_leaf_sets(g, c, m, exact, induced):
    """Every admissible leaf tuple of a star at c, sorted."""
    return sorted(
        combo
        for size in ([m] if exact else range(m + 1))
        for combo in combinations(g.neighbors(c), size)
        if not (size == 1 and combo[0] < c)
        and not (induced and any(g.masks[a] >> b & 1 for a, b in combinations(combo, 2)))
    )


def test_leaf_sets_follow_the_sorted_leaf_tuples():
    # The search returns the first cutting leaf set at each center, so this
    # order is part of every certificate.  _leaf_sets yields leaf masks; read
    # as increasing tuples they must be the sorted admissible ones.
    seen = 0
    for g, *_ in connected_corpus(40):
        for m in range(4):
            for kind in (STRUCTURE, SUBSTRUCTURE):
                for induced in (False, True):
                    engine = _Engine(g, m, kind, SearchOptions(induced=induced))
                    for c in range(g.n):
                        got = [tuple(bits(x)) for x in engine._leaf_sets(c, g.masks[c])]
                        want = _admissible_leaf_sets(g, c, m, kind == STRUCTURE, induced)
                        assert got == want, (tuple(g.edges()), c, m, kind, induced)
                        seen += len(got)
    assert seen > 20000, seen


def test_leaf_sets_reach_past_the_recursion_limit():
    # K_{2,1200}: the only cutting star is hub 0 with all 1200 leaves, which
    # leaves hub 1 alone.  The substructure walk grows that leaf set one leaf
    # at a time, so it must not recurse per leaf.
    g = build(1202, [(hub, v) for hub in (0, 1) for v in range(2, 1202)])
    res = substructure_connectivity(g, 1205, 2)
    assert res.value == 1
    assert _cert(res) == ((0, tuple(range(2, 1202))),)


# -- the hopeless-center rule -------------------------------------------------


def _hopeless(engine, c, alive):
    """True when the hopeless rule settles center c: its leaf sets are never scanned."""
    scans = []
    engine._leaf_sets = lambda *args: scans.append(args) or iter(())
    nb = engine.g.masks[c] & alive
    engine._last_star(c, nb, alive)
    del engine._leaf_sets
    return not scans


def _hopeless_fixture(v_edges):
    # Center 0 with neighbors 1..4.  Z = {5, 6} is a connected pair, and A =
    # {1, 2} are the neighbors that touch it.  Neighbor 4 misses Z and has
    # both A vertices as neighbors; neighbor 3 misses Z and gets v_edges.
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (5, 6), (4, 1), (4, 2)]
    g = build(7, edges + [(3, w) for w in v_edges])
    engine = _Engine(g, 1, STRUCTURE, SearchOptions())
    return g, _hopeless(engine, 0, g.full_mask)


def test_center_hopeless_when_off_neighbor_has_m_plus_1_in_a():
    g, hopeless = _hopeless_fixture([1, 2])
    assert hopeless
    # Sound: no single-leaf star at 0 cuts.
    assert not any(remainder_is_cut(g, 1 | 1 << leaf) for leaf in (1, 2, 3, 4))


def test_center_not_hopeless_when_off_neighbor_has_exactly_m_in_a():
    # Neighbor 3 sees two vertices of N(0), {1, 4}, but only one of A.
    _, hopeless = _hopeless_fixture([1, 4])
    assert not hopeless


def test_center_hopeless_needs_no_connected_alive_set():
    # Everything alive on edges 0-1, 1-2, 3-4: Z = {2, 3, 4} is split, so
    # the star (0, (1,)) cuts.  A BFS bounded by Z ∩ N(N(0)) = {2} would call
    # Z connected and center 0 hopeless.
    g = build(5, [(0, 1), (1, 2), (3, 4)])
    engine = _Engine(g, 1, STRUCTURE, SearchOptions())
    assert not _hopeless(engine, 0, g.full_mask)
    assert remainder_is_cut(g, 0b11)


def test_center_hopeless_is_sound_on_any_alive_set():
    # Random alive sets, connected or not.  Without a sibling frame every
    # verdict comes from the BFS over Z, and wherever the rule says
    # hopeless, no star at c may cut.
    rng = random.Random(17)
    fired = split = 0
    for g, *_ in connected_corpus(60, max_n=10):
        for _ in range(8):
            alive = rng.getrandbits(g.n)
            split += not mask_connected(g, alive)
            dead = g.full_mask & ~alive
            for m in range(4):
                for kind in (STRUCTURE, SUBSTRUCTURE):
                    engine = _Engine(g, m, kind, SearchOptions())
                    for c in bits(alive):
                        if not _hopeless(engine, c, alive):
                            continue
                        fired += 1
                        nb = g.masks[c] & alive
                        for leaves in engine._leaf_sets(c, nb):
                            assert not remainder_is_cut(g, dead | leaves | 1 << c), (
                                tuple(g.edges()), alive, m, kind, c, leaves
                            )
    assert fired > 1000 and split > 100


def test_gadget_190_settles_size_1():
    # Every clique center before 149 has neighbors that miss Z; the
    # generalized rule settles each one without scanning its leaf sets.
    red = reduce_3dm(gen_random_3dm(3, 4, True, 1), 5, allow_unrestricted=True)
    res = structure_connectivity(red.graph, red.m, 3, SearchOptions(time_limit=5))
    assert (res.value, res.complete) == (1, True)
    assert res.certificate.elements == (Star(149, (104, 145, 146, 147, 148)),)


def test_deadline_is_polled_at_every_center(monkeypatch):
    # The hopeless rule settles the size-1 centers of this gadget without a
    # leaf scan, so no leaf-set test polls for them.  Each center the root
    # visits, 0 up to the certificate's 149, must poll on its own, on top of
    # the one poll at every node entry.  Leaf sets are tested in place, so
    # the root is the only node.
    polls = nodes = 0
    poll, search = _Engine._check_deadline, _Engine.search

    def polling(self):
        nonlocal polls
        polls += 1
        poll(self)

    def entering(self, *args):
        nonlocal nodes
        nodes += 1
        return search(self, *args)

    monkeypatch.setattr(_Engine, "_check_deadline", polling)
    monkeypatch.setattr(_Engine, "search", entering)
    red = reduce_3dm(gen_random_3dm(3, 4, True, 1), 5, allow_unrestricted=True)
    res = structure_connectivity(red.graph, red.m, 3)
    (last,) = res.certificate.elements
    assert nodes < 10
    assert polls - nodes >= last.center + 1


def test_center_skip_agrees_with_off_and_oracle(monkeypatch):
    # Counts the centers only the generalized rule settles: some alive
    # neighbor misses Z, so the all-neighbors-touch-Z form would not apply.
    fired = 0
    rule = _Engine._center_hopeless

    def counting(self, touch, off):
        nonlocal fired
        got = rule(self, touch, off)
        if got and off:
            fired += 1
        return got

    monkeypatch.setattr(_Engine, "_center_hopeless", counting)
    for g, *_ in connected_corpus(60, max_n=11, seed0=0):
        for m in (1, 2, 3):
            for kind in (STRUCTURE, SUBSTRUCTURE):
                fn = structure_connectivity if kind == STRUCTURE else substructure_connectivity
                on = fn(g, m, g.n)
                with pruning_off("_center_hopeless"):
                    off = fn(g, m, g.n)
                assert on == off, g.edges()
                assert on.value == oracle_connectivity(g, m, kind, g.n).value, g.edges()
    assert fired > 1000


def test_last_star_sees_a_connected_alive_set(monkeypatch):
    # Iterative deepening rules out every smaller family first, so G[alive]
    # is connected at every search node with one slot left.  No proof relies
    # on it, since the hopeless rule is sound on any alive set; the test pins
    # it as a property of the search order.
    calls = 0
    search = _Engine.search

    def checked(self, alive, pmax, slots, *orbits):
        nonlocal calls
        if slots == 1:
            calls += 1
            assert mask_connected(self.g, alive), (tuple(self.g.edges()), alive)
        return search(self, alive, pmax, slots, *orbits)

    monkeypatch.setattr(_Engine, "search", checked)
    variants = (
        (SearchOptions(), ()),
        (SearchOptions(strict_trivial=True), ()),
        (SearchOptions(induced=True), ()),
        (SearchOptions(), PRUNE_RULES),
    )
    for g, *_ in connected_corpus(40, max_n=10, seed0=0):
        for m in range(4):
            for fn in (structure_connectivity, substructure_connectivity):
                for opts, rules in variants:
                    with pruning_off(*rules):
                        fn(g, m, g.n, opts)
    assert calls > 1000


# -- the remainder walk ---------------------------------------------------------


def _verdicts(engine, c, alive):
    """(asked, [(smask, verdict), ...]) over the leaf sets of _leaf_sets(c, nb).

    Each verdict is _last_star's own, from its walk over the remainder,
    asked about that leaf set alone with the hopeless rule off.  asked
    records whether the rule was consulted, which needs Z nonempty and
    connected, and |Z| >= 2 or deg(c) > M.
    """
    nb = engine.g.masks[c] & alive
    asked = []
    engine._center_hopeless = lambda *split: asked.append(split) or False
    out = []
    for leaves in list(engine._leaf_sets(c, nb)):
        engine._leaf_sets = lambda *_: iter([leaves])
        out.append((leaves | 1 << c, engine._last_star(c, nb, alive) is not None))
        del engine._leaf_sets
    del engine._center_hopeless
    return bool(asked), out


def test_local_cut_test_agrees_with_remainder_is_cut():
    # Random alive sets, connected or not, so Z comes out empty, split and
    # connected.  Every leaf set's verdict must be remainder_is_cut's.  The
    # walk starts from Z when Z is connected, else from R's least vertex;
    # each start gets a floor, and so do the trivial remainders.
    rng = random.Random(18)
    walks = {"z": 0, "empty": 0, "split": 0}
    stranded = trivial = 0
    for g, *_ in connected_corpus(60, max_n=10):
        for _ in range(8):
            alive = rng.getrandbits(g.n)
            dead = g.full_mask & ~alive
            for m in range(4):
                for kind in (STRUCTURE, SUBSTRUCTURE):
                    for opts in _VARIANTS:
                        engine = _Engine(g, m, kind, opts)
                        strict = opts.strict_trivial
                        for c in bits(alive):
                            z = alive & ~g.masks[c] & ~(1 << c)
                            start = "split" if not mask_connected(g, z) else "z" if z else "empty"
                            _, verdicts = _verdicts(engine, c, alive)
                            for smask, cut in verdicts:
                                assert cut == remainder_is_cut(
                                    g, dead | smask, strict_trivial=strict
                                ), (tuple(g.edges()), alive, m, kind, opts, c, smask)
                                walks[start] += 1
                                stranded += start == "z" and cut
                                trivial += (alive & ~smask).bit_count() <= 1
    assert walks["z"] > 20000 and stranded > 5000
    assert walks["empty"] > 10000 and walks["split"] > 4000 and trivial > 5000


def test_search_never_calls_remainder_is_cut(monkeypatch):
    # remainder_is_cut is the oracle's and the verifiers' cut test; the
    # search decides by its own walk, so the agreement tests compare two.
    def banned(*args, **kwargs):
        raise AssertionError("the search called remainder_is_cut")

    monkeypatch.setattr(solver, "remainder_is_cut", banned)
    for g, *_ in connected_corpus(30, max_n=9):
        for m in range(3):
            for fn in (structure_connectivity, substructure_connectivity):
                for opts in _VARIANTS:
                    fn(g, m, g.n, opts)


# Center 0 of each fixture, every vertex alive, substructure leaf sets in
# _leaf_sets order; asked says whether the hopeless rule was consulted, and
# want holds the verdicts without and with strict_trivial.
@pytest.mark.parametrize(
    "n,edges,m,asked,want",
    [
        # Z = {3} and deg(0) = M, so L = nb = {1, 2} leaves 3 alone.
        (4, [(0, 1), (0, 2), (1, 3), (2, 3)], 2, False, ((0, 0, 1, 0), (0, 0, 1, 0))),
        # The same Z = {3} with M = 1 < deg(0): no L takes all of nb.
        (4, [(0, 1), (0, 2), (1, 3), (2, 3)], 1, True, ((0, 0, 0), (0, 0, 0))),
        # Z is empty: the remainder is nb - L, with 3 isolated from {1, 2}.
        (4, [(0, 1), (0, 2), (0, 3), (1, 2)], 2, False,
         ((1, 1, 1, 1, 1, 1, 0), (1, 1, 1, 1, 1, 1, 0))),
        # Z is empty and L = nb removes everything: trivial only by default.
        (3, [(0, 1), (0, 2)], 2, False, ((1, 1, 1, 1), (1, 1, 0, 1))),
        # Z = {2, 4} is split, but 1 joins its halves unless L takes it.
        (5, [(0, 1), (0, 3), (1, 2), (1, 4), (3, 4)], 2, False, ((0, 1, 1, 0), (0, 1, 1, 0))),
    ],
    ids=["single_z_all_of_nb", "single_z_local", "z_empty", "z_empty_nothing_left", "z_split"],
)
def test_local_cut_test_fixtures(n, edges, m, asked, want):
    g = build(n, edges)
    for strict, expect in zip((False, True), want, strict=True):
        engine = _Engine(g, m, SUBSTRUCTURE, SearchOptions(strict_trivial=strict))
        got, verdicts = _verdicts(engine, 0, g.full_mask)
        assert got == asked
        assert tuple(int(cut) for _, cut in verdicts) == expect
        for smask, cut in verdicts:
            assert cut == remainder_is_cut(g, smask, strict_trivial=strict)


# -- the shared sibling test ----------------------------------------------------


def _tally(monkeypatch, owner, name):
    """Patch owner.name to count its calls and its True answers."""
    tally = {"calls": 0, "true": 0}
    fn = getattr(owner, name)

    def counting(*args):
        got = fn(*args)
        tally["calls"] += 1
        tally["true"] += got is True
        return got

    monkeypatch.setattr(owner, name, counting)
    return tally


def test_sibling_test_changes_no_result(monkeypatch):
    # Each True answer is a BFS over Z the shared test skipped.
    shared = _tally(monkeypatch, _Engine, SIBLING_TEST)

    def same(g, m, kind, t_max, opts):
        fn = structure_connectivity if kind == STRUCTURE else substructure_connectivity
        on = fn(g, m, t_max, opts)
        with pruning_off(SIBLING_TEST):
            off = fn(g, m, t_max, opts)
        assert on == off, (tuple(g.edges()), m, kind, opts)

    variants = (SearchOptions(), SearchOptions(strict_trivial=True), SearchOptions(induced=True))
    for g, *_ in connected_corpus(60, max_n=11, seed0=0):
        for m in range(4):
            for kind in (STRUCTURE, SUBSTRUCTURE):
                for opts in variants:
                    same(g, m, kind, g.n, opts)
    for d in (4, 5):
        for m in (1, 2, 3):
            for kind in (STRUCTURE, SUBSTRUCTURE):
                same(hypercube(d), m, kind, d - 1 if m == 1 else -(-d // 2), SearchOptions())
    for seed in (0, 1):
        red = reduce_3dm(gen_random_3dm(3, 4, True, seed), 5, allow_unrestricted=True)
        same(red.graph, red.m, STRUCTURE, 2, SearchOptions())
    assert shared["true"] > 1000


def _z_bfs(monkeypatch):
    """Count the last-level BFS over Z, which seeds the walk and guards the hopeless rule.

    solver.mask_connected also serves the sibling test's Zmin check and the
    input check of every solve; only calls from _last_star count.
    """
    tally = {"calls": 0}
    fn = solver.mask_connected

    def counting(g, mask):
        tally["calls"] += sys._getframe(1).f_code.co_name == "_last_star"
        return fn(g, mask)

    monkeypatch.setattr(solver, "mask_connected", counting)
    return tally


def _sibling_verdict(monkeypatch, n, edges, c1, leaves, c):
    """(hopeless verdict, BFS runs over Z) at center c under a first star at c1.

    Opens the slots == 2 frame that the search opens for c1 on the whole
    vertex set, then asks the rule about c with the star removed (M = 1).
    """
    bfs = _z_bfs(monkeypatch)
    g = build(n, edges)
    engine = _Engine(g, 1, STRUCTURE, SearchOptions())
    engine._open_frame(g.full_mask, c1)
    alive = g.full_mask & ~(1 << c1)
    for leaf in leaves:
        alive &= ~(1 << leaf)
    return _hopeless(engine, c, alive), bfs["calls"]


# First star at 0 with leaves among {1, 2}; the later center is 3, whose
# neighbors 4 and 7 reach Zmin = {5, 6} through 4-5 and 7-6.
_TWO_SIDED = [(0, 1), (0, 2), (3, 4), (3, 7), (4, 5), (7, 6), (2, 5), (2, 6)]


@pytest.mark.parametrize(
    "n,edges,leaves,want",
    [
        # Zmin = {5, 6} is disconnected, but Z = {2, 5, 6} is connected.
        (8, _TWO_SIDED + [(1, 5)], (1,), True),
        # Zmin is connected, but attach vertex 1 sees only 0 and 4.
        (8, _TWO_SIDED + [(1, 4), (5, 6)], (2,), False),
        (8, _TWO_SIDED + [(1, 4), (5, 6)], (1,), True),
        # Zmin is empty: N[0] and N[3] cover all six vertices.
        (6, [(0, 1), (0, 2), (3, 4), (3, 5), (1, 4), (2, 4), (2, 5)], (1,), True),
    ],
    ids=["zmin_split", "attach_misses_zmin", "attach_misses_zmin_connected_z", "zmin_empty"],
)
def test_sibling_test_falls_back_to_the_z_bfs(monkeypatch, n, edges, leaves, want):
    hopeless, runs = _sibling_verdict(monkeypatch, n, edges, 0, leaves, 3)
    assert (hopeless, runs) == (want, 1)
    with pruning_off(SIBLING_TEST):
        assert _sibling_verdict(monkeypatch, n, edges, 0, leaves, 3) == (want, 1)


def test_sibling_test_skips_the_bfs_for_every_sibling(monkeypatch):
    # Zmin = {5, 6} is connected and both attach vertices touch it.
    edges = _TWO_SIDED + [(1, 5), (5, 6)]
    for leaves in ((1,), (2,)):
        assert _sibling_verdict(monkeypatch, 8, edges, 0, leaves, 3) == (True, 0)


def test_settled_centers_never_cut():
    # Random frames (alive set P, first star at c1) on small graphs and on
    # Q4.  The frame settles a later center c once for all siblings, so for
    # every sibling L1 no leaf set at c may cut P - c1 - L1.  The
    # single-vertex Zmin cases guard |Zmin| >= 2, where the leaf set that
    # takes all of nb would leave R = Zmin trivial.  Each alive set keeps
    # about 3/4 of the vertices, so that Zmin is often nonempty.
    rng = random.Random(27)
    graphs = [g for g, *_ in connected_corpus(40, max_n=10)] + [hypercube(4)] * 4
    fired = lone = 0
    for g in graphs:
        for _ in range(6):
            alive = rng.getrandbits(g.n) | rng.getrandbits(g.n)
            for m in range(4):
                for kind in (STRUCTURE, SUBSTRUCTURE):
                    engine = _Engine(g, m, kind, SearchOptions())
                    for c1 in bits(alive):
                        engine._open_frame(alive, c1)
                        rest, nb1 = engine.frame
                        for c in bits(alive >> c1 + 1 << c1 + 1):
                            engine._siblings_joined(c)
                            zmin = rest & ~g.masks[c] & ~(1 << c)
                            lone += zmin.bit_count() == 1 and engine.joined >> c & 1
                        for l1 in engine._leaf_sets(c1, nb1):
                            sub = alive & ~(1 << c1) & ~l1
                            dead = g.full_mask & ~sub
                            for c in bits(engine.settled & sub):
                                for leaves in engine._leaf_sets(c, g.masks[c] & sub):
                                    removed = dead | 1 << c | leaves
                                    for strict in (False, True):
                                        assert not remainder_is_cut(
                                            g, removed, strict_trivial=strict
                                        ), (tuple(g.edges()), alive, m, kind, c1, l1, c, leaves)
                                fired += 1
    assert fired > 10000 and lone > 1000, (fired, lone)


def test_settled_centers_spare_most_last_stars(monkeypatch):
    # On Q5 with M = 1 most last-level centers of a frame are settled: each
    # then costs one _last_star call per frame, not one per sibling.
    calls = _tally(monkeypatch, _Engine, "_last_star")
    on = substructure_connectivity(hypercube(5), 1, 4)
    with_rule = calls["calls"]
    with pruning_off("_frame_settles"):
        off = substructure_connectivity(hypercube(5), 1, 4)
    without = calls["calls"] - with_rule
    assert on == off and on.value == 4
    assert with_rule < without / 2, (with_rule, without)


def test_sibling_test_is_unknown_without_a_frame(monkeypatch):
    # Size 1 has no slots == 2 frame, so every Z goes through the rule's BFS.
    bfs = _z_bfs(monkeypatch)
    shared = _tally(monkeypatch, _Engine, SIBLING_TEST)
    res = structure_connectivity(hypercube(4), 1, 1)
    assert (res.value, res.bound, res.complete) == (None, 1, True)
    assert bfs["calls"] == shared["calls"] > 0 and shared["true"] == 0


def _old_sibling_verdict(engine, c):
    """(joined, settled) at c by the attach loop, a BFS over Zmin and the
    corollary's loop over N_P(c) - c1, each vertex by itself."""
    if engine.frame is None:
        return False, False
    rest, attach = engine.frame
    masks = engine.g.masks
    outside = ~(masks[c] | 1 << c)
    zmin = rest & outside
    joined = (
        zmin != 0
        and all(masks[a] & zmin for a in bits(attach & outside))
        and mask_connected(engine.g, zmin)
    )
    settled = (
        joined
        and zmin.bit_count() >= 2
        and all(masks[v] & zmin for v in bits(masks[c] & (rest | attach)))
    )
    return joined, settled


def test_sibling_verdicts_match_the_per_vertex_loops(monkeypatch):
    # The shared test reads both of its mask checks off one BFS over Zmin;
    # every verdict the search asks for must match the per-vertex loops.
    seen = {"joined": 0, "settled": 0, "split": 0}
    fn = _Engine._siblings_joined

    def checked(self, c):
        split = self.split >> c & 1
        joined, settled = (False, False) if split else _old_sibling_verdict(self, c)
        got = fn(self, c)
        assert (got, bool(self.settled >> c & 1)) == (joined, settled), (self.frame, c)
        seen["joined"] += joined
        seen["settled"] += settled
        seen["split"] += not joined
        return got

    monkeypatch.setattr(_Engine, SIBLING_TEST, checked)
    for g, *_ in connected_corpus(60, max_n=11, seed0=0):
        for m in range(4):
            structure_connectivity(g, m, g.n)
            substructure_connectivity(g, m, g.n)
    for d in (4, 5):
        for m in (1, 2, 3):
            t = d - 1 if m == 1 else -(-d // 2)
            structure_connectivity(hypercube(d), m, t)
            substructure_connectivity(hypercube(d), m, t)
    assert min(seen.values()) > 1000, seen


def test_irregular_solves_build_no_orbit_record(monkeypatch):
    # The shared orbit record is built by the first orbit query object, and
    # only regular graphs make one; the corpus and the gadgets are irregular.
    engines = []
    search = _Engine.search

    def searching(self, *args):
        engines.append(self)
        return search(self, *args)

    monkeypatch.setattr(_Engine, "search", searching)
    g = next(g for g, *_ in connected_corpus(20) if not is_regular(g))
    red = reduce_3dm(gen_random_3dm(2, 0, True, 1), 5, allow_unrestricted=True)
    for host, m in ((g, 1), (red.graph, red.m)):
        engines.clear()
        structure_connectivity(host, m, 2)
        assert engines and all(e.shared is None for e in engines)
    structure_connectivity(hypercube(4), 1, 2)
    assert engines[-1].shared is not None


# Lin, Zhang, Fan, Wang (TCS 634, 2016): kappa(Q_d; K_{1,1}) = d - 1 and
# kappa(Q_d; K_{1,M}) = ceil(d/2) for M = 2, 3, for structure and
# substructure alike.
@pytest.mark.parametrize(
    "d,m,kind",
    [(d, m, k) for d in (3, 4, 5) for m in (1, 2, 3) for k in (STRUCTURE, SUBSTRUCTURE)]
    + [(6, 2, STRUCTURE), (6, 3, STRUCTURE), (6, 2, SUBSTRUCTURE), (6, 3, SUBSTRUCTURE)],
)
def test_hypercube_closed_forms(d, m, kind):
    want = d - 1 if m == 1 else -(-d // 2)
    g = hypercube(d)
    if kind == STRUCTURE:
        fn, check = structure_connectivity, is_structure_cut
    else:
        fn, check = substructure_connectivity, is_substructure_cut
    res = fn(g, m, want)
    assert (res.value, res.complete) == (want, True)
    assert check(g, res.certificate, m)


# kappa(Q6; K_{1,1}) = 5 for both kinds.  With the stabilizer lemma at every
# interior level, the structure solve at t_max=5 takes about 2 s and returns
# Q6_M1_CUT.  The substructure solve at t_max=5 takes about 7 s, so that
# kind rules out sizes up to 4 (about 0.3 s) and checks the family.
# Removing its five edges leaves the edge {2, 3} cut off.
Q6_M1_CUT = ((0, (1,)), (6, (7,)), (10, (11,)), (18, (19,)), (34, (35,)))


@pytest.mark.parametrize("kind", [STRUCTURE, SUBSTRUCTURE])
def test_hypercube_q6_m1_exceeds_4(kind):
    g = hypercube(6)
    family = CutFamily(kind, 1, tuple(Star(c, leaves) for c, leaves in Q6_M1_CUT))
    if kind == STRUCTURE:
        res = structure_connectivity(g, 1, 5)
        assert (res.value, res.bound, res.complete) == (5, 5, True)
        assert res.certificate == family
        return
    res = substructure_connectivity(g, 1, 4)
    assert (res.value, res.bound, res.complete) == (None, 4, True)
    assert is_substructure_cut(g, family, 1)


# -- the root rule ----------------------------------------------------------------


def circulant(n, jumps):
    return build(n, [(v, (v + j) % n) for v in range(n) for j in jumps])


def prism(k):
    ring = [(v, (v + 1) % k) for v in range(k)]
    return build(2 * k, ring + [(k + u, k + v) for u, v in ring] + [(v, k + v) for v in range(k)])


def petersen():
    return build(
        10,
        [(v, (v + 1) % 5) for v in range(5)]
        + [(v, v + 5) for v in range(5)]
        + [(5 + v, 5 + (v + 2) % 5) for v in range(5)],
    )


# Regular of degree 3 with the identity as its only automorphism.
FRUCHT = build(
    12,
    [(0, 1), (0, 6), (0, 7), (1, 2), (1, 7), (2, 3), (2, 8), (3, 4), (3, 9), (4, 5),
     (4, 9), (5, 6), (5, 10), (6, 10), (7, 11), (8, 9), (8, 11), (10, 11)],
)


# Regular of degree 4.  Distance refinement reaches a discrete match of 0
# with each of 1, 2, 4 and 5, and none is an automorphism, so only the edge
# check rejects them.
DECOY = build(
    8,
    [(0, 2), (0, 3), (0, 5), (0, 6), (1, 2), (1, 5), (1, 6), (1, 7), (2, 4), (2, 6),
     (3, 4), (3, 5), (3, 7), (4, 5), (4, 7), (6, 7)],
)


def relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def symmetric_family():
    """Regular hosts: most vertex-transitive, FRUCHT with no symmetry at all,
    and three relabeled copies whose vertex 0 is not special.

    In circulant(16; 1, 4) the stabilizer of 0 keeps the ±1 neighbors apart
    from the ±4 ones, so taking root leaf orbits under all of Aut(G) instead
    of under Stab(0) raises its M=1 values from 3 to 4.  In circulant(12; 2,
    3, 4) the least M=1 substructure family has a second star whose leaf 5 is
    least only under the stabilizer of the first star too, so taking the
    second star's leaf orbits without it returns a later certificate.
    """
    return (
        [cycle(n) for n in range(4, 13)]
        + [complete(n) for n in range(3, 9)]
        + [hypercube(3), hypercube(4), petersen()]
        + [prism(k) for k in range(3, 8)]
        + [circulant(n, j) for n, j in ((8, (1, 3)), (9, (1, 3)), (10, (1, 4)),
                                        (10, (1, 2, 5)), (12, (1, 5)), (13, (1, 5)),
                                        (16, (1, 4)), (12, (2, 3, 4)))]
        + [FRUCHT, relabeled(hypercube(4), 0), relabeled(petersen(), 0), relabeled(prism(5), 0)]
    )


def followers(g, *cells):
    """Mask of the vertices one orbit query object skips, asked in increasing order."""
    orbits = _Engine(g, 1, STRUCTURE, SearchOptions())._orbits(*cells)
    return sum(1 << x for x in range(g.n) if orbits.follows(x))


_VARIANTS = (SearchOptions(), SearchOptions(strict_trivial=True), SearchOptions(induced=True))
_KINDS = ((STRUCTURE, structure_connectivity), (SUBSTRUCTURE, substructure_connectivity))


def test_root_rule_changes_no_result(monkeypatch):
    # Covers all of the stabilizer lemma: root centers, and below them the
    # centers of every interior level and the leaves, pruned by the first
    # leaf, of every star with two more to place.  colored counts the skips
    # made under a coloring; deep counts those made by the objects a node
    # below the root builds, whose cells hold a full placed star plus more.
    family = symmetric_family() + [hypercube(5)]
    skipping = 0
    for g in family:
        skipping += followers(g) != 0
    colored = deep = depth = 0
    below_root = {}  # id -> object, for those the current solve built below its root
    follows, make, search = Orbits.follows, _Engine._orbits, _Engine.search

    def counting(self, x):
        nonlocal colored, deep
        got = follows(self, x)
        colored += got and bool(self.cells)
        deep += got and below_root.get(id(self)) is self
        return got

    def searching(self, *args):
        nonlocal depth
        if not depth:
            below_root.clear()
        depth += 1
        try:
            return search(self, *args)
        finally:
            depth -= 1

    def making(self, *cells):
        orbits = make(self, *cells)
        if depth > 1:
            below_root[id(orbits)] = orbits
        return orbits

    monkeypatch.setattr(Orbits, "follows", counting)
    monkeypatch.setattr(_Engine, "search", searching)
    monkeypatch.setattr(_Engine, "_orbits", making)
    for g in family:
        for m in range(4):
            for _, fn in _KINDS:
                for opts in _VARIANTS:
                    on = fn(g, m, g.n, opts)
                    with pruning_off("_orbits"):
                        off = fn(g, m, g.n, opts)
                    assert on == off, (tuple(g.edges()), m, fn.__name__, opts)
    assert skipping == len(family) - 1  # all but FRUCHT
    assert colored > 1000, colored
    assert deep > 0, deep


def test_root_rule_agrees_with_oracle():
    for g in symmetric_family():
        if g.n > ORACLE_SIZE_CAP:
            continue
        for m in range(4):
            for kind, fn in _KINDS:
                for opts in _VARIANTS:
                    got = fn(g, m, g.n, opts)
                    want = oracle_connectivity(
                        g, m, kind, g.n, strict_trivial=opts.strict_trivial, induced=opts.induced
                    )
                    assert (got.value, got.complete) == (want.value, want.complete)


def _stabilizer_cases(g):
    """All automorphisms of g by brute force, and the cells of the colorings
    the search uses, in the order it builds them: the root's (no cells),
    vertex 0 fixed, a star at 0 with one or two leaves, that star plus each
    next center c whose first leaf is pruned, and two placed stars: 0 with
    its least leaf, then the least vertex outside N[0] with its least
    neighbor outside the first star.
    """
    autos = [
        p for p in permutations(range(g.n))
        if all(g.masks[p[x]] == sum(1 << p[y] for y in bits(row))
               for x, row in enumerate(g.masks))
    ]
    chain = [(), (1,)]
    leaves = bits(g.masks[0])
    for k in (1, 2):
        if k > len(leaves):
            break
        lmask = sum(1 << v for v in leaves[:k])
        chain.append((1, lmask))
        chain += [(1, lmask, 1 << c) for c in bits(g.full_mask & ~lmask & ~1)]
        if k == 1:
            for c in bits(g.full_mask & ~g.masks[0] & ~1)[:1]:
                for leaf in bits(g.masks[c] & ~(1 | lmask))[:1]:
                    chain.append((1, lmask, 1 << c, 1 << leaf))
    return autos, chain


def _keeping(autos, cells):
    return [p for p in autos if all(sum(1 << p[v] for v in bits(cell)) == cell for cell in cells)]


def test_root_skips_no_least_vertex_of_an_orbit():
    # Brute force: every vertex a query skips has an automorphism that keeps
    # the cells and maps it below itself.  Each object here is the first of
    # its engine, so it finds every automorphism it uses itself.
    skipped = 0
    for g in connected_graphs_upto(6) + [DECOY]:
        autos, chain = _stabilizer_cases(g)
        for cells in chain:
            group = _keeping(autos, cells)
            skip = followers(g, *cells)
            skipped += skip.bit_count()
            for x in bits(skip):
                assert min(p[x] for p in group) < x, (tuple(g.edges()), cells, x)
    assert skipped > 1200  # 446 of them under a star plus the next center


def test_shared_automorphisms_skip_no_least_vertex(monkeypatch):
    # The same cells, built through one engine in the search's order, so each
    # object starts from the coloring of its longest started prefix and joins
    # every automorphism an earlier object stored that keeps its cells.  A
    # skip must still have a witness in the stabilizer of its own cells.
    joins = _tally(monkeypatch, Orbits, "_join")
    found = skipped = 0
    for g in connected_graphs_upto(6) + [DECOY]:
        autos, chain = _stabilizer_cases(g)
        engine = _Engine(g, 1, STRUCTURE, SearchOptions())
        for cells in chain:
            group = _keeping(autos, cells)
            orbits = engine._orbits(*cells)
            for x in range(g.n):
                if orbits.follows(x):
                    skipped += 1
                    assert min(p[x] for p in group) < x, (tuple(g.edges()), cells, x)
        found += len(engine.shared.autos)
    # Each found automorphism joins its finder once; the rest were absorbed.
    absorbed = joins["calls"] - found
    assert skipped > 1200 and absorbed > 700, (skipped, absorbed)


def _direct_coloring(g, cells):
    """Color ids by first vertex of each key: per cell, the sorted distances."""
    dist = []
    for u in range(g.n):
        d, seen, frontier, step = [0] * g.n, 1 << u, 1 << u, 0
        while frontier:
            step += 1
            nxt = 0
            for v in bits(frontier):
                nxt |= g.masks[v]
            frontier = nxt & ~seen
            seen |= frontier
            for v in bits(frontier):
                d[v] = step
        dist.append(d)
    ids = {}
    return [
        ids.setdefault(tuple(tuple(sorted(dist[u][v] for u in bits(cell))) for cell in cells), len(ids))
        for v in range(g.n)
    ]


def test_prefix_refined_colorings_match_direct_colorings():
    # Cell chains shaped like the search's: the root, a center c, the star
    # (c, L), then a next center c2 and a star at it.  Each object refines
    # its prefix's stored coloring by its last cells only, and must reach
    # the coloring, ids and all, that coloring by all cells at once gives.
    chains = 0
    for g in symmetric_family():
        for c in range(0, g.n, 3):
            nb = bits(g.masks[c])
            for k in (1, 2):
                engine = _Engine(g, 1, STRUCTURE, SearchOptions())
                lmask = sum(1 << v for v in nb[:k])
                cells = ((), (1 << c,), (1 << c, lmask))
                for c2 in bits(g.full_mask & ~g.masks[c] & ~(1 << c))[:2]:
                    cells += ((1 << c, lmask, 1 << c2),)
                    l2 = g.masks[c2] & ~lmask
                    if l2:
                        cells += ((1 << c, lmask, 1 << c2, l2 & -l2),)
                for chain in cells:
                    orbits = engine._orbits(*chain)
                    orbits.follows(0)
                    assert orbits.color == _direct_coloring(g, chain), (g, chain)
                assert len(engine.shared.colors) == len(set(cells))
                chains += 1
    assert chains > 200, chains


def test_vertex_transitive_hosts_keep_only_root_0():
    hosts = [hypercube(d) for d in (3, 4, 5, 6)] + [cycle(n) for n in range(3, 30)] + [petersen()]
    for g in hosts:
        assert g.full_mask & ~followers(g) == 1, g


def test_time_limit_covers_the_automorphism_search():
    # The first orbit query on this circulant searches for about 9 ms, so a
    # 4 ms limit falls inside it.  Best of three calls, to see past a busy host.
    g = circulant(600, (1, 7))
    limit = 0.004
    for _, fn in _KINDS:
        over = []
        for _ in range(3):
            t0 = time.monotonic()
            res = fn(g, 1, 3, SearchOptions(time_limit=limit))
            over.append(time.monotonic() - t0 - limit)
            assert (res.bound, res.complete) == (0, False)
        assert min(over) < 0.005


def test_time_limit_covers_the_orbit_queries():
    # Each coloring the search uses: the root's, a fixed center, a star, and
    # two placed stars, (0, (1,)) and (6, (7,)), whose stabilizer swaps the
    # coordinates 1 and 2 and so maps 2 to 4.  Vertex 0 has no smaller
    # vertex, so follows(0) takes no step and never polls; every later query
    # that searches polls the engine's deadline before each step.
    g = hypercube(4)
    for cells, x in (((), 1), ((1,), 2), ((1, 0b110), 8), ((1, 0b10, 1 << 6, 1 << 7), 4)):
        engine = _Engine(g, 1, STRUCTURE, SearchOptions())
        orbits = engine._orbits(*cells)
        engine.deadline = time.monotonic() - 1
        assert not orbits.follows(0)
        with pytest.raises(solver._Deadline):
            orbits.follows(x)
        engine.deadline = None
        assert orbits.follows(x)


def test_zero_time_limit_settles_no_size():
    for _, fn in _KINDS:
        res = fn(hypercube(6), 1, 5, SearchOptions(time_limit=0))
        assert (res.value, res.bound, res.complete) == (None, 0, False)


# No vertex set disconnects K_n, so a cut must leave at most one vertex.
# Substructure removes n-1 vertices with ceil((n-1)/(M+1)) stars.  Structure
# removes a multiple of M+1 vertices: n-1, or n when the empty remainder
# counts as trivial.  With pruning on, the degree bound rules out every alive
# clique on >= M+3 vertices before a last star is tried; with it off, the
# leaf-set scan must reach the same values.
@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("rules", [(), PRUNE_RULES], ids=["pruning_on", "pruning_off"])
def test_complete_graph_closed_forms(strict, rules):
    opts = SearchOptions(strict_trivial=strict)
    for n in range(3, 10):
        g = complete(n)
        for m in range(4):
            if (n - 1) % (m + 1) == 0:
                want_structure = (n - 1) // (m + 1)
            elif not strict and n % (m + 1) == 0:
                want_structure = n // (m + 1)
            else:
                want_structure = None
            cases = (
                (structure_connectivity, is_structure_cut, want_structure),
                (substructure_connectivity, is_substructure_cut, -(-(n - 1) // (m + 1))),
            )
            for fn, check, want in cases:
                with pruning_off(*rules):
                    res = fn(g, m, n, opts)
                assert (res.value, res.complete) == (want, True), (n, m, fn.__name__)
                if want is not None:
                    assert check(g, res.certificate, m, strict_trivial=strict)


def test_solver_is_deterministic():
    g = connected_corpus(1, max_n=9, seed0=77)[0][0]
    a = structure_connectivity(g, 2, g.n)
    b = structure_connectivity(g, 2, g.n)
    assert a == b


# sha256 over "value|bound|complete|write_cut" of every solve of a block:
# each graph of the set at t_max = n, both kinds, default/strict/induced.
# A search change that keeps every value, bound and certificate keeps them
# all; the failure names the first block that moved.
RESULT_DIGESTS = {
    ("corpus", 0): "6fbbd3524d552371dff84c4507ae3ab7acdc5e9e62f061b8417cdce7909d5907",
    ("corpus", 1): "49ac7c1634029d1b87a0ee961c421fb48a8c7dc329e67ceae821c8b31d048a8c",
    ("corpus", 2): "668fa60762996b88bdb57659e046153b5af748e23025f88f0ca04211b3154fc9",
    ("corpus", 3): "b46f1e0017741e20e3be6eaabe0d631cbb7c2a69121e3071160e6fc39226fb62",
    ("symmetric", 0): "bf920c521b5dbfac5ecf815735b3c1e6d2819d7b5b75d728cb41ad983438395d",
    ("symmetric", 1): "6a90fecb99239293638bf4e1b9d115c887db5fc267eaa02b919db2e2c678607e",
    ("symmetric", 2): "c781f094322bca2393407a2c1a8434768f865a244593ebc14fcb6ae14a8e7632",
    ("symmetric", 3): "36de968b4d437794f82df0f212254e1af0939796f51648a29cd533b62955b7c5",
}


def test_results_match_recorded_digests():
    sets = {"corpus": [g for g, *_ in connected_corpus(200)], "symmetric": symmetric_family()}
    for (name, m), want in RESULT_DIGESTS.items():
        digest = hashlib.sha256()
        for g in sets[name]:
            for _, fn in _KINDS:
                for opts in _VARIANTS:
                    res = fn(g, m, g.n, opts)
                    cut = write_cut(res.certificate) if res.certificate else ""
                    digest.update(f"{res.value}|{res.bound}|{res.complete}|{cut}\n".encode())
        assert digest.hexdigest() == want, f"results differ on the {name} set at M={m}"


# -- star partitions (the oracle's core) -------------------------------------


def _partition_size(g, xs, m, exact, induced=False):
    xmask = 0
    for x in xs:
        xmask |= 1 << x
    got = _best_partition(g, xmask, m, exact, induced, {})
    return got[0] if got is not None else None


def test_min_star_partition_cases():
    k4 = complete(4)
    assert _partition_size(k4, range(4), 1, True) == 2
    assert _partition_size(k4, range(4), 3, True) == 1
    assert _partition_size(path(3), [0, 2], 1, True) is None
    assert _partition_size(path(3), [0, 2], 1, False) == 2
    assert _partition_size(k4, [], 3, True) == 0
    assert _partition_size(path(4), range(4), 1, True) == 2


def test_min_star_partition_induced():
    t = complete(3)
    assert _partition_size(t, range(3), 2, True) == 1
    assert _partition_size(t, range(3), 2, True, induced=True) is None


# -- agreement with the independent oracle -----------------------------------


def test_oracle_refuses_oversize_graphs():
    g = cycle(16)
    with pytest.raises(ValueError, match="above the size cap 14"):
        oracle_connectivity(g, 1, STRUCTURE, 4)
    with pytest.raises(ValueError, match="unknown cut kind"):
        oracle_connectivity(path(3), 1, "star", 2)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 4000),
    st.integers(4, 7),
    st.sampled_from([0.3, 0.5, 0.8]),
    st.integers(0, 3),
    st.sampled_from([STRUCTURE, SUBSTRUCTURE]),
    st.booleans(),
)
def test_solver_agrees_with_oracle(seed, n, p, m, kind, strict):
    g = gen_random_graph(n, p, seed)
    if g.n < 2 or not is_connected(g):
        return
    fn = structure_connectivity if kind == STRUCTURE else substructure_connectivity
    got = fn(g, m, g.n, SearchOptions(strict_trivial=strict))
    want = oracle_connectivity(g, m, kind, g.n, strict_trivial=strict)
    assert (got.value, got.complete) == (want.value, want.complete)
    if got.value is not None:
        check = is_structure_cut if kind == STRUCTURE else is_substructure_cut
        assert check(g, got.certificate, m, strict_trivial=strict)
        assert check(g, want.certificate, m, strict_trivial=strict)
        assert len(got.certificate.elements) == got.value


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2000), st.integers(5, 7), st.integers(1, 2))
def test_induced_solver_agrees_with_oracle(seed, n, m):
    g = gen_random_graph(n, 0.6, seed)
    if g.n < 2 or not is_connected(g):
        return
    got = substructure_connectivity(g, m, g.n, SearchOptions(induced=True))
    want = oracle_connectivity(g, m, SUBSTRUCTURE, g.n, induced=True)
    assert got.value == want.value


def test_substructure_never_exceeds_structure():
    for g, *_ in connected_corpus(10, max_n=8, seed0=500):
        for m in (1, 2, 3):
            ks = structure_connectivity(g, m, g.n)
            kss = substructure_connectivity(g, m, g.n)
            if ks.value is not None:
                assert kss.value is not None and kss.value <= ks.value
