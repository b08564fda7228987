"""Shared test utilities: brute-force vertex connectivity and domination
references, edge-list references for both gadgets, seeded graph corpora,
exhaustive small-graph enumeration, and a switch that turns the solver's
pruning rules and its shared sibling test off."""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from itertools import combinations, permutations, product
from unittest.mock import patch

from starcut import (
    CLIQ,
    ELEM,
    ORIG,
    TRIPLE,
    UBLK,
    UPRM,
    Graph,
    ThreeDMInstance,
    VertexCoverInstance,
    VertexRole,
    build,
    gen_random_3dm,
    gen_random_graph,
    is_connected,
    mask_connected,
)
from starcut.solver import _Engine

# The solver's prune rules.  The predicates return True to rule a subtree
# or a center out; _frame_settles rules a last-level center out for every
# sibling of a slots == 2 frame.  _orbits builds the query object behind
# every skip of the stabilizer lemma, and the search skips nothing where it
# gets a falsy one.  So patching each to return False switches that rule off.
PRUNE_RULES = ("_degree_bound_miss", "_center_hopeless", "_orbits", "_frame_settles")

# The last level's shared Z test, one per pair of centers, which answers for
# every sibling leaf set and is the only caller of _frame_settles.  Its
# False means "unknown", so patching it off through pruning_off sends every
# center to the BFS over Z in _last_star and settles none for the frame.
SIBLING_TEST = "_siblings_joined"


@contextmanager
def pruning_off(*rules: str):
    """Run the block with the named _Engine prune predicates never firing."""
    with ExitStack() as stack:
        for rule in rules:
            stack.enter_context(patch.object(_Engine, rule, lambda self, *args: False))
        yield


def brute_vertex_connectivity(g: Graph) -> int | None:
    """Smallest |S| with g - S disconnected; None when no such S (cliques)."""
    verts = range(g.n)
    for size in range(g.n - 1):
        for sel in combinations(verts, size):
            removed = 0
            for v in sel:
                removed |= 1 << v
            rest = g.full_mask & ~removed
            if rest.bit_count() >= 2 and not mask_connected(g, rest):
                return size
    return None


def domination_number(g: Graph, within: int) -> int:
    """γ(G[within]): fewest vertices of `within` whose closed neighborhoods cover it."""
    verts = [v for v in range(g.n) if within >> v & 1]
    for size in range(len(verts) + 1):
        for sel in combinations(verts, size):
            covered = 0
            for v in sel:
                covered |= g.masks[v] | 1 << v
            if covered & within == within:
                return size
    raise AssertionError("within names a vertex outside g")


def edge_list_3dm_gadget(inst: ThreeDMInstance, m: int) -> tuple[Graph, tuple]:
    """(graph, roles) of the matching gadget as the reduce_3dm docstring lays
    it out, every clique written as its edge pairs and passed to build()."""
    t, n = len(inst.triples), inst.n
    size = (m + 1) * t
    elems = range(t, t + 3 * n)
    base = t + 3 * n
    cliques = [range(base + j * size, base + (j + 1) * size) for j in range(m - 3)]
    base += (m - 3) * size
    blocks = [range(base + l * m, base + (l + 1) * m) for l in range(3 * n)]
    tail = range(base + 3 * n * m, base + 6 * n * m)
    edges = []
    for k, (r, b, y) in enumerate(inst.triples):
        edges += [(k, elems[r - 1]), (k, elems[n + b - 1]), (k, elems[2 * n + y - 1])]
    for clique in cliques:
        edges += combinations(clique, 2)
        edges += [(k, clique[k]) for k in range(t)]
    for l, block in enumerate(blocks):
        edges += combinations(block, 2)
        edges.append((elems[l], block[-1]))
    edges += combinations(tail, 2)
    edges += zip([v for block in blocks for v in block], tail)
    roles = (
        [VertexRole(TRIPLE, k) for k in range(1, t + 1)]
        + [VertexRole(ELEM, l) for l in range(1, 3 * n + 1)]
        + [VertexRole(CLIQ, i, j) for j in range(1, m - 2) for i in range(1, size + 1)]
        + [VertexRole(UBLK, i, l) for l in range(1, 3 * n + 1) for i in range(1, m + 1)]
        + [VertexRole(UPRM, i) for i in range(1, 3 * n * m + 1)]
    )
    return build(tail.stop, edges), tuple(roles)


def edge_list_vc_gadget(inst: VertexCoverInstance) -> tuple[Graph, tuple]:
    """(graph, roles) of the cover gadget as the reduce_vertex_cover docstring
    lays it out, every clique written as its edge pairs and passed to build()."""
    g, k = inst.graph, inst.k
    n = g.n
    edges = list(g.edges())
    roles = [VertexRole(ORIG, i) for i in range(1, n + 1)]
    for j in range(1, k + 3):
        clique = range(n * j, n * (j + 1))
        edges += combinations(clique, 2)
        edges += zip(range(n), clique)
        roles += [VertexRole(CLIQ, i, j) for i in range(1, n + 1)]
    return build(n * (k + 3), edges), tuple(roles)


def matching_gadget_sources():
    """The 171 (instance, m) pairs of the seeded matching-gadget survey:
    n 1..4, 0..2 extra triples, solvable or not, seeds 0..2, m 5..7."""
    out = []
    for n in (1, 2, 3, 4):
        for extra in (0, 1, 2):
            for solvable in (True, False):
                for seed in range(3):
                    try:
                        inst = gen_random_3dm(n, extra, solvable, seed)
                    except ValueError:
                        continue  # no such instance under the occurrence cap
                    out.extend((inst, m) for m in (5, 6, 7))
    return out


def connected_corpus(count: int, max_n: int = 10, seed0: int = 0):
    """First `count` seeded (graph, n, p, seed) combos that come out connected.

    Walks seeds deterministically over n in 4..max_n and p in .3/.5/.8, so the
    corpus is stable across runs and machines.
    """
    out = []
    seed = seed0
    while len(out) < count:
        n = 4 + seed % (max_n - 3)
        p = (0.3, 0.5, 0.8)[seed % 3]
        g = gen_random_graph(n, p, seed)
        seed += 1
        if g.n >= 2 and is_connected(g):
            out.append((g, n, p, seed - 1))
    return out


def _canon(n: int, edge_set: frozenset[frozenset[int]]) -> tuple:
    # The least adjacency bitmask over the relabelings that list vertices by
    # increasing degree.  An isomorphism keeps degrees, so only those
    # relabelings need trying.
    pairs = [tuple(e) for e in edge_set]
    deg = [0] * n
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    groups = [[v for v in range(n) if deg[v] == d] for d in sorted(set(deg))]
    best = None
    for choice in product(*(permutations(group) for group in groups)):
        label = [0] * n
        for new, old in enumerate(v for group in choice for v in group):
            label[old] = new
        code = 0
        for u, v in pairs:
            code |= 1 << (label[u] * n + label[v]) | 1 << (label[v] * n + label[u])
        if best is None or code < best:
            best = code
    return (n, best)


def connected_graphs_upto(max_n: int) -> list[Graph]:
    """All connected graphs on 1..max_n vertices, one per isomorphism class."""
    found = {}
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = build(n, edges)
            if not is_connected(g):
                continue
            key = _canon(n, frozenset(frozenset(e) for e in edges))
            if key not in found:
                found[key] = g
    return list(found.values())
