"""Seeded random generators for test corpora.

Everything here is deterministic in the seed: the same arguments always
produce the same object, so generated cases can be referenced in tests by
their parameters alone.
"""

from __future__ import annotations

import random

from .graph import Graph, build
from .npsolve import ThreeDMInstance, element_occurrences, element_slots, solve_3dm

# Every element of a generated 3dm instance appears in at most this many
# triples.  Keeps instances close to the restricted variant and keeps the
# gadget degrees small enough to audit by hand.
OCCURRENCE_CAP = 3


def gen_random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi style graph: each pair independently an edge with prob p."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return build(n, edges)


def _random_triple(rng: random.Random, n: int) -> tuple[int, int, int]:
    return (rng.randrange(1, n + 1), rng.randrange(1, n + 1), rng.randrange(1, n + 1))


def _sample_extras(
    rng: random.Random, n: int, base: list[tuple[int, int, int]], extra: int
) -> list[tuple[int, int, int]] | None:
    """Append `extra` distinct triples to base, or None when the cap blocks it.

    base itself must respect the occurrence cap.  A triple is open when it is
    new and all three of its elements are under the cap.  Before each
    placement the open triples are counted in O(n + |have|); with none left
    the call gives up at once, else it draws until it hits an open one.
    """
    triples = list(base)
    have = set(triples)
    occ = element_occurrences(ThreeDMInstance(n, tuple(base)))
    for _ in range(extra):
        # Open triples = product of each class's elements under the cap,
        # less the triples already taken whose elements are all under it.
        free = [
            sum(1 for c in occ[k * n : (k + 1) * n] if c < OCCURRENCE_CAP)
            for k in range(3)
        ]
        taken = sum(
            1 for t in have if all(occ[s] < OCCURRENCE_CAP for s in element_slots(n, t))
        )
        if free[0] * free[1] * free[2] == taken:
            return None
        while True:
            cand = _random_triple(rng, n)
            if cand in have:
                continue
            slots = element_slots(n, cand)
            if all(occ[s] < OCCURRENCE_CAP for s in slots):
                break
        for s in slots:
            occ[s] += 1
        triples.append(cand)
        have.add(cand)
    return triples


def gen_random_3dm(n: int, extra: int, solvable: bool, seed: int) -> ThreeDMInstance:
    """Random matching instance with n + extra distinct triples.

    solvable=True plants a perfect matching as the first n triples (a random
    pair of permutations), then pads with distinct noise triples.
    solvable=False resamples whole instances until the exhaustive solver
    finds no matching.  Either way each element occurs at most
    OCCURRENCE_CAP times.
    """
    if n < 1:
        raise ValueError(f"ground-set size must be at least 1, got {n}")
    if extra < 0:
        raise ValueError(f"extra triple count must be nonnegative, got {extra}")
    rng = random.Random(seed)
    if solvable:
        second = list(range(1, n + 1))
        third = list(range(1, n + 1))
        rng.shuffle(second)
        rng.shuffle(third)
        planted = [(i + 1, second[i], third[i]) for i in range(n)]
        triples = _sample_extras(rng, n, planted, extra)
        if triples is None:
            raise ValueError(
                "could not place the extra triples under the occurrence cap; "
                "lower extra or raise n"
            )
        return ThreeDMInstance(n, tuple(triples))
    for _ in range(100):
        triples = _sample_extras(rng, n, [], n + extra)
        if triples is None:
            raise ValueError(
                "could not sample distinct triples under the occurrence cap; "
                "lower extra or raise n"
            )
        inst = ThreeDMInstance(n, tuple(triples))
        if solve_3dm(inst) is None:
            return inst
    raise ValueError(
        "no unsolvable instance found after 100 attempts; "
        "these parameters almost always admit a matching, try more extra triples"
    )
