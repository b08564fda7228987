"""Exact star-family connectivity search plus an independent subset oracle.

The solver computes the minimum size of a family of pairwise vertex-disjoint
stars whose removal disconnects the host graph or leaves a trivial remainder.
Kind "structure" requires every element to be a K_{1,m} exactly; kind
"substructure" admits any K_{1,j} with j <= m, including the bare K_1.

Search scheme: iterative deepening on the family size t, one sequential
pass per size.  Families are sets, so each one is enumerated exactly once by
requiring strictly increasing center ids.  Centers and leaves are tried in
increasing id order, so the first family a pass finds is the
lexicographically least one and serves directly as the certificate.  The
caller's time_limit bounds the whole call.  Four pruning rules cut the
search: a minimum-degree bound, an untouchable dominating core, hopeless
centers, and the complete-graph shortcut at the last level; a per-alive-set
memo remembers centers already ruled out there.  Each rule stays because
switching it off was measured to slow the benchmark down.  Every rule is
correctness-preserving; the prune_* options toggle the first three so tests
can prove value-equality with pruning off.

oracle_connectivity is deliberately dumber: enumerate vertex subsets, test
the cut condition, and cover the subset by disjoint stars via memoized
partition search.  It shares no search code with the solver beyond the graph
primitives and the cut and leaf-independence predicates, which is what makes
the agreement tests meaningful.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .cuts import (
    STRUCTURE,
    SUBSTRUCTURE,
    CutFamily,
    Star,
    canonical_star,
    is_structure_cut,
    is_substructure_cut,
    leaves_independent,
    remainder_is_cut,
)
from .graph import Graph, bits, is_connected, mask_connected

ORACLE_SIZE_CAP = 14


@dataclass(frozen=True, slots=True)
class SearchOptions:
    """Knobs for the exact search; defaults are the fast path.

    strict_trivial narrows "trivial remainder" to exactly one vertex.
    induced additionally requires star leaves to be pairwise non-adjacent
    (a diagnostic mode; the default validity check is center-leaf edges
    only).  time_limit (seconds) bounds the whole call: a search it stops
    becomes an incomplete result.

    The prune_* switches turn off one rule each: prune_degree_bound the
    minimum-degree bound, prune_untouched the dominating-core test,
    prune_center_skip the hopeless-center test.  They never change values
    or certificates, only speed; tests use them to demonstrate that.
    """

    strict_trivial: bool = False
    induced: bool = False
    prune_untouched: bool = True
    prune_degree_bound: bool = True
    prune_center_skip: bool = True
    time_limit: float | None = None


@dataclass(frozen=True, slots=True)
class SolveResult:
    """Outcome of a bounded search.

    value and certificate are present iff a cutting family was found, and
    then the certificate has exactly `value` elements and passes the
    matching verifier.  bound is the largest family size settled: the found
    value, or t_max when every size up to t_max was ruled out.  complete is
    False only when a time limit stopped the search early; the sole claim
    then is that no family of size <= bound exists.
    """

    value: int | None
    certificate: CutFamily | None
    bound: int
    complete: bool


class _Deadline(Exception):
    pass


def _leaf_sets(
    masks: tuple[int, ...],
    cands: list[int],
    m: int,
    exact: bool,
    induced: bool,
    center: int,
    cmask: int,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (leaves, star mask) for stars at `center`, lexicographically.

    cands must be the sorted candidate leaves (alive neighbors of center).
    Single-leaf stars whose leaf precedes the center are suppressed: the
    flipped orientation is canonical and is produced at the other center.
    """
    if exact:
        if len(cands) < m:
            return
        for combo in combinations(cands, m):
            if m == 1 and combo[0] < center:
                continue
            if induced and not leaves_independent(masks, combo):
                continue
            smask = cmask
            for leaf in combo:
                smask |= 1 << leaf
            yield combo, smask
        return

    prefix: list[int] = []

    def grow(start: int, pmask: int) -> Iterator[tuple[tuple[int, ...], int]]:
        if len(prefix) != 1 or prefix[0] > center:
            yield tuple(prefix), cmask | pmask
        if len(prefix) == m:
            return
        for i in range(start, len(cands)):
            leaf = cands[i]
            lbit = 1 << leaf
            if induced and pmask & masks[leaf]:
                continue
            prefix.append(leaf)
            yield from grow(i + 1, pmask | lbit)
            prefix.pop()

    yield from grow(0, 0)


class _Engine:
    """The search state shared by every family size: memo tables and deadline."""

    def __init__(self, g: Graph, m: int, kind: str, opts: SearchOptions):
        self.g = g
        self.m = m
        self.opts = opts
        self.exact = kind == STRUCTURE
        n = g.n
        masks = g.masks
        # suffix_touch[c]: every vertex some star centered at c or above
        # could remove.
        suffix = [0] * (n + 1)
        for c in range(n - 1, -1, -1):
            suffix[c] = suffix[c + 1] | masks[c] | (1 << c)
        self.suffix_touch = suffix
        # memo_tau[alive]: proven "no single cutting star centered above this
        # threshold inside `alive`".  Family-size independent.
        self.memo_tau: dict[int, int] = {}
        self.nodes = 0
        self.deadline: float | None = None

    # -- prune predicates ------------------------------------------------

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Deadline

    def _is_clique(self, alive: int) -> bool:
        masks = self.g.masks
        rest = alive
        while rest:
            bit = rest & -rest
            rest ^= bit
            if masks[bit.bit_length() - 1] & alive != alive ^ bit:
                return False
        return True

    def _degree_bound_miss(self, alive: int, slots: int) -> bool:
        # If a cut needs removals X, the smallest remaining component C has
        # every neighbor inside C or X, so delta(alive) <= (|alive|+|X|)/2 - 1.
        # With |X| <= slots*(m+1) and a guaranteed nontrivial remainder,
        # violating that bound rules the whole subtree out.
        budget = slots * (self.m + 1)
        size = alive.bit_count()
        if size - budget < 2:
            return False
        masks = self.g.masks
        threshold = size + budget - 2
        rest = alive
        while rest:
            bit = rest & -rest
            rest ^= bit
            d = (masks[bit.bit_length() - 1] & alive).bit_count()
            if 2 * d <= threshold:
                return False
        return True

    def _untouched_miss(self, alive: int, pmax: int) -> bool:
        # Core = alive vertices no future star can remove.  If the core is
        # connected, has >= 2 vertices, and dominates everything alive, any
        # completion leaves a connected nontrivial remainder around it.
        core = alive & ~self.suffix_touch[pmax + 1]
        if core.bit_count() < 2:
            return False
        masks = self.g.masks
        cover = core
        for v in bits(core):
            cover |= masks[v]
        if alive & ~cover:
            return False
        return mask_connected(self.g, core)

    def _center_hopeless(self, c: int, nb: int, deg: int, alive: int) -> bool:
        # Z = alive vertices out of the star's reach.  If Z is connected,
        # every alive neighbor of c hangs onto Z, and the remainder is
        # forced to keep >= 2 vertices, no star at c can cut.
        z = alive & ~nb & ~(1 << c)
        if not z:
            return False
        leftover = deg - self.m if deg > self.m else 0
        if z.bit_count() + leftover < 2:
            return False
        if not mask_connected(self.g, z):
            return False
        masks = self.g.masks
        rest = nb
        while rest:
            bit = rest & -rest
            rest ^= bit
            if not masks[bit.bit_length() - 1] & z:
                return False
        return True

    # -- last level: place one final star ---------------------------------

    def last_star(self, alive: int, pmax: int) -> Star | None:
        """Least star by (center, leaves), centered above pmax, that cuts `alive`.

        Misses tighten the per-alive center threshold memo.
        """
        g, m = self.g, self.m
        opts = self.opts
        tau = self.memo_tau.get(alive, g.n - 1)
        if tau <= pmax:
            return None
        if alive.bit_count() >= m + 3 and self._is_clique(alive):
            # No vertex deletion disconnects a complete graph, and one star
            # is too small here to reach the trivial-remainder escape.
            self.memo_tau[alive] = -1
            return None
        masks = g.masks
        strict = opts.strict_trivial
        dead = g.full_mask & ~alive
        for c in range(pmax + 1, tau + 1):
            self._check_deadline()
            cbit = 1 << c
            if not alive & cbit:
                continue
            nb = masks[c] & alive
            deg = nb.bit_count()
            if self.exact and deg < m:
                continue
            if opts.prune_center_skip and self._center_hopeless(c, nb, deg, alive):
                continue
            ticks = 0
            for leaves, smask in _leaf_sets(
                masks, bits(nb), m, self.exact, opts.induced, c, cbit
            ):
                ticks += 1
                if not ticks & 0x1FF:
                    self._check_deadline()
                if remainder_is_cut(g, dead | smask, strict_trivial=strict):
                    return Star(c, leaves)
        self.memo_tau[alive] = pmax
        return None

    # -- interior levels ---------------------------------------------------

    def search(
        self, alive: int, pmax: int, slots: int, chosen: list[Star]
    ) -> list[Star] | None:
        """Extend `chosen` by `slots` stars centered above pmax."""
        self.nodes += 1
        if not self.nodes & 0xFF:
            self._check_deadline()
        opts = self.opts
        if opts.prune_degree_bound and self._degree_bound_miss(alive, slots):
            return None
        if opts.prune_untouched and self._untouched_miss(alive, pmax):
            return None
        if slots == 1:
            star = self.last_star(alive, pmax)
            if star is None:
                return None
            return chosen + [star]
        g, m = self.g, self.m
        masks = g.masks
        for c in range(pmax + 1, g.n):
            cbit = 1 << c
            if not alive & cbit:
                continue
            nb = masks[c] & alive
            if self.exact and nb.bit_count() < m:
                continue
            for leaves, smask in _leaf_sets(
                masks, bits(nb), m, self.exact, opts.induced, c, cbit
            ):
                got = self.search(
                    alive & ~smask, c, slots - 1, chosen + [Star(c, leaves)]
                )
                if got is not None:
                    return got
        return None


def _family_size_cap(g: Graph, m: int, kind: str) -> int:
    if kind == STRUCTURE:
        return g.n // (m + 1)
    return g.n


def _validate_inputs(g: Graph, m: int, t_max: int) -> None:
    if m < 0:
        raise ValueError("star leaf bound must be nonnegative")
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if g.n < 2 or not is_connected(g):
        raise ValueError(
            "connectivity is defined only for connected graphs on >= 2 vertices"
        )


def _check_certificate(
    g: Graph, cert: CutFamily, strict_trivial: bool, induced: bool, origin: str
) -> None:
    check = is_structure_cut if cert.kind == STRUCTURE else is_substructure_cut
    if not check(g, cert, cert.m, strict_trivial=strict_trivial, induced=induced):
        raise AssertionError(f"{origin} produced a family its verifier rejects")


def _connectivity(
    g: Graph, m: int, kind: str, t_max: int, options: SearchOptions | None
) -> SolveResult:
    opts = options or SearchOptions()
    _validate_inputs(g, m, t_max)
    engine = _Engine(g, m, kind, opts)
    if opts.time_limit is not None:
        engine.deadline = time.monotonic() + opts.time_limit
    cap = min(t_max, _family_size_cap(g, m, kind))
    for t in range(1, cap + 1):
        try:
            family = engine.search(g.full_mask, -1, t, [])
        except _Deadline:
            return SolveResult(None, None, t - 1, False)
        if family is None:
            continue
        # Centers strictly increase along a family, so it is already sorted.
        cert = CutFamily(kind, m, tuple(family))
        _check_certificate(g, cert, opts.strict_trivial, opts.induced, "search")
        return SolveResult(t, cert, t, True)
    return SolveResult(None, None, t_max, True)


def structure_connectivity(
    g: Graph, m: int, t_max: int, options: SearchOptions | None = None
) -> SolveResult:
    """Minimum size of a cutting family of exact K_{1,m} elements.

    Raises ValueError on disconnected or single-vertex input; the quantity
    is undefined there.  Absence within t_max is reported, never a value.
    """
    return _connectivity(g, m, STRUCTURE, t_max, options)


def substructure_connectivity(
    g: Graph, m: int, t_max: int, options: SearchOptions | None = None
) -> SolveResult:
    """Minimum size of a cutting family of K_{1,j} elements, j <= m."""
    return _connectivity(g, m, SUBSTRUCTURE, t_max, options)


def enumerate_stars(
    g: Graph, m: int, exact: bool, *, induced: bool = False
) -> list[Star]:
    """Every canonical star of g with exactly (or up to) m leaves, sorted.

    Single-leaf stars appear once, centered at their smaller endpoint.
    """
    masks = g.masks
    out: set[Star] = set()
    for c in range(g.n):
        cands = bits(masks[c])
        for leaves, _ in _leaf_sets(masks, cands, m, exact, induced, c, 1 << c):
            out.add(Star(c, leaves))
    return sorted(out, key=Star.sort_key)


# -- independent oracle --------------------------------------------------

_MISS = object()


def _absorbing_stars(
    masks: tuple[int, ...], v: int, rem: int, m: int, exact: bool, induced: bool
) -> Iterator[tuple[int, int]]:
    """All (center, star mask) choices inside `rem` that contain vertex v.

    Written for clarity over speed: the oracle only runs on capped sizes.
    """
    vbit = 1 << v
    # v as the center
    cands = bits(masks[v] & rem)
    sizes = [m] if exact else list(range(0, min(m, len(cands)) + 1))
    for size in sizes:
        if size > len(cands):
            continue
        for combo in combinations(cands, size):
            if induced and not leaves_independent(masks, combo):
                continue
            smask = vbit
            for leaf in combo:
                smask |= 1 << leaf
            yield v, smask
    # v as a leaf of some center c in rem
    if m < 1:
        return
    for c in bits(masks[v] & rem):
        cbit = 1 << c
        others = bits(masks[c] & rem & ~vbit)
        extra_sizes = [m - 1] if exact else list(range(0, min(m - 1, len(others)) + 1))
        for size in extra_sizes:
            if size > len(others):
                continue
            for combo in combinations(others, size):
                if induced and not leaves_independent(masks, (v, *combo)):
                    continue
                smask = cbit | vbit
                for leaf in combo:
                    smask |= 1 << leaf
                yield c, smask


def _star_from_mask(smask: int, center: int) -> Star:
    leaves = tuple(bits(smask & ~(1 << center)))
    return canonical_star(center, leaves)


def _best_partition(
    g: Graph, rem: int, m: int, exact: bool, induced: bool, memo: dict
) -> tuple[int, tuple[tuple[int, int], ...]] | None:
    """Minimum star partition of `rem`; returns (count, ((center, mask), ...)).

    Branches on the lowest remaining vertex, which must be absorbed by some
    star.  Keyed only by the remaining mask, so one memo serves every subset
    the oracle probes.
    """
    if not rem:
        return 0, ()
    hit = memo.get(rem, _MISS)
    if hit is not _MISS:
        return hit
    masks = g.masks
    v = (rem & -rem).bit_length() - 1
    best = None
    seen: set[int] = set()
    for center, smask in _absorbing_stars(masks, v, rem, m, exact, induced):
        if smask in seen:
            continue
        seen.add(smask)
        sub = _best_partition(g, rem & ~smask, m, exact, induced, memo)
        if sub is None:
            continue
        if best is None or sub[0] + 1 < best[0]:
            best = (sub[0] + 1, ((center, smask),) + sub[1])
    memo[rem] = best
    return best


def min_star_partition(
    g: Graph, xs: Iterable[int], m: int, exact: bool, *, induced: bool = False
) -> int | None:
    """Fewest disjoint stars of g (leaf bounds per flags) covering X exactly."""
    xmask = 0
    for x in xs:
        if not (0 <= x < g.n):
            raise ValueError(f"vertex {x} out of range")
        xmask |= 1 << x
    if m < 0:
        raise ValueError("star leaf bound must be nonnegative")
    got = _best_partition(g, xmask, m, exact, induced, {})
    return got[0] if got is not None else None


def oracle_connectivity(
    g: Graph,
    m: int,
    kind: str,
    t_max: int,
    *,
    strict_trivial: bool = False,
    induced: bool = False,
    size_cap: int = ORACLE_SIZE_CAP,
) -> SolveResult:
    """Cross-validation oracle: subset enumeration plus star partitioning.

    Scans vertex subsets X in increasing size; X qualifies when its removal
    disconnects g or leaves a trivial remainder and X splits into disjoint
    stars of the requested kind.  Returns the minimum star count over all
    qualifying X, as a SolveResult mirroring the solver's conventions.
    """
    if kind not in (STRUCTURE, SUBSTRUCTURE):
        raise ValueError(f"unknown cut kind {kind!r}")
    if g.n > size_cap:
        raise ValueError(f"oracle refuses n={g.n} above the size cap {size_cap}")
    _validate_inputs(g, m, t_max)
    exact = kind == STRUCTURE
    memo: dict = {}
    best: int | None = None
    best_stars: tuple[tuple[int, int], ...] | None = None
    for size in range(1, g.n + 1):
        lower = -(-size // (m + 1))
        if best is not None and lower >= best:
            break
        if exact and size % (m + 1):
            continue
        for combo in combinations(range(g.n), size):
            xmask = 0
            for x in combo:
                xmask |= 1 << x
            if not remainder_is_cut(g, xmask, strict_trivial=strict_trivial):
                continue
            got = _best_partition(g, xmask, m, exact, induced, memo)
            if got is None:
                continue
            if best is None or got[0] < best:
                best, best_stars = got
    if best is None or best > t_max:
        return SolveResult(None, None, t_max, True)
    assert best_stars is not None
    stars = tuple(
        sorted(
            (_star_from_mask(smask, center) for center, smask in best_stars),
            key=Star.sort_key,
        )
    )
    cert = CutFamily(kind, m, stars)
    _check_certificate(g, cert, strict_trivial, induced, "oracle")
    return SolveResult(best, cert, best, True)
