"""Exact star-family connectivity search plus an independent subset oracle.

The solver computes the minimum size of a family of pairwise vertex-disjoint
stars whose removal disconnects the host graph or leaves a trivial remainder.
Kind "structure" requires every element to be a K_{1,m} exactly; kind
"substructure" admits any K_{1,j} with j <= m, including the bare K_1.

Search scheme: iterative deepening on the family size t, one sequential
pass per size.  Families are sets, so each one is enumerated exactly once by
requiring strictly increasing center ids.  Centers are tried in increasing
id order, and each center's leaf sets in lexicographic order of their
increasing leaf tuples, so the first family a pass finds is the
lexicographically least one and serves directly as the certificate.  A leaf
set is one int, its leaf mask without the center (0 for the bare K_1); only
the certificate is built as Star tuples.  One recursive node, _Engine.search,
serves every level: with slots >= 2 free it tries each center above the last
placed one and recurses below each of its stars, and with one slot left it
places the last star and tests each of its leaf sets in place.  The caller's
time_limit bounds the whole call: the deadline is polled on entry to every
node, at every center a node tries, and once per leaf set tested.

Three pruning rules and a memo cut the search; each stays because switching
it off was measured to slow the benchmark down, and none changes values or
certificates.  The minimum-degree bound rules out a subtree whose alive set
has no vertex of low enough degree to sit in the smallest remaining
component; the hopeless-center rule (below) settles a last-level center
without trying its leaf sets; the sibling frame (below) settles one for
every sibling first star at once; memo_tau remembers, per alive set, the
centers already ruled out at the last level.  The rules and the test of
each last star rest on the remainder walk.

Complete graphs need no rule of their own.  The last star is placed only
after the degree bound ran with one slot, and an alive clique on s >= m+3
vertices has every degree s-1 with 2(s-1) > s+m-1, so the bound fires
first.

Remainder walk: fix a last-level center c with alive neighbors nb, let Z
be the alive set outside N[c], touch the vertices of nb with a neighbor in
Z, and off = nb - touch.  A star with leaves L leaves R = alive - S = Z +
(nb - L), and it cuts iff G[R] is disconnected or R is trivial under
strict_trivial.  _last_star decides each L by one walk over R from a
connected seed:
- If Z is nonempty and connected, the seed is Z + (touch - L): each vertex
  of touch - L has a neighbor in Z.  No vertex of off has one, so a path in
  G[R] from off - L into Z runs inside nb - L until it enters touch - L.
  The walk grows from touch - L through off - L alone, and R is connected
  iff it reaches every vertex of off - L.
- Otherwise the seed is R's least vertex, and the walk covers R.
R holds Z, so the trivial test runs only when |Z| <= 1.  The hopeless rule
is the walk's sufficient half.  Let Z be nonempty and connected.  L removes
at most m vertices of touch, so if every off vertex has more than m
neighbors in touch, each vertex of off - L keeps one in touch - L and R is
connected.  A connected R cuts only if it is trivial, and |R| >= |Z| >= 1,
so only R = Z = {z} with L = nb, which needs |Z| = 1 and deg(c) <= m.  So
when |Z| >= 2 or deg(c) > m, the rule settles c: no star there cuts.  Z's
connectivity is found once per center, by a BFS over Z unless the sibling
lemma proved it, which changes no verdict:
- Sibling lemma: at size t >= 2 every last star sits in a slots == 2 frame,
  alive set P with a first star at c1 whose leaves L1 lie in N_P(c1).  For a
  later center c, Z(L1) = Zmin + (attach - L1) with Zmin = P - N_P[c1] -
  N[c] and attach = N_P(c1) - N[c].  If G[Zmin] is nonempty and connected and
  every attach vertex has a neighbor in Zmin, then Z(L1) is connected for
  every sibling L1.  One test per (c1, c), made the first time a sibling
  reaches it, then stands in for the BFS over Z of all of them.  It is one
  BFS over Zmin that also collects N(Zmin), so the attach condition, and the
  corollary's below, is one mask test against N(Zmin).  When it fails, and
  at size 1, which has no such frame, the BFS over Z runs as before.
- Sibling corollary: if moreover |Zmin| >= 2 and every vertex of N_P(c) -
  c1 has a neighbor in Zmin, then no star at c cuts under any sibling L1,
  whatever the kind, M, strict_trivial or induced.  Proof: Z(L1) contains
  Zmin and is connected by the lemma.  The alive neighbors nb of c under L1
  lie in N_P(c) - c1, so each has a neighbor in Zmin, off is empty, and R =
  Z + (nb - L) is connected for every leaf set L, with |R| >= |Zmin| >= 2,
  so R is neither split nor trivial.  The first sibling to reach c runs
  the test and records c as settled, and its _last_star call returns at
  once; the slots == 1 nodes of later siblings skip c before any other
  work.  memo_tau stays true: it records only that no star above its
  threshold cuts.

Stabilizer lemma: let H be any group of verified automorphisms that fix
every star placed so far, each with its center fixed.  Then the next star's
center needs trying only if it is the least vertex of its H-orbit, and its
first leaf l_1 only if it is the least of its orbit under the members of H
that also fix the center.  Search order compares families by (c_1, L_1,
c_2, L_2, ...), leaf sets as tuples.
- Let F* be the family a pass at size t returns, the least cutting
  t-family, and σ ∈ H.  σ(F*) is a cutting t-family too: σ keeps star
  shapes, disjointness, leaf independence and which remainders are
  disconnected or trivial.
- σ(F*) keeps F*'s first k-1 stars.  Every later star of σ(F*) has its
  canonical center above c_{k-1}; otherwise σ(F*) would precede F*.  (The
  canonical center of a K_{1,1} is its smaller endpoint, at most σ of the
  center.)  So the k-th star of σ(F*) has center at most σ(c_k), and F* <=
  σ(F*) forces c_k <= σ(c_k).
- If σ also fixes c_k, no star of σ(F*) past the prefix has its canonical
  center below c_k, or σ(F*) would precede F*.  So the k-th star of σ(F*)
  is (c_k, σ(L_k)), and L_k <= σ(L_k).  The first entry of the tuple
  σ(L_k) is its least leaf, so l_1 <= min σ(L_k) <= σ(l_1).
- memo_tau cannot hide F*.  Say an entry memo_tau[A] = p skips F*'s last
  star S*, centered above p, at alive set A below prefix P*.  A slots == 1
  node wrote it at A below a prefix P whose last center is p, searched
  before P*.  So (P, S*) is a cutting family as well: either it has F*'s
  size and precedes F*, or it is smaller and an earlier size ruled it out.
  Either contradicts the choice of F*, whatever pruning that node did.
This holds for every group of verified automorphisms, a subgroup included,
so skipping changes no value, bound or certificate.  An orbit of Aut(G)
itself proves nothing below the root: there H must fix the prefix.

The search applies the lemma at every interior level.  The root prunes its
centers by Aut(G).  A node with slots >= 3 and placed prefix P prunes the
first leaf of each leaf set at c by the stabilizer of P and c, one orbit
query object per center, which starts from the coloring of P's object and
from every automorphism the solve has verified that keeps its cells.  It
hands the child below each star (c, L) the stabilizer of P plus (c, L), and
the child prunes its centers with it.  Pruning each later leaf l_i by the
stabilizer of l_1..l_{i-1} as well (the refinement of McKay and Piperno)
skipped no leaf set the first leaf had not already skipped, on the
hypercube bench ops and the symmetric test family, so the search prunes by
the first leaf only.  Two limits hold:
- No orbits into the last level below the root: a slots == 2 node hands
  its children none.  The memo argument allows them, and a variant that
  passed them changed no tested result, but one orbit query per last-level
  center costs more than it saves: it made a hypercube bench pass take
  2.95 times as long.
- No leaf pruning at slots == 2.  A variant that pruned there made a
  hypercube bench pass take 1.43 times as long.
On Q6 with M=1 the size-5 solve takes 0.95 s (structure) and 3.0 s
(substructure), best of six on a 2-vCPU VM.  The automorphisms come from
starcut.symmetry, which finds and verifies them lazily, one Orbits object
per coloring, and only on regular graphs, and shares them across one
solve's queries.

oracle_connectivity is deliberately dumber: enumerate vertex subsets, test
the cut condition, and cover the subset by disjoint stars via memoized
partition search.  It shares no search code with the solver beyond the graph
primitives and the trivial-remainder and leaf-independence predicates.  Its
cut test is remainder_is_cut, which the search never calls, so the agreement
tests compare two independent connectivity tests.
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
    trivial_remainder,
)
from .graph import Graph, bits, mask_connected, mask_span
from .symmetry import Orbits, Shared, is_regular

ORACLE_SIZE_CAP = 14


@dataclass(frozen=True, slots=True)
class SearchOptions:
    """Knobs for the exact search; defaults are the fast path.

    strict_trivial narrows "trivial remainder" to exactly one vertex.
    induced additionally requires star leaves to be pairwise non-adjacent
    (a diagnostic mode; the default validity check is center-leaf edges
    only).  time_limit (seconds) bounds the whole call: a search it stops
    becomes an incomplete result.  It must be None or >= 0; inf means no
    limit, and a negative or NaN limit raises ValueError.

    No option switches pruning: its rules never change values or
    certificates, only speed, so they always run.  The module docstring
    lists them with their proofs.
    """

    strict_trivial: bool = False
    induced: bool = False
    time_limit: float | None = None

    def __post_init__(self) -> None:
        # `not >= 0` also catches NaN, which no clock reading ever exceeds.
        limit = self.time_limit
        if limit is not None and not limit >= 0:
            raise ValueError(f"time_limit must be None or >= 0 seconds, got {limit}")


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


class _Engine:
    """The search state: memo tables, deadline and the current sibling frame."""

    def __init__(self, g: Graph, m: int, kind: str, opts: SearchOptions):
        self.g = g
        self.m = m
        self.opts = opts
        self.exact = kind == STRUCTURE
        # memo_tau[alive]: proven "no single cutting star centered above this
        # threshold inside `alive`".  Family-size independent.
        self.memo_tau: dict[int, int] = {}
        limit = opts.time_limit
        self.deadline = None if limit is None else time.monotonic() + limit
        # The current slots == 2 frame, P alive with a first star at c1:
        # (P - N_P[c1], N_P(c1)), or None when no such frame holds (t = 1).
        # joined / split mark the later centers whose shared Z test
        # (_siblings_joined) passed / failed under this c1.  settled marks
        # the joined centers where the sibling corollary holds: no star cuts
        # there under any sibling, so the frame's slots == 1 nodes skip them.
        self.frame: tuple[int, int] | None = None
        self.joined = 0
        self.split = 0
        self.settled = 0
        # What every orbit query object of this solve shares; the first
        # _orbits call builds it, so irregular graphs never do.
        self.shared: Shared | None = None

    # -- prune predicates ------------------------------------------------

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Deadline

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

    def _center_hopeless(self, touch: int, off: int) -> bool:
        # The remainder walk's sufficient half (module docstring).
        masks, m = self.g.masks, self.m
        while off:
            bit = off & -off
            off ^= bit
            if (masks[bit.bit_length() - 1] & touch).bit_count() <= m:
                return False
        return True

    def _last_star(self, c: int, nb: int, alive: int) -> int | None:
        """The first leaf mask of _leaf_sets(c, nb) whose star cuts alive, or None."""
        g = self.g
        masks = g.masks
        alive ^= 1 << c
        z = alive & ~nb
        # R = alive - S holds Z, so R can be trivial only when |Z| <= 1.
        lone = not z & (z - 1)
        # Is Z a connected seed for the remainder walk (module docstring)?
        # The sibling test that proves it may also settle c for the frame.
        if self.joined >> c & 1:
            joined = True
        elif z and self._siblings_joined(c):
            if self.settled >> c & 1:
                return None
            joined = True
        else:
            joined = z and mask_connected(g, z)
        if joined:
            off = 0
            rest = nb
            while rest:
                bit = rest & -rest
                rest ^= bit
                if not masks[bit.bit_length() - 1] & z:
                    off |= bit
            touch = nb & ~off
            if (not lone or nb.bit_count() > self.m) and self._center_hopeless(touch, off):
                return None
        strict = self.opts.strict_trivial
        for leaves in self._leaf_sets(c, nb):
            self._check_deadline()
            if joined:
                todo, left = touch & ~leaves, off & ~leaves
            else:
                left = alive & ~leaves
                todo = left & -left
                left ^= todo
            while left and todo:
                v = todo.bit_length() - 1
                todo ^= 1 << v
                hit = masks[v] & left
                left ^= hit
                todo |= hit
            if left or lone and trivial_remainder(alive & ~leaves, strict):
                return leaves
        return None

    def _open_frame(self, alive: int, c1: int) -> None:
        """Enter a slots == 2 frame: every last star now sees alive minus a star at c1."""
        nb = self.g.masks[c1] & alive
        self.frame = (alive & ~nb & ~(1 << c1), nb)
        self.joined = self.split = self.settled = 0

    def _siblings_joined(self, c: int) -> bool:
        # The sibling lemma (module docstring), tested once per (c1, c), as
        # the caller reads joined first.  True proves Z connected for every
        # leaf set of the first star at c1; False means only "unknown".
        # Where it holds, it also asks whether the frame settles c.
        cbit = 1 << c
        if self.split & cbit or self.frame is None:
            return False
        rest, attach = self.frame
        outside = ~(self.g.masks[c] | cbit)
        zmin = rest & outside
        # One BFS gives G[Zmin]'s connectivity and N(Zmin) for the attach test.
        reach, around = mask_span(self.g, zmin)
        if zmin and reach == zmin and not attach & outside & ~around:
            self.joined |= cbit
            if self._frame_settles(c, zmin, around):
                self.settled |= cbit
            return True
        self.split |= cbit
        return False

    def _frame_settles(self, c: int, zmin: int, around: int) -> bool:
        # The sibling corollary (module docstring), given G[Zmin] connected
        # with neighborhood around: |Zmin| >= 2 and N_P(c) - c1 lies in it.
        rest, nb1 = self.frame
        return bool(zmin & (zmin - 1)) and not self.g.masks[c] & (rest | nb1) & ~around

    def _orbits(self, *cells: int) -> Orbits:
        """Orbit queries under the automorphisms that keep each mask in cells.

        The stabilizer lemma's H: a placed star is passed as its center and
        its leaf set, and a center whose leaves are pruned as itself.
        """
        if self.shared is None:
            self.shared = Shared(self.g)
        return Orbits(self.shared, cells, self._check_deadline)

    # -- star enumeration --------------------------------------------------

    def _leaf_sets(self, c: int, nb: int) -> Iterable[int]:
        """The leaf masks of the stars at c with leaves in nb, lexicographically.

        Single-leaf stars whose leaf precedes the center are suppressed: the
        flipped orientation is canonical and is produced at the other center.
        A structure mask is the sum of an M-subset of nb's bits, which are
        disjoint; substructure masks come from _grown_leaf_sets.
        """
        if not self.exact:
            return self._grown_leaf_sets(c, nb)
        if self.m == 1:
            nb &= -(2 << c)
        sets = map(sum, combinations([1 << v for v in bits(nb)], self.m))
        if self.opts.induced:
            return (s for s in sets if leaves_independent(self.g.masks, bits(s)))
        return sets

    def _grown_leaf_sets(self, c: int, nb: int) -> Iterator[int]:
        # _leaf_sets for substructure stars, depth first on one stack.  An entry
        # (i, leaves) adds the i-th neighbor to leaves; its extensions pop first.
        masks, m, induced = self.g.masks, self.m, self.opts.induced
        cands = bits(nb)
        cbit, last = 1 << c, len(cands) - 1
        yield 0
        stack = [(0, 0)] if m and nb else []
        while stack:
            i, leaves = stack.pop()
            if i < last:
                stack.append((i + 1, leaves))
            if induced and leaves & masks[cands[i]]:
                continue
            leaves |= 1 << cands[i]
            if leaves & (leaves - 1) or leaves > cbit:
                yield leaves
            if i < last and leaves.bit_count() < m:
                stack.append((i + 1, leaves))

    # -- the search --------------------------------------------------------

    def search(
        self, alive: int, pmax: int, slots: int, orbits: Orbits | None = None
    ) -> list[tuple[int, int]] | None:
        """(c, leaf mask) of the least `slots` stars centered above pmax that cut `alive`.

        The node walks the alive centers above pmax in increasing order.  A
        slots == 1 node consults and tightens memo_tau, drops the centers
        its sibling frame settled, and asks _last_star at each other center;
        others recurse below each of its stars, and a slots == 2 node opens
        the sibling frame.  orbits answers under the automorphisms that keep
        the placed stars, its cells (stabilizer lemma).  Given one, the node
        skips the centers that follow a smaller vertex; with slots >= 3 it
        also skips each leaf set whose least leaf follows a smaller vertex
        under the automorphisms that also fix c, and hands each child the
        stabilizer of its cells plus c and the leaf mask.  The module
        docstring says why no other level prunes by it.
        """
        self._check_deadline()
        g = self.g
        if self._degree_bound_miss(alive, slots):
            return None
        tau = g.n - 1
        if slots == 1:
            tau = self.memo_tau.get(alive, tau)
            if tau <= pmax:
                return None
        masks, m = g.masks, self.m
        deep = orbits and slots >= 3
        # The alive centers in (pmax, tau], less the frame's settled ones at
        # the last level, which cut under no sibling (module docstring).
        live = alive & (2 << tau) - (1 << pmax + 1)
        if slots == 1:
            live &= ~self.settled
        while live:
            self._check_deadline()
            cbit = live & -live
            live ^= cbit
            c = cbit.bit_length() - 1
            nb = masks[c] & alive
            # No exact star fits here.  The test costs hypercube about 1% and
            # saves gadget about 2%, where it spares _last_star's analysis.
            if self.exact and nb.bit_count() < m:
                continue
            if orbits and orbits.follows(c):
                continue
            if slots == 1:
                leaves = self._last_star(c, nb, alive)
                if leaves is not None:
                    return [(c, leaves)]
                continue
            if slots == 2:
                self._open_frame(alive, c)
            first = self._orbits(*orbits.cells, cbit) if deep else None
            rest = alive ^ cbit
            for leaves in self._leaf_sets(c, nb):
                if first and leaves and first.follows((leaves & -leaves).bit_length() - 1):
                    continue
                child = self._orbits(*orbits.cells, cbit, leaves) if deep else None
                got = self.search(rest & ~leaves, c, slots - 1, child)
                if got is not None:
                    return [(c, leaves), *got]
        if slots == 1:
            self.memo_tau[alive] = pmax
        return None


def _validate_inputs(g: Graph, m: int, t_max: int) -> None:
    if m < 0:
        raise ValueError("star leaf bound must be nonnegative")
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if g.n < 2 or not mask_connected(g, g.full_mask):
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
    cap = min(t_max, g.n // (m + 1) if kind == STRUCTURE else g.n)
    settled, family = 0, None
    # Orbit queries run only on regular graphs, so the irregular corpus and
    # gadget graphs pay one degree scan and no query.
    root = engine._orbits() if is_regular(g) else None
    try:
        for t in range(1, cap + 1):
            family = engine.search(g.full_mask, -1, t, root)
            if family is not None:
                break
            settled = t
    except _Deadline:
        return SolveResult(None, None, settled, False)
    if family is None:
        return SolveResult(None, None, t_max, True)
    # Centers strictly increase along a family, so it is already sorted.
    cert = CutFamily(kind, m, tuple(Star(c, tuple(bits(leaves))) for c, leaves in family))
    _check_certificate(g, cert, opts.strict_trivial, opts.induced, "search")
    return SolveResult(t, cert, t, True)


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


# -- independent oracle --------------------------------------------------

_MISS = object()


def _absorbing_stars(
    masks: tuple[int, ...], v: int, rem: int, m: int, exact: bool, induced: bool
) -> Iterator[tuple[int, int]]:
    """All (center, star mask) choices inside `rem` that contain vertex v.

    Each center c in N[v] is tried in increasing order, with v as a leaf
    when c != v.  _best_partition passes the least vertex of rem as v, so v
    itself comes first and is every other star's least leaf.  Written for
    clarity over speed: the oracle only runs on capped sizes.
    """
    vbit = 1 << v
    for c in bits((masks[v] | vbit) & rem):
        lead = () if c == v else (v,)
        room = m - len(lead)
        if room < 0:
            continue
        pool = bits(masks[c] & rem & ~vbit)
        base = 1 << c | vbit
        for size in [room] if exact else range(min(room, len(pool)) + 1):
            for combo in combinations(pool, size):
                if induced and not leaves_independent(masks, lead + combo):
                    continue
                smask = base
                for leaf in combo:
                    smask |= 1 << leaf
                yield c, smask


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


def oracle_connectivity(
    g: Graph,
    m: int,
    kind: str,
    t_max: int,
    *,
    strict_trivial: bool = False,
    induced: bool = False,
) -> SolveResult:
    """Cross-validation oracle: subset enumeration plus star partitioning.

    Scans vertex subsets X in increasing size; X qualifies when its removal
    disconnects g or leaves a trivial remainder and X splits into disjoint
    stars of the requested kind.  Returns the minimum star count over all
    qualifying X, as a SolveResult mirroring the solver's conventions.
    Graphs above ORACLE_SIZE_CAP vertices are refused.
    """
    if kind not in (STRUCTURE, SUBSTRUCTURE):
        raise ValueError(f"unknown cut kind {kind!r}")
    if g.n > ORACLE_SIZE_CAP:
        raise ValueError(
            f"oracle refuses n={g.n} above the size cap {ORACLE_SIZE_CAP}"
        )
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
        for xmask in map(sum, combinations([1 << v for v in range(g.n)], size)):
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
            (canonical_star(c, bits(smask & ~(1 << c))) for c, smask in best_stars),
            key=Star.sort_key,
        )
    )
    cert = CutFamily(kind, m, stars)
    _check_certificate(g, cert, strict_trivial, induced, "oracle")
    return SolveResult(best, cert, best, True)
