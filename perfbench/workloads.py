"""The three workloads: inputs made from a seed, ops, and their checks.

An op is one chain of public starcut calls, timed as a unit.  Its checks run
after the pass, off the clock, against references that do not come from the
solver under test: closed forms for hypercubes, the subset-enumeration oracle
for small corpus graphs (values recorded at the commit that added the bench
for larger ones), and the independent verifiers for every certificate,
matching and cover.

Every solver call runs under the watchdog.  Hypercube and corpus calls carry
no time limit, so their cap only keeps a run bounded.  Gadget calls carry
GADGET_TIME_LIMIT and are stopped GADGET_SLACK seconds after it, because the
certificate pass ignores the limit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracing import watchdog

HYPERCUBE_CAP = 60.0
CORPUS_CAP = 10.0
# The slowest gadget solve that finishes takes about 0.2 s; the cap leaves
# it room for a 2x slower burst while keeping the two stopped 7-triple
# gadgets, charged at the cap, near a third of a pass.
GADGET_TIME_LIMIT = 0.35
GADGET_SLACK = 0.15
GADGET_SUBSEEDS = 2
VC_PER_NK = 8

REFERENCE = Path(__file__).with_name("corpus_reference.json")

# Corpus settings, in the order the reference table stores values: every
# (M, kind, strict_trivial) with induced off, then an induced slice.
SETTINGS = [
    (m, kind, strict, False)
    for m in (1, 2, 3)
    for kind in ("structure", "substructure")
    for strict in (False, True)
] + [(m, kind, False, True) for m in (2, 3) for kind in ("structure", "substructure")]

SMALL_POOL = 420
# Mid-size graphs: the first MID_PER_N connected G(n, p) on a fixed seed walk.
# p falls with n so one graph's sixteen solves stay well under a second.
MID_P = {16: 0.5, 18: 0.45, 20: 0.4, 22: 0.35, 24: 0.3}
MID_PER_N = 3


@dataclass
class Outcome:
    result: object  # the op's main SolveResult
    data: tuple = ()
    verdict: str | None = None


@dataclass
class Op:
    label: str
    run: Callable[[object], Outcome]
    check: Callable[[Outcome], str | None]
    # Hypercube only: re-solve at a smaller t_max, and the last level.
    resolve: Callable[[int], object] | None = None
    top: int = 0


@dataclass
class Inputs:
    ops: list[Op]
    sizes: str


def _solve(call, cap, fn, *args):
    with watchdog(cap):
        res = call.call("solver.solve", fn, *args)
    if res.value is not None:
        call.count("solver.found")
    elif res.complete:
        call.count("solver.ruled_out")
    else:
        call.count("solver.inconclusive")
    return res


def _verifier(sc, kind):
    return sc.is_structure_cut if kind == sc.STRUCTURE else sc.is_substructure_cut


def _connectivity(sc, kind):
    if kind == sc.STRUCTURE:
        return sc.structure_connectivity
    return sc.substructure_connectivity


# -- hypercube -----------------------------------------------------------------


def hypercube_value(d: int, m: int) -> int:
    """Lin, Zhang, Fan, Wang (TCS 634, 2016): kappa(Q_d; K_{1,m}) for m <= 3.

    Both kinds share the value: d - 1 for m = 1, ceil(d / 2) for m = 2, 3.
    """
    return d - 1 if m == 1 else -(-d // 2)


def _hypercube(sc, call, d):
    n = 1 << d
    edges = [(u, u | 1 << b) for u in range(n) for b in range(d) if not u >> b & 1]
    return call.call("graph.build", sc.build, n, edges)


def _hypercube_op(sc, g, d, m, kind, t_max, want):
    fn = _connectivity(sc, kind)
    label = f"Q{d} M={m} {kind} t_max={t_max}"

    def run(call):
        return Outcome(_solve(call, HYPERCUBE_CAP, fn, g, m, t_max))

    def check(out):
        return _check_value(sc, g, m, kind, out.result, want)

    def resolve(t):
        with watchdog(HYPERCUBE_CAP):
            return fn(g, m, t)

    top = t_max if want is None else want
    return Op(label, run, check, resolve, top)


def _check_value(sc, g, m, kind, res, want, strict=False, induced=False):
    if not res.complete:
        return "incomplete result without a time limit"
    if res.value != want:
        return f"value {res.value}, expected {want}"
    if want is None:
        return None if res.certificate is None else "certificate without a value"
    cert = res.certificate
    if cert is None or len(cert) != want or cert.kind != kind or cert.m != m:
        return "certificate does not match the value"
    if not _verifier(sc, kind)(g, cert, m, strict_trivial=strict, induced=induced):
        return "certificate fails the verifier"
    return None


def hypercube(sc, seed, call) -> Inputs:
    """Q4 and Q5 with M=1..3, both kinds, t_max=d; Q6 with M=2, 3 as
    structure only, and with M=1 ruled out up to t=2 for both kinds.

    The Q6 substructure values and the t=3 rule-out take 4-9 s each, which
    would leave room for one pass per run; the pass is kept near 4 s so
    each op's median comes from several passes.  Q_d is unique, so the seed
    orders the ops.
    """
    cubes = {d: _hypercube(sc, call, d) for d in (4, 5, 6)}
    ops = []
    for d in (4, 5):
        for m in (1, 2, 3):
            for kind in (sc.STRUCTURE, sc.SUBSTRUCTURE):
                ops.append(_hypercube_op(sc, cubes[d], d, m, kind, d, hypercube_value(d, m)))
    for m in (2, 3):
        ops.append(_hypercube_op(sc, cubes[6], 6, m, sc.STRUCTURE, 6, hypercube_value(6, m)))
    for kind in (sc.STRUCTURE, sc.SUBSTRUCTURE):
        ops.append(_hypercube_op(sc, cubes[6], 6, 1, kind, 2, None))
    random.Random(seed).shuffle(ops)
    return Inputs(ops, f"Q4, Q5, Q6 (16, 32, 64 vertices), {len(ops)} ops per pass")


# -- corpus --------------------------------------------------------------------


def small_pool_specs(sc):
    """(seed, n, p) of the first SMALL_POOL connected graphs on the seed walk
    of tests/helpers.connected_corpus (n 4..10, p .3/.5/.8, seed0 = 0)."""
    out = []
    seed = 0
    while len(out) < SMALL_POOL:
        n = 4 + seed % 7
        p = (0.3, 0.5, 0.8)[seed % 3]
        if sc.is_connected(sc.gen_random_graph(n, p, seed)):
            out.append((seed, n, p))
        seed += 1
    return out


def mid_specs(sc):
    out = []
    for n, p in MID_P.items():
        seed = 7919 * n
        got = 0
        while got < MID_PER_N:
            if sc.is_connected(sc.gen_random_graph(n, p, seed)):
                out.append((seed, n, p))
                got += 1
            seed += 1
    return out


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    if [tuple(s) for s in ref["settings"]] != SETTINGS:
        raise ValueError(f"{REFERENCE.name} was recorded for other settings")
    return ref


def _corpus_op(sc, text, n, setting, want):
    m, kind, strict, induced = setting
    fn = _connectivity(sc, kind)
    verify = _verifier(sc, kind)
    opts = sc.SearchOptions(strict_trivial=strict, induced=induced)

    def run(call):
        call.count("formats.parse.bytes", len(text))
        g = call.call("formats.parse", sc.parse_graph, text)
        res = _solve(call, CORPUS_CAP, fn, g, m, n, opts)
        if res.certificate is None:
            return Outcome(res, (g, None, None))
        cut_text = call.call("formats.write", sc.write_cut, res.certificate)
        call.count("formats.write.bytes", len(cut_text))
        call.count("formats.parse.bytes", len(cut_text))
        family = call.call("formats.parse", sc.parse_cut, cut_text)
        ok = call.call("cuts.verify", verify, g, family, family.m,
                       strict_trivial=strict, induced=induced)
        return Outcome(res, (g, family, ok))

    def check(out):
        g, family, ok = out.data
        problem = _check_value(sc, g, m, kind, out.result, want, strict, induced)
        if problem or want is None:
            return problem
        if family != out.result.certificate:
            return "parsed cut differs from the certificate"
        return None if ok is True else "verify step rejected the certificate"

    return Op(f"G(n={n}) M={m} {kind} strict={strict} induced={induced}", run, check)


def corpus(sc, seed, call) -> Inputs:
    """Half of each (n, p) stratum of the small pool, drawn by the seed, plus
    every mid-size graph; each with all SETTINGS.  Mid-size solve times are
    heavy-tailed, so drawing them would make wall_s measure the draw."""
    ref = load_reference()
    rng = random.Random(seed)
    strata: dict = {}
    for entry in ref["small"]:
        strata.setdefault((entry[1], entry[2]), []).append(entry)
    chosen = []
    for key in sorted(strata):
        group = strata[key]
        chosen.extend(rng.sample(group, (len(group) + 1) // 2))
    n_small = len(chosen)
    chosen.extend(ref["mid"])
    ops = []
    for gseed, n, p, values in chosen:
        g = call.call("generate.gen", sc.gen_random_graph, n, p, gseed)
        text = sc.write_graph(g)
        ops.extend(_corpus_op(sc, text, n, s, v) for s, v in zip(SETTINGS, values))
    rng.shuffle(ops)
    sizes = (f"{n_small} graphs with n 4..10 and {len(chosen) - n_small} with "
             f"n 16..24, {len(SETTINGS)} settings each, {len(ops)} ops per pass")
    return Inputs(ops, sizes)


# -- gadget --------------------------------------------------------------------


def _gadget_tail(sc, call, red, kind, bound, solution, extract, encode):
    """Gadget solve under a time limit, decode, encode, and the writes that
    `roundtrip --out-prefix` makes, kept in memory."""
    opts = sc.SearchOptions(time_limit=GADGET_TIME_LIMIT)
    res = _solve(call, GADGET_TIME_LIMIT + GADGET_SLACK, _connectivity(sc, kind),
                 red.graph, red.m, bound, opts)
    decoded = encoded = None
    if res.certificate is not None:
        decoded = call.call("reduce.decode", extract, red, res.certificate)
    if solution is not None:
        encoded = call.call("reduce.encode", encode, red, solution)
    texts = (call.call("formats.write", sc.write_graph, red.graph),
             call.call("formats.write", sc.write_roles, red.roles))
    for text in texts:
        call.count("formats.write.bytes", len(text))
    source = "YES" if solution is not None else "NO"
    if res.value is not None:
        gadget = "YES"
    else:
        gadget = "NO" if res.complete else "INCONCLUSIVE"
    if gadget == "INCONCLUSIVE":
        verdict = gadget
    else:
        verdict = "PASS" if gadget == source else "FAIL"
    report = (f"decision-source {source}\ndecision-gadget {gadget}\n"
              f"verdict {verdict}\n")
    return Outcome(res, (red, solution, decoded, encoded, texts, report), verdict)


def _check_gadget(sc, out, kind, accept):
    red, solution, decoded, encoded, (graph_text, roles_text), _ = out.data
    res = out.result
    verify = _verifier(sc, kind)
    if solution is not None and not accept(solution):
        return "source solver returned an invalid solution"
    if res.certificate is not None:
        cert = res.certificate
        if len(cert) != res.value or res.value > red.parameter:
            return "gadget certificate does not match its value"
        if not verify(red.graph, cert, red.m):
            return "gadget certificate fails the verifier"
    if decoded is not None and not accept(decoded):
        return "decoded solution is invalid"
    if encoded is not None and not verify(red.graph, encoded, red.m):
        return "encoded solution fails the verifier"
    if sc.parse_graph(graph_text) != red.graph:
        return "gadget graph text does not parse back"
    if sc.parse_roles(roles_text) != red.roles:
        return "gadget roles text does not parse back"
    return None


def _3dm_op(sc, inst, solvable):
    def run(call):
        text = call.call("formats.write", sc.write_3dm, inst)
        call.count("formats.write.bytes", len(text))
        call.count("formats.parse.bytes", len(text))
        src = call.call("formats.parse", sc.parse_3dm, text)
        red = call.call("reduce.build", sc.reduce_3dm, src, 5, allow_unrestricted=True)
        call.count("reduce.gadget_vertices", red.graph.n)
        call.count("reduce.gadget_edges", red.graph.edge_count)
        solution = call.call("npsolve.solve", sc.solve_3dm, src)
        return _gadget_tail(sc, call, red, sc.STRUCTURE, src.n, solution,
                            sc.extract_matching, sc.matching_to_cut)

    def check(out):
        if (out.data[1] is not None) != solvable:
            return "source solver disagrees with the generator"
        return _check_gadget(sc, out, sc.STRUCTURE,
                             lambda sol: sc.verify_matching(inst, sol))

    label = f"3dm n={inst.n} triples={len(inst.triples)} solvable={solvable}"
    return Op(label, run, check)


def _vc_op(sc, g, k):
    def run(call):
        text = call.call("formats.write", sc.write_graph, g)
        call.count("formats.write.bytes", len(text))
        call.count("formats.parse.bytes", len(text))
        src = sc.VertexCoverInstance(call.call("formats.parse", sc.parse_graph, text), k)
        red = call.call("reduce.build", sc.reduce_vertex_cover, src)
        call.count("reduce.gadget_vertices", red.graph.n)
        call.count("reduce.gadget_edges", red.graph.edge_count)
        solution = call.call("npsolve.solve", sc.solve_vertex_cover, src)
        return _gadget_tail(sc, call, red, sc.SUBSTRUCTURE, k, solution,
                            sc.extract_cover, sc.cover_to_cut)

    def check(out):
        return _check_gadget(sc, out, sc.SUBSTRUCTURE,
                             lambda sol: len(sol) <= k and sc.is_vertex_cover(g, sol))

    return Op(f"vc n={g.n} k={k}", run, check)


def gadget(sc, seed, call) -> Inputs:
    """Per sub-seed s drawn from the seed: the 3DM gadgets of n=2 (solvable
    and not) and n=3 with 3, 5 and 7 triples.  The 7-triple gadgets overrun
    their time limit today; they stay in.

    VC gadgets come from VC_PER_NK graphs G(n, .5) per n=5..8 and k=1..3 on
    a fixed seed walk; the seed only orders them.  Their solve times are
    heavy-tailed (a drawn 48-vertex gadget can hit the time limit), so
    drawing them would make wall_s measure the draw.
    """
    rng = random.Random(seed)
    ops = []
    for s in (rng.randrange(1 << 30) for _ in range(GADGET_SUBSEEDS)):
        specs = [(2, s % 3, True), (2, 0, False), (3, 0, True), (3, 2, True), (3, 4, True)]
        for n, extra, solvable in specs:
            inst = call.call("generate.gen", sc.gen_random_3dm, n, extra, solvable, s)
            ops.append(_3dm_op(sc, inst, solvable))
    for n in (5, 6, 7, 8):
        for k in (1, 2, 3):
            gseed = 5003 * n + 101 * k
            for _ in range(VC_PER_NK):
                g = call.call("generate.gen", sc.gen_random_graph, n, 0.5, gseed)
                gseed += 1
                while not g.edge_count:  # a star size of zero says nothing
                    g = call.call("generate.gen", sc.gen_random_graph, n, 0.5, gseed)
                    gseed += 1
                ops.append(_vc_op(sc, g, k))
    rng.shuffle(ops)
    sizes = (f"{5 * GADGET_SUBSEEDS} 3DM gadgets (92..190 vertices) and "
             f"{12 * VC_PER_NK} VC gadgets (20..48 vertices), {len(ops)} ops per pass")
    return Inputs(ops, sizes)


WORKLOADS = {"hypercube": hypercube, "corpus": corpus, "gadget": gadget}
