"""Release gate: one test per acceptance criterion, each printing a
single PASS/FAIL line with the failing cases attached.

Two criteria fail by design of the gadgets themselves, not by a solver
bug: the matching gadget admits a one-element cut (a star at a tail
partner that strands the rest of block 1) whether or not the source
instance is solvable, and the cover gadget admits cuts that do not
correspond to any cover.  The failures below list the concrete
counterexamples; see the README for discussion.
"""

from __future__ import annotations

import random

from helpers import brute_vertex_connectivity, connected_corpus, connected_graphs_upto

from starcut import (
    CLIQ,
    ELEM,
    ORIG,
    STRUCTURE,
    SUBSTRUCTURE,
    TRIPLE,
    UBLK,
    UPRM,
    CutFamily,
    ParseError,
    SearchOptions,
    Star,
    ThreeDMInstance,
    VertexCoverInstance,
    VertexRole,
    audit_reduced_3dm,
    audit_reduced_vc,
    extract_matching,
    gen_random_3dm,
    gen_random_graph,
    is_structure_cut,
    is_substructure_cut,
    matching_to_cut,
    oracle_connectivity,
    parse_3dm,
    parse_cut,
    parse_graph,
    parse_roles,
    reduce_3dm,
    reduce_vertex_cover,
    solve_3dm,
    solve_vertex_cover,
    structure_connectivity,
    substructure_connectivity,
    write_3dm,
    write_cut,
    write_graph,
    write_roles,
)

_corpus_cache: dict = {}
_solve_cache: dict = {}


def _gate(label: str, failures: list):
    line = f"{label}: {'PASS' if not failures else 'FAIL'}"
    if failures:
        line += f" ({len(failures)} failing cases)"
    print(line)
    assert not failures, line + "".join(f"\n  {f}" for f in failures[:12])


def _c1_corpus():
    if "c1" not in _corpus_cache:
        _corpus_cache["c1"] = connected_corpus(200, max_n=10, seed0=0)
    return _corpus_cache["c1"]


def _solved(idx: int, m: int, kind: str, strict: bool):
    key = (idx, m, kind, strict)
    if key not in _solve_cache:
        g = _c1_corpus()[idx][0]
        fn = structure_connectivity if kind == STRUCTURE else substructure_connectivity
        _solve_cache[key] = fn(g, m, g.n, SearchOptions(strict_trivial=strict))
    return _solve_cache[key]


def _c2_instances():
    reps = [ThreeDMInstance(1, tuple([(1, 1, 1)] * r)) for r in (1, 2, 3)]
    return reps + [gen_random_3dm(1, 0, True, s) for s in range(50)]


def _c3_solvable():
    return [gen_random_3dm(2, s % 3, True, s) for s in range(25)]


def _c3_unsolvable():
    return [gen_random_3dm(2, 0, False, s) for s in range(10)]


def _c4_pairs():
    if "c4" not in _corpus_cache:
        graphs = [("class", i, g) for i, g in enumerate(connected_graphs_upto(5))]
        seed = 10_000
        rand = []
        while len(rand) < 100:
            n = 3 + seed % 5
            g = gen_random_graph(n, (0.3, 0.5, 0.8)[seed % 3], seed)
            seed += 1
            if g.edge_count >= 1:  # a star size of zero says nothing about covers
                rand.append(("seed", seed - 1, g))
        pairs = []
        for tag, ident, g in graphs + rand:
            for k in (1, 2):
                if 1 <= k < g.n:
                    pairs.append((tag, ident, g, k))
        _corpus_cache["c4"] = pairs
    return _corpus_cache["c4"]


def test_criterion_1_solver_matches_oracle():
    failures = []
    for idx, (g, n, p, seed) in enumerate(_c1_corpus()):
        for m in (1, 2, 3):
            for kind in (STRUCTURE, SUBSTRUCTURE):
                for strict in (False, True):
                    got = _solved(idx, m, kind, strict)
                    want = oracle_connectivity(g, m, kind, g.n, strict_trivial=strict)
                    if got.value != want.value or not (got.complete and want.complete):
                        failures.append(
                            f"seed={seed} n={n} p={p} m={m} {kind} strict={strict}: "
                            f"solver={got.value} oracle={want.value}"
                        )
    _gate("criterion 1 solver/oracle agreement, 200 graphs", failures)


def test_criterion_2_matching_decision_equivalence_n1():
    failures = []
    for inst in _c2_instances():
        red = reduce_3dm(inst, 5, allow_unrestricted=True)
        res = structure_connectivity(red.graph, red.m, inst.n)
        source = solve_3dm(inst) is not None
        if not res.complete or (res.value is not None) != source:
            failures.append(
                f"triples={inst.triples}: source={source} "
                f"gadget_value={res.value} complete={res.complete}"
            )
    _gate("criterion 2 matching decision equivalence at n=1", failures)


def test_criterion_3_forward_encode_decode_n2():
    failures = []
    for s, inst in enumerate(_c3_solvable()):
        red = reduce_3dm(inst, 5, allow_unrestricted=True)
        fam = matching_to_cut(red, (0, 1))
        if len(fam.elements) != 2:
            failures.append(f"seed={s}: encoded family has {len(fam.elements)} elements")
            continue
        if not is_structure_cut(red.graph, fam, red.m):
            failures.append(f"seed={s}: encoded family is not a cut")
            continue
        back = extract_matching(red, fam)
        if back != (0, 1):
            failures.append(f"seed={s}: decoded {back} instead of the planted matching")
    _gate("criterion 3 forward encode/decode at n=2", failures)


def test_criterion_3_no_side_never_false_yes():
    # inconclusive within budget is tolerated; a certified cut on an
    # unsolvable instance is not, and every certificate below decodes to
    # no matching at all
    failures = []
    for s, inst in enumerate(_c3_unsolvable()):
        red = reduce_3dm(inst, 5, allow_unrestricted=True)
        res = structure_connectivity(
            red.graph, red.m, inst.n, SearchOptions(time_limit=600.0)
        )
        if res.value is not None:
            failures.append(
                f"seed={s} triples={inst.triples}: unsolvable source but "
                f"gadget value={res.value}, decode="
                f"{extract_matching(red, res.certificate)}"
            )
    _gate("criterion 3 no-side, unsolvable n=2 instances", failures)


def test_criterion_4_cover_decision_equivalence():
    failures = []
    for tag, ident, g, k in _c4_pairs():
        inst = VertexCoverInstance(g, k)
        red = reduce_vertex_cover(inst)
        res = substructure_connectivity(red.graph, red.m, k)
        source = solve_vertex_cover(inst) is not None
        gadget = res.value is not None
        if not res.complete or source != gadget:
            failures.append(
                f"{tag}={ident} n={g.n} edges={tuple(g.edges())} k={k}: "
                f"source={source} gadget={gadget} (value={res.value})"
            )
    _gate("criterion 4 cover decision equivalence", failures)


def test_criterion_5_gadget_audits():
    failures = []
    insts = _c2_instances() + _c3_solvable() + _c3_unsolvable()
    for inst in insts:
        red = reduce_3dm(inst, 5, allow_unrestricted=True)
        t, q, m = len(inst.triples), inst.n, red.m
        try:
            audit_reduced_3dm(red)
            if red.graph.n != t + 3 * q + (m - 3) * (m + 1) * t + 6 * q * m:
                raise AssertionError("size formula")
            for v, role in enumerate(red.roles):
                if role.tag == TRIPLE and red.graph.degree(v) != m:
                    raise AssertionError(f"triple vertex {v} degree")
                if role.tag == ELEM and red.graph.degree(v) > 4:
                    raise AssertionError(f"element vertex {v} degree")
        except AssertionError as exc:
            failures.append(f"3dm triples={inst.triples}: {exc}")
    for tag, ident, g, k in _c4_pairs():
        red = reduce_vertex_cover(VertexCoverInstance(g, k))
        try:
            audit_reduced_vc(red)
            if red.graph.n != g.n * (k + 3):
                raise AssertionError("size formula")
            for v, role in enumerate(red.roles):
                if role.tag != CLIQ:
                    continue
                lo = g.n * role.j
                outside = [w for w in red.graph.neighbors(v) if not lo <= w < lo + g.n]
                if outside != [role.i - 1]:
                    raise AssertionError(f"clique vertex {v} outside neighbors {outside}")
        except AssertionError as exc:
            failures.append(f"vc {tag}={ident} k={k}: {exc}")
    _gate("criterion 5 gadget audits", failures)


def test_criterion_6_law_suite():
    failures = []
    for idx, (g, n, p, seed) in enumerate(_c1_corpus()):
        kappa_v = brute_vertex_connectivity(g)
        for strict in (False, True):
            prev_sub = None
            for m in (1, 2, 3):
                kap = _solved(idx, m, STRUCTURE, strict)
                sub = _solved(idx, m, SUBSTRUCTURE, strict)
                if kap.value is not None and sub.value is not None:
                    if sub.value > kap.value:
                        failures.append(
                            f"seed={seed} m={m} strict={strict}: "
                            f"sub={sub.value} > structure={kap.value}"
                        )
                if prev_sub is not None and prev_sub.value is not None:
                    if sub.value is None or sub.value > prev_sub.value:
                        failures.append(
                            f"seed={seed} m={m} strict={strict}: substructure value "
                            f"rose from {prev_sub.value} to {sub.value}"
                        )
                prev_sub = sub
                if kappa_v is not None and sub.value is not None:
                    if sub.value > kappa_v:
                        failures.append(
                            f"seed={seed} m={m} strict={strict}: "
                            f"sub={sub.value} > vertex connectivity={kappa_v}"
                        )
                for res, check in ((kap, is_structure_cut), (sub, is_substructure_cut)):
                    if res.certificate is not None and not check(
                        g, res.certificate, m, strict_trivial=strict
                    ):
                        failures.append(
                            f"seed={seed} m={m} strict={strict}: "
                            f"certificate fails its verifier"
                        )
    _gate("criterion 6 law suite on the criterion-1 corpus", failures)


def _random_cut_family(rng: random.Random) -> CutFamily:
    kind = rng.choice((STRUCTURE, SUBSTRUCTURE))
    m = rng.randrange(0, 4)
    pool = list(range(20))
    rng.shuffle(pool)
    stars = []
    for _ in range(rng.randrange(0, 3)):
        width = m if kind == STRUCTURE else rng.randint(0, m)
        center, pool = pool[0], pool[1:]
        leaves, pool = tuple(sorted(pool[:width])), pool[width:]
        stars.append(Star(center, leaves))
    return CutFamily(kind, m, tuple(stars))


def _random_roles(rng: random.Random) -> tuple[VertexRole, ...]:
    out = []
    for _ in range(rng.randint(1, 12)):
        tag = rng.choice((TRIPLE, ELEM, CLIQ, UBLK, UPRM, ORIG))
        j = rng.randint(1, 9) if tag in (CLIQ, UBLK) else None
        out.append(VertexRole(tag, rng.randint(1, 9), j))
    return tuple(out)


def test_criterion_7_format_roundtrips():
    failures = []

    def cycle(obj, write, parse, label):
        text = write(obj)
        back = parse(text)
        if back != obj or write(back) != text:
            failures.append(f"{label}: round trip not byte-identical")

    for s in range(400):
        g = gen_random_graph(s % 11, (0.3, 0.5, 0.8)[s % 3], s)
        cycle(g, write_graph, parse_graph, f"graph seed={s}")
    for s in range(200):
        n = 1 + s % 4
        inst = gen_random_3dm(n, s % 3 if n > 1 else 0, True, 500 + s)
        cycle(inst, write_3dm, parse_3dm, f"3dm seed={500 + s}")
    for s in range(200):
        fam = _random_cut_family(random.Random(700 + s))
        cycle(fam, write_cut, parse_cut, f"cut seed={700 + s}")
    for s in range(200):
        roles = _random_roles(random.Random(900 + s))
        cycle(roles, write_roles, parse_roles, f"roles seed={900 + s}")

    malformed = [
        (parse_graph, "p edge 3 1\ne 1 4\n"),
        (parse_graph, "p edge 3 2\ne 1 2\ne 2 1\n"),
        (parse_graph, "p edge 3 2\ne 1 2\n"),
        (parse_graph, ""),
        (parse_cut, "cut star 2 1\ns 1 2 3\n"),
        (parse_cut, "cut structure 2 1\ns 1 3\n"),
        (parse_cut, "cut substructure 2 2\ns 1 2\ns 3 2\n"),
        (parse_3dm, "3dm 0 0\n"),
        (parse_3dm, "3dm 2 1\nt 1 2 3\n"),
        (parse_roles, "v 2 TRIPLE 1\n"),
        (parse_roles, "v 1 CLIQ 1\n"),
        (parse_roles, ""),
    ]
    for parser, text in malformed:
        try:
            parser(text)
            failures.append(f"{parser.__name__} accepted {text!r}")
        except ParseError as exc:
            if not isinstance(exc.line, int) or exc.line < 1:
                failures.append(f"{parser.__name__} lost the line number on {text!r}")
    _gate("criterion 7 format round trips and strict errors", failures)
