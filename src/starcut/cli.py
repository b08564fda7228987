"""Command line front end.

Exit codes are uniform across verbs: 0 means YES/PASS, 1 means NO/FAIL,
2 means a usage or input error, 3 means the solver stopped before reaching
a decision.  Output is line-oriented so runs can be scripted.
"""

from __future__ import annotations

import argparse
import sys

from .cuts import STRUCTURE, SUBSTRUCTURE, is_structure_cut, is_substructure_cut
from .formats import (
    ParseError,
    parse_3dm,
    parse_cut,
    parse_graph,
    write_3dm,
    write_cut,
    write_graph,
    write_roles,
)
from .generate import gen_random_3dm, gen_random_graph
from .npsolve import VertexCoverInstance, solve_3dm, solve_vertex_cover
from .reduce import extract_cover, extract_matching, reduce_3dm, reduce_vertex_cover
from .solver import (
    SearchOptions,
    oracle_connectivity,
    structure_connectivity,
    substructure_connectivity,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_INCONCLUSIVE = 3


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _options(args) -> SearchOptions:
    return SearchOptions(
        strict_trivial=args.strict_trivial,
        induced=args.induced,
        time_limit=args.time_limit,
    )


def _print_result(kind: str, m: int, res) -> int:
    value = "none" if res.value is None else str(res.value)
    print(f"kappa {kind} {m} = {value}")
    if res.certificate is not None:
        sys.stdout.write(write_cut(res.certificate))
        return EXIT_YES
    return EXIT_NO if res.complete else EXIT_INCONCLUSIVE


def _print_ids(word: str, ids) -> None:
    """Print `word` then the 1-based ids, or `word none` when ids is None."""
    text = "none" if ids is None else " ".join(str(i + 1) for i in ids)
    print(f"{word} {text}")


def _cmd_solve(args) -> int:
    g = parse_graph(_read(args.graph))
    kind = SUBSTRUCTURE if args.sub else STRUCTURE
    solver = substructure_connectivity if args.sub else structure_connectivity
    return _print_result(kind, args.M, solver(g, args.M, args.tmax, _options(args)))


def _cmd_verify(args) -> int:
    g = parse_graph(_read(args.graph))
    family = parse_cut(_read(args.cut))
    check = is_structure_cut if family.kind == STRUCTURE else is_substructure_cut
    ok = check(
        g, family, family.m, strict_trivial=args.strict_trivial, induced=args.induced
    )
    print("YES" if ok else "NO")
    return EXIT_YES if ok else EXIT_NO


def _gadget_3dm(args):
    """Matching gadget: (reduction, gadget solver, decoder)."""
    red = reduce_3dm(args.read(args), args.M, allow_unrestricted=args.allow_unrestricted)
    return red, structure_connectivity, extract_matching


def _gadget_vc(args):
    """Cover gadget: (reduction, gadget solver, decoder)."""
    red = reduce_vertex_cover(args.read(args))
    return red, substructure_connectivity, extract_cover


def _write_gadget(prefix: str, red) -> None:
    _write(prefix + ".graph", write_graph(red.graph))
    _write(prefix + ".roles", write_roles(red.roles))


def _cmd_reduce(args) -> int:
    red = args.gadget(args)[0]
    _write_gadget(args.out_prefix, red)
    print(
        f"wrote {args.out_prefix}.graph {args.out_prefix}.roles"
        f" ({red.graph.n} vertices, {red.graph.edge_count} edges, target {red.parameter})"
    )
    return EXIT_YES


def _cmd_oracle_source(args) -> int:
    found = args.solve_source(args.read(args))
    _print_ids(args.answer, found)
    return EXIT_NO if found is None else EXIT_YES


def _cmd_oracle_kappa(args) -> int:
    g = parse_graph(_read(args.graph))
    kind = SUBSTRUCTURE if args.sub else STRUCTURE
    res = oracle_connectivity(
        g,
        args.M,
        kind,
        args.tmax,
        strict_trivial=args.strict_trivial,
        induced=args.induced,
    )
    return _print_result(kind, args.M, res)


def _report(source_yes: bool, res, out_prefix, red) -> int:
    """Print and optionally write the source and gadget decisions and their verdict."""
    gadget_yes = res.value is not None
    if not (gadget_yes or res.complete):
        gadget = verdict = "INCONCLUSIVE"
        code = EXIT_INCONCLUSIVE
    else:
        gadget = "YES" if gadget_yes else "NO"
        verdict, code = ("PASS", EXIT_YES) if gadget_yes == source_yes else ("FAIL", EXIT_NO)
    source = "YES" if source_yes else "NO"
    lines = [f"decision-source {source}", f"decision-gadget {gadget}", f"verdict {verdict}"]
    for line in lines:
        print(line)
    if out_prefix:
        _write_gadget(out_prefix, red)
        _write(out_prefix + ".report", "\n".join(lines) + "\n")
    return code


def _cmd_roundtrip(args) -> int:
    opts = _options(args)
    red, solve_gadget, decode = args.gadget(args)
    source = args.solve_source(red.source)
    # red.parameter is the decision bound: ground-set size or cover budget
    res = solve_gadget(red.graph, red.m, red.parameter, opts)
    if res.certificate is not None:
        _print_ids("decode", decode(red, res.certificate))
    return _report(source is not None, res, args.out_prefix, red)


def _emit(text: str, out) -> int:
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


def _cmd_gen_graph(args) -> int:
    g = gen_random_graph(args.n, args.p, args.seed)
    return _emit(write_graph(g), args.out)


def _cmd_gen_3dm(args) -> int:
    inst = gen_random_3dm(args.n, args.extra, not args.unsolvable, args.seed)
    return _emit(write_3dm(inst), args.out)


def _add_3dm_source(p, gadget=False):
    """Declare the matching source: flags, reader, solver, answer word, gadget."""
    p.add_argument("--in", dest="infile", required=True, help="3dm instance file")
    if gadget:
        p.add_argument("--M", type=int, default=5, help="leaves per star, at least 5 (default 5)")
        p.add_argument("--allow-unrestricted", action="store_true",
                       help="skip the occurrence-count restriction check")
    p.set_defaults(read=lambda args: parse_3dm(_read(args.infile)), solve_source=solve_3dm,
                   answer="matching", gadget=_gadget_3dm)


def _add_vc_source(p, gadget=False):
    """Declare the cover source likewise; its gadget takes no flags of its own."""
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True, help="cover budget")
    p.set_defaults(
        read=lambda args: VertexCoverInstance(parse_graph(_read(args.graph)), args.k),
        solve_source=solve_vertex_cover, answer="cover", gadget=_gadget_vc)


def _add_cut_flags(p):
    """The two readings of a cut, shared by every verb that decides one."""
    p.add_argument("--strict-trivial", action="store_true",
                   help="only a 1-vertex remainder counts as trivial")
    p.add_argument("--induced", action="store_true",
                   help="require star leaves to be pairwise non-adjacent")


def _add_solver_flags(p):
    """The cut readings plus the time limit, for verbs that run the solver."""
    _add_cut_flags(p)
    p.add_argument("--time-limit", type=float, default=None, metavar="SECONDS",
                   help="give up and report inconclusive after this long")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="starcut",
        description="star-based structure connectivity: exact solver, verifiers, "
        "hardness gadgets, brute-force oracles",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact connectivity value plus certificate")
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument("--M", type=int, required=True, help="leaves per star")
    p.add_argument("--sub", action="store_true",
                   help="substructure variant (stars may have fewer leaves)")
    p.add_argument("--tmax", type=int, required=True, help="largest family size to try")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a cut file against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--cut", required=True)
    _add_cut_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reduce-3dm", help="matching instance -> structure gadget")
    _add_3dm_source(p, gadget=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("reduce-vc", help="cover instance -> substructure gadget")
    _add_vc_source(p, gadget=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("oracle", help="independent brute-force references")
    osub = p.add_subparsers(dest="mode", required=True)

    q = osub.add_parser("3dm", help="exhaustive matching search")
    _add_3dm_source(q)
    q.set_defaults(func=_cmd_oracle_source)

    q = osub.add_parser("vc", help="exhaustive cover search")
    _add_vc_source(q)
    q.set_defaults(func=_cmd_oracle_source)

    q = osub.add_parser("kappa", help="connectivity by subset enumeration")
    q.add_argument("--graph", required=True)
    q.add_argument("--M", type=int, required=True)
    q.add_argument("--sub", action="store_true")
    q.add_argument("--tmax", type=int, required=True)
    _add_cut_flags(q)
    q.set_defaults(func=_cmd_oracle_kappa)

    p = sub.add_parser("roundtrip",
                       help="source decision vs gadget decision, with decode")
    rsub = p.add_subparsers(dest="mode", required=True)

    for mode, add_source in (("3dm", _add_3dm_source), ("vc", _add_vc_source)):
        q = rsub.add_parser(mode)
        add_source(q, gadget=True)
        q.add_argument("--out-prefix", default=None)
        _add_solver_flags(q)
        q.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("gen", help="seeded random inputs")
    gsub = p.add_subparsers(dest="mode", required=True)

    q = gsub.add_parser("graph")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--out", default=None, help="output file (default stdout)")
    q.set_defaults(func=_cmd_gen_graph)

    q = gsub.add_parser("3dm")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--extra", type=int, default=0)
    q.add_argument("--unsolvable", action="store_true",
                   help="resample until no perfect matching exists")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_gen_3dm)

    return top


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(run())
