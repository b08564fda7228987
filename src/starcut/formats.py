"""Parsers and writers for the four line-oriented text formats.

All formats are strict: every malformed input raises ParseError carrying the
1-based line number.  Writers emit the canonical serialization, so
write(parse(text)) is byte-identical whenever text was canonical to begin
with.

graph   header `p edge <n> <m>`, then m lines `e <u> <v>`, 1-based ids,
        `c `-prefixed comment lines allowed anywhere.
cut     header `cut <kind> <M> <t>`, then t lines `s <center> <leaf>...`,
        leaves in increasing order, elements pairwise disjoint.
3dm     header `3dm <n> <t>`, then t lines `t <r> <b> <y>`; triple order is
        preserved and governs the index space of solutions.
roles   one line `v <id> <tag> <i> [<j>]` per vertex, ids consecutive from 1.
"""

from __future__ import annotations

from itertools import compress

from .cuts import STRUCTURE, SUBSTRUCTURE, CutFamily, Star
from .graph import Graph, build
from .npsolve import ThreeDMInstance
from .reduce import VertexRole


class ParseError(ValueError):
    """Malformed text input; `line` is the offending 1-based line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


def _int_token(tok: str, line: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(line, f"{what} must be an integer, got {tok!r}") from None


def _content_lines(text: str, allow_comments: bool):
    """Yield (line_number, tokens) for non-comment lines; reject blanks."""
    for idx, raw in enumerate(text.splitlines(), start=1):
        if allow_comments and raw.startswith("c "):
            continue
        if not raw.strip():
            raise ParseError(idx, "blank line")
        yield idx, raw.split()


# -- graph ---------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    lines = _content_lines(text, allow_comments=True)
    try:
        line_no, toks = next(lines)
    except StopIteration:
        raise ParseError(1, "missing `p edge <n> <m>` header") from None
    if len(toks) != 4 or toks[0] != "p" or toks[1] != "edge":
        raise ParseError(line_no, "expected `p edge <n> <m>`")
    n = _int_token(toks[2], line_no, "vertex count")
    m = _int_token(toks[3], line_no, "edge count")
    if n < 0 or m < 0:
        raise ParseError(line_no, "counts must be nonnegative")
    edges: list[tuple[int, int]] = []
    # Edge {u, v} with u < v has key u * stride + v.
    seen: set[int] = set()
    stride = n + 1
    last = line_no
    for line_no, toks in lines:
        last = line_no
        if toks[0] != "e":
            raise ParseError(line_no, f"expected an `e <u> <v>` line, got {toks[0]!r}")
        if len(edges) == m:
            raise ParseError(line_no, f"more than the declared {m} edges")
        if len(toks) != 3:
            raise ParseError(line_no, "expected `e <u> <v>`")
        # int() inline for speed; _int_token only words the error.
        try:
            u = int(toks[1])
            v = int(toks[2])
        except ValueError:
            u = _int_token(toks[1], line_no, "endpoint")
            v = _int_token(toks[2], line_no, "endpoint")
        if u == v:
            raise ParseError(line_no, f"self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(line_no, f"endpoint out of range 1..{n}")
        key = u * stride + v if u < v else v * stride + u
        if key in seen:
            raise ParseError(line_no, f"duplicate edge {u} {v}")
        seen.add(key)
        edges.append((u - 1, v - 1))
    if len(edges) != m:
        raise ParseError(last + 1, f"expected {m} edges, found {len(edges)}")
    return build(n, edges)


# Maps the digits of bin() to the 0/1 bytes that itertools.compress selects by.
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def write_graph(g: Graph) -> str:
    # One join per row: the binary digits of u's row above u, least first,
    # select the 1-based ids of u's later neighbors, in increasing order.
    ids = [str(v) for v in range(g.n + 1)]
    out = [f"p edge {g.n} {g.edge_count}"]
    for u, row in enumerate(g.masks, 1):
        above = row >> u
        if above:
            head = f"e {u} "
            picks = bin(above)[:1:-1].encode().translate(_DIGIT_BITS)
            out.append(head + ("\n" + head).join(compress(ids[u + 1:], picks)))
    return "\n".join(out) + "\n"


# -- cut family ------------------------------------------------------------


def parse_cut(text: str) -> CutFamily:
    lines = _content_lines(text, allow_comments=False)
    try:
        line_no, toks = next(lines)
    except StopIteration:
        raise ParseError(1, "missing `cut <kind> <M> <t>` header") from None
    if len(toks) != 4 or toks[0] != "cut":
        raise ParseError(line_no, "expected `cut <kind> <M> <t>`")
    kind = toks[1]
    if kind not in (STRUCTURE, SUBSTRUCTURE):
        raise ParseError(line_no, f"kind must be structure or substructure, got {kind!r}")
    m = _int_token(toks[2], line_no, "leaf bound")
    t = _int_token(toks[3], line_no, "element count")
    if m < 0 or t < 0:
        raise ParseError(line_no, "counts must be nonnegative")
    stars: list[Star] = []
    used: set[int] = set()
    last = line_no
    for line_no, toks in lines:
        last = line_no
        if toks[0] != "s":
            raise ParseError(line_no, "expected an `s <center> <leaf>...` line")
        if len(stars) == t:
            raise ParseError(line_no, f"more than the declared {t} elements")
        ids = [_int_token(tok, line_no, "vertex id") for tok in toks[1:]]
        if not ids:
            raise ParseError(line_no, "element line needs a center")
        if any(x < 1 for x in ids):
            raise ParseError(line_no, "vertex ids are 1-based")
        try:
            star = Star(ids[0] - 1, tuple(x - 1 for x in ids[1:]))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        if kind == STRUCTURE and len(star.leaves) != m:
            raise ParseError(line_no, f"structure elements need exactly {m} leaves")
        if kind == SUBSTRUCTURE and len(star.leaves) > m:
            raise ParseError(line_no, f"substructure elements allow at most {m} leaves")
        if not used.isdisjoint(ids):
            x = next(x for x in ids if x in used)
            raise ParseError(line_no, f"vertex {x} appears in two elements")
        used.update(ids)
        stars.append(star)
    if len(stars) != t:
        raise ParseError(last + 1, f"expected {t} elements, found {len(stars)}")
    return CutFamily(kind, m, tuple(stars))


def write_cut(family: CutFamily) -> str:
    out = [f"cut {family.kind} {family.m} {len(family.elements)}"]
    for s in family.elements:
        ids = " ".join(str(v + 1) for v in (s.center, *s.leaves))
        out.append(f"s {ids}")
    return "\n".join(out) + "\n"


# -- 3dm instance ----------------------------------------------------------


def parse_3dm(text: str) -> ThreeDMInstance:
    lines = _content_lines(text, allow_comments=False)
    try:
        line_no, toks = next(lines)
    except StopIteration:
        raise ParseError(1, "missing `3dm <n> <t>` header") from None
    if len(toks) != 3 or toks[0] != "3dm":
        raise ParseError(line_no, "expected `3dm <n> <t>`")
    n = _int_token(toks[1], line_no, "ground-set size")
    t = _int_token(toks[2], line_no, "triple count")
    if n < 1:
        raise ParseError(line_no, "ground-set size must be at least 1")
    if t < 0:
        raise ParseError(line_no, "triple count must be nonnegative")
    triples: list[tuple[int, int, int]] = []
    last = line_no
    for line_no, toks in lines:
        last = line_no
        if toks[0] != "t":
            raise ParseError(line_no, "expected a `t <r> <b> <y>` line")
        if len(triples) == t:
            raise ParseError(line_no, f"more than the declared {t} triples")
        if len(toks) != 4:
            raise ParseError(line_no, "expected `t <r> <b> <y>`")
        r = _int_token(toks[1], line_no, "coordinate")
        b = _int_token(toks[2], line_no, "coordinate")
        y = _int_token(toks[3], line_no, "coordinate")
        for c in (r, b, y):
            if not 1 <= c <= n:
                raise ParseError(line_no, f"coordinate {c} out of range 1..{n}")
        triples.append((r, b, y))
    if len(triples) != t:
        raise ParseError(last + 1, f"expected {t} triples, found {len(triples)}")
    return ThreeDMInstance(n, tuple(triples))


def write_3dm(inst: ThreeDMInstance) -> str:
    out = [f"3dm {inst.n} {len(inst.triples)}"]
    for r, b, y in inst.triples:
        out.append(f"t {r} {b} {y}")
    return "\n".join(out) + "\n"


# -- role map ----------------------------------------------------------------


def parse_roles(text: str) -> tuple[VertexRole, ...]:
    roles: list[VertexRole] = []
    for line_no, toks in _content_lines(text, allow_comments=False):
        if toks[0] != "v":
            raise ParseError(line_no, "expected a `v <id> <tag> <i> [<j>]` line")
        if len(toks) not in (4, 5):
            raise ParseError(line_no, "expected `v <id> <tag> <i> [<j>]`")
        vid = _int_token(toks[1], line_no, "vertex id")
        if vid != len(roles) + 1:
            raise ParseError(line_no, f"vertex ids must run 1,2,...; got {vid}")
        tag = toks[2]
        i = _int_token(toks[3], line_no, "role index")
        j = _int_token(toks[4], line_no, "role index") if len(toks) == 5 else None
        try:
            roles.append(VertexRole(tag, i, j))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    if not roles:
        raise ParseError(1, "role map is empty")
    return tuple(roles)


def write_roles(roles: tuple[VertexRole, ...]) -> str:
    out = []
    for vid, role in enumerate(roles, start=1):
        if role.j is None:
            out.append(f"v {vid} {role.tag} {role.i}")
        else:
            out.append(f"v {vid} {role.tag} {role.i} {role.j}")
    return "\n".join(out) + "\n"
