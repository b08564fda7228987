from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcut import (
    STRUCTURE,
    SUBSTRUCTURE,
    CutFamily,
    ParseError,
    Star,
    ThreeDMInstance,
    VertexCoverInstance,
    build,
    complete,
    cycle,
    gen_random_graph,
    parse_3dm,
    parse_cut,
    parse_graph,
    parse_roles,
    path,
    reduce_3dm,
    reduce_vertex_cover,
    star,
    write_3dm,
    write_cut,
    write_graph,
    write_roles,
)


def _line_of(excinfo) -> int:
    return excinfo.value.line


# -- graph -----------------------------------------------------------------


@pytest.mark.parametrize("g", [build(0, []), build(1, []), path(4), cycle(5), complete(4), star(5)])
def test_graph_roundtrip(g):
    text = write_graph(g)
    assert parse_graph(text) == g
    assert write_graph(parse_graph(text)) == text


def _edge_by_edge_text(g):
    # The writer's reference: one line per edge of Graph.edges().
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "n,p,seed",
    [
        (0, 0.5, 0),
        (1, 0.5, 0),
        (2, 0.0, 0),  # two isolated vertices
        (9, 0.2, 3),
        (12, 0.5, 1),
        (64, 0.1, 5),
        (65, 0.05, 1),
        (66, 1.0, 0),  # complete: every row is all ones above u
        (70, 0.01, 4),  # 35 isolated vertices
        (100, 0.02, 2),
        (130, 0.3, 3),
    ],
)
def test_write_graph_equals_the_edge_by_edge_text(n, p, seed):
    g = gen_random_graph(n, p, seed)
    text = write_graph(g)
    assert text == _edge_by_edge_text(g)
    assert parse_graph(text) == g


def test_graph_comments_skipped():
    text = "c a triangle\np edge 3 3\nc the edges\ne 1 2\ne 1 3\ne 2 3\n"
    assert parse_graph(text) == complete(3)
    # the writer emits no comments, so the canonical form differs here
    assert write_graph(parse_graph(text)) == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


@pytest.mark.parametrize(
    "text,line,hint",
    [
        ("", 1, "missing"),
        ("p edges 3 2\ne 1 2\ne 2 3\n", 1, "expected `p edge"),
        ("p edge 3\n", 1, "expected `p edge"),
        ("p edge -1 0\n", 1, "nonnegative"),
        ("p edge x 0\n", 1, "integer"),
        ("p edge 3 1\n\ne 1 2\n", 2, "blank"),
        ("p edge 3 1\ne 2 2\n", 2, "self-loop"),
        ("p edge 3 1\ne 1 4\n", 2, "out of range"),
        ("p edge 3 1\ne 0 2\n", 2, "out of range"),
        ("p edge 3 2\ne 1 2\ne 2 1\n", 3, "duplicate"),
        ("p edge 3 1\ne 1 2\ne 2 3\n", 3, "more than the declared"),
        ("p edge 3 2\ne 1 2\n", 3, "expected 2 edges, found 1"),
        ("p edge 3 0\n", 1, None),  # valid: no error expected marker below
        ("p edge 3 1\nx 1 2\n", 2, "expected an `e"),
        ("p edge 3 1\ne 1\n", 2, "expected `e <u> <v>`"),
        ("p edge 3 1\ne 1 x\n", 2, "integer"),
    ],
)
def test_graph_malformed(text, line, hint):
    if hint is None:
        parse_graph(text)
        return
    with pytest.raises(ParseError) as ei:
        parse_graph(text)
    assert _line_of(ei) == line
    assert hint in str(ei.value)


def test_graph_count_mismatch_points_past_header():
    with pytest.raises(ParseError) as ei:
        parse_graph("p edge 3 2\n")
    assert _line_of(ei) == 2


# -- cut family --------------------------------------------------------------


@pytest.mark.parametrize(
    "fam",
    [
        CutFamily(STRUCTURE, 2, (Star(0, (1, 3)), Star(4, (2, 5)))),
        CutFamily(SUBSTRUCTURE, 3, (Star(0, ()), Star(4, (2,)))),
        CutFamily(STRUCTURE, 0, (Star(2, ()),)),
        CutFamily(SUBSTRUCTURE, 1, ()),
    ],
)
def test_cut_roundtrip(fam):
    text = write_cut(fam)
    assert parse_cut(text) == fam
    assert write_cut(parse_cut(text)) == text


def test_cut_orientation_preserved():
    # a center larger than its leaf must survive the round trip unflipped
    fam = parse_cut("cut structure 1 1\ns 5 3\n")
    assert fam.elements == (Star(4, (2,)),)
    assert write_cut(fam) == "cut structure 1 1\ns 5 3\n"


@pytest.mark.parametrize(
    "text,line,hint",
    [
        ("", 1, "missing"),
        ("cut star 2 1\ns 1 2 3\n", 1, "kind must be"),
        ("cut structure 2\n", 1, "expected `cut"),
        ("cut structure 2 1\nc hi\n", 2, "expected an `s"),
        ("cut structure 2 1\n\n", 2, "blank"),
        ("cut structure 2 1\ns 1 3\n", 2, "exactly 2 leaves"),
        ("cut substructure 1 1\ns 1 2 3\n", 2, "at most 1"),
        ("cut substructure 2 1\ns 1 3 2\n", 2, "strictly increasing"),
        ("cut substructure 2 1\ns 2 2 3\n", 2, "center repeated"),
        ("cut substructure 2 1\ns 0 1\n", 2, "1-based"),
        ("cut substructure 2 1\ns\n", 2, "needs a center"),
        ("cut substructure 2 2\ns 1 2\ns 3 2\n", 3, "appears in two elements"),
        ("cut substructure 2 2\ns 1 2\n", 3, "expected 2 elements"),
        ("cut substructure 2 1\ns 1 2\ns 3 4\n", 3, "more than the declared"),
        ("cut structure -1 0\n", 1, "nonnegative"),
    ],
)
def test_cut_malformed(text, line, hint):
    with pytest.raises(ParseError) as ei:
        parse_cut(text)
    assert _line_of(ei) == line
    assert hint in str(ei.value)


# -- 3dm ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "inst",
    [
        ThreeDMInstance(1, ((1, 1, 1),)),
        ThreeDMInstance(2, ((1, 1, 1), (2, 2, 2), (1, 2, 2))),
        ThreeDMInstance(2, ((1, 1, 1), (1, 1, 1))),  # duplicates are data
        ThreeDMInstance(3, ()),
    ],
)
def test_3dm_roundtrip(inst):
    text = write_3dm(inst)
    assert parse_3dm(text) == inst
    assert write_3dm(parse_3dm(text)) == text


def test_3dm_preserves_triple_order():
    inst = parse_3dm("3dm 2 2\nt 2 2 2\nt 1 1 1\n")
    assert inst.triples == ((2, 2, 2), (1, 1, 1))


@pytest.mark.parametrize(
    "text,line,hint",
    [
        ("", 1, "missing"),
        ("3dm 0 0\n", 1, "at least 1"),
        ("3dm 2 -1\n", 1, "nonnegative"),
        ("3dm 2 1\nt 1 2\n", 2, "expected `t"),
        ("3dm 2 1\nt 1 2 3\n", 2, "out of range"),
        ("3dm 2 1\nx 1 2 2\n", 2, "expected a `t"),
        ("3dm 2 2\nt 1 1 1\n", 3, "expected 2 triples"),
        ("3dm 2 1\nt 1 1 1\nt 2 2 2\n", 3, "more than the declared"),
        ("3dm 2\n", 1, "expected `3dm"),
    ],
)
def test_3dm_malformed(text, line, hint):
    with pytest.raises(ParseError) as ei:
        parse_3dm(text)
    assert _line_of(ei) == line
    assert hint in str(ei.value)


# -- roles ---------------------------------------------------------------------


def test_roles_roundtrip_through_reductions():
    red = reduce_3dm(ThreeDMInstance(1, ((1, 1, 1),)), 5, allow_unrestricted=True)
    text = write_roles(red.roles)
    assert parse_roles(text) == red.roles
    assert write_roles(parse_roles(text)) == text

    red_vc = reduce_vertex_cover(VertexCoverInstance(path(3), 1))
    text = write_roles(red_vc.roles)
    assert parse_roles(text) == red_vc.roles


@pytest.mark.parametrize(
    "text,line,hint",
    [
        ("", 1, "empty"),
        ("v 2 TRIPLE 1\n", 1, "must run 1,2,"),
        ("v 1 TRIPLE 1\nv 3 ELEM 1\n", 2, "must run 1,2,"),
        ("v 1 CLIQ 1\n", 1, "takes two indices"),
        ("v 1 TRIPLE 1 2\n", 1, "takes one index"),
        ("v 1 WAT 1\n", 1, "tag"),
        ("v 1 TRIPLE 0\n", 1, None),
        ("w 1 TRIPLE 1\n", 1, "expected a `v"),
        ("v 1 TRIPLE\n", 1, "expected `v"),
    ],
)
def test_roles_malformed(text, line, hint):
    with pytest.raises(ParseError) as ei:
        parse_roles(text)
    assert _line_of(ei) == line
    if hint is not None:
        assert hint in str(ei.value)


def test_parse_error_carries_fields():
    with pytest.raises(ParseError) as ei:
        parse_graph("p edge 2 1\ne 1 1\n")
    err = ei.value
    assert err.line == 2
    assert err.reason == "self-loop at vertex 1"
    assert str(err) == "line 2: self-loop at vertex 1"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9), st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.integers(0, 10_000))
def test_graph_roundtrip_random(n, p, seed):
    g = gen_random_graph(n, p, seed)
    text = write_graph(g)
    assert parse_graph(text) == g
    assert write_graph(parse_graph(text)) == text


@st.composite
def _valid_cut_texts(draw):
    kind = draw(st.sampled_from([STRUCTURE, SUBSTRUCTURE]))
    m = draw(st.integers(0, 3))
    ids = iter(draw(st.permutations(range(16))))
    stars = []
    for _ in range(draw(st.integers(0, 4))):
        k = m if kind == STRUCTURE else draw(st.integers(0, m))
        center = next(ids)
        stars.append(Star(center, tuple(sorted(next(ids) for _ in range(k)))))
    return write_cut(CutFamily(kind, m, tuple(stars)))


_CUT_TOKENS = ["s", "c", "cut", STRUCTURE, SUBSTRUCTURE, "-1", "0", "1", "2", "3", "7", "12", "x"]
_CUT_LINES = ["", "s", "s 1", "s 1 1", "c hi", "cut structure 1 1"]


@st.composite
def _mutated_cut_texts(draw):
    rows = [line.split() for line in draw(_valid_cut_texts()).splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "dup", "swap", "replace"]))
        if not any(rows) or draw(st.booleans()):
            # a whole line
            a = draw(st.integers(0, max(len(rows) - 1, 0)))
            if not rows or op == "replace":
                rows[a:a + 1] = [draw(st.sampled_from(_CUT_LINES)).split()]
            elif op == "drop":
                del rows[a]
            elif op == "dup":
                rows.insert(a, list(rows[a]))
            else:
                b = draw(st.integers(0, len(rows) - 1))
                rows[a], rows[b] = rows[b], rows[a]
            continue
        # one token of a nonempty line
        row = draw(st.sampled_from([r for r in rows if r]))
        at = draw(st.integers(0, len(row) - 1))
        if op == "drop":
            del row[at]
        elif op == "dup":
            row.insert(at, row[at])
        elif op == "swap":
            b = draw(st.integers(0, len(row) - 1))
            row[at], row[b] = row[b], row[at]
        else:
            row[at] = draw(st.sampled_from(_CUT_TOKENS))
    return "\n".join(" ".join(r) for r in rows) + "\n"


@settings(max_examples=400, deadline=None)
@given(_mutated_cut_texts())
def test_parse_cut_mutations_parse_back_or_name_a_line(text):
    # A mutated text either parses to the family it spells out, canonical
    # byte for byte, or fails as a ParseError on a line of the text or the
    # one after it; no other exception may escape.
    try:
        fam = parse_cut(text)
    except ParseError as err:
        assert 1 <= err.line <= len(text.splitlines()) + 1
    else:
        assert write_cut(fam) == text
