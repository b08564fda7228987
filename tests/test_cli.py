from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from starcut import (
    complete,
    cycle,
    is_structure_cut,
    parse_3dm,
    parse_cut,
    parse_graph,
    parse_roles,
    path,
    solve_3dm,
    verify_matching,
    write_3dm,
    write_graph,
)
from starcut.cli import _build_parser, run

SRC = Path(__file__).resolve().parent.parent / "src"

C5 = write_graph(cycle(5))
P3 = write_graph(path(3))
K3 = write_graph(complete(3))
ONE_3DM = "3dm 1 1\nt 1 1 1\n"
# every element occurs twice, no perfect matching
BALANCED_3DM = "3dm 2 4\nt 1 1 1\nt 1 2 2\nt 2 1 2\nt 2 2 1\n"
# sha256 of the .graph and .roles texts of the M=5 matching gadget of ONE_3DM
ONE_3DM_GRAPH_SHA256 = "4fb3ea56c1548052998c35cc397dd25501c4ddf410fe2d02e0f861bcb512a93a"
ONE_3DM_ROLES_SHA256 = "e5b67f0b86c990ad20ca18bda44b69e8767b52c9acaef0579dcb993e6c7f0075"
# the vertex cover gadget of P3 with k=1 (M is the max degree, 2)
P3_VC_GRAPH = (
    "p edge 12 20\n"
    "e 1 2\ne 1 4\ne 1 7\ne 1 10\ne 2 3\ne 2 5\ne 2 8\ne 2 11\n"
    "e 3 6\ne 3 9\ne 3 12\ne 4 5\ne 4 6\ne 5 6\ne 7 8\ne 7 9\n"
    "e 8 9\ne 10 11\ne 10 12\ne 11 12\n"
)
P3_VC_ROLES = (
    "v 1 ORIG 1\nv 2 ORIG 2\nv 3 ORIG 3\n"
    "v 4 CLIQ 1 1\nv 5 CLIQ 2 1\nv 6 CLIQ 3 1\n"
    "v 7 CLIQ 1 2\nv 8 CLIQ 2 2\nv 9 CLIQ 3 2\n"
    "v 10 CLIQ 1 3\nv 11 CLIQ 2 3\nv 12 CLIQ 3 3\n"
)


@pytest.fixture
def files(tmp_path):
    def put(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return put


def test_solve_structure(files, capsys):
    g = files("c5.graph", C5)
    code = run(["solve", "--graph", g, "--M", "1", "--tmax", "3"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "kappa structure 1 = 2"
    fam = parse_cut("\n".join(out[1:]) + "\n")
    assert is_structure_cut(cycle(5), fam, 1)


def test_solve_no_cut_within_budget(files, capsys):
    g = files("c5.graph", C5)
    code = run(["solve", "--graph", g, "--M", "2", "--sub", "--tmax", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert out == "kappa substructure 2 = none\n"


def test_solve_inconclusive_on_deadline(files, capsys):
    g = files("c5.graph", C5)
    code = run(["solve", "--graph", g, "--M", "1", "--tmax", "3", "--time-limit", "1e-9"])
    assert code == 3
    assert capsys.readouterr().out == "kappa structure 1 = none\n"


@pytest.mark.parametrize("limit", ["nan", "-1"])
def test_solve_rejects_a_bad_time_limit(files, capsys, limit):
    g = files("c5.graph", C5)
    code = run(["solve", "--graph", g, "--M", "1", "--tmax", "3", "--time-limit", limit])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "time_limit" in captured.err


def test_verify_yes_and_no(files, capsys):
    g = files("c5.graph", C5)
    good = files("good.cut", "cut structure 1 2\ns 1 2\ns 3 4\n")
    bad = files("bad.cut", "cut structure 1 1\ns 1 2\n")
    assert run(["verify", "--graph", g, "--cut", good]) == 0
    assert run(["verify", "--graph", g, "--cut", bad]) == 1
    assert capsys.readouterr().out == "YES\nNO\n"


def test_verify_rejects_out_of_range_ids(files, capsys):
    g = files("p3.graph", P3)
    cut = files("big.cut", "cut structure 1 1\ns 7 8\n")
    assert run(["verify", "--graph", g, "--cut", cut]) == 2
    assert capsys.readouterr().err == (
        "error: cut references vertex 7 but the graph has 3 vertices\n"
    )
    # an id past the graph wins over a missing edge in an earlier star
    cut = files("late.cut", "cut substructure 1 2\ns 1 3\ns 8\n")
    assert run(["verify", "--graph", g, "--cut", cut]) == 2
    assert capsys.readouterr().err == (
        "error: cut references vertex 8 but the graph has 3 vertices\n"
    )


def test_reduce_3dm_writes_gadget(files, tmp_path, capsys):
    src = files("one.3dm", ONE_3DM)
    prefix = str(tmp_path / "out")
    code = run(["reduce-3dm", "--in", src, "--out-prefix", prefix, "--allow-unrestricted"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        f"wrote {prefix}.graph {prefix}.roles (46 vertices, 188 edges, target 1)\n"
    )
    graph_text = (tmp_path / "out.graph").read_text()
    roles_text = (tmp_path / "out.roles").read_text()
    assert hashlib.sha256(graph_text.encode()).hexdigest() == ONE_3DM_GRAPH_SHA256
    assert hashlib.sha256(roles_text.encode()).hexdigest() == ONE_3DM_ROLES_SHA256
    assert parse_graph(graph_text).n == 46
    assert len(parse_roles(roles_text)) == 46


def test_reduce_3dm_restriction_gate(files, tmp_path, capsys):
    src = files("one.3dm", ONE_3DM)
    code = run(["reduce-3dm", "--in", src, "--out-prefix", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_reduce_vc_writes_gadget(files, tmp_path, capsys):
    g = files("p3.graph", P3)
    prefix = str(tmp_path / "vc")
    code = run(["reduce-vc", "--graph", g, "--k", "1", "--out-prefix", prefix])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        f"wrote {prefix}.graph {prefix}.roles (12 vertices, 20 edges, target 1)\n"
    )
    assert (tmp_path / "vc.graph").read_text() == P3_VC_GRAPH
    assert (tmp_path / "vc.roles").read_text() == P3_VC_ROLES


def test_oracle_3dm(files, capsys):
    yes = files("one.3dm", ONE_3DM)
    no = files("bal.3dm", BALANCED_3DM)
    assert run(["oracle", "3dm", "--in", yes]) == 0
    assert run(["oracle", "3dm", "--in", no]) == 1
    assert capsys.readouterr().out == "matching 1\nmatching none\n"


def test_oracle_vc(files, capsys):
    p3 = files("p3.graph", P3)
    k3 = files("k3.graph", K3)
    assert run(["oracle", "vc", "--graph", p3, "--k", "1"]) == 0
    assert run(["oracle", "vc", "--graph", k3, "--k", "1"]) == 1
    assert capsys.readouterr().out == "cover 2\ncover none\n"


def test_oracle_kappa_matches_solver(files, capsys):
    g = files("c5.graph", C5)
    code = run(["oracle", "kappa", "--graph", g, "--M", "1", "--tmax", "3"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "kappa structure 1 = 2"
    fam = parse_cut("\n".join(out[1:]) + "\n")
    assert is_structure_cut(cycle(5), fam, 1)


def test_oracle_kappa_refuses_oversize(files, capsys):
    g = files("c16.graph", write_graph(cycle(16)))
    code = run(["oracle", "kappa", "--graph", g, "--M", "1", "--tmax", "3"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_roundtrip_3dm_pass(files, tmp_path, capsys):
    src = files("one.3dm", ONE_3DM)
    prefix = str(tmp_path / "rt")
    code = run(["roundtrip", "3dm", "--in", src, "--allow-unrestricted",
                "--out-prefix", prefix])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == [
        "decode 1",
        "decision-source YES",
        "decision-gadget YES",
        "verdict PASS",
    ]
    report = (tmp_path / "rt.report").read_text()
    assert report == "decision-source YES\ndecision-gadget YES\nverdict PASS\n"
    assert (tmp_path / "rt.graph").exists()
    assert (tmp_path / "rt.roles").exists()


def test_roundtrip_3dm_time_limit_zero_is_inconclusive(files, tmp_path, capsys):
    src = files("one.3dm", ONE_3DM)
    prefix = str(tmp_path / "rt")
    code = run(["roundtrip", "3dm", "--in", src, "--allow-unrestricted",
                "--time-limit", "0", "--out-prefix", prefix])
    out = capsys.readouterr().out.splitlines()
    assert code == 3
    assert out == [
        "decision-source YES",
        "decision-gadget INCONCLUSIVE",
        "verdict INCONCLUSIVE",
    ]
    assert (tmp_path / "rt.report").read_text() == (
        "decision-source YES\ndecision-gadget INCONCLUSIVE\nverdict INCONCLUSIVE\n"
    )


def test_roundtrip_vc_writes_out_prefix_files(files, tmp_path, capsys):
    g = files("p3.graph", P3)
    prefix = str(tmp_path / "rt")
    code = run(["roundtrip", "vc", "--graph", g, "--k", "1", "--out-prefix", prefix])
    assert code == 0
    assert capsys.readouterr().out == (
        "decode 2\ndecision-source YES\ndecision-gadget YES\nverdict PASS\n"
    )
    assert (tmp_path / "rt.graph").read_text() == P3_VC_GRAPH
    assert (tmp_path / "rt.roles").read_text() == P3_VC_ROLES
    assert (tmp_path / "rt.report").read_text() == (
        "decision-source YES\ndecision-gadget YES\nverdict PASS\n"
    )


def test_roundtrip_vc_gadget_defect_is_reported(files, capsys):
    # k=1 is a NO instance for the triangle, yet the gadget has a 1-cut:
    # the roundtrip must surface the disagreement, not hide it
    g = files("k3.graph", K3)
    code = run(["roundtrip", "vc", "--graph", g, "--k", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out == [
        "decode none",
        "decision-source NO",
        "decision-gadget YES",
        "verdict FAIL",
    ]


def test_roundtrip_vc_induced_reading_passes(files, capsys):
    g = files("k3.graph", K3)
    code = run(["roundtrip", "vc", "--graph", g, "--k", "1", "--induced"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == ["decision-source NO", "decision-gadget NO", "verdict PASS"]


def test_gen_graph_stdout_and_file(files, tmp_path, capsys):
    assert run(["gen", "graph", "--n", "6", "--p", "0.5", "--seed", "4"]) == 0
    text = capsys.readouterr().out
    g = parse_graph(text)
    assert g.n == 6
    out = tmp_path / "g.graph"
    assert run(["gen", "graph", "--n", "6", "--p", "0.5", "--seed", "4",
                "--out", str(out)]) == 0
    assert out.read_text() == text


def test_gen_3dm_unsolvable(files, capsys):
    assert run(["gen", "3dm", "--n", "2", "--unsolvable", "--seed", "3"]) == 0
    inst = parse_3dm(capsys.readouterr().out)
    assert solve_3dm(inst) is None


def test_missing_file_is_an_error(tmp_path, capsys):
    missing = "/nonexistent.source"
    out = str(tmp_path / "x")
    for argv in (
        ["solve", "--graph", missing, "--M", "1", "--tmax", "1"],
        ["oracle", "3dm", "--in", missing],
        ["reduce-vc", "--graph", missing, "--k", "1", "--out-prefix", out],
    ):
        assert run(argv) == 2
        assert "error:" in capsys.readouterr().err


def test_recursion_overflow_is_inconclusive(files, capsys):
    # solve_vertex_cover recurses once per chosen vertex.  On a path of 2400
    # vertices with k = 1200 it takes every other vertex, one level each, so
    # the stack overflows before any answer: exit 3, not NO.
    long_path = files("long.graph", write_graph(path(2400)))
    assert run(["oracle", "vc", "--graph", long_path, "--k", "1200"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_oracle_3dm_answers_a_deep_matching(tmp_path, capsys):
    # A planted matching of 1200 triples, beyond Python's default recursion
    # limit: solve_3dm backtracks on its own stack, so the oracle answers.
    big = str(tmp_path / "big.3dm")
    assert run(["gen", "3dm", "--n", "1200", "--seed", "1", "--out", big]) == 0
    capsys.readouterr()
    assert run(["oracle", "3dm", "--in", big]) == 0
    word, *ids = capsys.readouterr().out.split()
    inst = parse_3dm(Path(big).read_text())
    assert word == "matching"
    assert verify_matching(inst, tuple(int(i) - 1 for i in ids))


def test_parse_error_reports_line(files, capsys):
    g = files("bad.graph", "p edge 2 1\ne 1 1\n")
    bad_3dm = files("bad.3dm", "3dm 2 1\nt 1 2 3\n")
    for argv in (
        ["oracle", "vc", "--graph", g, "--k", "1"],
        ["oracle", "3dm", "--in", bad_3dm],
        ["roundtrip", "3dm", "--in", bad_3dm],
    ):
        assert run(argv) == 2
        assert "line 2" in capsys.readouterr().err


def test_cover_budget_out_of_range_is_an_error(files, tmp_path, capsys):
    g = files("p3.graph", P3)
    out = str(tmp_path / "x")
    for argv in (
        ["reduce-vc", "--graph", g, "--k", "3", "--out-prefix", out],
        ["oracle", "vc", "--graph", g, "--k", "3"],
        ["roundtrip", "vc", "--graph", g, "--k", "3", "--out-prefix", out],
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert "1 <= k < n" in captured.err and not captured.out
    assert not list(tmp_path.glob("x.*"))


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit) as ei:
        run(["nope"])
    assert ei.value.code == 2


_SOLVER_FLAGS = {"--strict-trivial", "--induced", "--time-limit"}
# The option strings of every verb; a flag added or deleted shows up here.
CLI_SURFACE = {
    "solve": {"--graph", "--M", "--sub", "--tmax"} | _SOLVER_FLAGS,
    "verify": {"--graph", "--cut", "--strict-trivial", "--induced"},
    "reduce-3dm": {"--in", "--M", "--out-prefix", "--allow-unrestricted"},
    "reduce-vc": {"--graph", "--k", "--out-prefix"},
    "oracle 3dm": {"--in"},
    "oracle vc": {"--graph", "--k"},
    "oracle kappa": {"--graph", "--M", "--sub", "--tmax", "--strict-trivial",
                     "--induced"},
    "roundtrip 3dm": {"--in", "--M", "--allow-unrestricted", "--out-prefix"}
    | _SOLVER_FLAGS,
    "roundtrip vc": {"--graph", "--k", "--out-prefix"} | _SOLVER_FLAGS,
    "gen graph": {"--n", "--p", "--seed", "--out"},
    "gen 3dm": {"--n", "--extra", "--unsolvable", "--seed", "--out"},
}


def _cli_surface(parser, verb=()):
    """Map each leaf verb path to the set of its option strings, minus -h."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {
            " ".join(verb): {
                o for a in parser._actions for o in a.option_strings
                if o not in ("-h", "--help")
            }
        }
    found = {}
    for action in subs:
        for name, child in action.choices.items():
            found.update(_cli_surface(child, verb + (name,)))
    return found


def test_cli_surface_is_pinned(files):
    assert _cli_surface(_build_parser()) == CLI_SURFACE
    g = files("p3.graph", P3)
    inst = files("one.3dm", ONE_3DM)
    for argv in (
        ["reduce-3dm", "--in", inst, "--M", "4", "--allow-small-m", "--out-prefix", "x"],
        ["roundtrip", "3dm", "--in", inst, "--allow-small-m"],
        ["reduce-vc", "--graph", g, "--k", "1", "--M", "2", "--out-prefix", "x"],
        ["roundtrip", "vc", "--graph", g, "--k", "1", "--M", "2"],
        ["oracle", "kappa", "--graph", g, "--M", "1", "--tmax", "3",
         "--size-cap", "16"],
    ):
        with pytest.raises(SystemExit) as ei:
            run(argv)
        assert ei.value.code == 2


def test_module_entrypoint_smoke(tmp_path):
    out = tmp_path / "g.graph"
    proc = subprocess.run(
        [sys.executable, "-m", "starcut.cli", "gen", "graph",
         "--n", "5", "--p", "1.0", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0
    assert parse_graph(out.read_text()) == complete(5)
