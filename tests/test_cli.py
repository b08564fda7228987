from __future__ import annotations

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
    write_3dm,
    write_graph,
)
from starcut.cli import run

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
# the vertex cover gadget of P3 with k=1 (M defaults to the max degree, 2)
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
    assert capsys.readouterr().err.startswith("error:")


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
    code = run(["oracle", "kappa", "--graph", g, "--M", "1", "--tmax", "3",
                "--size-cap", "16"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "kappa structure 1 = 2"


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


def test_missing_file_is_an_error(capsys):
    assert run(["solve", "--graph", "/nonexistent.graph", "--M", "1", "--tmax", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_reports_line(files, capsys):
    g = files("bad.graph", "p edge 2 1\ne 1 1\n")
    assert run(["oracle", "vc", "--graph", g, "--k", "1"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit) as ei:
        run(["nope"])
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
