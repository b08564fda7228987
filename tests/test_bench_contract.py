"""The benchmark's tracer patches module globals of starcut by name.

perfbench/tracing.py counts connectivity calls, times verification, graph
construction and gadget audits by replacing `mask_connected`,
`is_structure_cut`, `is_substructure_cut`, `build`, `audit_reduced_3dm` and
`audit_reduced_vc` in the modules that call them.  A refactor that renames
those globals, or calls around them, silently zeroes the per-layer metrics;
these tests catch that.
"""

from __future__ import annotations

import sys
from pathlib import Path

import starcut
from starcut import (
    ThreeDMInstance,
    VertexCoverInstance,
    cycle,
    parse_graph,
    path,
    reduce_3dm,
    reduce_vertex_cover,
    structure_connectivity,
    write_graph,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ONE = ThreeDMInstance(1, ((1, 1, 1),))


def _tracer_class():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return Tracer


def _patched_attributes():
    return {
        (module.__name__, attr): getattr(module, attr)
        for module, attr in [
            (starcut.solver, "mask_connected"),
            (starcut.cuts, "mask_connected"),
            (starcut.solver, "is_structure_cut"),
            (starcut.solver, "is_substructure_cut"),
            (starcut.formats, "build"),
            (starcut.reduce, "build"),
            (starcut.reduce, "audit_reduced_3dm"),
            (starcut.reduce, "audit_reduced_vc"),
        ]
    }


def test_tracer_sees_the_solver_layers_and_restores_them():
    before = _patched_attributes()
    tracer = _tracer_class()()
    tracer.install(starcut)
    try:
        assert all(
            got is not before[key] for key, got in _patched_attributes().items()
        )
        res = structure_connectivity(cycle(6), 1, 6)
    finally:
        tracer.remove()
    assert res.value == 2
    assert tracer.counts["graph.mask_connected.calls"] > 0
    assert any(span.name == "cuts.verify" for span in tracer.spans)
    after = _patched_attributes()
    assert all(after[key] is before[key] for key in before)


def test_tracer_sees_gadget_builds_audits_and_graph_parses():
    tracer = _tracer_class()()
    tracer.install(starcut)
    try:
        red = tracer.call("reduce.build", reduce_3dm, ONE, 5, allow_unrestricted=True)
        text = tracer.call("formats.write", write_graph, red.graph)
        g = tracer.call("formats.parse", parse_graph, text)
        tracer.call("reduce.build", reduce_vertex_cover, VertexCoverInstance(path(3), 1))
    finally:
        tracer.remove()
    assert g == red.graph
    caller = {span.sid: span.name for span in tracer.spans}
    builds = [caller[span.parent] for span in tracer.spans if span.name == "graph.build"]
    audits = [caller[span.parent] for span in tracer.spans if span.name == "reduce.audit"]
    assert builds == ["reduce.build", "formats.parse", "reduce.build"]
    assert audits == ["reduce.build", "reduce.build"]
