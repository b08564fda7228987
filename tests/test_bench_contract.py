"""The benchmark's tracer patches module globals of starcut by name.

perfbench/tracing.py counts connectivity calls and times verification by
replacing `mask_connected`, `is_structure_cut` and `is_substructure_cut` in
the modules that call them.  A refactor that renames those globals, or calls
around them, silently zeroes the per-layer metrics; this test catches that.
"""

from __future__ import annotations

import sys
from pathlib import Path

import starcut
from starcut import cycle, structure_connectivity

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
