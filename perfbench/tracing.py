"""Spans, counters and the per-call watchdog, all kept in the bench's process.

The bench reaches every layer through a caller object.  `Direct` just calls
through; `Tracer` records a span around each call (name, start, end, parent
span, op id) and keeps the spans in memory until the run writes them out.

For calls that one layer makes into another, `Tracer.install` replaces the
module attributes those callers resolve at call time with recording
wrappers, and `Tracer.remove` puts the originals back.  `mask_connected` runs
hundreds of thousands of times per solve, so its wrapper only counts calls,
splits and time, and charges the time to the enclosing span as child time.
"""

from __future__ import annotations

import json
import signal
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

perf = time.perf_counter


class WatchdogExpired(Exception):
    """A watched call ran past its cap and was stopped."""


def _expire(signum, frame):
    raise WatchdogExpired


def arm_watchdog_signal() -> None:
    """Route SIGALRM to WatchdogExpired; call once before the first op."""
    signal.signal(signal.SIGALRM, _expire)


class watchdog:
    """Stop the body with WatchdogExpired once `cap` seconds have passed.

    Uses the process's one real-time interval timer, so watched sections
    must not nest.
    """

    def __init__(self, cap: float):
        self.cap = cap

    def __enter__(self):
        signal.setitimer(signal.ITIMER_REAL, self.cap)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


class Direct:
    """Untraced caller: no spans, no counters."""

    op = -1

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def unwind(self) -> None:
        pass


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    child: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Traced caller: spans for every call plus named counters."""

    def __init__(self):
        self.op = -1
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.op,
                    parent.sid if parent else None, perf())
        self.spans.append(span)
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf()
            self._stack.pop()
            if parent is not None:
                parent.child += span.end - span.start

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def unwind(self) -> None:
        """Close spans left open when the watchdog fired inside a finally."""
        now = perf()
        while self._stack:
            span = self._stack.pop()
            span.end = span.end or now

    # -- wrappers on module attributes ------------------------------------

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _counted_mask_connected(self, fn):
        counts = self.counts
        stack = self._stack

        def mask_connected(g, mask):
            t0 = perf()
            connected = fn(g, mask)
            dt = perf() - t0
            counts["graph.mask_connected.calls"] += 1
            counts["graph.mask_connected.self_s"] += dt
            if not connected:
                counts["graph.mask_connected.split"] += 1
            if stack:
                stack[-1].child += dt
            return connected
        return mask_connected

    def install(self, sc) -> None:
        """Wrap the attributes that starcut's own modules call through."""
        plan = [
            (sc.solver, "mask_connected", self._counted_mask_connected),
            (sc.cuts, "mask_connected", self._counted_mask_connected),
            (sc.formats, "build", lambda f: self._spanned("graph.build", f)),
            (sc.reduce, "build", lambda f: self._spanned("graph.build", f)),
            (sc.solver, "is_structure_cut", lambda f: self._spanned("cuts.verify", f)),
            (sc.solver, "is_substructure_cut",
             lambda f: self._spanned("cuts.verify", f)),
            (sc.reduce, "audit_reduced_3dm", lambda f: self._spanned("reduce.audit", f)),
            (sc.reduce, "audit_reduced_vc", lambda f: self._spanned("reduce.audit", f)),
        ]
        for module, attr, make in plan:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, make(original))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self, setup: bool = False) -> dict[str, float]:
        """Self time per span name, over the ops or over set-up (op -1)."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if (s.op < 0) == setup:
                out[s.name] += s.self_s
        return out

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            if s.op >= 0:
                out[s.name] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
