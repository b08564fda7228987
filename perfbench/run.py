"""starcut benchmark: one client, one call at a time, from one process.

    python3 perfbench/run.py --workload corpus --seed 7 --seconds 40 --trace 0

Drives the public starcut API of the checkout's src/ on one of three
workloads (see workloads.py).  A set-up is a fresh import of starcut and
starcut.cli, input generation and the reference load.  A run sets up
SETUP_BURST times before the first op and again before each later pass, and
runs whole passes over the workload's ops, starting another pass only while
it fits in --seconds.  Every op's output is checked after each pass, off the
clock.

On a shared machine the same code takes 1.3-2x longer in bursts of a few
seconds, so each time is the best over the run, the cost with the least
interference (as timeit reports it): setup_s is the best set-up, spread
over the run so it sees the same machine as the ops; an op's latency is its
best time over the run's passes, wall_s the sum of those over one pass,
op_p50_ms their median.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes, prints the per-layer metrics of the first traced pass and the
tracing overhead (traced minus untraced wall, both at per-op best times),
and writes that pass's spans to perfbench/out/.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Direct, Tracer, WatchdogExpired, arm_watchdog_signal, perf
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_BURST = 8
# Traced runs alternate at least this many untraced and traced passes.
TRACE_MIN_PAIRS = 2
# Start no op later than this after process start, so a run ends in time.
HARD_STOP_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
                    "op_p50_ms": "ms", "peak_rss_mb": "MB"}
LEVELS = (1, 2, 3, 4)


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    status: Counter = field(default_factory=Counter)
    verdicts: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)  # wrong outputs
    errors: list[str] = field(default_factory=list)  # ops that raised
    aborted: bool = False

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def fresh_import():
    """Import starcut from the checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "starcut" or m.startswith("starcut.")]:
        del sys.modules[name]
    sc = importlib.import_module("starcut")
    importlib.import_module("starcut.cli")
    if not Path(sc.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"starcut imported from {sc.__file__}, not from {SRC}")
    return sc


def run_pass(inputs, call, t_process):
    """Run every op once; failed ops count at the time they took to fail.

    Returns the Pass and the (op, outcome, status) list for check_pass.
    """
    out = Pass()
    results = []
    # Collections inside an op should scan what the op allocated, not the
    # bench's inputs, references and results, which a CLI process lacks.
    gc.collect()
    gc.freeze()
    try:
        for i, op in enumerate(inputs.ops):
            if perf() - t_process > HARD_STOP_S:
                out.aborted = True
                break
            call.op = i
            t0 = perf()
            try:
                got = call.call("bench.op", op.run, call)
            except WatchdogExpired:
                got, status = None, "watchdog"
                call.unwind()
            except Exception as exc:  # an op that raises is a failed op
                got, status = None, "error"
                out.errors.append(f"{op.label}: raised {exc!r}")
            else:
                status = "ok" if got.result.complete else "inconclusive"
            out.latencies.append(perf() - t0)
            results.append((op, got, status))
    finally:
        gc.unfreeze()
    call.op = -1
    return out, results


def check_pass(out: Pass, results) -> None:
    for op, got, status in results:
        if got is not None:
            problem = op.check(got)
            if problem:
                status = "wrong"
                out.problems.append(f"{op.label}: {problem}")
            if got.verdict:
                out.verdicts[got.verdict] += 1
        out.status[status] += 1


def op_best(passes: list[Pass]) -> list[float]:
    """Each op's best latency over the passes that reached it."""
    count = max(len(p.latencies) for p in passes)
    return [min(p.latencies[i] for p in passes if i < len(p.latencies))
            for i in range(count)]


def report_line(name, value, unit, note=""):
    print(f"{name:<40} {value:>14.6g} {unit}{'  ' + note if note else ''}")


def summarize(passes: list[Pass]):
    status = sum((p.status for p in passes), Counter())
    verdicts = sum((p.verdicts for p in passes), Counter())
    attempted = sum(status.values())
    failed = status["watchdog"] + status["error"] + status["wrong"]
    return status, verdicts, attempted, failed


def set_up(workload, seed):
    gc.collect()  # drop the previous set-up's modules off the clock
    t0 = perf()
    sc = fresh_import()
    inputs = workload(sc, seed, Direct())
    return perf() - t0, sc, inputs


def set_up_burst(workload, seed):
    """SETUP_BURST set-ups in a row: the best time, and the last set-up."""
    best = float("inf")
    for _ in range(SETUP_BURST):
        took, sc, inputs = set_up(workload, seed)
        best = min(best, took)
    return best, sc, inputs


def untraced(args, workload, setups, inputs, t_process):
    passes = []
    t_start = perf()
    while True:
        p, results = run_pass(inputs, Direct(), t_process)
        check_pass(p, results)
        passes.append(p)
        elapsed = perf() - t_start
        if p.aborted or elapsed + p.wall > args.seconds:
            break
        setups.append(set_up_burst(workload, args.seed)[0])
    setup_s = min(setups)
    status, verdicts, attempted, failed = summarize(passes)
    lat = op_best(passes)
    wall = sum(lat)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": (attempted - failed) / len(passes) / wall,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = f"{len(lat)} ops x {len(passes)} passes"
    print(f"inputs: {inputs.sizes}")
    walls = sorted(p.wall for p in passes)
    print(f"{len(passes)} passes, {attempted} ops; closed loop, one client; pass walls "
          f"min {walls[0]:.4f} s, median {statistics.median(walls):.4f} s, max {walls[-1]:.4f} s")
    report_line("setup_s", setup_s, "s", f"best of {len(setups) * SETUP_BURST} set-ups, "
                f"{SETUP_BURST} before each pass; median burst best "
                f"{statistics.median(setups):.6f} s")
    report_line("wall_s", wall, "s", f"one pass, ops at their best; {n}")
    report_line("ops_per_s", metrics["ops_per_s"], "1/s", "completed ops")
    report_line("op_p50_ms", metrics["op_p50_ms"], "ms", n)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else 0
    if sum(x > p90 for x in lat) >= 10:
        report_line("op_p90_ms", p90 * 1e3, "ms", n)
    else:
        print(f"{'op_p90_ms':<40} {'-':>14} ms  fewer than 10 of {len(lat)} ops above p90")
    report_line("fail_ratio", failed / attempted, "ratio", f"{failed}/{attempted}")
    report_line("inconclusive_ratio", status["inconclusive"] / attempted,
                "ratio", f"{status['inconclusive']}/{attempted}")
    report_line("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    print("op status: " + ", ".join(f"{k} {v}" for k, v in sorted(status.items())))
    if verdicts:
        print("roundtrip verdicts (FAIL is the documented gadget defect, not a failed op): "
              + ", ".join(f"{k} {v}" for k, v in sorted(verdicts.items())))
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, passes


def level_split(inputs):
    """Outside-in: re-solve each op at t_max = 1..top, difference the times."""
    level_s: dict[int, float] = defaultdict(float)
    problems = []
    for op in inputs.ops:
        before = 0.0
        for t in range(1, op.top + 1):
            t0 = perf()
            try:
                res = op.resolve(t)
            except WatchdogExpired:
                problems.append(f"{op.label}: t_max={t} stopped by the watchdog")
                break
            took = perf() - t0
            if t < op.top and (res.value is not None or not res.complete):
                problems.append(f"{op.label}: t_max={t} gave value {res.value}")
            level_s[t] += took - before
            before = took
    return level_s, problems


def traced(args, sc, workload, t_process):
    tracer = Tracer()
    inputs = workload(sc, args.seed, tracer)
    plain: list[Pass] = []
    spanned: list[Pass] = []
    t_start = perf()
    while True:
        p, results = run_pass(inputs, Direct(), t_process)
        check_pass(p, results)
        plain.append(p)
        caller = Tracer() if spanned else tracer  # spans kept from the first only
        caller.install(sc)
        try:
            p, results = run_pass(inputs, caller, t_process)
        finally:
            caller.remove()
        check_pass(p, results)
        spanned.append(p)
        elapsed = perf() - t_start
        if p.aborted or plain[-1].aborted:
            break
        if len(spanned) >= TRACE_MIN_PAIRS and elapsed * (1 + 1 / len(spanned)) > args.seconds:
            break
    p = spanned[0]
    plain_wall, traced_wall = sum(op_best(plain)), sum(op_best(spanned))
    splits = inputs.ops[0].resolve is not None
    level_s = dict.fromkeys(LEVELS, 0.0)
    if splits:
        level_s, more = level_split(inputs)
        p.problems += more
    _, _, attempted, failed = summarize([p])

    self_s = tracer.self_times()
    calls = tracer.call_counts()
    counts = tracer.counts
    mc_calls = counts["graph.mask_connected.calls"]
    metrics = {
        "graph.mask_connected.calls": (mc_calls, "count"),
        "graph.mask_connected.self_s": (counts["graph.mask_connected.self_s"], "s"),
        "graph.mask_connected.disconnected_ratio": (
            counts["graph.mask_connected.split"] / mc_calls if mc_calls else 0.0, "ratio"),
        "graph.build.calls": (calls["graph.build"], "count"),
        "graph.build.s": (self_s["graph.build"], "s"),
        "cuts.verify.calls": (calls["cuts.verify"], "count"),
        "cuts.verify.s": (self_s["cuts.verify"], "s"),
        "solver.solve.calls": (calls["solver.solve"], "count"),
        "solver.solve.s": (self_s["solver.solve"], "s"),
        "solver.found": (counts["solver.found"], "count"),
        "solver.ruled_out": (counts["solver.ruled_out"], "count"),
        "solver.inconclusive": (counts["solver.inconclusive"], "count"),
        **{f"solver.level_s.t{t}": (level_s[t], "s") for t in LEVELS},
        "formats.parse.s": (self_s["formats.parse"], "s"),
        "formats.parse.bytes": (counts["formats.parse.bytes"], "bytes"),
        "formats.write.s": (self_s["formats.write"], "s"),
        "formats.write.bytes": (counts["formats.write.bytes"], "bytes"),
        "reduce.build.s": (self_s["reduce.build"], "s"),
        "reduce.audit.s": (self_s["reduce.audit"], "s"),
        "reduce.encode.s": (self_s["reduce.encode"], "s"),
        "reduce.decode.s": (self_s["reduce.decode"], "s"),
        "reduce.gadget_vertices": (counts["reduce.gadget_vertices"], "count"),
        "reduce.gadget_edges": (counts["reduce.gadget_edges"], "count"),
        "npsolve.solve.calls": (calls["npsolve.solve"], "count"),
        "npsolve.solve.s": (self_s["npsolve.solve"], "s"),
        "generate.gen.s": (tracer.self_times(setup=True)["generate.gen"], "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
    }

    print(f"inputs: {inputs.sizes}")
    print(f"first traced pass: {attempted} ops, {failed} failed, wall {p.wall:.4f} s")
    print(f"{len(plain)} untraced and {len(spanned)} traced passes, alternating; one pass "
          f"at per-op best times: untraced {plain_wall:.4f} s, traced {traced_wall:.4f} s")
    layers: dict[str, float] = {"graph": counts["graph.mask_connected.self_s"]}
    for name, s in self_s.items():
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + s
    print("self time per layer (s): " + ", ".join(
        f"{k} {v:.4f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    for name, (value, unit) in metrics.items():
        report_line(name, value, unit)
    if splits:
        print("solver.level_s.t<k>: time(t_max=k) - time(t_max=k-1), summed over "
              "instances; the level equal to an instance's value also holds its "
              "certificate pass and verification")
    else:
        print("solver.level_s.t<k>: level split runs on the hypercube workload only")

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans)
    print(f"wrote {len(tracer.spans)} spans to {spans.relative_to(ROOT)}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, plain + spanned


def main(argv=None) -> int:
    t_process = perf()
    ap = argparse.ArgumentParser(description="starcut benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (SRC / "starcut" / "__init__.py").is_file():
        print(f"error: no starcut package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    arm_watchdog_signal()
    workload = WORKLOADS[args.workload]

    took, sc, inputs = set_up_burst(workload, args.seed)
    setups = [took]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        metrics, passes = traced(args, sc, workload, t_process)
    else:
        metrics, passes = untraced(args, workload, setups, inputs, t_process)
    _, _, attempted, failed = summarize(passes)
    # Wrong outputs make the run incorrect; ops that raised or were stopped
    # by the watchdog are failed ops.
    problems = [m for p in passes for m in p.problems]
    for line in (problems + [m for p in passes for m in p.errors])[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
