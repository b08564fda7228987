"""Write or re-check the corpus reference table (corpus_reference.json).

    python3 perfbench/reference.py --check   # self-test, exit 1 on mismatch
    python3 perfbench/reference.py --write   # record the table anew

Small-pool values (n <= 10) come from oracle_connectivity, which shares no
search code with the solver; --check regenerates them from the oracle and
compares.  Mid-size values (n 16..24, above the oracle's size cap) are the
solver's values at the commit that added the bench; --check confirms the
pool and mid-size specs still match their seed walks.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import starcut as sc  # noqa: E402
from workloads import REFERENCE, SETTINGS, mid_specs, small_pool_specs  # noqa: E402


def _values(spec, solve):
    seed, n, p = spec
    g = sc.gen_random_graph(n, p, seed)
    return [solve(g, m, kind, strict, induced).value
            for m, kind, strict, induced in SETTINGS]


def _oracle(g, m, kind, strict, induced):
    return sc.oracle_connectivity(g, m, kind, g.n, strict_trivial=strict, induced=induced)


def _solver(g, m, kind, strict, induced):
    fn = sc.structure_connectivity if kind == sc.STRUCTURE else sc.substructure_connectivity
    return fn(g, m, g.n, sc.SearchOptions(strict_trivial=strict, induced=induced))


def write() -> None:
    table = {
        "settings": [list(s) for s in SETTINGS],
        "small": [[*spec, _values(spec, _oracle)] for spec in small_pool_specs(sc)],
        "mid": [[*spec, _values(spec, _solver)] for spec in mid_specs(sc)],
    }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, separators=(",", ":"))
        fh.write("\n")


def check() -> int:
    with open(REFERENCE, encoding="utf-8") as fh:
        table = json.load(fh)
    problems = []
    if [tuple(s) for s in table["settings"]] != SETTINGS:
        problems.append("settings differ")
    if [tuple(e[:3]) for e in table["small"]] != small_pool_specs(sc):
        problems.append("small pool specs differ from the seed walk")
    if [tuple(e[:3]) for e in table["mid"]] != mid_specs(sc):
        problems.append("mid-size specs differ from the seed walk")
    for *spec, values in table["small"]:
        got = _values(spec, _oracle)
        if got != values:
            problems.append(f"graph {spec}: table {values}, oracle {got}")
    for line in problems:
        print(line)
    print(f"{len(table['small'])} small graphs x {len(SETTINGS)} settings checked "
          f"against the oracle: {'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    args = ap.parse_args()
    if args.write:
        write()
        return 0
    return check()


if __name__ == "__main__":
    sys.exit(main())
