"""Determinism self-test of the traced benchmark run.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Run from the repository root.  For each workload (default: tables, gammau16,
families) it runs the workload twice traced and once plain, each in a fresh
interpreter with the same seed, and requires

  * every count and ratio of the per-layer metrics to repeat exactly across
    the two traced runs, and
  * the outputs (table rows, signatures, PLS reports, block inventories) of
    all three runs to be byte-identical, so tracing changes no output.

It also prints the largest self time of the first traced run next to the
one the ROADMAP baseline profile names, recording any disagreement.  Exit
code 0 means every comparison held.
"""

from __future__ import annotations

import argparse
import sys

from run import OUT, WORKLOADS, run_child

# largest self time per workload in the ROADMAP baseline profile
BASELINE_TOP = {"tables": "permcore.order", "pgammal38": "permcore.line_orbit",
                "gammau16": "permcore.minimal_block"}


def selftest(workload: str, seed: int | None) -> bool:
    OUT.mkdir(exist_ok=True)
    traced = [run_child(workload, seed, OUT / f"spans-{workload}-selftest{i}.json")
              for i in (1, 2)]
    plain = run_child(workload, seed)
    counts = [{k: v for k, (v, unit) in t["layers"].items() if unit != "s"}
              for t in traced]
    diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
    same_output = len({t["digest"] for t in (*traced, plain)}) == 1
    checks_ok = all(ok for t in (*traced, plain) for _, ok in t["checks"])
    self_s = {k[:-2]: v for k, (v, unit) in traced[0]["layers"].items()
              if unit == "s" and k.count(".") >= 2}
    top = sorted(self_s, key=self_s.get, reverse=True)[:3]
    print(f"{workload}: {len(counts[0])} counts repeat: {not diff}"
          + (f" (differ: {', '.join(diff)})" if diff else ""))
    print(f"  outputs identical plain/traced/traced: {same_output}; "
          f"checks pass: {checks_ok}")
    print("  largest self times: "
          + ", ".join(f"{k} {self_s[k]:.2f} s" for k in top))
    if workload in BASELINE_TOP:
        want = BASELINE_TOP[workload]
        print(f"  ROADMAP baseline names {want}: "
              + ("agrees" if top[0] == want else f"DISAGREES (largest is {top[0]})"))
    print(f"  tracing overhead: {traced[0]['wall_s'] - plain['wall_s']:+.2f} s "
          f"on {plain['wall_s']:.2f} s")
    return not diff and same_output and checks_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS,
                    default=["tables", "gammau16", "families"])
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args(argv)
    results = [selftest(w, args.seed) for w in args.workload]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
