#!/usr/bin/env python3
"""Print the tracemalloc peak of each library call of the `families`
workload, then of the full-array path on the same structure.

The first calls are those of perfbench's `families` workload, in its order:
`usub(16, 4)` (count-only), then `lsub(3, 25, 5, 3)`, split into the
stages it runs: the chain of its group (`omega_group`) and the lines
through 0 (the `OrbitStructure` it builds), then `validate_pls`,
`components` and `fingerprint` on that structure (`is_proper` is not
called: the structure is not a partial linear space).  None of them builds
the structure's line array.  The array path follows, the one `verify`
takes: `lines` reads the structure's line array (its row orbit, ingested),
`ingest` builds A = IncidenceStructure(D.num_points, D.lines) from it, and
`A validate_pls`, `A components` and `A fingerprint` run on A.
All run in this one process, so the module caches start empty.  For each
call the line gives, in MiB:

    above_live  the traced peak during the call minus the memory live when
                the call began: what the call itself allocates at most;
    live        the memory live when the call began;
    kept        what the call left live when it returned (its result and
                any cache it filled).

The row `array peak` is the largest live + above_live over the array
path's calls, and the last row, `peak`, the same over the workload's calls:
the traced peak of the whole workload.

tracemalloc counts allocations, numpy's included, so these numbers do not
move with heap layout the way a process's peak RSS does.

Usage, from the repository root: python3 tools/memory_stages.py
"""

import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rank3pls import families, incidence, permcore  # noqa: E402

MIB = 2**20


def main() -> int:
    rows = []

    def measured(name, f):
        def call(*args, **kwargs):
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            out = f(*args, **kwargs)
            now, peak = tracemalloc.get_traced_memory()
            rows.append((name, peak - live, live, now - live))
            return out
        return call

    # lsub reaches its chain and its lines through 0 through these two names
    families.omega_group = measured("chain", families.omega_group)
    families.OrbitStructure = measured("rows through 0", families.OrbitStructure)
    tracemalloc.start()
    try:
        # bound, as in the workload, so that it stays live to the end
        C = measured("usub", families.usub)(16, 4, seed=permcore.DEFAULT_SEED)
        D = families.lsub(3, 25, 5, 3)
        preds = (incidence.validate_pls, incidence.components,
                 incidence.fingerprint)
        for f in preds:
            measured(f.__name__, f)(D)
        workload = len(rows)
        lines = measured("lines", lambda: D.lines)()
        A = measured("ingest", incidence.IncidenceStructure)(D.num_points, lines)
        for f in preds:
            measured(f"A {f.__name__}", f)(A)
    finally:
        tracemalloc.stop()
    print(f"{'call':<16}{'above_live':>11}{'live':>8}{'kept':>8}   (MiB)")
    for name, above, live, kept in rows:
        print(f"{name:<16}{above / MIB:>11.1f}{live / MIB:>8.1f}{kept / MIB:>8.1f}")
    # `peak` last: tests read the workload's traced peak off the last line
    for name, part in (("array peak", rows[workload:]), ("peak", rows[:workload])):
        peak = max(above + live for _, above, live, _ in part)
        print(f"{name:<16}{peak / MIB:>11.1f}   (live + above_live)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
