"""One benchmark iteration: run a workload in this (fresh) interpreter.

    python3 perfbench/workloads.py --workload NAME [--seed N] [--spans PATH]

Run from the repository root with PYTHONPATH=src; `run.py` does this for
every iteration, so the library's module caches start empty, as they do for
every command-line call.  The workload calls are timed; the correctness
checks run after the timer stops.  The last line of output is one JSON
object: the timings, every check with its outcome, a digest of the outputs,
and, when --spans is given, the traced per-layer metrics (the spans
themselves are written to PATH once the workload has ended).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import rank3pls
from rank3pls import catalog, families, incidence, omega, permcore, pipeline

EXPECTED = Path("expected")


def _golden(table_id: int) -> dict:
    with open(EXPECTED / f"table{table_id}.json") as fh:
        return {row["row"]: row for row in json.load(fh)["rows"]}


def _structure_summary(D) -> dict:
    """Outputs of the verification predicates on one structure."""
    rep = incidence.validate_pls(D)
    out = {"points": D.num_points, "lines": D.num_lines,
           "line_sizes": sorted(D.line_sizes()),
           "report": dataclasses.asdict(rep)}
    if rep.is_pls:
        out["proper"] = incidence.is_proper(D)
    out["components"] = sorted(len(c) for c in incidence.components(D))
    out["fingerprint"] = incidence.fingerprint(D)
    return out


# -- workloads: each returns its outputs as JSON-able data ----------------------


def run_tables(seed: int) -> dict:
    # reproduce_table builds its groups with the library's default seed
    rows = {t: pipeline.reproduce_table(t, max_degree=300) for t in range(2, 7)}
    return {"tables": rows, "negative": pipeline.negative_controls()}


def run_pgammal38(seed: int) -> dict:
    b = catalog.get_builtin("PGammaL3_8_deg2044", seed)
    res = pipeline.devillers_enumerate(b.group, name=b.meta.name, slow=True)
    return {"report": res.report(),
            "signature": res.line_signature(connected=True),
            "disconnected": [_structure_summary(D)
                             for D in res.structures(connected=False)]}


def run_gammau16(seed: int) -> dict:
    b = catalog.get_builtin("GammaU3_16", seed)
    flags = omega.classify_action(3, 16, 5, b.group, b.meta.spec, b.space)
    rep = pipeline.classify_blocks("GammaU3_16")
    return {"flags": flags, "ok": rep.ok,
            "matched": sorted((k, sorted(v)) for k, v in rep.matched.items()),
            "computed": sorted(sorted(blk) for blk in rep.computed)}


def run_families(seed: int) -> dict:
    C = families.usub(16, 4, seed=seed)
    return {"lsub(3,25,5,3)": _structure_summary(families.lsub(3, 25, 5, 3)),
            "usub(16,4)": {"expected": C.expected, "sample_lines": C.sample_lines}}


# -- correctness checks, run after the timer -------------------------------------


def check_tables(out: dict) -> list:
    checks = []
    for t in range(2, 7):
        golden = _golden(t)
        rows = out["tables"][t]
        checks.append((f"table{t}.rows",
                       sorted(r["row"] for r in rows) == sorted(golden)))
        for row in rows:
            if row.get("status", "").startswith("skipped"):
                continue
            want = golden.get(row["row"])
            ok = want is not None and row["pass"]
            if t == 2 and row.get("count_only"):
                ok = ok and row["lines_by_formula"] == want["lines"]
            elif t == 2:
                # the constructor asserts its line count equals this formula
                exp = _family_counts(row["row"])
                ok = ok and all(exp[k] == want[k]
                                for k in ("points", "lines", "line_size"))
            elif t == 3:
                ok = ok and row["got"] == [tuple(s) for s in want["signature"]]
            else:
                ok = ok and row["blocks"] == [tuple(b) for b in want["blocks"]]
            checks.append((f"table{t}.{row['row']}", ok))
    neg = out["negative"]
    checks.append(("negative_controls",
                   len(neg) == 4 and all(r["pass"] for r in neg)))
    return checks


def _family_counts(label: str) -> dict:
    fam, args = next(spec for row, spec, _, _ in pipeline.TABLE2_ROWS
                     if row == label)
    # expected_counts takes the dimension n first; these families fix it
    n = {"dlsub": (2,), "usub": (3,), "agustar": (3,)}.get(fam, ())
    return families.expected_counts(fam, *n, *args)


def check_pgammal38(out: dict) -> list:
    disc = out["disconnected"]
    ok_disc = len(disc) == 1
    if ok_disc:
        d = disc[0]
        ok_disc = (d["components"] == [28] * 73 and d["lines"] == 73 * 63
                   and d["line_sizes"] == [4] and d["report"]["multiplicity"] == 1)
    return [("signature", out["signature"] == ((98112, 7), (686784, 3))),
            ("ree_unital_components", ok_disc)]


def check_gammau16(out: dict) -> list:
    want = [tuple(b) for b in _golden(6)["GammaU3_16"]["blocks"]]
    got = [(k, len(v)) for k, v in out["matched"]]
    return [("type", out["flags"]["type"] == "it"),
            ("rank3", out["flags"]["rank3"] is True),
            ("blocks", out["ok"] and got == want)]


def check_families(out: dict) -> list:
    exp = families.expected_counts("lsub", 3, 25, 5, 3)
    s = out["lsub(3,25,5,3)"]
    rep = s["report"]
    fp = s["fingerprint"]
    checks = [
        ("lsub(3,25,5,3).counts",
         s["points"] == exp["points"] and s["lines"] == exp["lines"] == 253_890
         and s["line_sizes"] == [exp["line_size"]]),
        # multiplicity k = 2: two lines share a point pair, so not a PLS
        ("lsub(3,25,5,3).multiplicity",
         rep["multiplicity"] == exp["multiplicity"] == 2 and not rep["is_pls"]),
        ("lsub(3,25,5,3).fingerprint",
         fp[0] == s["points"] and fp[1] == s["lines"]
         and list(fp[5]) == s["components"]
         and sum(fp[3]) == s["lines"] * exp["line_size"]),
    ]
    # USub(16,4,5) closed form: r (q^3+1) points and
    # q^3 (q^3+1) (q-1)^2 / (q0 (q0^2-1) (q0-1)) lines of size q0+1
    q, q0, r = 16, 4, 5
    formula = {"points": r * (q**3 + 1),
               "lines": q**3 * (q**3 + 1) * (q - 1)**2 // (q0 * (q0**2 - 1) * (q0 - 1)),
               "line_size": q0 + 1, "multiplicity": 1}
    u = out["usub(16,4)"]
    checks.append(("usub(16,4).formula",
                   u["expected"] == formula and formula["lines"] == 20_976_640))
    sample = np.array(u["sample_lines"], dtype=np.int64)
    keys = np.concatenate([sample[:, i] * formula["points"] + sample[:, j]
                           for i in range(q0 + 1) for j in range(i + 1, q0 + 1)])
    checks.append(("usub(16,4).sample",
                   sample.shape[1] == q0 + 1 and len(sample) > 1
                   and np.unique(keys).size == keys.size))
    return checks


WORKLOADS = {
    "tables": (run_tables, check_tables),
    "pgammal38": (run_pgammal38, check_pgammal38),
    "gammau16": (run_gammau16, check_gammau16),
    "families": (run_families, check_families),
}


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=permcore.DEFAULT_SEED)
    ap.add_argument("--spans", help="trace the run and write its spans here")
    args = ap.parse_args(argv)
    if Path(rank3pls.__file__).parent.resolve() != Path("src/rank3pls").resolve():
        sys.exit(f"rank3pls was imported from {rank3pls.__file__}, not from ./src")
    run, check = WORKLOADS[args.workload]
    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    c0 = _cpu()
    t0 = time.perf_counter()
    out = run(args.seed)
    wall = time.perf_counter() - t0
    cpu = _cpu() - c0

    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    checks = [(name, bool(ok)) for name, ok in check(out)]
    result = {"workload": args.workload, "seed": args.seed, "wall_s": wall,
              "cpu_s": cpu, "checks": checks, "digest": digest,
              "numpy": np.__version__}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
