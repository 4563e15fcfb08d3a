"""rank3pls benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  NAME is one of tables, gammau16, families,
pgammal38, or `all` for each of them in turn.

--trace 0 measures set-up time (interpreter start plus `import
rank3pls.pipeline`, median of several starts) and then runs the workload in a
fresh interpreter, again and again while another run still fits in S
seconds (at least once), and reports the medians of wall time, CPU time and
peak memory.  --trace 1 runs the workload once plain and once traced, checks
that tracing changed no output, and reports the per-layer metrics and the
tracing overhead.

Every run's outputs are checked after its timer stops.  The last line of
output is one JSON object with the keys correct, attempted, failed and
metrics; the exit code is 0 only if every check passed.  A full record with
the run's metadata goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("tables", "gammau16", "families", "pgammal38")
SETUP_STARTS = 9
OUT = Path(".bench_out")
# one thread everywhere, and a fixed string hash so set orders repeat
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
             "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0",
             "PYTHONPATH": "src"}


def _env() -> dict:
    return {**os.environ, **CHILD_ENV}


def run_child(workload: str, seed: int | None, spans: Path | None = None) -> dict:
    """One iteration in a fresh interpreter; adds the child's peak RSS."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), text=True)
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        # wait4 reaps the child and returns its resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: iteration exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


def measure_setup() -> float:
    cmd = [sys.executable, "-c", "import rank3pls.pipeline"]
    times = []
    for _ in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=_env(), check=True)
        times.append(time.perf_counter() - t0)
    # the first start may compile bytecode, which users pay only once
    return statistics.median(times[1:])


def plain_run(workload: str, seed: int | None, seconds: float):
    setup = measure_setup()
    iters = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        iters.append(run_child(workload, seed))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    checks = [tuple(c) for it in iters for c in it["checks"]]
    if len(iters) > 1:
        checks.append(("output_repeats", len({it["digest"] for it in iters}) == 1))
    med = lambda key: statistics.median(it[key] for it in iters)
    metrics = {"wall_s": (med("wall_s"), "s"), "cpu_s": (med("cpu_s"), "s"),
               "setup_s": (setup, "s"), "peak_rss_mb": (med("peak_rss_mb"), "MB")}
    return iters, checks, metrics


def traced_run(workload: str, seed: int | None):
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{'default' if seed is None else seed}.json"
    plain = run_child(workload, seed)
    traced = run_child(workload, seed, spans)
    checks = [tuple(c) for it in (plain, traced) for c in it["checks"]]
    checks.append(("trace_changes_no_output", plain["digest"] == traced["digest"]))
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return [plain, traced], checks, metrics


def metadata(numpy_version: str) -> dict:
    commit = "unknown"
    if Path(".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        commit = res.stdout.strip() or commit
    loc = sum(len(p.read_text().splitlines())
              for p in Path("src/rank3pls").rglob("*.py"))
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "machine": platform.machine(), "child_env": CHILD_ENV,
            "src_loc": loc}


def measure(workload: str, seed: int | None, seconds: float, trace: bool):
    if trace:
        iters, checks, metrics = traced_run(workload, seed)
    else:
        iters, checks, metrics = plain_run(workload, seed, seconds)
    failed = [name for name, ok in checks if not ok]
    seed = iters[0]["seed"]
    print(f"{workload} seed {seed}: {len(iters)} iteration(s), "
          f"{len(checks)} checks, {len(failed)} failed")
    for name in failed:
        print(f"  FAILED {name}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    print(f"  {'fail_frac':40s} {len(failed) / len(checks):>14.6g} "
          f"({len(failed)}/{len(checks)})")
    if trace:
        top = sorted((v[0], k) for k, v in metrics.items()
                     if k.endswith(".s") and k.count(".") >= 2)[::-1][:3]
        print("  largest self times: " + ", ".join(f"{k} {v:.2f} s" for v, k in top))
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "meta": metadata(iters[0]["numpy"]),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "checks": len(checks), "failed_checks": failed,
              "iterations": [{k: it[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
                             for it in iters]}
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  record: {path}")
    return len(checks), len(failed), metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the library's DEFAULT_SEED)")
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/rank3pls/__init__.py").is_file():
        print("run.py: no src/rank3pls here; run from the repository root",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = measure(name, args.seed, args.seconds, bool(args.trace))
        attempted += a
        failed += f
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
