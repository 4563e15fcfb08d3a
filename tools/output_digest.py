#!/usr/bin/env python3
"""Print one sha256 over the tables, the negative controls and the
pipeline reports.

The run is `reproduce_table(t, max_degree=300)` for t = 2..6 and
`negative_controls()`, each row as sorted-key JSON, then for every builtin
of degree <= 300 (in name order) the `pipeline run` outputs:
`report_json`, the `summary()` of each entry and the line signature up to
fingerprint.  With --slow, `PGammaL3_8_deg2044` is added to the builtins
(run with slow=True) and the tables are run again with slow=True, every
row included.  Last come the `family build` runs of FAMILY_RUNS (one
instance per kind, a second AG*(3,9) and DLSub, the count-only USub(16,4)
and a usage error): the arguments, exit code, stdout, stderr and `--out`
JSON of each, and of `verify` run on that JSON where one was written.  Two
commits that print the same line give the same tables, reports,
signatures, family outputs and verify outputs.  The line also gives the number of table rows, of builtins
and of family runs hashed.

Usage, from the repository root: python3 tools/output_digest.py [--slow]
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rank3pls import catalog, pipeline  # noqa: E402
from rank3pls.cli import main as cli_main  # noqa: E402

FAMILY_RUNS = [
    ["--kind", "agstar", "--n", "2", "--q", "4"],
    ["--kind", "delta", "--n", "3", "--q", "3"],
    ["--kind", "lsub", "--n", "2", "--q", "16", "--q0", "4", "--r", "5"],
    ["--kind", "dlsub", "--q", "9", "--q0", "3", "--r", "2", "--j", "1"],
    ["--kind", "usub", "--q", "4", "--q0", "2"],
    ["--kind", "agustar", "--q", "4"],
    ["--kind", "agstar", "--n", "3", "--q", "9"],  # 262,080 pair keys
    ["--kind", "dlsub", "--q", "9", "--q0", "3", "--r", "2", "--j", "2"],  # not a PLS
    ["--kind", "usub", "--q", "16", "--q0", "4"],   # count-only
    ["--kind", "lsub", "--n", "2", "--q", "16", "--q0", "4"],  # usage error
]


def cli_run(argv, tmp: Path) -> dict:
    """Exit code, stdout and stderr of one CLI run, with the temporary
    directory's name taken out of the output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    return {"exit": code, "stdout": stdout.getvalue().replace(str(tmp), "<tmp>"),
            "stderr": stderr.getvalue()}


def family_run(args, tmp: Path) -> dict:
    """One `family build` with its --out file, and `verify` of that file."""
    out = tmp / "family.json"
    run = {"args": args,
           **cli_run(["family", "build", *args, "--out", str(out)], tmp)}
    run["json"] = out.read_text() if out.exists() else None
    if out.exists():
        run["verify"] = cli_run(["verify", str(out)], tmp)
        out.unlink()
    return run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--slow", action="store_true",
                    help="add PGammaL3_8_deg2044 and the slow tables")
    args = ap.parse_args()
    digest = hashlib.sha256()

    def add(obj) -> None:
        digest.update(json.dumps(obj, sort_keys=True).encode() + b"\n")

    runs = [False, True] if args.slow else [False]
    rows = 0
    for slow in runs:
        for t in range(2, 7):
            for row in pipeline.reproduce_table(t, max_degree=300, slow=slow):
                add(row)
                rows += 1
    for row in pipeline.negative_controls():
        add(row)
        rows += 1
    names = [nm for nm in catalog.builtin_names()
             if catalog.ALL_BUILTINS[nm].degree <= 300]
    if args.slow:
        names.append("PGammaL3_8_deg2044")
    for nm in names:
        res = pipeline.run_pipeline(nm, slow=catalog.ALL_BUILTINS[nm].slow)
        digest.update(pipeline.report_json(res).encode())
        for e in res.entries:
            add(repr(e.summary()))
        add(res.line_signature(connected=None))
    with tempfile.TemporaryDirectory() as tmp:
        for args in FAMILY_RUNS:
            add(family_run(args, Path(tmp)))
    print(f"{digest.hexdigest()}  rows={rows} builtins={len(names)} "
          f"families={len(FAMILY_RUNS)}")


if __name__ == "__main__":
    main()
