#!/usr/bin/env python3
"""Print one sha256 over the tables, the negative controls and the
pipeline reports.

The run is `reproduce_table(t, max_degree=300)` for t = 2..6 and
`negative_controls()`, each row as sorted-key JSON, then for every builtin
of degree <= 300 (in name order) the `pipeline run` outputs:
`report_json`, the `summary()` of each entry and the line signature up to
fingerprint.  With --slow, `PGammaL3_8_deg2044` is added to the builtins
(run with slow=True) and the tables are run again with slow=True, every
row included.  Two commits that print the same line give the same tables,
reports and signatures.  The line also gives the number of table rows and
of builtins hashed.

Usage, from the repository root: python3 tools/output_digest.py [--slow]
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rank3pls import catalog, pipeline  # noqa: E402


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
    print(f"{digest.hexdigest()}  rows={rows} builtins={len(names)}")


if __name__ == "__main__":
    main()
