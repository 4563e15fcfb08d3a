#!/usr/bin/env python3
"""Print one sha256 over every stabilizer chain a fixed run builds.

The run is `reproduce_table(t, max_degree=300)` for t = 2..6 plus
`negative_controls()`, then `get_builtin("PGammaL3_8_deg2044")`.  Every
Schreier-Sims build (`PermGroup._build_bsgs`) in it is hashed in call order:
the degree, then per level the base point, the orbit in its BFS order, the
Schreier vector `sv` and the level's strong generators in order.  The
PGammaL3_8 generator bytes come last.  Two commits that print the same
digest built byte-identical chains, so every seeded random element and
`group --out` file downstream of them agrees.  The coset rows read their
subgroups from bundled data, so no subgroup search runs in it.  The line
also gives the number of chains the tables built and the number in all.

Usage, from the repository root: python3 tools/chain_digest.py
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rank3pls import catalog, pipeline  # noqa: E402
from rank3pls.permcore import PermGroup  # noqa: E402


def main() -> None:
    digest = hashlib.sha256()
    builds = [0]
    build = PermGroup._build_bsgs

    def hashed_build(self):
        build(self)
        builds[0] += 1
        digest.update(np.int64(self.degree).tobytes())
        for lv in self._levels:
            digest.update(np.int64(lv.point).tobytes())
            digest.update(np.asarray(lv.orbit, dtype=np.int32).tobytes())
            digest.update(lv.sv.tobytes())
            for g in lv.gens:
                digest.update(g.tobytes())

    PermGroup._build_bsgs = hashed_build
    try:
        for t in range(2, 7):
            pipeline.reproduce_table(t, max_degree=300)
        pipeline.negative_controls()
        chains = builds[0]
        for g in catalog.get_builtin("PGammaL3_8_deg2044").group.gens:
            digest.update(g.tobytes())
    finally:
        PermGroup._build_bsgs = build
    print(f"{digest.hexdigest()}  tables={chains} chains={builds[0]}")


if __name__ == "__main__":
    main()
