#!/usr/bin/env python3
"""Print one sha256 over every stabilizer chain a fixed run builds.

The run is `reproduce_table(t, max_degree=300)` for t = 2..6 plus
`negative_controls()`, then `get_builtin("PGammaL3_8_deg2044")`.  Every
Schreier-Sims build (`PermGroup._build_bsgs`) in it is hashed in call order:
the degree, then per level the base point, the orbit in its BFS order, the
Schreier vector `sv` and the level's strong generators in order.  The
PGammaL3_8 generator bytes come last.  Two commits that print the same
digest built byte-identical chains, so every random element read off
them (`PermGroup.random_element`) and every `group --out` file downstream
of them agrees.  The coset rows read their subgroups from bundled data, so
no subgroup search runs in it.  The line also gives the number of chains
the tables built and the number in all.

With --catalogue the chains built by `families._family_group` (the groups
the Table 2 family structures are orbits of) are left out, so the line
covers the catalogue's and the pipeline's chains alone.

With --per-build a line per hashed build comes first: the group's name,
its degree, the path that built and certified its chain
(`PermGroup._build_path`: proven bound or deterministic) and the sha256 of
that chain alone.  Two commits' lists show
which chains moved and by which path they were built.

Usage, from the repository root:
python3 tools/chain_digest.py [--catalogue] [--per-build]
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rank3pls import catalog, families, pipeline  # noqa: E402
from rank3pls.permcore import PermGroup  # noqa: E402


def main() -> None:
    digest = hashlib.sha256()
    builds = [0]
    build = PermGroup._build_bsgs
    family_group = families._family_group
    in_family = [False]

    per_build = []

    def hashed_build(self):
        build(self)
        if in_family[0]:
            return
        builds[0] += 1
        chain = hashlib.sha256()
        for h in (digest, chain):
            h.update(np.int64(self.degree).tobytes())
            for lv in self._levels:
                h.update(np.int64(lv.point).tobytes())
                h.update(np.asarray(lv.orbit, dtype=np.int32).tobytes())
                h.update(lv.sv.tobytes())
                for g in lv.gens:
                    h.update(g.tobytes())
        per_build.append(f"{self.name or '-'}  {self.degree}  "
                         f"{self._build_path()}  {chain.hexdigest()}")

    def unhashed_family_group(*args):
        in_family[0] = True
        try:
            return family_group(*args)
        finally:
            in_family[0] = False

    PermGroup._build_bsgs = hashed_build
    if "--catalogue" in sys.argv[1:]:
        families._family_group = unhashed_family_group
    try:
        for t in range(2, 7):
            pipeline.reproduce_table(t, max_degree=300)
        pipeline.negative_controls()
        chains = builds[0]
        for g in catalog.get_builtin("PGammaL3_8_deg2044").group.gens:
            digest.update(g.tobytes())
    finally:
        PermGroup._build_bsgs = build
        families._family_group = family_group
    if "--per-build" in sys.argv[1:]:
        print("\n".join(per_build))
    print(f"{digest.hexdigest()}  tables={chains} chains={builds[0]}")


if __name__ == "__main__":
    main()
