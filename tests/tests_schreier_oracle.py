"""Reference Schreier-Sims: the deterministic pass one Schreier generator at a
time.

Kept separate from the library on purpose.  Each (orbit point, generator)
pair builds its Schreier generator from memoised transversal reps and sifts
it through `_Level.trace_back`, one Schreier-tree walk per level; the
first non-member is inserted at once.  The library's batched pass must build
the same chains byte for byte.
"""

import numpy as np

from rank3pls.permcore import PermGroup, compose, identity, inverse


class SequentialPermGroup(PermGroup):
    """A PermGroup whose deterministic pass is the pair-by-pair loop."""

    def _deterministic_schreier_sims(self):
        reps: dict[int, dict[int, np.ndarray]] = {}
        accepted: dict[int, set[tuple[int, int]]] = {}

        def rep(lv, memo, y):
            while y not in memo:
                z = lv.orbit[len(memo)]
                k = int(lv.sv[z])
                memo[z] = (identity(self.degree) if k == -2 else
                           compose(memo[int(lv.inv_gens[k][z])], lv.gens[k]))
            return memo[y]

        i = len(self._levels) - 1
        while i >= 0:
            lv = self._levels[i]
            memo = reps.setdefault(i, {})
            done = accepted.setdefault(i, set())
            inserted_at = None
            xi = 0
            while inserted_at is None and xi < len(lv.orbit):
                x = lv.orbit[xi]
                for si, s in enumerate(lv.gens):
                    if (x, si) in done:
                        continue
                    us = compose(rep(lv, memo, x), s)
                    v = rep(lv, memo, int(s[x]))
                    if not (us == v).all():
                        residue = self._sift(compose(us, inverse(v)), i + 1)
                        if residue is not None:
                            inserted_at = self._insert_strong_gen(residue)
                            break
                    done.add((x, si))
                xi += 1
            i = i - 1 if inserted_at is None else inserted_at


def chain_bytes(G: PermGroup) -> list[tuple]:
    """Per level: base point, orbit in its order, Schreier vector and strong
    generators in order, all as bytes."""
    G.order
    return [(lv.point, np.asarray(lv.orbit, dtype=np.int32).tobytes(),
             lv.sv.tobytes(), tuple(g.tobytes() for g in lv.gens))
            for lv in G._levels]


def both_chains(degree: int, gens, **kw) -> tuple[list[tuple], list[tuple]]:
    """The chains of the library's pass and of the reference pass."""
    return (chain_bytes(PermGroup(degree, gens, **kw)),
            chain_bytes(SequentialPermGroup(degree, gens, **kw)))
