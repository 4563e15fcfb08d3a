"""Reference pipeline: every candidate line decided, validated and counted on
its whole line orbit.

For each block through the least point of each suborbit it runs
flag_transitive_on_line, and for a flag-transitive line the line_orbit and
an IncidenceStructure with validate_pls, is_proper, components and
fingerprint.  devillers_enumerate reads all of this off the lines through
alpha; the tests compare the two.

Also here: the blocks of the cell of alpha as devillers_enumerate reports
them (sigma_blocks), and a per-pair multiplicity scan that shares no code
with the pair summary validate_pls reads (multiplicity_bruteforce).
"""

from dataclasses import dataclass

import numpy as np

from rank3pls.incidence import (IncidenceStructure, PLSReport, components,
                                fingerprint, is_proper, validate_pls)
from rank3pls.permcore import PermGroup, flag_transitive_on_line, line_orbit
from rank3pls.pipeline import PipelineEntry, devillers_enumerate, sigma_partition


@dataclass
class ReferenceEntry:
    entry: PipelineEntry           # its structure is the full IncidenceStructure
    report: PLSReport | None = None
    components: list | None = None
    fingerprint: tuple | None = None


def reference_enumerate(G: PermGroup, name: str = "") -> list[ReferenceEntry]:
    sigma = sigma_partition(G)
    cell_of = np.empty(G.degree, dtype=np.int32)
    cell_of[sigma] = np.arange(len(sigma), dtype=np.int32)[:, None]
    cell0 = set(sigma[cell_of[0]].tolist())
    Ga = G.stabilizer(0)
    out = []
    for orb in Ga.orbits():
        if len(orb) <= 2:
            continue
        in_cell = orb[0] in cell0
        for block in Ga.all_blocks_through(orb[0]):
            line = tuple(sorted(set(block) | {0}))
            entry = PipelineEntry("cell" if in_cell else "far",
                                  tuple(sorted(block)), False)
            ref = ReferenceEntry(entry)
            out.append(ref)
            if not in_cell and np.bincount(cell_of[list(line)]).max() >= 2:
                entry.filtered = True
                continue
            entry.flag_transitive = flag_transitive_on_line(G, line)
            if not entry.flag_transitive:
                continue
            lines, _ = line_orbit(G.gens, line)
            D = IncidenceStructure(G.degree, lines,
                                   {"group": name or G.name, "block_size": len(block)})
            ref.report = validate_pls(D)
            assert ref.report.is_pls and is_proper(D, ref.report)
            ref.components = components(D)
            ref.fingerprint = fingerprint(D)
            entry.structure = D
            entry.connected = len(ref.components) == 1
    return out


def sigma_blocks(G: PermGroup, name: str = "") -> list[PipelineEntry]:
    """Blocks of G_alpha on the cell of alpha minus alpha, with flag tests."""
    res = devillers_enumerate(G, name=name)
    return [e for e in res.entries if e.orbit == "cell"]


def multiplicity_bruteforce(D: IncidenceStructure) -> int:
    """Independent per-pair scan; quadratic, for structures <= ~500 points."""
    lines = D.lines.tolist()
    best = 0
    for i in range(D.num_points):
        through = [set(l) for l in lines if i in l]
        for j in range(i + 1, D.num_points):
            c = sum(1 for s in through if j in s)
            best = max(best, c)
    return best
