"""The rank-3 group to partial-linear-space pipeline and table reproduction.

devillers_enumerate implements the generic procedure: fix alpha = 0, find
the blocks of imprimitivity of the point stabilizer on each nontrivial
suborbit, pre-filter by the cell-intersection condition (a flag-transitive
line meets every Sigma-cell at most once -- only applicable off the cell of
alpha), test flag-transitivity on B cup {alpha}, and emit the line orbit as
an incidence structure, which is re-validated rather than trusted.

classify_blocks materializes the expected block inventories from their
vector formulas at test time, so they survive any change of field modulus
convention, and compares them with the computed block set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import families
from .catalog import get_builtin
from .gfield import SubfieldView, factorize
from .incidence import (IncidenceStructure, components, is_proper, relabel,
                        validate_pls)
from .matsemi import Mat, linear
from .omega import OmegaSpace, induce_action
from .permcore import PermGroup, flag_transitive_on_line, line_orbit


@dataclass
class PipelineEntry:
    orbit: str                 # 'far' = Omega - sigma, 'cell' = sigma - alpha
    block: tuple
    flag_transitive: bool
    filtered: bool = False     # discarded by the cell-intersection filter
    structure: IncidenceStructure | None = None
    connected: bool | None = None
    label: str | None = None

    def summary(self) -> dict:
        out = {"orbit": self.orbit, "block_size": len(self.block),
               "flag_transitive": self.flag_transitive,
               "filtered": self.filtered, "structure_ref": None}
        if self.structure is not None:
            out["lines"] = self.structure.num_lines
            out["line_size"] = self.structure.line_size
            out["connected"] = self.connected
            out["structure_ref"] = (f"{self.structure.num_lines}x"
                                    f"{self.structure.line_size}"
                                    f"{'' if self.connected else ':disconnected'}")
        if self.label:
            out["label"] = self.label
        return out


@dataclass
class PipelineResult:
    name: str
    degree: int
    rank: int
    sigma: np.ndarray          # (cells, cell size), rows sorted
    entries: list[PipelineEntry] = field(default_factory=list)

    def structures(self, connected: bool | None = None) -> list[IncidenceStructure]:
        out = []
        for e in self.entries:
            if e.structure is None:
                continue
            if connected is None or e.connected == connected:
                out.append(e.structure)
        return out

    def distinct_structures(self, connected: bool | None = True):
        """One representative per fingerprint class: the pipeline can emit
        several relabelled copies of one space (swapped by outer symmetry),
        and fingerprints stand in for isomorphism testing."""
        from .incidence import fingerprint
        out = {}
        for d in self.structures(connected):
            out.setdefault(fingerprint(d), d)
        return list(out.values())

    def line_signature(self, connected: bool | None = True):
        """Multiset of (number of lines, line size) over distinct emitted
        structures."""
        sig = sorted((d.num_lines, d.line_size)
                     for d in self.distinct_structures(connected))
        return tuple(sig)

    def report(self) -> dict:
        return {"group": self.name, "degree": self.degree, "rank": self.rank,
                "sigma_cells": len(self.sigma), "cell_size": len(self.sigma[0]),
                "results": [e.summary() for e in self.entries]}


def sigma_partition(G: PermGroup) -> np.ndarray:
    """The unique nontrivial G-block system, asserted unique: a (cells, cell
    size) array of sorted cells in lexicographic order."""
    blocks = G.all_blocks_through(0)
    if len(blocks) != 1:
        raise ValueError(f"{G!r}: expected a unique nontrivial block system, "
                         f"found {len(blocks)} blocks through 0")
    cells, _ = line_orbit(G.gens, sorted(blocks[0]))
    return np.unique(cells, axis=0)


MAX_LINE_ORBIT = 2_000_000  # defensive cap for non-slow runs


def devillers_enumerate(G: PermGroup, name: str = "", slow: bool = False,
                        include_sigma_orbit: bool = True) -> PipelineResult:
    """Run the block -> line pipeline on a rank-3 imprimitive group."""
    if not G.is_transitive():
        raise ValueError("pipeline needs a transitive group")
    rank = G.rank()
    if rank != 3:
        raise ValueError(f"pipeline needs rank 3, got rank {rank}")
    sigma = sigma_partition(G)
    cell_of = np.empty(G.degree, dtype=np.int32)
    cell_of[sigma] = np.arange(len(sigma), dtype=np.int32)[:, None]
    result = PipelineResult(name or G.name, G.degree, rank, sigma)
    Ga = G.stabilizer(0)
    if len(Ga.gens) > 8:
        Ga = PermGroup(G.degree, Ga.reduced_gens(), expected_order=Ga.order,
                       seed=Ga.seed, name=Ga.name)
    orbits = [sorted(o) for o in Ga.orbits() if len(o) > 1]
    cell0 = set(sigma[cell_of[0]].tolist())
    for orb in orbits:
        in_cell = orb[0] in cell0
        kind = "cell" if in_cell else "far"
        if in_cell and not include_sigma_orbit:
            continue
        if len(orb) <= 2:
            continue
        beta = orb[0]
        for block in Ga.all_blocks_through(beta):
            line = tuple(sorted(set(block) | {0}))
            entry = PipelineEntry(kind, tuple(sorted(block)), False)
            if not in_cell:
                counts = np.bincount(cell_of[list(line)])
                if counts.max() >= 2:
                    # a transitive line stabilizer gives all nonempty cell
                    # intersections one size, and the alpha-cell meets the
                    # line exactly once, so these blocks cannot produce lines
                    entry.filtered = True
                    result.entries.append(entry)
                    continue
            lines, limg = line_orbit(G.gens, line,
                                     max_lines=None if slow else MAX_LINE_ORBIT)
            entry.flag_transitive = flag_transitive_on_line(
                G, line, precomputed=(lines, limg))
            if entry.flag_transitive:
                D = IncidenceStructure(G.degree, lines,
                                       {"group": result.name,
                                        "block_size": len(block)})
                rep = validate_pls(D)
                if not rep.is_pls or not is_proper(D, rep):
                    raise AssertionError(
                        f"{result.name}: emitted structure fails PLS/properness")
                entry.structure = D
                entry.connected = len(components(D)) == 1
                if entry.connected == in_cell:
                    raise AssertionError(
                        "cell-orbit structures must be disconnected and "
                        "far-orbit ones connected")
            result.entries.append(entry)
    return result


def sigma_blocks(G: PermGroup, name: str = "") -> list[PipelineEntry]:
    """Blocks of G_alpha on the cell of alpha minus alpha, with flag tests."""
    res = devillers_enumerate(G, name=name)
    return [e for e in res.entries if e.orbit == "cell"]


# -- expected block inventories (Tables 4, 5, 6 made concrete) -----------------


def _emb(space: OmegaSpace, q0: int):
    view = SubfieldView(space.field, factorize(q0)[space.field.p])
    return view.embed


def expected_blocks_linear(space: OmegaSpace) -> dict[str, frozenset]:
    """Vector formulas for blocks through beta = <w^r> e_2."""
    F = space.field
    n, q, r = space.n, space.q, space.r
    e = lambda v: space.index_of(v)
    pad = [0] * (n - 2)

    def vec(a, b):
        return tuple([a, b] + pad)

    out = {}
    out["B1"] = frozenset(e(vec(0, F.exp[i])) for i in range(r))
    out["B2"] = frozenset(e(vec(lam, 1)) for lam in range(q))
    if n >= 3:
        out["B3"] = frozenset(e(vec(a, b)) for a in range(q)
                              for b in range(1, q))
    if (q, r) == (3, 2):
        two = F.neg(1)
        out["B4"] = frozenset([e(vec(0, 1)), e(vec(two, two))])
        out["B5"] = frozenset([e(vec(0, 1)), e(vec(1, two))])
    elif (q, r) == (4, 3):
        out["B4"] = frozenset([e(vec(0, 1)), e(vec(1, 1))])
        out["B5"] = frozenset(e(vec(F.add(1, lam), lam)) for lam in range(1, 4))
    elif (q, r) == (16, 5):
        emb = _emb(space, 4)
        out["B6"] = frozenset(e(vec(emb(l0), 1)) for l0 in range(4))
    elif (q, r) == (81, 5) and n == 2:
        emb = _emb(space, 9)
        w5 = F.exp[5]
        out["B7_1"] = frozenset(e(vec(emb(l0), 1)) for l0 in range(9))
        out["B7_2"] = frozenset(e(vec(F.mul(w5, emb(l0)), 1)) for l0 in range(9))
    elif (q, r) == (25, 3) and n == 2:
        emb = _emb(space, 5)
        w3 = F.exp[3]
        out["B8_1"] = frozenset(e(vec(emb(l0), 1)) for l0 in range(5))
        out["B8_2"] = frozenset(e(vec(F.mul(w3, emb(l0)), 1)) for l0 in range(5))
    elif (q, r) == (9, 2) and n == 2:
        emb = _emb(space, 3)
        for i in range(4):
            wi = F.exp[i] if i else 1
            out[f"B9_{i}"] = frozenset(e(vec(F.mul(wi, emb(l0)), 1))
                                       for l0 in range(3))
    return out


def expected_blocks_unitary(space: OmegaSpace) -> dict[str, frozenset]:
    """Vector formulas for blocks through beta = <w^r> f."""
    F = space.field
    q, r = space.q, space.r
    e = lambda v: space.index_of(v)
    trace = lambda b: F.add(b, F.pow(b, q))
    out = {}
    out["B1"] = frozenset(e((b, c, 1)) for c in range(F.q) for b in range(F.q)
                          if F.add(trace(b), F.pow(c, q + 1) if c else 0) == 0)
    kernel = [b for b in range(F.q) if trace(b) == 0]
    out["B2"] = frozenset(e((b, 0, 1)) for b in kernel)
    out["B3"] = frozenset(e((0, 0, F.exp[i])) for i in range(r))
    out["B4"] = frozenset(e((F.mul(F.exp[i], b), 0, F.exp[i]))
                          for b in kernel for i in range(r))
    if (q, r) == (4, 3):
        embq = _emb(space, q)
        out["B5"] = frozenset(e((F.sub(1, embq(l0)), 0, embq(l0)))
                              for l0 in range(1, 4))
        out["B6"] = frozenset([e((0, 0, 1)), e((1, 0, 1))])
    elif (q, r) == (16, 5):
        emb = _emb(space, 4)
        out["B7"] = frozenset(e((emb(l0), 0, 1)) for l0 in range(4))
    return out


# flag-transitive block names of the classification per (kind, n-class, q, r)
FLAG_TRANSITIVE_EXPECT = {
    ("linear", 3, 3, 2): ["B4"],
    ("linear", 2, 4, 3): ["B4", "B5"],
    ("linear", 3, 4, 3): ["B4", "B5"],
    ("linear", 2, 16, 5): ["B6"],
    ("linear", 3, 16, 5): ["B6"],
    ("linear", 2, 81, 5): ["B7_1", "B7_2"],
    ("linear", 2, 25, 3): ["B8_1", "B8_2"],
    ("linear", 2, 9, 2): ["B9_0", "B9_2"],
    ("unitary", 3, 4, 3): ["B5", "B6"],
    ("unitary", 3, 16, 5): ["B7"],
}


@dataclass
class BlockReport:
    name: str
    params: tuple
    expected: dict
    computed: list
    matched: dict
    ok: bool


def classify_blocks(builtin_name: str) -> BlockReport:
    """Compare the computed G_alpha-blocks through the canonical beta against
    the vector-formula inventory."""
    b = get_builtin(builtin_name)
    space = b.space
    if space is None:
        raise ValueError("classify_blocks needs an omega-route builtin")
    G = b.group
    if space.kind == "linear":
        expected = expected_blocks_linear(space)
        beta_vec = tuple([0, 1] + [0] * (space.n - 2))
    else:
        expected = expected_blocks_unitary(space)
        beta_vec = (0, 0, 1)
    beta = space.index_of(beta_vec)
    Ga = G.stabilizer(0)
    if len(Ga.gens) > 8:
        Ga = PermGroup(G.degree, Ga.reduced_gens(), expected_order=Ga.order,
                       seed=Ga.seed, name=Ga.name)
    carrier = len(Ga.orbit(beta))
    computed = [frozenset(blk) for blk in Ga.all_blocks_through(beta)]
    expected_nontrivial = {k: v for k, v in expected.items()
                           if 1 < len(v) < carrier}
    matched = {}
    for nm, blk in expected_nontrivial.items():
        if blk in computed:
            matched[nm] = blk
    ok = (set(matched) == set(expected_nontrivial)
          and len(computed) == len(expected_nontrivial))
    return BlockReport(builtin_name, (space.kind, space.n, space.q, space.r),
                       expected_nontrivial, computed, matched, ok)


# -- table reproduction -----------------------------------------------------------


TABLE3_ROWS = [
    # (builtin, expected multiset of (lines, size) over connected proper PLS)
    ("PSL3_3_deg39", ((117, 4), (234, 3))),
    ("PSL3_2_deg14", ((14, 4), (28, 3))),
    ("C2xPSL3_2_deg14", ((14, 4),)),
    ("PSL5_2_deg248", ((248, 16),)),
    ("PSL3_5_deg155", ((775, 6), (3875, 3))),
    ("PGL3_4_deg126", ((2520, 3),)),
    ("PGammaL3_8_deg2044", ((98112, 7), (686784, 3))),
]

NEGATIVE_BUILTINS = ["M11_deg22", "C2xM11_deg22", "3S6_deg18", "2M12_deg24"]

TABLE2_ROWS = [
    # (family label, constructor args, builtin groups, conjugating w-exponent
    #  for the mirrored block when the proof names one)
    ("AGstar(2,4)", ("agstar", (2, 4)), ["GammaL2_4"], None),
    ("AGstar(3,4)", ("agstar", (3, 4)), ["SLdiagphi3_4", "SLphi3_4", "GammaL3_4"], None),
    ("Delta(3,3)", ("delta", (3, 3)), ["SL3_3", "GL3_3"], None),
    ("Delta(2,4)", ("delta", (2, 4)), ["GammaL2_4"], None),
    ("Delta(3,4)", ("delta", (3, 4)), ["SLdiagphi3_4", "SLphi3_4", "GammaL3_4"], None),
    ("LSub(2,16,4,5)", ("lsub", (2, 16, 4, 5)), ["GammaL2_16"], None),
    ("LSub(2,81,9,5)", ("lsub", (2, 81, 9, 5)), ["ZSLphi2_81"], 5),
    ("LSub(2,25,5,3)", ("lsub", (2, 25, 5, 3)), ["ZSLphi2_25"], 3),
    ("DLSub(9,3,2,1)", ("dlsub", (9, 3, 2, 1)), ["YSL2phidiag_9"], 2),
    ("USub(4,2,3)", ("usub", (4, 2, 3)), ["GammaU3_4"], None),
    ("AGUstar(4)", ("agustar", (4,)), ["GammaU3_4"], None),
]

TABLE45_CASES = {
    4: ["SL3_3", "GammaL3_4", "GammaL3_16"],
    5: ["GammaL2_4", "GammaL2_16", "ZSLphi2_81", "ZSLphi2_25", "YSL2phidiag_9"],
    6: ["GammaU3_4", "GammaU3_16"],
}

_FAMILY_BUILDERS = {
    "agstar": families.ag_star,
    "delta": families.delta,
    "lsub": families.lsub,
    "dlsub": families.dlsub,
    "usub": families.usub,
    "agustar": families.agu_star,
}

_PIPE_CACHE: dict[tuple[str, bool], PipelineResult] = {}


def run_pipeline(builtin_name: str, slow: bool = False) -> PipelineResult:
    key = (builtin_name, slow)
    if key not in _PIPE_CACHE:
        b = get_builtin(builtin_name)
        _PIPE_CACHE[key] = devillers_enumerate(b.group, name=builtin_name, slow=slow)
    return _PIPE_CACHE[key]


def _conjugate_lines(space: OmegaSpace, D: IncidenceStructure, wexp: int):
    F = space.field
    mat = Mat.diag(F, [F.exp[wexp % (F.q - 1)]] + [1] * (space.n - 1))
    return relabel(D, induce_action(space, [linear(mat)])[0]).lines


def reproduce_table(table_id: int, max_degree: int = 300,
                    slow: bool = False) -> list[dict]:
    """Machine-checked row-by-row table comparison; one dict per row with a
    pass flag."""
    rows = []
    if table_id == 2:
        # row 9 (USub(16,4,5)) is count-only: formula evaluation plus sampled
        # local checks; the group side is covered by the Table-6 inventory
        count_only = families.usub(16, 4, 5)
        exp = families.expected_counts("usub", 3, 16, 4, 5)
        rows.append({"row": "USub(16,4,5)", "pass":
                     count_only.expected == exp and len(count_only.sample_lines) > 0,
                     "count_only": True, "lines_by_formula": exp["lines"]})
        for label, (fam, args), groups, wexp in TABLE2_ROWS:
            builders = [get_builtin(g) for g in groups]
            if any(b.meta.degree > max_degree and not slow for b in builders):
                rows.append({"row": label, "status": "skipped (degree)"})
                continue
            D = _FAMILY_BUILDERS[fam](*args)
            row_ok = True
            detail = {}
            for g in groups:
                b = get_builtin(g)
                res = run_pipeline(g, slow=slow)
                # line arrays are canonical, so array equality is set equality
                emitted = [d.lines for d in res.structures(connected=True)]
                direct = any(np.array_equal(D.lines, ls) for ls in emitted)
                mirrored = None
                if wexp is not None and b.space is not None:
                    conj = _conjugate_lines(b.space, D, wexp)
                    mirrored = any(np.array_equal(conj, ls) for ls in emitted
                                   if not np.array_equal(D.lines, ls))
                ok = direct and (mirrored is not False or wexp is None)
                row_ok &= ok
                detail[g] = {"direct": direct, "mirrored": mirrored,
                             "emitted": len(emitted)}
            rows.append({"row": label, "pass": row_ok, "groups": detail})
    elif table_id == 3:
        for name, expect in TABLE3_ROWS:
            b = get_builtin(name)
            if b.meta.degree > max_degree and not slow:
                rows.append({"row": name, "status": "skipped (degree)"})
                continue
            res = run_pipeline(name, slow=slow)
            sig = res.line_signature(connected=True)
            rows.append({"row": name, "pass": sig == tuple(sorted(expect)),
                         "expected": sorted(expect), "got": list(sig)})
    elif table_id in (4, 5, 6):
        for name in TABLE45_CASES[table_id]:
            b = get_builtin(name)
            if b.meta.degree > max_degree and not slow:
                rows.append({"row": name, "status": "skipped (degree)"})
                continue
            rep = classify_blocks(name)
            rows.append({"row": name, "pass": rep.ok,
                         "blocks": sorted((k, len(v)) for k, v in rep.matched.items()),
                         "computed_sizes": sorted(len(b) for b in rep.computed)})
    else:
        raise ValueError("table_id must be one of 2, 3, 4, 5, 6")
    return rows


def negative_controls(max_degree: int = 300) -> list[dict]:
    """Groups that must yield zero proper partial linear spaces."""
    rows = []
    for name in NEGATIVE_BUILTINS:
        res = run_pipeline(name)
        emitted = res.structures()
        rows.append({"row": name, "pass": not emitted,
                     "structures": len(emitted)})
    return rows


def report_json(res: PipelineResult) -> str:
    return json.dumps(res.report(), indent=2, sort_keys=True)
