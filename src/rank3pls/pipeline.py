"""The rank-3 group to partial-linear-space pipeline and table reproduction.

devillers_enumerate implements the generic procedure: fix alpha = 0, find
the blocks of imprimitivity of the point stabilizer G_0 on each nontrivial
suborbit Delta, pre-filter by the cell-intersection condition (a
flag-transitive line meets every Sigma-cell at most once -- only applicable
off the cell of alpha), and decide, validate and count the line orbit L^G of
each remaining line L = {0} | B from the lines through 0 alone.

The rank 3 hypothesis makes that enough.  For x in L let t_x take x to 0.
The lines of L^G through 0 are the sets L^(t_x h), h in G_0, so G_L is
transitive on L exactly when every L^(t_x) minus 0 is a class of the block
system of B, which is B^(u_c) for u_c in G_0 taking beta to any point c of
it.  x = beta suffices, since the stabilizer of B in G_0 fixes L and is
transitive on B.  Then the lines through 0 partition Delta: a pair {0, y}
lies on one line for y in Delta and on none otherwise, and by transitivity
every pair does the same.  So L^G is a partial linear space with n |Delta| / 2
collinear pairs and n |Delta| / (k (k - 1)) lines of size k, proper when
k >= 3 and |Delta| < n - 1, and its component through 0 is the orbit of 0
under <G_0, t> for any t with 0^t in Delta.

Each emitted structure is the families' OrbitStructure of L under G, so
the generic predicates (validate_pls, is_proper, is_connected, fingerprint,
has_lines) read it off those lines through 0, and its line array is built
only when something reads `lines`.  Outside slow runs a structure of more
than MAX_LINE_ORBIT lines raises RuntimeError.  The pipeline itself never
builds that array, so the cap saves no memory of the run; it bounds the
array that a later reader of `lines` builds (the JSON and CSV exports,
`relabel`, `preserved_by`), at most MAX_LINE_ORBIT rows of k points
for a structure a run without `slow` hands back.

classify_blocks materializes the expected block inventories from their
vector formulas at test time, so they survive any change of field modulus
convention, and compares them with the computed block set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import families
from .catalog import ALL_BUILTINS, get_builtin
from .gfield import SubfieldView, factorize
from .incidence import fingerprint, is_connected, is_proper, validate_pls
from .omega import OmegaSpace
from .permcore import PermGroup, classes, identity, inverse, sigma_partition


def flag_transitive_at_alpha(block: np.ndarray, t_beta: np.ndarray, at_beta,
                             in_delta: np.ndarray) -> bool:
    """Whether G_L is transitive on L = {0} | block, for t_beta in G taking
    beta to 0: whether L^(t_beta) minus 0 is a class of the block system of
    block on Delta, the class through c being block^(u_c), that is whether
    u_c^-1 from the Schreier tree at_beta of G_0 maps it back onto block."""
    pts = t_beta[np.r_[0, block]]
    rest = np.sort(pts[pts != 0])
    if not in_delta[rest].all():
        return False
    return np.array_equal(np.sort(at_beta.to_root(rest[None], rest[:1])[0]), block)


@dataclass
class PipelineEntry:
    orbit: str                 # 'far' = Omega - sigma, 'cell' = sigma - alpha
    block: tuple
    flag_transitive: bool
    filtered: bool = False     # discarded by the cell-intersection filter
    structure: families.OrbitStructure | None = None
    connected: bool | None = None

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
        return out


@dataclass
class PipelineResult:
    name: str
    degree: int
    rank: int
    sigma: np.ndarray          # (cells, cell size), rows sorted
    entries: list[PipelineEntry] = field(default_factory=list)

    def structures(self, connected: bool | None = None) -> list[families.OrbitStructure]:
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


MAX_LINE_ORBIT = 2_000_000  # lines per structure, a cap for non-slow runs


def devillers_enumerate(G: PermGroup, name: str = "",
                        slow: bool = False) -> PipelineResult:
    """Run the block -> line pipeline on a rank-3 imprimitive group.

    Each block B through beta = min(Delta) that passes the cell filter is
    decided orbit-locally (module docstring): L = {0} | B is flag-transitive
    iff L^(t_beta) minus 0 lies in Delta and equals B^(u_c), where t_beta
    is the inverse rep from 0 to beta that to_root reads off G's tree at 0,
    c is the least point of L^(t_beta) minus 0, and u_c is the rep from beta
    to c of G_0's tree at beta.  A flag-transitive L becomes
    families.OrbitStructure(G, [L]), and AssertionError is raised unless
    its line count is an integer, validate_pls and is_proper find a proper
    partial linear space, and is_connected finds it disconnected for the
    cell orbit and connected for the far one.  No line array is built here;
    outside slow runs a structure of more than MAX_LINE_ORBIT lines raises
    RuntimeError, and sigma_partition's ValueError rejects a group that is
    not imprimitive of rank 3.
    """
    n = G.degree
    sigma = sigma_partition(G)
    cell_of = np.empty(n, dtype=np.int32)
    cell_of[sigma] = np.arange(len(sigma), dtype=np.int32)[:, None]
    result = PipelineResult(name or G.name, n, 3, sigma)
    Ga = G.stabilizer(0)
    labels = Ga.orbit_labels()
    at0 = G.schreier_tree(0)
    for orb in classes(labels):
        in_cell = cell_of[orb[0]] == cell_of[0]
        kind = "cell" if in_cell else "far"
        if len(orb) <= 2:
            continue
        beta = orb[0]
        in_delta = labels == beta
        at_beta = Ga.schreier_tree(beta)
        t_beta = at0.to_root(identity(n)[None], np.array([beta]))[0]
        for block in Ga.all_blocks_through(beta):
            B = np.array(sorted(block), dtype=np.int32)
            line = np.concatenate(([0], B))
            entry = PipelineEntry(kind, tuple(B.tolist()), False)
            result.entries.append(entry)
            if not in_cell and np.bincount(cell_of[line]).max() >= 2:
                # a transitive line stabilizer gives all nonempty cell
                # intersections one size, and the alpha-cell meets the
                # line exactly once, so these blocks cannot produce lines
                entry.filtered = True
                continue
            entry.flag_transitive = flag_transitive_at_alpha(B, t_beta, at_beta,
                                                             in_delta)
            if not entry.flag_transitive:
                continue
            D = families.OrbitStructure(G, [line], {"group": result.name,
                                                    "block_size": len(B)})
            if not slow and D.num_lines > MAX_LINE_ORBIT:
                raise RuntimeError(f"line orbit of {D.num_lines} lines exceeded "
                                   f"max_lines {MAX_LINE_ORBIT}")
            rep = validate_pls(D)
            if not rep.is_pls or not is_proper(D, rep):
                raise AssertionError(
                    f"{result.name}: emitted structure fails PLS/properness")
            entry.structure = D
            entry.connected = is_connected(D)
            if entry.connected == in_cell:
                raise AssertionError(
                    "cell-orbit structures must be disconnected and "
                    "far-orbit ones connected")
    return result


# -- expected block inventories (Tables 4, 5, 6 made concrete) -----------------


def _emb(space: OmegaSpace, q0: int):
    view = SubfieldView(space.field, factorize(q0)[space.field.p])
    return view.embed


def expected_blocks_linear(space: OmegaSpace) -> dict[str, frozenset]:
    """Vector formulas for blocks through beta = <w^r> e_2."""
    F = space.field
    n, q, r = space.n, space.q, space.r
    pad = [0] * (n - 2)

    def block(pairs):
        # the points of the vectors a e_1 + b e_2
        return frozenset(space.points_of([[a, b] + pad for a, b in pairs]))

    out = {}
    out["B1"] = block((0, F.exp[i]) for i in range(r))
    out["B2"] = block((lam, 1) for lam in range(q))
    if n >= 3:
        out["B3"] = block((a, b) for a in range(q) for b in range(1, q))
    if (q, r) == (3, 2):
        two = F.neg(1)
        out["B4"] = block([(0, 1), (two, two)])
        out["B5"] = block([(0, 1), (1, two)])
    elif (q, r) == (4, 3):
        out["B4"] = block([(0, 1), (1, 1)])
        out["B5"] = block((F.add(1, lam), lam) for lam in range(1, 4))
    elif (q, r) == (16, 5):
        emb = _emb(space, 4)
        out["B6"] = block((emb(l0), 1) for l0 in range(4))
    elif (q, r) == (81, 5) and n == 2:
        emb = _emb(space, 9)
        w5 = F.exp[5]
        out["B7_1"] = block((emb(l0), 1) for l0 in range(9))
        out["B7_2"] = block((F.mul(w5, emb(l0)), 1) for l0 in range(9))
    elif (q, r) == (25, 3) and n == 2:
        emb = _emb(space, 5)
        w3 = F.exp[3]
        out["B8_1"] = block((emb(l0), 1) for l0 in range(5))
        out["B8_2"] = block((F.mul(w3, emb(l0)), 1) for l0 in range(5))
    elif (q, r) == (9, 2) and n == 2:
        emb = _emb(space, 3)
        for i in range(4):
            wi = F.exp[i] if i else 1
            out[f"B9_{i}"] = block((F.mul(wi, emb(l0)), 1) for l0 in range(3))
    return out


def expected_blocks_unitary(space: OmegaSpace) -> dict[str, frozenset]:
    """Vector formulas for blocks through beta = <w^r> f."""
    F = space.field
    q, r = space.q, space.r
    block = lambda vecs: frozenset(space.points_of(list(vecs)))
    # the b of each trace b + b^q
    by_trace = {}
    for b in range(F.q):
        by_trace.setdefault(F.add(b, F.pow(b, q)), []).append(b)
    kernel = by_trace[0]
    out = {}
    # Tr(b) + c^(q+1) = 0
    out["B1"] = block((b, c, 1) for c in range(F.q)
                      for b in by_trace.get(F.neg(F.pow(c, q + 1) if c else 0), ()))
    out["B2"] = block((b, 0, 1) for b in kernel)
    out["B3"] = block((0, 0, F.exp[i]) for i in range(r))
    out["B4"] = block((F.mul(F.exp[i], b), 0, F.exp[i])
                      for b in kernel for i in range(r))
    if (q, r) == (4, 3):
        embq = _emb(space, q)
        out["B5"] = block((F.sub(1, embq(l0)), 0, embq(l0)) for l0 in range(1, 4))
        out["B6"] = block([(0, 0, 1), (1, 0, 1)])
    elif (q, r) == (16, 5):
        emb = _emb(space, 4)
        out["B7"] = block((emb(l0), 0, 1) for l0 in range(4))
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

def run_pipeline(builtin_name: str, slow: bool = False) -> PipelineResult:
    """devillers_enumerate on a builtin row, run once per slow and kept in
    the row's group's own store."""
    G = get_builtin(builtin_name).group
    return G._kept(("pipeline", slow),
                   lambda: devillers_enumerate(G, name=builtin_name, slow=slow))


def _normalizes(gens, N: PermGroup) -> bool:
    """Whether each of gens conjugates every generator of N into N, so
    that the group they generate normalizes N."""
    return all(N.contains(g[x[inverse(g)]]) for g in gens for x in N.gens)


def _certified_equal(E: families.OrbitStructure, X: families.OrbitStructure) -> bool:
    """Whether E = X, for X an orbit structure under N that E's group G
    normalizes: when G maps each base row of X into X, G fixes X, since
    b^(x g) = (b^g)^(g^-1 x g) for x in N; so E's base rows lying in X
    give E <= X, and equal line counts E = X.  No line array is built."""
    G = E.group
    return (E.num_lines == X.num_lines
            and X.has_lines([g[b] for g in G.gens for b in X.bases]).all()
            and X.has_lines(E.bases).all())


def _table2_row(fam: str, args: tuple, groups: list, wexp, slow: bool) -> dict:
    """Whether each group G emits the family's structure D, an orbit
    structure under its group N, and its image D^h under the named diagonal
    map h for a mirrored block, decided by normalizer certificates: G
    normalizes N, and an emitted structure of D's shape is D when
    _certified_equal says so.  h normalizing N makes D^h the orbit structure
    of the rows h(B), B a base row of D, under N, which G normalizes too.
    A group with no certificate emits neither: `direct` is False."""
    D = families.CONSTRUCTORS[fam](*args)
    shape = (D.num_points, D.num_lines, D.line_size)
    row_ok = True
    detail = {}
    for g in groups:
        b = get_builtin(g)
        emitted = run_pipeline(g, slow=slow).structures(connected=True)
        same = [E for E in emitted
                if (E.num_points, E.num_lines, E.line_size) == shape]
        if same and not _normalizes(b.group.gens, D.group):
            same = []
        equal = [_certified_equal(E, D) for E in same]
        direct = any(equal)
        mirrored = None
        if wexp is not None and b.space is not None:
            h = families.diagonal_map(b.space, wexp)
            mirrored = False
            others = [E for E, eq in zip(same, equal) if not eq]
            if others and _normalizes([h], D.group):
                Dh = families.OrbitStructure(D.group, [h[B] for B in D.bases], {})
                mirrored = any(_certified_equal(E, Dh) for E in others)
        ok = direct and (mirrored is not False or wexp is None)
        row_ok &= ok
        detail[g] = {"direct": direct, "mirrored": mirrored,
                     "emitted": len(emitted)}
    return {"pass": row_ok, "groups": detail}


def _usub_16_4_5_emitted(C: families.CountOnly, exp: dict) -> bool:
    """Whether run_pipeline("GammaU3_16", slow=True) emits a connected
    structure with the (points, lines, line size) of exp whose line orbit
    holds C's base line.  Both label Omega by build_omega("unitary", 3, 16,
    5), so the base line needs no translation."""
    shape = (exp["points"], exp["lines"], exp["line_size"])
    return any((D.num_points, D.num_lines, D.line_size) == shape
               and D.has_lines([C.base_line])[0]
               for D in run_pipeline("GammaU3_16", slow=True).structures(connected=True))


def _table3_row(name: str, expect: tuple, slow: bool) -> dict:
    sig = run_pipeline(name, slow=slow).line_signature(connected=True)
    return {"pass": sig == tuple(sorted(expect)), "expected": sorted(expect),
            "got": list(sig)}


def _block_row(name: str) -> dict:
    rep = classify_blocks(name)
    return {"pass": rep.ok,
            "blocks": sorted((k, len(v)) for k, v in rep.matched.items()),
            "computed_sizes": sorted(len(b) for b in rep.computed)}


def reproduce_table(table_id: int, max_degree: int = 300,
                    slow: bool = False) -> list[dict]:
    """Machine-checked row-by-row table comparison; one dict per row with a
    pass flag.  Without slow, a row whose groups exceed max_degree is
    skipped before any of them is built."""
    rows = []
    if table_id == 2:
        # row 9 (USub(16,4,5)) is count-only: formula evaluation plus sampled
        # local checks; slow runs also require GammaU3_16 to emit the count
        count_only = families.usub(16, 4, 5)
        exp = families.expected_counts("usub", 3, 16, 4, 5)
        ok = count_only.expected == exp and len(count_only.sample_lines) > 0
        if slow:
            ok = ok and _usub_16_4_5_emitted(count_only, exp)
        rows.append({"row": "USub(16,4,5)", "pass": ok,
                     "count_only": True, "lines_by_formula": exp["lines"]})
        cases = [(label, groups, partial(_table2_row, fam, args, groups, wexp, slow))
                 for label, (fam, args), groups, wexp in TABLE2_ROWS]
    elif table_id == 3:
        cases = [(name, [name], partial(_table3_row, name, expect, slow))
                 for name, expect in TABLE3_ROWS]
    elif table_id in (4, 5, 6):
        cases = [(name, [name], partial(_block_row, name))
                 for name in TABLE45_CASES[table_id]]
    else:
        raise ValueError("table_id must be one of 2, 3, 4, 5, 6")
    for label, groups, row in cases:
        if not slow and any(ALL_BUILTINS[g].degree > max_degree for g in groups):
            rows.append({"row": label, "status": "skipped (degree)"})
        else:
            rows.append({"row": label, **row()})
    return rows


def negative_controls() -> list[dict]:
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
