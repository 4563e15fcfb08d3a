"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with -s (or read the captured output) for the per-criterion lines; the
slow criteria (8 unitary q=16 part, 10/12 degree-2044 parts, and the q=16
classification row) need --runslow.
"""

import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from rank3pls import families as fam
from rank3pls.catalog import NEGATIVE_CONTROLS, OMEGA_BUILTINS, get_builtin
from rank3pls.gfield import field_make
from rank3pls.incidence import (components, is_connected, is_proper,
                                preserved_by, validate_pls)
from rank3pls.matsemi import gens_group, induced_order_bound
from rank3pls.omega import build_omega, classify_action, induce_action
from rank3pls.permcore import PermGroup, flag_transitive_on_line
from rank3pls.pipeline import (FLAG_TRANSITIVE_EXPECT, classify_blocks,
                               expected_blocks_linear, expected_blocks_unitary,
                               negative_controls, reproduce_table, run_pipeline)
from tests_block_oracle import bfs_orbit, exhaustive_blocks
from tests_order_oracle import induced_order, perm_order, singer_cycle
from tests_pipeline_oracle import multiplicity_bruteforce

EXPECTED_DIR = Path(__file__).resolve().parent.parent / "expected"


def _report(criterion: int, ok: bool, text: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {text}")
    assert ok, f"criterion {criterion}: {text}"


def test_criterion_01_agstar24():
    t0 = time.time()
    D = fam.ag_star(2, 4)
    rep = validate_pls(D)
    ok = (D.num_points == 15 and D.num_lines == 15
          and D.line_sizes() == {4}
          and rep.is_pls and is_proper(D) and is_connected(D)
          and get_builtin("GammaL2_4").group.rank() == 3)
    _report(1, ok, f"AG*(2,4) is a proper connected PLS with 15 lines of "
                   f"size 4 and GammaL2(4)/Y has rank 3 ({time.time()-t0:.1f}s)")


def test_criterion_02_delta24_singer_split():
    t0 = time.time()
    D = fam.delta(2, 4)
    space = build_omega("linear", 2, 4, 3)
    s = induce_action(space, [singer_cycle(2, field_make(2, 2))])[0]
    lines = set(D.line_set())
    orbit_sizes = []
    while lines:
        line = lines.pop()
        size = 1
        cur = tuple(sorted(int(s[p]) for p in line))
        while cur != line:
            lines.discard(cur)
            size += 1
            cur = tuple(sorted(int(s[p]) for p in cur))
        orbit_sizes.append(size)
    ok = (D.num_lines == 30 and D.line_sizes() == {3}
          and sorted(orbit_sizes) == [15, 15]
          and perm_order(s) == 15)
    _report(2, ok, f"Delta(2,4) has 30 lines of size 3 splitting into two "
                   f"Singer orbits of 15 ({time.time()-t0:.1f}s)")


def test_criterion_03_lsub_2_16_4_5():
    t0 = time.time()
    D = fam.lsub(2, 16, 4, 5)
    k, tpar = fam.lsub_params(16, 4, 5)
    lhat = 5 * 16 * (16**2 - 1) * (16 - 1) // (4 * 15 * 15)
    expected_lines = lhat // math.gcd(2 * 5, tpar)
    ok = (D.num_points == 85 and D.num_lines == 340 == expected_lines
          and D.line_sizes() == {5}
          and multiplicity_bruteforce(D) == 1)
    _report(3, ok, f"LSub(2,16,4,5): 85 points, 340 = |L-hat|/(2r,t) lines of "
                   f"size 5, brute-force multiplicity 1 ({time.time()-t0:.1f}s)")


def test_criterion_04_subfield_line_multiplicity():
    t0 = time.time()
    m3 = validate_pls(fam.lsub(3, 25, 5, 3)).multiplicity
    m2 = validate_pls(fam.lsub(2, 25, 5, 3)).multiplicity
    ok = m3 == 2 and m2 == 1
    _report(4, ok, f"LSub(3,25,5,3) has multiplicity exactly 2 and "
                   f"LSub(2,25,5,3) multiplicity 1 ({time.time()-t0:.1f}s)")


def test_criterion_05_dlsub():
    t0 = time.time()
    D = fam.dlsub(9, 3, 2, 1)
    rep = validate_pls(D)
    bad = validate_pls(fam.dlsub(9, 3, 2, 2))
    ok = (D.num_points == 20 and D.num_lines == 30 and D.line_sizes() == {4}
          and D.params["disjoint_union"] and rep.is_pls and is_proper(D)
          and is_connected(D) and not bad.is_pls)
    _report(5, ok, f"DLSub(9,3,2,1) is a proper connected PLS with disjoint "
                   f"L and wL; DLSub(9,3,2,2) fails ({time.time()-t0:.1f}s)")


def test_criterion_06_usub():
    t0 = time.time()
    D = fam.usub(4, 2, 3)
    rep = validate_pls(D)
    G = get_builtin("GammaU3_4").group
    ok = (D.num_points == 195 and D.num_lines == 6240
          and D.line_sizes() == {3} and rep.is_pls and is_proper(D)
          and is_connected(D) and preserved_by(D, G.gens))
    _report(6, ok, f"USub(4,2,3): 195 points, 6240 lines of size 3, proper "
                   f"connected, GammaU3(4)/Y-invariant ({time.time()-t0:.1f}s)")


def test_criterion_07_agustar():
    t0 = time.time()
    D = fam.agu_star(4)
    rep = validate_pls(D)
    ok = (D.num_lines == 3120 and D.line_sizes() == {4}
          and rep.is_pls and is_proper(D) and is_connected(D))
    _report(7, ok, f"AGU*(4): 3120 lines of size 4, proper connected PLS "
                   f"({time.time()-t0:.1f}s)")


def _golden(table_id):
    with open(EXPECTED_DIR / f"table{table_id}.json") as fh:
        return json.load(fh)["rows"]


def test_criterion_08_block_inventories_default():
    t0 = time.time()
    ok = True
    for tid in (4, 5, 6):
        golden = {row["row"]: row for row in _golden(tid)}
        for row in reproduce_table(tid, max_degree=1400):
            if row.get("status", "").startswith("skipped"):
                continue
            want = golden[row["row"]]["blocks"]
            ok &= row["pass"] and row["blocks"] == [tuple(b) for b in want]
    _report(8, ok, "block inventories equal the Tables 4/5/6 vector-formula "
                   f"sets for all desk cases ({time.time()-t0:.1f}s); the "
                   "q=16 unitary case runs under --runslow")


@pytest.mark.slow
def test_criterion_08_block_inventory_unitary16():
    t0 = time.time()
    rep = classify_blocks("GammaU3_16")
    want = [tuple(b) for b in _golden(6)[1]["blocks"]]
    got = sorted((k, len(v)) for k, v in rep.matched.items())
    _report(8, rep.ok and got == want,
            f"GammaU3(16)/Y blocks equal Table 6 row 2 ({time.time()-t0:.1f}s)")


def test_criterion_09_pipeline_vs_families():
    t0 = time.time()
    ok = True
    # flag-transitive blocks exactly the classified lists
    for name in ["GammaL2_4", "GammaL2_16", "ZSLphi2_81", "ZSLphi2_25",
                 "YSL2phidiag_9", "GammaU3_4"]:
        b = get_builtin(name)
        spec = b.meta.spec
        table = (expected_blocks_linear(b.space) if spec.kind == "linear"
                 else expected_blocks_unitary(b.space))
        want = {table[nm] for nm in
                FLAG_TRANSITIVE_EXPECT[(spec.kind, min(spec.n, 3), spec.q, spec.r)]}
        res = run_pipeline(name)
        got = {frozenset(e.block) for e in res.entries
               if e.orbit == "far" and e.flag_transitive}
        ok &= got == want
    # emitted line sets equal the family line sets (same labelling, with the
    # named diagonal conjugations for the mirrored blocks)
    for row in reproduce_table(2, max_degree=500):
        if "pass" in row:
            ok &= row["pass"]
    _report(9, ok, "flag-transitive blocks match the classified lists and every "
                   "emitted line set equals its family line set "
                   f"({time.time()-t0:.1f}s)")


def test_criterion_10_table3_default():
    t0 = time.time()
    golden = {row["row"]: row for row in _golden(3)}
    ok = True
    for row in reproduce_table(3, max_degree=300):
        if row.get("status", "").startswith("skipped"):
            continue
        want = [tuple(s) for s in golden[row["row"]]["signature"]]
        ok &= row["pass"] and row["got"] == want
    _report(10, ok, "Table 3 line counts and sizes reproduce exactly at "
                    f"degree <= 300 ({time.time()-t0:.1f}s)")


@pytest.mark.slow
def test_criterion_10_table3_pgammal38():
    t0 = time.time()
    res = run_pipeline("PGammaL3_8_deg2044", slow=True)
    ok = res.line_signature(connected=True) == ((98112, 7), (686784, 3))
    _report(10, ok, "PGammaL3(8)@2044 emits exactly (686784,3) and (98112,7) "
                    f"({time.time()-t0:.1f}s)")


def test_criterion_11_negative_controls():
    t0 = time.time()
    rows = negative_controls()
    ok = all(r["pass"] for r in rows) and len(rows) == 4
    _report(11, ok, "M11@22, C2xM11@22, 3.Sym(6)@18 and 2.M12@24 all yield "
                    f"zero proper partial linear spaces ({time.time()-t0:.1f}s)")


@pytest.mark.slow
def test_criterion_12_ree_unital_components():
    t0 = time.time()
    res = run_pipeline("PGammaL3_8_deg2044", slow=True)
    disc = res.structures(connected=False)
    ok = len(disc) == 1
    if ok:
        D = disc[0]
        comps = components(D)
        rep = validate_pls(D)
        ok = (len(comps) == 73 and {len(c) for c in comps} == {28}
              and D.num_lines == 73 * 63 and {len(l) for l in D.lines} == {4}
              and rep.multiplicity == 1
              and rep.collinear_pairs == 73 * 28 * 27 // 2)
    _report(12, ok, "the sigma-orbit pipeline on PGammaL3(8)@2044 emits one "
                    "disconnected space: 73 components, each a 2-(28,4,1) "
                    f"design with 63 lines of size 4 ({time.time()-t0:.1f}s)")


def test_criterion_13_predicate_consistency():
    t0 = time.time()
    ok = True
    count_pos = count_neg = 0
    for name, meta in OMEGA_BUILTINS.items():
        if meta.slow:
            continue
        b = get_builtin(name)
        spec = meta.spec
        flags = classify_action(spec.n, spec.q, spec.r, b.group, spec, b.space)
        ok &= flags["rank3"] and flags["type"] == meta.gtype
        count_pos += 1
    for spec in NEGATIVE_CONTROLS:
        sp = build_omega(spec.kind, spec.n, spec.q, spec.r)
        gens = gens_group(spec)
        G = PermGroup(len(sp), induce_action(sp, gens),
                      order_bound=induced_order_bound(gens, spec.r, sp.form),
                      name=str(spec))
        ok &= G.order == induced_order(spec)
        flags = classify_action(spec.n, spec.q, spec.r, G, spec, sp)
        ok &= not flags["rank3"]
        count_neg += 1
    ok &= count_neg >= 10
    # sporadic rows: witness checks for the type column
    ok &= _sporadic_type_witnesses()
    _report(13, ok, f"rank-3 arithmetic equals computed rank on {count_pos} "
                    f"catalogue instances and {count_neg} negative parameter "
                    f"sets; type flags match ({time.time()-t0:.1f}s)")


def _sporadic_type_witnesses() -> bool:
    ok = True
    from rank3pls.permcore import compose, inverse
    # centralizing involutions make the C2 x rows properly innately transitive
    for name in ("C2xPSL3_2_deg14", "C2xM11_deg22"):
        G = get_builtin(name).group
        z = G.gens[-1]
        central = all((compose(z, g) == compose(g, z)).all() for g in G.gens)
        ok &= central and len(set(np.asarray(z).tolist())) == G.degree
    # the covers have an intransitive semiregular cell kernel of the cell size
    for name, cells, ksize in (("3S6_deg18", 6, 3), ("2M12_deg24", 12, 2)):
        b = get_builtin(name)
        G = b.group
        from rank3pls.pipeline import sigma_partition
        sigma = sigma_partition(G)
        reps = [c[0] for c in sigma]
        qgens = []
        index_of = {tuple(c): i for i, c in enumerate(sigma)}
        cell_of = {}
        for i, c in enumerate(sigma):
            for p in c:
                cell_of[p] = i
        for g in G.gens:
            qgens.append([cell_of[int(g[rep])] for rep in reps])
        Q = PermGroup(cells, qgens, name=f"{name}^Sigma")
        ok &= G.order // Q.order == ksize  # kernel = the semiregular normal part
    # simple / almost simple rows are quasiprimitive: the derived-closure socle
    # stays transitive
    for name in ("PSL3_2_deg14", "M11_deg22", "PSL3_3_deg39", "PGL3_4_deg126"):
        G = get_builtin(name).group
        from rank3pls.permcore import compose, inverse
        comms = [compose(compose(a, b), inverse(compose(b, a)))
                 for a in G.gens for b in G.gens]
        soc = G.normal_closure(comms)
        ok &= len(soc.orbit(0)) == G.degree
    return ok


@pytest.mark.slow
def test_criterion_13_unitary16_classification():
    t0 = time.time()
    b = get_builtin("GammaU3_16")
    spec = b.meta.spec
    flags = classify_action(spec.n, spec.q, spec.r, b.group, spec, b.space)
    ok = flags["rank3"] and flags["type"] == "it"
    _report(13, ok, f"GammaU3(16)/Y classifies as rank-3 of type it "
                    f"({time.time()-t0:.1f}s)")


def test_criterion_14_kernel_property_suites():
    t0 = time.time()
    rng = random.Random(14)
    ok = True
    # orbit-stabilizer on 50 (group, point) pairs
    names = ["GammaL2_4", "PSL3_2_deg14", "M11_deg22", "GammaU3_4", "SL3_3",
             "YSL2phidiag_9", "3S6_deg18", "2M12_deg24", "PGL3_4_deg126",
             "ZSLphi2_25"]
    for name in names:
        G = get_builtin(name).group
        for _ in range(5):
            x = rng.randrange(G.degree)
            ok &= G.order == len(G.orbit(x)) * G.stabilizer(x).order
    # BSGS invariance under base reordering
    for name in names[:5]:
        G = get_builtin(name).group
        for _ in range(5):
            base = rng.sample(range(G.degree), min(4, G.degree))
            ok &= PermGroup(G.degree, G.gens, base_hint=base,
                            seed=rng.randrange(10**6)).order == G.order
    # flag transitivity vs the backtracking setwise stabilizer at degree <= 200
    checked = 0
    for name in ["GammaL2_4", "PSL3_2_deg14", "M11_deg22", "3S6_deg18",
                 "GammaL2_16"]:
        G = get_builtin(name).group
        Ga = G.stabilizer(0)
        orb = max(Ga.orbits(), key=len)
        for blk in Ga.all_blocks_through(orb[0]):
            line = tuple(sorted(set(blk) | {0}))
            stab = G.setwise_stabilizer(line)
            oracle = bfs_orbit(stab.gens, line[0]) >= set(line)
            ok &= flag_transitive_on_line(G, line) == oracle
            checked += 1
    ok &= checked >= 8
    # block closure completeness versus exhaustive search at orbit <= 60
    for name in ["GammaL2_4", "YSL2phidiag_9", "3S6_deg18", "PSL3_2_deg14"]:
        H = get_builtin(name).group.stabilizer(0)
        orbit = max(H.orbits(), key=len)
        ok &= len(orbit) <= 60
        ok &= set(H.all_blocks_through(orbit[0])) == exhaustive_blocks(H, orbit[0], orbit)
    _report(14, ok, "orbit-stabilizer, BSGS base invariance, flag vs setwise "
                    "oracle, and block-closure completeness all hold "
                    f"({time.time()-t0:.1f}s)")
