"""Pipeline behavior, flag-transitivity exactness, table reproduction."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rank3pls import families as fam
from rank3pls import pipeline
from rank3pls.catalog import ALL_BUILTINS, get_builtin
from rank3pls.incidence import fingerprint
from rank3pls.permcore import PermGroup, line_orbit, sorted_rows
from rank3pls.pipeline import (FLAG_TRANSITIVE_EXPECT, classify_blocks,
                               devillers_enumerate, expected_blocks_linear,
                               expected_blocks_unitary, negative_controls,
                               report_json, reproduce_table, run_pipeline,
                               sigma_partition)
from tests_geometry_oracle import line_set
from tests_pipeline_oracle import sigma_blocks


def test_sigma_partition_unique():
    b = get_builtin("GammaL2_4")
    sigma = sigma_partition(b.group)
    assert len(sigma) == 5 and all(len(c) == 3 for c in sigma)
    assert tuple(sigma[0]) == (0, 1, 2)
    assert sorted(x for c in sigma for x in c) == list(range(15))


@pytest.mark.parametrize("name", [
    pytest.param(nm, marks=pytest.mark.slow) if meta.slow else nm
    for nm, meta in sorted(ALL_BUILTINS.items())])
def test_sigma_partition_is_the_one_block_system(name):
    """Sigma from the smaller suborbit is the line orbit of the one block
    through 0 that the block lattice finds."""
    G = get_builtin(name).group
    block, = G.all_blocks_through(0)
    cells, _ = line_orbit(G.gens, sorted(block))
    assert sigma_partition(G).tolist() == sorted_rows(cells, G.degree)[0].tolist()


def test_sigma_partition_needs_an_imprimitive_rank_3_group():
    """S_5 on the 10 two-subsets is rank 3 (suborbits 1, 6, 3) and
    primitive: 4 points do not divide 10.  The hexagon's D_6 is rank 4."""
    pairs = list(itertools.combinations(range(5), 2))
    at = {p: i for i, p in enumerate(pairs)}
    S5 = PermGroup(10, [[at[tuple(sorted((g[a], g[b])))] for a, b in pairs]
                        for g in ([1, 2, 3, 4, 0], [1, 0, 2, 3, 4])])
    assert S5.order == 120 and S5.rank() == 3
    with pytest.raises(ValueError, match="not a block"):
        sigma_partition(S5)
    D6 = PermGroup(6, [[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]])
    assert D6.rank() == 4
    with pytest.raises(ValueError, match="rank 4"):
        sigma_partition(D6)


def test_pipeline_rejects_wrong_rank():
    with pytest.raises(ValueError):
        devillers_enumerate(PermGroup(4, [[1, 0, 2, 3], [1, 2, 3, 0]]))


def test_gammal2_4_pipeline_matches_families():
    res = run_pipeline("GammaL2_4")
    conn = res.structures(connected=True)
    assert len(conn) == 2
    sets = {line_set(d) for d in conn}
    assert line_set(fam.ag_star(2, 4)) in sets
    assert line_set(fam.delta(2, 4)) in sets
    assert res.line_signature() == ((15, 4), (30, 3))


def test_gammau3_4_pipeline_matches_families():
    res = run_pipeline("GammaU3_4")
    sets = {line_set(d) for d in res.structures(connected=True)}
    assert line_set(fam.usub(4, 2, 3)) in sets
    assert line_set(fam.agu_star(4)) in sets


def test_flag_transitive_blocks_match_classification():
    """The flag-transitive far blocks are exactly the classified lists."""
    for name in ["GammaL2_4", "GammaL3_4", "SL3_3", "GammaL2_16",
                 "ZSLphi2_25", "YSL2phidiag_9", "GammaU3_4"]:
        b = get_builtin(name)
        spec = b.meta.spec
        key = (spec.kind, min(spec.n, 3), spec.q, spec.r)
        expected_names = FLAG_TRANSITIVE_EXPECT[key]
        table = (expected_blocks_linear(b.space) if spec.kind == "linear"
                 else expected_blocks_unitary(b.space))
        want = {table[nm] for nm in expected_names}
        res = run_pipeline(name)
        got = {frozenset(e.block) for e in res.entries
               if e.orbit == "far" and e.flag_transitive}
        assert got == want, name


def test_conjugate_structures_for_mirrored_blocks():
    rows = reproduce_table(2, max_degree=500)
    by_label = {r["row"]: r for r in rows if "pass" in r}
    for label in ("LSub(2,25,5,3)", "DLSub(9,3,2,1)", "LSub(2,81,9,5)"):
        assert by_label[label]["pass"], by_label[label]
        detail = next(iter(by_label[label]["groups"].values()))
        assert detail["direct"] and detail["mirrored"]


def test_sigma_side_gammal2_16():
    """r = 5: the cell orbit carries the (phi^2)-orbit block of size 2,
    never flag-transitive."""
    b = get_builtin("GammaL2_16")
    entries = sigma_blocks(b.group, name="GammaL2_16")
    blocks = [e for e in entries]
    assert len(blocks) == 1 and len(blocks[0].block) == 2
    assert not blocks[0].flag_transitive
    space = b.space
    F = space.field
    # block = {w e1, w^{p^2} e1} with p = 2: the Frobenius-square orbit
    want = frozenset([space.index_of((F.omega, 0)),
                      space.index_of((F.pow(F.omega, 4), 0))])
    assert frozenset(blocks[0].block) == want


def test_sigma_side_small_cells_have_no_blocks():
    for name in ("GammaU3_4", "ZSLphi2_25", "YSL2phidiag_9"):
        entries = sigma_blocks(get_builtin(name).group, name=name)
        assert entries == []


def test_sigma_side_zsl81_frobenius_square_orbit():
    """r = 5 over GF(81): the cell blocks are the orbits of the squared
    Frobenius, {w e1, w^{p^2} e1}, and are not flag-transitive."""
    b = get_builtin("ZSLphi2_81")
    entries = sigma_blocks(b.group, name="ZSLphi2_81")
    assert [len(e.block) for e in entries] == [2]
    assert not entries[0].flag_transitive
    space = b.space
    F = space.field
    want = frozenset([space.index_of((F.omega, 0)),
                      space.index_of((F.pow(F.omega, 9), 0))])
    assert frozenset(entries[0].block) == want


def test_fingerprint_dedupe_in_signature():
    res = run_pipeline("PSL3_2_deg14")
    assert len(res.structures(connected=True)) == 3
    assert len(res.distinct_structures(connected=True)) == 2
    assert res.line_signature() == ((14, 4), (28, 3))


def test_classify_blocks_reports():
    rep = classify_blocks("GammaL2_4")
    assert rep.ok
    assert sorted((k, len(v)) for k, v in rep.matched.items()) == [
        ("B1", 3), ("B2", 4), ("B4", 2), ("B5", 3)]
    rep = classify_blocks("GammaU3_4")
    assert rep.ok and sorted(len(b) for b in rep.computed) == [2, 3, 3, 4, 12, 64]


def test_tables_2_3_default():
    for tid in (2, 3):
        for row in reproduce_table(tid, max_degree=300):
            assert row.get("pass", True), row


def test_tables_4_5_6_default():
    for tid in (4, 5, 6):
        for row in reproduce_table(tid, max_degree=1400):
            if row.get("status", "").startswith("skipped"):
                continue
            assert row["pass"], row


def test_negative_controls():
    for row in negative_controls():
        assert row["pass"], row


def test_report_json_shape():
    res = run_pipeline("GammaL2_4")
    data = json.loads(report_json(res))
    assert data["group"] == "GammaL2_4"
    assert data["degree"] == 15 and data["rank"] == 3
    assert data["sigma_cells"] == 5 and data["cell_size"] == 3
    assert any(r.get("flag_transitive") for r in data["results"])


@pytest.mark.slow
def test_pgammal38_table3_and_ree_components():
    from rank3pls.incidence import components, validate_pls
    res = run_pipeline("PGammaL3_8_deg2044", slow=True)
    assert res.line_signature(connected=True) == ((98112, 7), (686784, 3))
    disc = res.structures(connected=False)
    assert len(disc) == 1
    D = disc[0]
    comps = components(D)
    assert len(comps) == 73 and {len(c) for c in comps} == {28}
    assert D.num_lines == 73 * 63 and {len(l) for l in D.lines} == {4}
    rep = validate_pls(D)
    # every pair inside a component on exactly one line: a 2-(28,4,1) per cell
    assert rep.multiplicity == 1
    assert rep.collinear_pairs == 73 * (28 * 27 // 2)


@pytest.mark.slow
def test_gammau3_16_blocks():
    rep = classify_blocks("GammaU3_16")
    assert rep.ok
    assert sorted((k, len(v)) for k, v in rep.matched.items()) == [
        ("B1", 4096), ("B2", 16), ("B3", 5), ("B4", 80), ("B7", 4)]


def test_run_pipeline_cache_keys_on_slow(monkeypatch, fresh_caches):
    """A slow result is not handed to a later capped call."""
    monkeypatch.setattr(pipeline, "MAX_LINE_ORBIT", 10)
    assert run_pipeline("GammaL2_4", slow=True).line_signature() == ((15, 4), (30, 3))
    with pytest.raises(RuntimeError, match="max_lines"):
        run_pipeline("GammaL2_4")


def test_pipeline_and_count_only_leave_numpy_ma_unloaded():
    """Plain np.unique imports numpy.ma on first use, tens of ms per
    process; a pipeline run and a count-only family build never call it."""
    code = ("import sys\n"
            "from rank3pls import families, pipeline\n"
            "pipeline.run_pipeline('PSL3_2_deg14')\n"
            "families.usub(16, 4)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(pipeline.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
