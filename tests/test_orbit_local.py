"""The orbit-local pipeline against the line-orbit reference, and its lazy
line arrays."""

import math
import sys

import numpy as np
import pytest

from rank3pls import families, pipeline
from rank3pls.catalog import ALL_BUILTINS, get_builtin
from rank3pls.incidence import components, fingerprint, is_connected, validate_pls
from rank3pls.permcore import PermGroup, flag_transitive_on_line, identity
from rank3pls.pipeline import (devillers_enumerate, flag_transitive_at_alpha,
                               reproduce_table, run_pipeline)
from tests_pipeline_oracle import reference_enumerate

DESK = sorted(nm for nm, meta in ALL_BUILTINS.items() if meta.degree <= 300)
WREATHS = [(2, 3), (3, 2), (2, 4), (3, 3), (4, 3), (3, 4), (5, 2)]


def wreath(a: int, b: int, block_gens=None) -> PermGroup:
    """H wr S_b on a * b points, point a * i + j being point j of block i,
    where H on a points is generated by block_gens (default: S_a).  Rank 3
    when H is 2-transitive, its blocks the one nontrivial block system."""
    grid = np.arange(a * b, dtype=np.int32).reshape(b, a)
    if block_gens is None:
        block_gens = [np.r_[1, 0, 2:a], np.roll(np.arange(a), 1)]

    def perm(img):
        g = np.empty(a * b, dtype=np.int32)
        g[grid.ravel()] = img.ravel()
        return g

    in_block = []
    for h in block_gens:
        img = grid.copy()
        img[0] = grid[0, h]
        in_block.append(img)
    blocks_swap = grid[[1, 0, *range(2, b)]]
    blocks_cycle = np.roll(grid, 1, axis=0)
    return PermGroup(a * b, [perm(x) for x in (*in_block, blocks_swap, blocks_cycle)])


def fano_group() -> list[np.ndarray]:
    """GL(3,2) on the 7 nonzero vectors of F_2^3, vector v (bits) being
    point v - 1: a Singer cycle and a transvection."""
    vecs = (np.arange(1, 8)[:, None] >> np.arange(3)) & 1
    gens = []
    for m in ([[0, 0, 1], [1, 0, 1], [0, 1, 0]], [[1, 1, 0], [0, 1, 0], [0, 0, 1]]):
        img = (vecs @ np.array(m).T) % 2
        gens.append((img @ (1 << np.arange(3)) - 1).astype(np.int32))
    return gens


def _groups():
    for nm in DESK:
        yield nm, lambda nm=nm: get_builtin(nm).group
    for a, b in WREATHS:
        yield f"S{a}wrS{b}", lambda a=a, b=b: wreath(a, b)
    for b in (2, 3):
        # each cell carries a Fano plane: disconnected structures
        yield f"PSL3_2wrS{b}", lambda b=b: wreath(7, b, fano_group())


@pytest.mark.parametrize("name,build", list(_groups()), ids=[nm for nm, _ in _groups()])
def test_pipeline_matches_the_line_orbit_reference(name, build):
    G = build()
    res = devillers_enumerate(G, name=name)
    assert res.rank == 3
    ref = reference_enumerate(G, name)
    assert [e.summary() for e in res.entries] == [r.entry.summary() for r in ref]
    for e, r in zip(res.entries, ref):
        D, R = e.structure, r.entry.structure
        if R is None:
            assert D is None
            continue
        # orbit-local first, before D has a line array
        assert validate_pls(D) == r.report
        assert components(D) == r.components
        assert fingerprint(D) == r.fingerprint
        assert D._lines is None
        assert D.params == R.params
        assert np.array_equal(D.lines, R.lines)


def test_wreath_products_are_rank_3():
    assert PermGroup(7, fano_group()).order == 168
    for a, b, H, order in [*((a, b, None, math.factorial(a)) for a, b in WREATHS),
                           (7, 2, fano_group(), 168), (7, 3, fano_group(), 168)]:
        G = wreath(a, b, H)
        assert G.order == order ** b * math.factorial(b)
        assert G.rank() == 3
        assert [len(c) for c in pipeline.sigma_partition(G)] == [a] * b


def test_fano_cells_give_disconnected_structures():
    res = devillers_enumerate(wreath(7, 3, fano_group()))
    (D,) = res.structures()
    assert not is_connected(D) and D.num_lines == 3 * 7
    assert fingerprint(D)[5] == (7, 7, 7)
    assert res.line_signature(connected=False) == ((21, 3),)


@pytest.mark.parametrize("name", DESK)
def test_decision_matches_flag_test_on_every_block(name):
    """The cell filter skipped: every block through the least point of every
    suborbit, filtered or not."""
    G = get_builtin(name).group
    Ga = G.stabilizer(0)
    labels = Ga.orbit_labels()
    at0 = G.schreier_tree(0)
    tested = 0
    for orb in Ga.orbits():
        beta = orb[0]
        if len(orb) <= 2:
            continue
        at_beta = Ga.schreier_tree(beta)
        t_beta = at0.to_root(identity(G.degree)[None], np.array([beta]))[0]
        for block in Ga.all_blocks_through(beta):
            B = np.array(sorted(block), dtype=np.int32)
            got = flag_transitive_at_alpha(B, t_beta, at_beta, labels == beta)
            assert got == flag_transitive_on_line(G, [0, *B.tolist()]), (name, len(B))
            tested += 1
    assert tested


@pytest.mark.parametrize("name", ["GammaL2_4", "GammaU3_4", "PSL3_3_deg39",
                                  "PSL3_2_deg14", "YSL2phidiag_9"])
def test_has_line_is_orbit_membership(name):
    rng = np.random.default_rng(7)
    res = run_pipeline(name)
    for D in res.structures():
        lines = D.lines
        known = set(map(tuple, lines.tolist()))
        for row in lines[rng.choice(len(lines), min(len(lines), 200), replace=False)]:
            assert D.has_lines([row])[0]
        for _ in range(200):
            cand = tuple(sorted(rng.choice(D.num_points, D.line_size, replace=False).tolist()))
            assert D.has_lines([cand])[0] == (cand in known)
        # the lines of another structure with lines of the same size
        for E in res.structures():
            if E is not D and E.line_size == D.line_size:
                for row in E.lines[:50].tolist():
                    assert D.has_lines([row])[0] == (tuple(row) in known)


def test_line_arrays_built_only_when_read(monkeypatch, fresh_caches):
    """Only `lines` orbits a base row under G; the constructor's G_0 row
    orbits call line_orbit too, and are not counted."""
    calls = []
    real = families.line_orbit

    def counted(*args, **kwargs):
        # `lines` may call it from a comprehension, one frame further out
        caller = sys._getframe(1)
        if "lines" in (caller.f_code.co_name, caller.f_back.f_code.co_name):
            calls.append("lines")
        return real(*args, **kwargs)

    monkeypatch.setattr(families, "line_orbit", counted)
    res = run_pipeline("GammaU3_4")
    res.report()
    res.line_signature(None)
    assert len(res.structures()) == 2
    assert calls == []
    D = res.structures()[1]
    first = D.lines
    assert D.lines is first
    assert calls == ["lines"]
    assert len(first) == D.num_lines


def test_forced_acceptance_fails_the_pls_check(monkeypatch):
    """With the flag test accepting every unfiltered block, GL3_3 emits a
    line orbit that is not a proper partial linear space, and the pipeline's
    validation, read off the lines through 0, rejects it."""
    monkeypatch.setattr(pipeline, "flag_transitive_at_alpha", lambda *args: True)
    with pytest.raises(AssertionError, match="fails PLS/properness"):
        devillers_enumerate(get_builtin("GL3_3").group, name="GL3_3")


def test_max_line_orbit_caps_the_emitted_structures(monkeypatch, fresh_caches):
    """The cap counts a structure's lines, not the orbits of the lines that
    are not flag-transitive."""
    monkeypatch.setattr(pipeline, "MAX_LINE_ORBIT", 30)
    assert run_pipeline("GammaL2_4").line_signature() == ((15, 4), (30, 3))
    fresh_caches()
    monkeypatch.setattr(pipeline, "MAX_LINE_ORBIT", 29)
    with pytest.raises(RuntimeError, match="max_lines"):
        run_pipeline("GammaL2_4")


@pytest.mark.slow
def test_usub_16_4_5_row_needs_the_pipeline_count(monkeypatch):
    """The slow USub(16,4,5) row rests on GammaU3_16's pipeline: a wrong
    closed-form count fails it, although the family reports the same
    wrong count."""

    def row():
        return next(r for r in reproduce_table(2, slow=True) if r["row"] == "USub(16,4,5)")

    assert row()["pass"]
    real = families.expected_counts

    def perturbed(family, *args):
        out = real(family, *args)
        if (family, *args) == ("usub", 3, 16, 4, 5):
            out = {**out, "lines": out["lines"] + 1}
        return out

    monkeypatch.setattr(families, "expected_counts", perturbed)
    assert families.usub(16, 4, 5).expected["lines"] == 20_976_641
    assert not row()["pass"]


@pytest.mark.slow
def test_gammau3_16_structure_orbit_local():
    """20,976,640 lines of size 5, counted, validated and matched with the
    family's base line without a line array."""
    res = run_pipeline("GammaU3_16", slow=True)
    (D,) = res.structures()
    exp = families.expected_counts("usub", 3, 16, 4, 5)
    assert (D.num_points, D.num_lines, D.line_size) == (exp["points"], exp["lines"],
                                                        exp["line_size"])
    assert is_connected(D) and validate_pls(D).is_pls
    assert D.has_lines([families.usub(16, 4, 5).base_line])[0]
    assert not D.has_lines([(0, 1, 2, 3, 4)])[0]
    assert D._lines is None
