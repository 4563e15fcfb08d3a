"""Family structures decided from their lines through 0, against the
full-array predicates of the same lines ingested as an IncidenceStructure."""

from types import SimpleNamespace

import numpy as np
import pytest

from rank3pls import families as fam, pipeline
from rank3pls.incidence import (IncidenceStructure, components, fingerprint,
                                is_proper, relabel, validate_pls)
from rank3pls.omega import build_omega
from rank3pls.permcore import PermGroup

# every Table 2 family instance, AG*(3,9), and the non-PLS DLSub(9,3,2,2)
INSTANCES = [(fam, args) for _, (fam, args), _, _ in pipeline.TABLE2_ROWS] + [
    ("agstar", (3, 9)), ("dlsub", (9, 3, 2, 2))]


def _predicates(D):
    rep = validate_pls(D)
    return (rep, rep.is_pls and is_proper(D), components(D), fingerprint(D),
            D.point_degrees().tolist(), D.num_lines)


@pytest.mark.parametrize("kind, args", INSTANCES,
                         ids=[f"{k}{a}" for k, a in INSTANCES])
def test_alpha_predicates_match_the_full_array(kind, args):
    D = fam.CONSTRUCTORS[kind](*args)
    at_alpha = _predicates(D)
    assert D._lines is None
    R = IncidenceStructure(D.num_points, D.lines, D.params)
    assert at_alpha == _predicates(R)
    assert D.has_lines(R.lines).all()
    rng = np.random.default_rng(3)
    known = R.line_set()
    for _ in range(200):
        row = tuple(sorted(rng.choice(D.num_points, D.line_size, replace=False).tolist()))
        assert D.has_lines([row])[0] == (row in known)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_dlsub_disjoint_union_param(j):
    """disjoint_union says whether L^G and its image under diag(w^j, 1)
    share no line, as the lines themselves show."""
    D = fam.dlsub(9, 3, 2, j)
    L = fam.lsub(2, 9, 3, 2)
    image = relabel(L, fam.diagonal_map(build_omega("linear", 2, 9, 2), j))
    assert D.params["disjoint_union"] == L.line_set().isdisjoint(image.line_set())
    assert D.line_set() == L.line_set() | image.line_set()


@pytest.mark.parametrize("base, sizes", [([0, 1], [3, 3]), ([0, 1, 3], [6])])
def test_components_in_a_wreath_product(base, sizes):
    """S_3 wr S_2 on two blocks of 3 points: a line inside a block gives two
    components; a line meeting both blocks joins them, through both
    G_0-orbits of the points collinear with 0."""
    G = PermGroup(6, [[1, 0, 2, 3, 4, 5], [1, 2, 0, 3, 4, 5], [3, 4, 5, 0, 1, 2]])
    D = fam.OrbitStructure(G, [base], {})
    at_alpha = _predicates(D)
    assert at_alpha == _predicates(IncidenceStructure(6, D.lines))
    assert [len(c) for c in components(D)] == sizes


def test_two_bases_in_one_orbit_give_that_orbit():
    D = fam.lsub(2, 16, 4, 5)
    (base,) = D.bases
    U = fam.OrbitStructure(D.group, [base, D.group.gens[0][base]], {})
    assert len(U.bases) == 1 and U.num_lines == D.num_lines
    assert U.line_set() == D.line_set()


def test_rows_with_points_off_the_space_are_rejected():
    """has_lines reads its rows as points of the structure; -1 or a point
    past the last is an error, not a point read modulo n."""
    D = fam.lsub(2, 16, 4, 5)
    row = D.bases[0].copy()
    assert D.has_lines([row]).all()
    for off in (-1, D.num_points):
        row[-1] = off
        with pytest.raises(ValueError, match="outside range"):
            D.has_lines([row])


def test_one_kept_group_per_space_and_shape():
    assert fam.ag_star(3, 4).group is fam.delta(3, 4).group
    assert fam.usub(4, 2, 3).group is fam.agu_star(4).group
    assert fam.dlsub(9, 3, 2, 1).group is fam.lsub(2, 9, 3, 2).group
    assert fam.ag_star(3, 4).group is not fam.ag_star(2, 4).group


def test_a_group_that_is_not_transitive_is_one_line_error():
    G = PermGroup(4, [[1, 0, 2, 3]])
    with pytest.raises(ValueError, match="not transitive") as err:
        fam.OrbitStructure(G, [[0, 1]], {})
    assert "\n" not in str(err.value)


def test_lsub_3_25_5_3_builds_no_line_array(monkeypatch):
    """lsub(3, 25, 5, 3) and its predicates run line_orbit only on the
    G_0-orbits of its 780 lines through 0; the 253,890 lines are built
    once, when `lines` is read."""
    sizes = []
    real = fam.line_orbit

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        sizes.append(len(out[0]))
        return out

    monkeypatch.setattr(fam, "line_orbit", counted)
    D = fam.lsub(3, 25, 5, 3)
    rep = validate_pls(D)
    assert (rep.multiplicity, rep.is_pls) == (2, False)
    assert components(D) == [list(range(D.num_points))]
    assert fingerprint(D)[:2] == (1953, 253_890)
    assert D.point_degrees()[0] == 780
    assert sizes and max(sizes) <= 780 and sum(sizes) == 780
    assert D._lines is None
    sizes.clear()
    first = D.lines
    assert D.lines is first
    assert sizes == [253_890] and len(first) == D.num_lines


def _built_line_arrays(monkeypatch) -> list:
    """The OrbitStructures that build their line array from now on."""
    built = []
    real_lines = fam.OrbitStructure.lines.fget

    def counted_lines(D):
        if D._lines is None:
            built.append(D)
        return real_lines(D)

    monkeypatch.setattr(fam.OrbitStructure, "lines", property(counted_lines))
    return built


def test_table2_builds_no_family_line_array(monkeypatch, fresh_caches):
    """The Table 2 rows decide `direct` and `mirrored` by normalizer
    certificates, read off the family's lines through 0, so neither a
    family structure D nor any emitted structure builds its line array."""
    built, families_built = _built_line_arrays(monkeypatch), []

    def recorded(make):
        return lambda *args: families_built.append(make(*args)) or families_built[-1]

    for kind, make in list(fam.CONSTRUCTORS.items()):
        monkeypatch.setitem(fam.CONSTRUCTORS, kind, recorded(make))
    rows = pipeline.reproduce_table(2, max_degree=300)
    assert all(r["pass"] for r in rows if "pass" in r)
    assert families_built
    assert not any(D is E for D in families_built for E in built)
    assert len(built) == 0


@pytest.mark.slow
def test_slow_table2_builds_no_line_array(monkeypatch, fresh_caches):
    built = _built_line_arrays(monkeypatch)
    rows = pipeline.reproduce_table(2, slow=True)
    assert all(r["pass"] for r in rows) and len(rows) == 12
    assert built == []


def test_a_perturbed_family_base_row_fails_its_row(monkeypatch, fresh_caches):
    """A base row of D moved off D's lines: GammaL2_16 no longer maps it into
    D, so its structure is not certified equal to D and the row fails."""
    make = fam.CONSTRUCTORS["lsub"]

    def perturbed(*args):
        D = make(*args)
        row = D.bases[0].copy()
        row[-1] = next(x for x in range(D.num_points) if x not in row)
        D.bases[0] = np.sort(row)
        assert not D.has_lines([D.bases[0]])[0]
        return D

    assert pipeline._table2_row("lsub", (2, 16, 4, 5), ["GammaL2_16"], None,
                                False)["pass"]
    monkeypatch.setitem(fam.CONSTRUCTORS, "lsub", perturbed)
    row = pipeline._table2_row("lsub", (2, 16, 4, 5), ["GammaL2_16"], None, False)
    assert row == {"pass": False, "groups": {"GammaL2_16": {
        "direct": False, "mirrored": None, "emitted": 1}}}


def test_a_group_that_does_not_normalize_the_family_group_emits_nothing(monkeypatch):
    """D is the pentagon, the orbit of {0, 1} under N = <(0 1 2 3 4)>.  The
    5-cycle g = (0 3 1 2 4) does not normalize N, maps {0, 1} to the edge
    {2, 3}, and its orbit E of {0, 1} has five lines too, but two of them
    are diagonals: every other part of the certificate holds, so only the
    normalizer check stands between E and a false `direct`."""
    N = PermGroup(5, [[1, 2, 3, 4, 0]])
    G = PermGroup(5, [[3, 2, 4, 1, 0]])
    D = fam.OrbitStructure(N, [[0, 1]], {})
    E = fam.OrbitStructure(G, [[0, 1]], {})
    assert D.has_lines([G.gens[0][[0, 1]]])[0] and E.num_lines == D.num_lines
    assert not D.has_lines([[0, 2]])[0] and E.has_lines([[0, 2]])[0]
    monkeypatch.setitem(fam.CONSTRUCTORS, "pentagon", lambda: D)
    monkeypatch.setattr(pipeline, "get_builtin",
                        lambda name: SimpleNamespace(group=G, space=None))
    monkeypatch.setattr(pipeline, "run_pipeline", lambda name, slow: SimpleNamespace(
        structures=lambda connected: [E]))
    row = pipeline._table2_row("pentagon", (), ["G"], None, False)
    assert row == {"pass": False, "groups": {"G": {
        "direct": False, "mirrored": None, "emitted": 1}}}


def test_a_group_of_another_degree_gets_no_certificate():
    row = pipeline._table2_row("agstar", (2, 4), ["SL3_3"], None, False)
    assert row["groups"]["SL3_3"]["direct"] is False and not row["pass"]
