"""Coset point sets, induced actions, classification flags."""

import random

import numpy as np
import pytest

from rank3pls.catalog import NEGATIVE_CONTROLS, OMEGA_BUILTINS, get_builtin
from rank3pls.gfield import _CONWAY, field_make
from rank3pls.matsemi import (GroupSpec, Mat, SemilinearElem, gens_group,
                              gens_sl, induced_order_bound, linear, scalar)
from rank3pls.omega import (_tables, build_omega, classify_action, induce_action,
                            induced_group, projective_points, semilinear_image)
from rank3pls.permcore import PermGroup
from tests_geometry_oracle import apply
from tests_order_oracle import induced_kernel_facts, induced_order, perm_order


def test_build_omega_sizes():
    assert len(build_omega("linear", 2, 4, 3)) == 15
    assert len(build_omega("unitary", 3, 4, 3)) == 195
    assert len(build_omega("linear", 2, 9, 2)) == 20


def test_build_omega_rejects():
    with pytest.raises(ValueError):
        build_omega("linear", 2, 3, 2)
    with pytest.raises(ValueError):
        build_omega("linear", 2, 4, 2)   # r must divide q - 1
    with pytest.raises(ValueError):
        build_omega("unitary", 3, 4, 5)  # r | q + 1 rejected
    with pytest.raises(ValueError):
        build_omega("unitary", 2, 4, 3)
    with pytest.raises(ValueError):
        build_omega("affine", 2, 4, 3)


def test_alpha_and_cell_indexing():
    sp = build_omega("linear", 2, 16, 5)
    assert sp.vectors[0].tolist() == [1, 0]
    assert sp.cells[0].tolist() == list(range(5))
    spu = build_omega("unitary", 3, 4, 3)
    assert spu.vectors[0].tolist() == [1, 0, 0]
    assert spu.cells[0].tolist() == [0, 1, 2]
    assert spu.index_of((0, 0, 1)) == 3  # f right after the alpha cell


def test_canonical_form_unique():
    sp = build_omega("linear", 2, 9, 2)
    F = sp.field
    for v in sp.vectors.tolist():
        for i in range(sp.r):
            scaled = tuple(F.mul(F.exp[(2 * i) % (F.q - 1)], x) for x in v)
            assert sp.vectors[sp.index_of(scaled)].tolist() == v


def test_kernel_facts():
    for kind, n, q, r in [("linear", 2, 4, 3), ("linear", 2, 25, 3),
                          ("unitary", 3, 4, 3)]:
        sp = build_omega(kind, n, q, r)
        trivial, order = induced_kernel_facts(sp)
        assert trivial and order == r


def test_scalar_action_shape():
    sp = build_omega("linear", 2, 25, 3)
    F = sp.field
    perm = induce_action(sp, [scalar(F, F.omega, 2)])[0]
    assert perm_order(perm) == 3
    assert not (perm == np.arange(len(sp))).any()  # fixed-point-free
    # permutes each cell cyclically
    for cell in sp.cells.tolist():
        assert sorted(int(perm[x]) for x in cell) == cell


def test_phi_fixes_subfield_points():
    sp = build_omega("linear", 2, 4, 3)
    from rank3pls.matsemi import phi
    perm = induce_action(sp, [phi(sp.field, 2)])[0]
    for vec in [(1, 0), (0, 1)]:
        i = sp.index_of(vec)
        assert perm[i] == i


def test_induce_action_rejects_non_permuting():
    sp = build_omega("unitary", 3, 4, 3)
    bad = linear(Mat(sp.field, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))  # not unitary
    with pytest.raises(ValueError, match="does not permute Omega"):
        induce_action(sp, [bad])


def test_induce_action_rejects_non_bijective():
    sp = build_omega("linear", 2, 4, 3)
    singular = linear(Mat(sp.field, [[1, 1], [1, 1]]))
    with pytest.raises(ValueError, match="bijectively"):
        induce_action(sp, [singular])


def test_induce_action_rejects_a_repeated_image(monkeypatch):
    """An image that no cell-wise construction gives, two points on one,
    still trips induce_action's own bijectivity check."""
    sp = build_omega("linear", 2, 4, 3)
    merged = np.arange(len(sp), dtype=np.int32)
    merged[1] = 0
    monkeypatch.setattr(sp, "image", lambda g: merged)
    with pytest.raises(ValueError, match="bijectively"):
        induce_action(sp, [scalar(sp.field, 1, 2)])


def test_induce_action_rejects_sigma_breaking(monkeypatch):
    """Every semilinear map preserves Sigma, so the check is driven by an
    image that swaps two points of different cells."""
    sp = build_omega("linear", 2, 4, 3)
    swap = np.arange(len(sp), dtype=np.int32)
    a, b = sp.cells[0, 0], sp.cells[1, 0]
    swap[[a, b]] = b, a
    monkeypatch.setattr(sp, "image", lambda g: swap)
    with pytest.raises(ValueError, match="Sigma"):
        induce_action(sp, [scalar(sp.field, 1, 2)])


def _scalar_canonical(F, r, v):
    """The per-vector canonical form: scale by the element of <w^r> that puts
    the first nonzero coordinate into {w^i : 0 <= i < r}."""
    d = F.log[next(x for x in v if x != 0)]
    s = F.exp[(d % r - d) % (F.q - 1)]
    return tuple(F.mul(s, x) for x in v)


def _scalar_induce(sp, g):
    points = list(map(tuple, sp.vectors.tolist()))
    index = {v: i for i, v in enumerate(points)}
    return np.array([index[_scalar_canonical(sp.field, sp.r, apply(g, v))]
                     for v in points], dtype=np.int32)


@pytest.mark.parametrize("name", [
    *[n for n, m in OMEGA_BUILTINS.items() if not m.slow],
    pytest.param("GammaU3_16", marks=pytest.mark.slow)])
def test_induce_action_matches_scalar_reference(name):
    spec = OMEGA_BUILTINS[name].spec
    sp = build_omega(spec.kind, spec.n, spec.q, spec.r)
    gens = gens_group(spec)
    for g, perm in zip(gens, induce_action(sp, gens)):
        assert perm.dtype == np.int32
        assert np.array_equal(perm, _scalar_induce(sp, g)), (name, g)


def test_projective_and_vector_actions_match_scalar_loops():
    """PGammaL3(8) on 73 projective points against the per-vector normalize
    loop, and SL3(4) on the 63 nonzero vectors of GF(4)^3."""
    F = field_make(2, 3)
    gens = gens_sl(3, F) + [linear(Mat.diag(F, [F.omega, 1, 1])),
                            SemilinearElem(1, Mat.identity(F, 3))]
    reps = []
    for pivot in range(3):
        for idx in range(F.q ** (2 - pivot)):
            reps.append(tuple([0] * pivot + [1] + [idx % F.q, idx // F.q][:2 - pivot]))
    index = {v: i for i, v in enumerate(reps)}

    def normalize(v):
        c = next(x for x in v if x != 0)
        return tuple(F.mul(F.inv(c), x) for x in v)

    G = induced_group(projective_points(F, 3), gens)
    assert G.order == 49448448
    for g, perm in zip(gens, G.gens):
        assert perm.tolist() == [index[normalize(apply(g, v))] for v in reps]

    F4 = field_make(2, 2)
    vecs = [(k % 4, k // 4 % 4, k // 16) for k in range(1, 64)]
    vindex = {v: i for i, v in enumerate(vecs)}
    gens4 = gens_sl(3, F4)
    points4 = projective_points(F4, 3, vectors=True)
    G4 = induced_group(points4, gens4)
    assert points4.vectors.tolist() == [list(v) for v in vecs]
    for g, perm in zip(gens4, G4.gens):
        assert perm.tolist() == [vindex[apply(g, v)] for v in vecs]


def test_suborbit_shape_across_catalogue():
    for name, meta in OMEGA_BUILTINS.items():
        if meta.slow:
            continue
        b = get_builtin(name)
        G = b.group
        st = G.stabilizer(0)
        sizes = sorted(len(o) for o in st.orbits())
        r = meta.r
        assert sizes == [1, r - 1, G.degree - r], name


def test_classify_catalogue_flags_and_types():
    for name, meta in OMEGA_BUILTINS.items():
        if meta.slow:
            continue
        b = get_builtin(name)
        spec = meta.spec
        flags = classify_action(spec.n, spec.q, spec.r, b.group, spec, b.space)
        assert flags["semiprimitive"]
        assert flags["rank3"], name
        assert flags["type"] == meta.gtype, (name, flags)


def test_classify_negative_controls():
    for spec in NEGATIVE_CONTROLS:
        if spec.q ** (2 if spec.kind == "unitary" else 1) > 1000:
            continue  # the big ones run in the acceptance suite
        sp = build_omega(spec.kind, spec.n, spec.q, spec.r)
        gens = gens_group(spec)
        G = PermGroup(len(sp), induce_action(sp, gens),
                      order_bound=induced_order_bound(gens, spec.r, sp.form),
                      name=str(spec))
        assert G.order == induced_order(spec)
        flags = classify_action(spec.n, spec.q, spec.r, G, spec, sp)
        assert not flags["rank3"], spec


@pytest.mark.parametrize("shape", ["z_sl", "z_sl_phi"])
def test_classify_rank3_with_scalars_at_r2(shape):
    """At (n, r) = (2, 2) the flag asks for a non-square determinant: the
    scalars w I lie in G but only swap the two points of each cell, so
    Z SL_2(q) has rank 4 even where 4 divides q - 1."""
    qs = sorted(p ** a for p, a in _CONWAY if p ** a % 4 == 1 and p ** a <= 125)
    assert len(qs) == 11
    for q in qs:
        spec = GroupSpec("linear", 2, q, 2, shape)
        sp = build_omega("linear", 2, q, 2)
        gens = gens_group(spec)
        G = PermGroup(len(sp), induce_action(sp, gens),
                      order_bound=induced_order_bound(gens, 2), name=str(spec))
        assert G.order == induced_order(spec)
        flags = classify_action(2, q, 2, G, spec, sp)
        assert flags["rank3"] == (G.rank() == 3), spec


def test_classify_consistency_failure_raises():
    """Feeding the wrong spec for a group trips the rank cross-check."""
    b = get_builtin("GammaL2_4")
    wrong = GroupSpec("linear", 2, 4, 3, "sl")  # claims j = a, so not rank 3
    with pytest.raises(AssertionError):
        classify_action(2, 4, 3, b.group, wrong, b.space)


def test_space_json_export():
    import json
    sp = build_omega("linear", 2, 4, 3)
    data = json.loads(sp.to_json())
    assert data["kind"] == "linear" and len(data["points"]) == 15
    assert sorted(map(tuple, data["sigma"]))[0] == (0, 1, 2)


def test_points_of_one_lookup_sorted_and_distinct():
    sp = build_omega("unitary", 3, 4, 3)
    w = sp.field.omega
    # (0, 0, w^3) is the point of (0, 0, 1): w^r scales within a point
    pts = sp.points_of([(0, 0, 1), (1, 0, 0), (0, 0, sp.field.pow(w, 3))])
    assert pts == (0, sp.index_of((0, 0, 1)))
    assert sp.index_of((0, 0, 1)) == 3


def test_points_of_and_index_of_name_a_non_point():
    sp = build_omega("unitary", 3, 4, 3)
    with pytest.raises(KeyError, match=r"\(1, 1, 1\) is not a point"):
        sp.points_of([(1, 0, 0), (1, 1, 1)])
    with pytest.raises(KeyError, match=r"\(1, 1, 1\) is not a point"):
        sp.index_of((1, 1, 1))


@pytest.mark.parametrize("args", [("linear", 3, 4, 3), ("unitary", 3, 4, 3),
                                  ("linear", 2, 9, 2)])
def test_points_of_matches_a_dict_lookup(args):
    """Scaled point vectors, found by one locate call and, one at a time, in
    a dict from canonical vector (the all-points reference's) to point."""
    sp = build_omega(*args)
    F = sp.field
    index = {tuple(v): i for i, v in enumerate(sp.vectors.tolist())}
    rng = random.Random(7)
    vecs = [tuple(F.mul(s, x) for x in sp.vectors[rng.randrange(len(sp))].tolist())
            for s in (rng.randrange(1, F.q) for _ in range(40))]
    canonical = _AllPoints(sp).canonical(np.array(vecs))
    assert sp.points_of(vecs) == tuple(sorted({index[tuple(v)]
                                               for v in canonical.tolist()}))


class _AllPoints:
    """The all-points reference for CanonicalPoints: every point's canonical
    vector keyed by sum v_j q^j in one sorted array; a vector is scaled by
    the element of <w^r> putting its first nonzero coordinate into
    {w^i : 0 <= i < r} and searched there, and an element's image maps and
    searches all N point vectors."""

    def __init__(self, points):
        self.field, self.r, self.vectors = points.field, points.r, points.vectors
        self.place = self.field.q ** np.arange(self.vectors.shape[1], dtype=np.int64)
        keys = self.vectors @ self.place
        self.order = np.argsort(keys)
        self.keys = keys[self.order]

    def canonical(self, V):
        T = _tables(self.field)
        first = V[np.arange(len(V)), (V != 0).argmax(axis=1)]
        if not first.all():
            raise ValueError("zero vector has no Omega point")
        d = T.log[first]
        return T.scale(V, -(d - d % self.r)[:, None])

    def locate(self, V):
        keys = self.canonical(V) @ self.place
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(self.keys[pos] == keys, self.order[pos], -1)

    def image(self, g):
        W = semilinear_image(g, self.vectors)
        if not W.any(axis=1).all():
            raise ValueError("does not act bijectively")
        img = self.locate(W)
        if (img < 0).any():
            raise ValueError("does not permute Omega")
        return img.astype(np.int32)


def _probe_vectors(points, count=200, seed=5):
    """Scaled point vectors and random nonzero vectors, which may lie in
    no point."""
    F, n = points.field, points.vectors.shape[1]
    rng = np.random.default_rng(seed)
    rows = points.vectors[rng.integers(len(points), size=count)]
    scaled = _tables(F).scale(rows, rng.integers(F.q - 1, size=count)[:, None])
    other = rng.integers(F.q, size=(count, n))
    return np.concatenate([scaled, other[other.any(axis=1)]])


def _agrees_with_reference(points, gens):
    ref = _AllPoints(points)
    for g in gens:
        img = points.image(g)
        assert img.dtype == np.int32
        assert np.array_equal(img, ref.image(g)), g
    V = _probe_vectors(points)
    assert np.array_equal(points.locate(V), ref.locate(V))


@pytest.mark.parametrize("name", list(OMEGA_BUILTINS))
def test_cell_image_and_locate_match_all_points_on_every_builtin(name):
    """The space of every Omega builtin, GammaU3_16's frob generators
    included, against the all-points reference."""
    spec = OMEGA_BUILTINS[name].spec
    sp = build_omega(spec.kind, spec.n, spec.q, spec.r)
    gens = gens_group(spec)
    assert any(g.frob for g in gens) or name != "GammaU3_16"
    _agrees_with_reference(sp, gens)
    assert len(sp.reps) * sp.r == len(sp) and sp.locate(sp.vectors).tolist() == list(range(len(sp)))


@pytest.mark.parametrize("p, a, n", [(2, 3, 3), (2, 2, 3), (2, 1, 4), (3, 1, 3),
                                     (5, 1, 2)])
def test_cell_image_and_locate_match_all_points_on_vectors_and_1_spaces(p, a, n):
    """The projective action (r = 1) and the nonzero vectors (r = q - 1),
    with the frob generator of PGammaL3(8) among them, and the group
    induced_group builds on the vectors."""
    F = field_make(p, a)
    gens = gens_sl(n, F) + [linear(Mat.diag(F, [F.omega] + [1] * (n - 1))),
                            SemilinearElem(1, Mat.identity(F, n))]
    for vectors in (False, True):
        _agrees_with_reference(projective_points(F, n, vectors), gens)
    vecs = projective_points(F, n, vectors=True)
    G = induced_group(vecs, gens)
    assert vecs.vectors.tolist() == [[k // F.q**j % F.q for j in range(n)]
                             for k in range(1, F.q**n)]
    assert all(np.array_equal(h, _AllPoints(projective_points(F, n, True)).image(g))
               for g, h in zip(gens, G.gens))


def test_points_of_key_error_is_a_reference_miss():
    sp = build_omega("unitary", 3, 4, 3)
    v = np.array([[1, 1, 1]])
    assert sp.locate(v)[0] == _AllPoints(sp).locate(v)[0] == -1
    with pytest.raises(KeyError, match=r"\(1, 1, 1\) is not a point"):
        sp.points_of(v)
