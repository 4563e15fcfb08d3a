"""Matrix layer: semilinear composition, unitary membership, generators."""

import random

import pytest

from rank3pls.gfield import field_make
from rank3pls.matsemi import (GroupSpec, Mat, SemilinearElem, UnitaryForm,
                              gens_group, gens_sl, gens_su3, induced_order_bound,
                              is_unitary, linear, sl_order, su3_order)
from rank3pls.omega import induced_group, projective_points
from rank3pls.permcore import PermGroup
from tests_geometry_oracle import apply, product
from tests_order_oracle import group_matrix_order, singer_cycle


def test_mat_basics():
    F = field_make(2, 2)
    a = Mat(F, [[1, F.omega], [0, 1]])
    b = Mat(F, [[1, 0], [1, 1]])
    assert (a * b).det() == F.mul(a.det(), b.det())


@pytest.mark.parametrize("p,a", [(2, 2), (3, 2), (2, 4)])
def test_semilinear_composition_matches_pointwise(p, a):
    F = field_make(p, a)
    rng = random.Random(7)
    for _ in range(25):
        g1 = SemilinearElem(rng.randrange(a), _random_invertible(F, 3, rng))
        g2 = SemilinearElem(rng.randrange(a), _random_invertible(F, 3, rng))
        g12 = g1 * g2
        for _ in range(8):
            v = tuple(rng.randrange(F.q) for _ in range(3))
            assert apply(g12, v) == apply(g2, apply(g1, v))


def _random_invertible(F, n, rng):
    while True:
        m = Mat(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


def test_is_unitary_examples():
    F16 = field_make(2, 4)
    form = UnitaryForm(F16)
    assert is_unitary(Mat.identity(F16, 3), form)
    weyl = Mat(F16, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert is_unitary(weyl, form)
    assert not is_unitary(Mat.diag(F16, [F16.omega, 1, 1]), form)


@pytest.mark.parametrize("n,q,expect", [
    (2, 4, 60), (3, 2, 168), (2, 9, 720), (3, 3, 5616), (2, 16, 4080),
    (2, 25, 15600), (2, 81, 531360), (3, 25, None),
])
def test_gens_sl_orders(n, q, expect):
    from rank3pls.gfield import factorize
    (p, a), = factorize(q).items()
    F = field_make(p, a)
    want = sl_order(n, q)
    if expect is not None:
        assert want == expect
    if q**n - 1 > 20000:
        pytest.skip("vector action too large for the default suite")
    G = induced_group(projective_points(F, n, vectors=True), gens_sl(n, F))
    assert G.order == want


def test_gens_su3_orders_and_membership():
    for q, (p, a2) in [(3, (3, 2)), (4, (2, 4))]:
        F2 = field_make(p, a2)
        gens = gens_su3(F2)
        form = UnitaryForm(F2)
        for g in gens:
            assert is_unitary(g.mat, form) and g.mat.det() == 1
        vecs = projective_points(F2, 3, vectors=True)
        G = PermGroup(len(vecs), [vecs.image(g) for g in gens],
                      order_bound=induced_order_bound(gens, F2.q - 1, form))
        assert G.order == su3_order(q)
    assert su3_order(4) == 62400
    assert su3_order(3) == 6048


def test_singer_cycle_orders():
    """A Singer cycle makes a cyclic group of order q^n - 1, which misses
    SL_n(q): the deterministic pass finds that order, and the vector
    action's chain, stopped at the bound its generators prove, raises."""
    for n, (p, a) in [(2, (2, 2)), (2, (3, 1)), (3, (2, 1))]:
        F = field_make(p, a)
        s = singer_cycle(n, F)
        G = induced_group(projective_points(F, n, vectors=True), [s])
        assert PermGroup(G.degree, G.gens).order == F.q**n - 1
        with pytest.raises(AssertionError, match="below the proven bound"):
            G.order


def test_gens_group_gammal_induced_order():
    spec = GroupSpec("linear", 2, 4, 3, "gammal")
    assert group_matrix_order(spec) == 360
    spec16 = GroupSpec("linear", 2, 16, 5, "gammal")
    assert group_matrix_order(spec16) == sl_order(2, 16) * 15 * 4


def test_gens_group_semisimilarity_contract():
    """Unitary generators preserve the form up to (v g, u g) = c (v, u)^alpha."""
    spec = GroupSpec("unitary", 3, 4, 3, "gammau")
    F = field_make(2, 4)
    form = UnitaryForm(F)
    rng = random.Random(5)
    for g in gens_group(spec):
        alpha = F.p**g.frob
        e, f = (1, 0, 0), (0, 0, 1)
        lam = product(form, apply(g, e), apply(g, f))  # (e,f) = 1
        assert lam != 0
        for _ in range(20):
            v = tuple(rng.randrange(F.q) for _ in range(3))
            u = tuple(rng.randrange(F.q) for _ in range(3))
            lhs = product(form, apply(g, v), apply(g, u))
            rhs = F.mul(lam, F.pow(product(form, v, u), alpha))
            assert lhs == rhs


def test_gens_group_unknown_shape():
    with pytest.raises(ValueError):
        gens_group(GroupSpec("linear", 2, 4, 3, "nonsense"))
