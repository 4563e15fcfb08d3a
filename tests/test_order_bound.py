"""matsemi.induced_order_bound: the proven bound a matrix-group chain stops at.

It equals the published order on every catalogue, negative control and
family spec, as the closed forms in tests_order_oracle give it, and the old
closed form of the det-restricted groups at every LSub and DLSub row; off
the catalogue's parameters, where the closed forms are wrong, it equals the
order the deterministic pass finds.  Generators that miss SL raise when the
order is read, and a unitary generator that is not a semisimilitude raises
at once."""

import math

import pytest

from rank3pls import families
from rank3pls.catalog import NEGATIVE_CONTROLS, OMEGA_BUILTINS, get_builtin
from rank3pls.gfield import field_make
from rank3pls.matsemi import (GroupSpec, Mat, UnitaryForm, gens_det_restricted,
                              gens_group, gens_su3, induced_order_bound, linear,
                              matrix_field, sl_order)
from rank3pls.omega import build_omega, induce_action
from rank3pls.permcore import PermGroup
from tests_order_oracle import induced_order

# the family groups of Table 2 ("gl" for AG* and Delta, "z_su" for USub and
# AGU*), and of the slow USub(16,4,5) row
FAMILY_SPECS = [GroupSpec("linear", n, q, q - 1, "gl")
                for n, q in [(2, 4), (3, 4), (3, 3)]] + [
    GroupSpec("unitary", 3, 4, 3, "z_su"),
    GroupSpec("unitary", 3, 16, 5, "z_su"),
]
# gl(3,3,2) is GL3_3's spec, and z_su(3,4,3) a negative control's
CATALOGUE_SPECS = list(dict.fromkeys(
    [m.spec for m in OMEGA_BUILTINS.values()] + NEGATIVE_CONTROLS + FAMILY_SPECS))

# LSub(n, q, q0, r) at the Table 2 rows, the DLSub(9,3,2,j) group's, the
# families workload's and the one that doubles as Delta(2,4)
LSUB_ROWS = [(2, 16, 4, 5), (2, 81, 9, 5), (2, 25, 5, 3), (2, 9, 3, 2),
             (3, 25, 5, 3), (2, 4, 2, 3)]


def _bound(spec: GroupSpec) -> int:
    form = UnitaryForm(matrix_field(spec)) if spec.kind == "unitary" else None
    return induced_order_bound(gens_group(spec), spec.r, form)


@pytest.mark.parametrize("spec", CATALOGUE_SPECS, ids=str)
def test_the_bound_is_the_published_order(spec):
    assert _bound(spec) == induced_order(spec)


def _det_restricted_order(n: int, q: int, r: int, t: int) -> int:
    """The closed form the det-restricted group was built with: |G_1| =
    |SL_n(q)| (q-1)/t' for t' = gcd(t, q-1), divided by |G_1 cap Y|."""
    tt = math.gcd(t, q - 1)
    kernel = sum(1 for i in range((q - 1) // r) if (r * n * i) % tt == 0)
    return sl_order(n, q) * (q - 1) // tt // kernel


@pytest.mark.parametrize("n, q, q0, r", LSUB_ROWS)
def test_the_bound_is_the_det_restricted_closed_form(n, q, q0, r):
    _, t = families.lsub_params(q, q0, r)
    space = build_omega("linear", n, q, r)
    gens = gens_det_restricted(n, space.field, t)
    assert induced_order_bound(gens, r) == _det_restricted_order(n, q, r, t)


# shape instances where the published formula is wrong (2 or 1/2 times the
# order), and the order the deterministic pass finds for their generators
OFF_CATALOGUE = [
    (GroupSpec("linear", 2, 25, 2, "y_sl_phidiag"), 31_200),
    (GroupSpec("linear", 2, 81, 5, "y_sl_phidiag"), 1_062_720),
    (GroupSpec("linear", 2, 13, 3, "sl_diag_phi"), 6_552),
]


def _induced(spec: GroupSpec, **kw) -> PermGroup:
    space = build_omega(spec.kind, spec.n, spec.q, spec.r)
    return PermGroup(len(space), induce_action(space, gens_group(spec)), **kw)


@pytest.mark.parametrize("spec, order", OFF_CATALOGUE, ids=str)
def test_the_bound_is_the_deterministic_order_off_the_catalogue(spec, order):
    assert induced_order(spec) != order
    assert _induced(spec).order == order == _bound(spec)
    assert _induced(spec, order_bound=_bound(spec)).order == order


def test_sl_diag_phi_at_41_builds_at_its_bound():
    """On 3,446 points, where the published formula is 20 times the order."""
    spec = GroupSpec("linear", 3, 41, 2, "sl_diag_phi")
    G = _induced(spec, order_bound=_bound(spec))
    assert G.order == _bound(spec) == 15_960_118_675_200
    assert induced_order(spec) == 20 * G.order


@pytest.mark.parametrize("name", ["GammaL2_4", "YSL2phidiag_9"])
def test_the_bound_is_the_sympy_order(name):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    G = get_builtin(name).group
    SG = combinatorics.PermutationGroup(
        [combinatorics.Permutation(g.tolist()) for g in G.gens])
    assert _bound(OMEGA_BUILTINS[name].spec) == SG.order()


def test_generators_that_miss_sl_raise_below_the_bound():
    """GammaL_2(16)'s generators without the transvection make a monomial
    group, far below the bound those generators prove."""
    spec = OMEGA_BUILTINS["GammaL2_16"].spec
    space = build_omega(spec.kind, spec.n, spec.q, spec.r)
    gens = gens_group(spec)[1:]
    G = PermGroup(len(space), induce_action(space, gens),
                  order_bound=induced_order_bound(gens, spec.r))
    with pytest.raises(AssertionError, match="below the proven bound"):
        G.order
    assert PermGroup(len(space), G.gens).order < induced_order_bound(gens, spec.r)


def test_a_unitary_generator_off_the_form_raises_in_one_line():
    F = field_make(2, 4)
    form = UnitaryForm(F)
    gens = gens_su3(F) + [linear(Mat.diag(F, [F.omega, 1, 1]))]
    with pytest.raises(ValueError, match="not a unitary semisimilitude") as err:
        induced_order_bound(gens, 3, form)
    assert "\n" not in str(err.value)
