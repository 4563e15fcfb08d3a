"""The randomized Schreier-Sims build checks its expected order both ways:
a target below |G| meets a random element outside its chain, and a target
above |G| meets CERTIFICATE_SIFTS members in a row."""

import time

import pytest

from rank3pls.catalog import get_builtin, induced_order
from rank3pls.matsemi import GroupSpec, gens_group
from rank3pls.omega import build_omega, induce_action
from rank3pls.permcore import PermGroup

# catalogue generators and targets a partial chain passes through on the
# way to the true order (49,448,448, 5,313,600 and 85,542,912,000)
TOO_SMALL = [("PGammaL3_8_deg2044", 2044), ("ZSLphi2_81", 1640),
             ("GammaL3_16", 27300)]


@pytest.mark.parametrize("name, claim", TOO_SMALL)
def test_a_target_below_the_order_raises(name, claim):
    G = get_builtin(name).group
    with pytest.raises(AssertionError, match=f"exceeds expected {claim}"):
        PermGroup(G.degree, G.gens, expected_order=claim).order


def test_a_target_above_the_order_fails_fast_in_one_line():
    """sl_diag_phi at (3, 41, 2) on 3,446 points: the formula is 20 times
    the order of the group the generators make."""
    t0 = time.perf_counter()
    spec = GroupSpec("linear", 3, 41, 2, "sl_diag_phi")
    space = build_omega("linear", 3, 41, 2)
    G = PermGroup(len(space), induce_action(space, gens_group(spec)),
                  expected_order=induced_order(spec))
    with pytest.raises(AssertionError, match="below expected") as err:
        G.order
    assert time.perf_counter() - t0 < 1
    assert "\n" not in str(err.value)
    assert f"order {induced_order(spec) // 20} below" in str(err.value)


@pytest.mark.slow
@pytest.mark.parametrize("name", [name for name, _ in TOO_SMALL])
def test_randomized_orders_match_the_deterministic_pass(name):
    """The full deterministic pass, run on the generators with no order
    given, finds the order the randomized build certified."""
    G = get_builtin(name).group
    assert PermGroup(G.degree, G.gens).order == G.order
