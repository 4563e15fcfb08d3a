"""Each way a known order certifies a chain checks it.

The randomized build (degree 256 on) checks its expected order both ways: a
target below |G| meets a random element outside its chain, and a target
above |G| meets CERTIFICATE_SIFTS members in a row.  Below degree 256 the
exact sweep after the random residues raises either way.  A proven bound
stops the build once reached, with no sweep and no run of members, and a
run of members below it raises at once."""

import time

import pytest

from rank3pls import families, permcore
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


def _spy(monkeypatch, name) -> list[int]:
    """The chain's order each time PermGroup.<name> starts, in call order."""
    calls = []
    real = getattr(PermGroup, name)

    def spied(self, *args):
        calls.append(self._chain_order())
        return real(self, *args)

    monkeypatch.setattr(PermGroup, name, spied)
    return calls


# GammaL3_4 on 63 points, |G| = 362,880: the random residues toward a target
# of 90,720 stop there, at a chain of a quarter of the group, which the
# sweep completes; 725,760 is never reached, and the residues stop at |G|
@pytest.mark.parametrize("claim, at_sweep", [(90_720, 90_720), (725_760, 362_880)])
def test_a_wrong_formula_below_degree_256_raises_after_the_exact_sweep(
        monkeypatch, claim, at_sweep):
    G = get_builtin("GammaL3_4").group
    sweeps = _spy(monkeypatch, "_deterministic_schreier_sims")
    H = PermGroup(G.degree, G.gens, expected_order=claim, base_hint=G.base_hint)
    assert H._build_path() == "seeded sweep"
    with pytest.raises(AssertionError, match=f"order {G.order} != expected {claim}"):
        H.order
    assert sweeps == [at_sweep]


def test_a_sweep_from_a_chain_at_its_formula_sifts_only_the_input_generators_at_level_0(
        monkeypatch):
    """Level 0 of a seeded sweep sifts the pairs of the input generators
    alone; every level below, and every level of a sweep from scratch,
    sifts the pairs of all its generators."""
    G = get_builtin("GammaU3_4").group
    batches = []
    sift = permcore._sift_schreier_batch

    def recorded(lv, table, xs, ss, below):
        batches.append((lv, set(ss.tolist())))
        return sift(lv, table, xs, ss, below)

    monkeypatch.setattr(permcore, "_sift_schreier_batch", recorded)
    for expected in (G.order, None):
        batches.clear()
        H = PermGroup(G.degree, G.gens, expected_order=expected, base_hint=G.base_hint)
        assert H.order == G.order
        for lv in H._levels:
            used = set().union(*(ss for b, ss in batches if b is lv))
            seeded_top = expected is not None and lv is H._levels[0]
            assert used == set(range(len(G.gens) if seeded_top else len(lv.gens)))
        if expected is not None:
            assert len(H._levels[0].gens) > len(G.gens)     # residues joined it


def test_a_proven_bound_stops_the_build_once_reached(monkeypatch):
    """No deterministic pass and no run of members: the build ends at the
    bound."""
    G = get_builtin("PSL3_5_deg155").group
    sweeps = _spy(monkeypatch, "_deterministic_schreier_sims")
    tails = _spy(monkeypatch, "_certify_by_members")
    H = PermGroup(G.degree, G.gens, order_bound=G.order, base_hint=G.base_hint)
    assert H._build_path() == "proven bound"
    assert H.order == G.order
    assert not sweeps and not tails
    assert all(G.contains(g) for lv in H._levels for g in lv.gens)


def test_a_coset_action_that_is_not_faithful_raises_below_at_once(monkeypatch):
    """S_4 on the 6 cosets of the Klein four-group, normal in it, acts as
    S_3: given |S_4| = 24 as its proven bound, the image's chain stalls at
    6, and the run of members raises before any deterministic pass."""
    S4 = PermGroup(4, [[1, 2, 3, 0], [1, 0, 2, 3]])
    V4 = PermGroup(4, [[1, 0, 3, 2], [2, 3, 0, 1]])
    image = S4.coset_action(V4, faithful=True)
    assert image.degree == 6
    sweeps = _spy(monkeypatch, "_deterministic_schreier_sims")
    with pytest.raises(AssertionError, match="order 6 below the proven bound 24"):
        image.order
    assert not sweeps
    assert S4.coset_action(V4).order == 6


def test_matrix_builds_prove_their_bound_and_only_m11_and_the_covers_sweep(
        monkeypatch, fresh_caches):
    """Every group built from matrices (an omega builtin, a matrix plinth,
    a family group), a stabilizer's rebase, a faithful coset action and a
    C2x double build by their proven bounds; the seeded sweep is left for
    M11 and the two covers read from files, and the deterministic pass for
    the bundled index-r subgroups."""
    paths = {}
    build = PermGroup._build_bsgs

    def recorded(self):
        build(self)
        paths.setdefault(self._build_path(), []).append(self.name)

    monkeypatch.setattr(PermGroup, "_build_bsgs", recorded)
    G = PermGroup(5, [[1, 0, 2, 3, 4], [0, 1, 3, 4, 2]], name="S2xC3")
    assert G.stabilizer(2).order == 2               # 2 is off the first orbit
    for name in ("PSL3_3_deg39", "C2xM11_deg22", "C2xPSL3_2_deg14", "GammaU3_4",
                 "3S6_deg18", "2M12_deg24"):
        get_builtin(name)
    families.lsub(2, 25, 5, 3)
    families.agu_star(4)
    assert sorted(paths["proven bound"]) == [
        "C2xM11/cosets", "C2xvector-action/cosets", "G1(det in <w^2>)",
        "GammaU3_4", "M11/cosets", "PSL3(3)@13", "PSL3(3)@13/cosets",
        "S2xC3|rebase2", "vector-action", "vector-action/cosets",
        "z_su(3, 4, 3)"]
    assert sorted(paths["seeded sweep"]) == ["2M12_deg24", "3S6_deg18", "M11"]
    assert sorted(paths) == ["deterministic", "proven bound", "seeded sweep"]
