"""Each way to build a chain checks it.

A proven bound stops the build once reached, with no deterministic pass,
and a run of CERTIFICATE_SIFTS members below it raises at once; a chain
that jumps past it raises too.  With no bound the deterministic pass builds
the chain.  Either way the catalogue compares the built order with the
published one, an integer in the builtin's BuiltinMeta."""

import dataclasses
import time

import pytest

from rank3pls import catalog, families, permcore, pipeline
from rank3pls.catalog import get_builtin
from rank3pls.matsemi import GroupSpec, gens_group
from rank3pls.omega import build_omega, induce_action
from rank3pls.permcore import PermGroup
from tests_order_oracle import induced_order


def test_a_target_above_the_order_fails_fast_in_one_line():
    """sl_diag_phi at (3, 41, 2) on 3,446 points, given its published
    formula as the bound: the formula is 20 times the order of the group
    the generators make."""
    t0 = time.perf_counter()
    spec = GroupSpec("linear", 3, 41, 2, "sl_diag_phi")
    space = build_omega("linear", 3, 41, 2)
    G = PermGroup(len(space), induce_action(space, gens_group(spec)),
                  order_bound=induced_order(spec))
    with pytest.raises(AssertionError, match="below the proven bound") as err:
        G.order
    assert time.perf_counter() - t0 < 1
    assert "\n" not in str(err.value)
    assert f"order {induced_order(spec) // 20} below" in str(err.value)


def test_a_chain_past_its_bound_raises():
    """S_4's input generators give a chain of order 4; the first residue
    takes it past a bound of 5."""
    G = PermGroup(4, [[1, 2, 3, 0], [1, 0, 2, 3]], order_bound=5)
    with pytest.raises(AssertionError, match="above the proven bound 5"):
        G.order


def test_expected_order_is_gone():
    with pytest.raises(TypeError):
        PermGroup(4, [[1, 2, 3, 0]], expected_order=4)
    assert PermGroup(4, [[1, 2, 3, 0]])._build_path() == "deterministic"
    assert PermGroup(4, [[1, 2, 3, 0]], order_bound=4)._build_path() == "proven bound"


def test_a_group_takes_no_seed():
    """Every proven-bound build draws from Random(DEFAULT_SEED)."""
    with pytest.raises(TypeError):
        PermGroup(4, [], seed=1)
    assert not hasattr(PermGroup(4, [[1, 2, 3, 0]]), "seed")


def test_no_generators_below_a_bound_raises():
    """The empty generator set gives a chain of order 1, which is checked
    against the bound like any other chain."""
    with pytest.raises(AssertionError, match="order 1 below the proven bound 10"):
        PermGroup(5, [], order_bound=10).order
    assert PermGroup(5, [], order_bound=1).order == 1


def test_a_coset_action_on_one_coset_is_not_faithful():
    """S_4 on the one coset of itself is trivial: a faithful action would
    have order 24, so the image's empty chain raises."""
    S4 = PermGroup(4, [[1, 2, 3, 0], [1, 0, 2, 3]])
    image = S4.coset_action(S4, faithful=True)
    assert image.degree == 1 and not image.gens
    with pytest.raises(AssertionError, match="order 1 below the proven bound 24"):
        image.order
    assert S4.coset_action(S4).order == 1


@pytest.mark.slow
@pytest.mark.parametrize("name", ["PGammaL3_8_deg2044", "ZSLphi2_81", "GammaL3_16"])
def test_proven_bound_orders_match_the_deterministic_pass(name):
    """The full deterministic pass, run on the generators with no order
    given, finds the order the proven bound certified."""
    G = get_builtin(name).group
    assert G._build_path() == "proven bound"
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


def test_the_deterministic_pass_sifts_the_pairs_of_every_generator(monkeypatch):
    """Every level of the deterministic pass sifts the Schreier generators
    of all its strong generators, the input generators and the residues
    alike."""
    G = get_builtin("GammaU3_4").group
    batches = []
    sift = permcore._sift_schreier_batch

    def recorded(lv, table, xs, ss, below):
        batches.append((lv, set(ss.tolist())))
        return sift(lv, table, xs, ss, below)

    monkeypatch.setattr(permcore, "_sift_schreier_batch", recorded)
    H = PermGroup(G.degree, G.gens, base_hint=G.base_hint)
    assert H.order == G.order
    for lv in H._levels:
        used = set().union(*(ss for b, ss in batches if b is lv))
        assert used == set(range(len(lv.gens)))
    assert len(H._levels[0].gens) > len(G.gens)         # residues joined it


def test_a_proven_bound_stops_the_build_once_reached(monkeypatch):
    """No deterministic pass: the build ends at the bound."""
    G = get_builtin("PSL3_5_deg155").group
    sweeps = _spy(monkeypatch, "_deterministic_schreier_sims")
    H = PermGroup(G.degree, G.gens, order_bound=G.order, base_hint=G.base_hint)
    assert H._build_path() == "proven bound"
    assert H.order == G.order
    assert not sweeps
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


def test_matrix_builds_prove_their_bound_and_the_rest_run_the_deterministic_pass(
        monkeypatch, fresh_caches):
    """Every group built from matrices (an omega builtin, a matrix plinth,
    a family group), a stabilizer's rebase, a faithful coset action and a
    C2x double build by their proven bounds; M11, the two covers read from
    files and the bundled index-r subgroups (unnamed) run the deterministic
    pass."""
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
    assert sorted(paths["deterministic"]) == [
        "", "", "", "2M12_deg24", "3S6_deg18", "M11", "S2xC3"]
    assert sorted(paths) == ["deterministic", "proven bound"]


def test_every_proven_bound_of_the_tables_run_is_the_true_order(
        monkeypatch, fresh_caches):
    """A chain built by a proven bound stops wherever the bound says, so a
    wrong bound would go unseen.  Every such chain the default tables run
    builds (the matrix groups' induced_order_bound, a parent's order on a
    rebase, the |G| of a faithful coset action and the 2|G| of a C2x double)
    is rebuilt by the deterministic pass from its generators alone."""
    built = []
    build = PermGroup._build_bsgs

    def recorded(self):
        build(self)
        if self._build_path() == "proven bound":
            built.append(self)

    monkeypatch.setattr(PermGroup, "_build_bsgs", recorded)
    for t in range(2, 7):
        pipeline.reproduce_table(t, max_degree=300)
    pipeline.negative_controls()
    assert len(built) > 30
    assert [(G.name, PermGroup(G.degree, G.gens).order) for G in built] == [
        (G.name, G.order) for G in built]


@pytest.mark.parametrize("name, order", [("M11_deg22", 7920), ("3S6_deg18", 2160),
                                         ("2M12_deg24", 190080), ("GammaL2_4", 360)])
def test_a_wrong_published_order_is_refused(monkeypatch, fresh_caches, name, order):
    """M11 and the two covers read from files build with no bound, so the
    published order is checked only against the order the deterministic
    pass finds.  An omega builtin stops at the bound its generators prove,
    and its published order, a literal, is compared with that."""
    meta = catalog.ALL_BUILTINS[name]
    assert meta.order == order
    monkeypatch.setitem(catalog.ALL_BUILTINS, name,
                        dataclasses.replace(meta, order=2 * order))
    with pytest.raises(AssertionError) as err:
        get_builtin(name)
    assert str(err.value) == (f"{name}: built degree/order {meta.degree}/{order}, "
                              f"expected {meta.degree}/{2 * order}")
