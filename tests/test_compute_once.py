"""Each group computes its stabilizers, Schreier trees, orbit partition,
block lattices and Sigma once, and keeps them where no caller can change
them; Schreier trees grow by the new generator only."""

from collections import Counter

import numpy as np
import pytest

from rank3pls import catalog, permcore, pipeline
from rank3pls.permcore import PermGroup, _Level, inverse, line_orbit, sigma_partition


def _lattice_runs(monkeypatch) -> list[tuple[PermGroup, int]]:
    """Record (group, beta) for every lattice computed afresh."""
    runs = []
    real = PermGroup._blocks_through

    def counted(self, beta):
        runs.append((self, beta))
        return real(self, beta)

    monkeypatch.setattr(PermGroup, "_blocks_through", counted)
    return runs


def _each_lattice_once(runs):
    # the groups are held in runs, so no id is reused within a run
    counts = Counter((id(G), beta) for G, beta in runs)
    assert runs and max(counts.values()) == 1, [
        (G.name, beta) for G, beta in runs if counts[id(G), beta] > 1]


def _tables(slow: bool) -> None:
    for t in range(2, 7):
        pipeline.reproduce_table(t, max_degree=300, slow=slow)
    pipeline.negative_controls()


def test_default_tables_compute_each_lattice_once(fresh_caches, monkeypatch):
    runs = _lattice_runs(monkeypatch)
    _tables(slow=False)
    _each_lattice_once(runs)
    assert len(runs) == 24


@pytest.mark.slow
def test_slow_tables_compute_each_lattice_once(fresh_caches, monkeypatch):
    runs = _lattice_runs(monkeypatch)
    _tables(slow=True)
    _each_lattice_once(runs)
    assert len(runs) == 31


def test_classify_blocks_and_the_pipeline_share_g0(fresh_caches, monkeypatch):
    """Both read the lattice of one G_0 object, computed once."""
    asked = []
    real = PermGroup.all_blocks_through

    def recorded(self, beta):
        asked.append(self)
        return real(self, beta)

    monkeypatch.setattr(PermGroup, "all_blocks_through", recorded)
    runs = _lattice_runs(monkeypatch)
    pipeline.run_pipeline("GammaL3_4")
    by_pipeline = set(map(id, asked))
    asked.clear()
    pipeline.classify_blocks("GammaL3_4")
    G = catalog.get_builtin("GammaL3_4").group
    G0 = G.stabilizer(0)
    assert G.stabilizer(0) is G0
    assert by_pipeline == set(map(id, asked)) == {id(G0)}
    _each_lattice_once(runs)


def test_stabilizers_and_trees_are_kept():
    G = catalog.get_builtin("GammaL2_4").group
    assert G.stabilizer(0) is G.stabilizer(0)
    assert G.stabilizer(5) is G.stabilizer(np.int64(5))
    assert G.schreier_tree(3) is G.schreier_tree(3)
    assert G.orbit_labels() is G.orbit_labels()
    assert sigma_partition(G) is sigma_partition(G)


# -- store safety ----------------------------------------------------------------


def test_kept_arrays_are_read_only():
    G = catalog.get_builtin("GammaL2_4").group
    with pytest.raises(ValueError, match="read-only"):
        G.orbit_labels()[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        G.stabilizer(0).orbit_labels()[1] = 0
    with pytest.raises(ValueError, match="read-only"):
        sigma_partition(G)[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        G.schreier_tree(0).sv[0] = -1


def test_a_returned_lattice_is_the_callers_own():
    G0 = catalog.get_builtin("GammaL2_4").group.stabilizer(0)
    beta = G0.orbits()[1][0]
    first = G0.all_blocks_through(beta)
    want = list(first)
    first.append(frozenset({beta}))
    first.pop(0)
    assert G0.all_blocks_through(beta) == want
    assert G0.all_blocks_through(beta) is not G0.all_blocks_through(beta)


def test_one_group_per_name_whatever_the_seed():
    """get_builtin ignores its seed: every seed gets the one group, with
    its one store of stabilizers, lattices and Sigma."""
    G = catalog.get_builtin("GammaL2_4").group
    G0, cells = G.stabilizer(0), sigma_partition(G)
    for seed in (0, 7, 12345):
        H = catalog.get_builtin("GammaL2_4", seed=seed).group
        assert H is G and H.stabilizer(0) is G0 and sigma_partition(H) is cells


def test_no_sigma_is_kept_for_a_primitive_group():
    G = PermGroup(5, [[1, 2, 3, 4, 0], [0, 2, 4, 1, 3]])    # AGL(1, 5), rank 2
    for _ in range(2):
        with pytest.raises(ValueError, match="rank 3"):
            sigma_partition(G)
    assert "sigma" not in G._store


# -- incremental Schreier trees ----------------------------------------------------


def _full_orbit_add_gen(orbit: list, sv: list, gens: list, g) -> None:
    """The reference add_gen: append g, then BFS from the whole orbit with
    every generator, round after round, each generator's fresh images in
    ascending order."""
    gens.append([int(y) for y in g])
    frontier = list(orbit)
    while frontier:
        nxt = []
        for k, h in enumerate(gens):
            fresh = sorted({h[x] for x in frontier if sv[h[x]] == -1})
            for y in fresh:
                sv[y] = k
            orbit.extend(fresh)
            nxt.extend(fresh)
        frontier = nxt


pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from test_merge_properties import groups  # noqa: E402
from test_schreier_batch import intransitive_groups  # noqa: E402


def _affine_1024() -> PermGroup:
    """x -> 3x and x -> x + 1 on Z/1024.  From an odd root the orbit under
    3x has 256 points, and adding x + 1 grows BFS layers past the default
    _PYTHON_LAYER, so one add_gen runs both kinds of layer."""
    x = np.arange(1024, dtype=np.int32)
    return PermGroup(1024, [(3 * x) % 1024, (x + 1) % 1024], name="affine1024")


@pytest.mark.parametrize("layer", [0, 1 << 30, permcore._PYTHON_LAYER],
                         ids=["numpy", "python", "default"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(groups(), intransitive_groups(), st.just(_affine_1024())), st.data())
def test_add_gen_matches_the_full_orbit_loop(layer, G, data):
    """After each add_gen the orbit (in order) and sv equal those of the
    reference loop, for a tree grown from its root and for a conjugated
    level grown further, with every BFS round in numpy, every round in
    plain Python, and at the default crossover."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(permcore, "_PYTHON_LAYER", layer)
        _check_add_gen(G, data)


def _check_add_gen(G, data):
    n = G.degree
    gens = G.gens + [np.asarray(data.draw(st.permutations(range(n))), dtype=np.int32)
                     for _ in range(data.draw(st.integers(0, 2)))]
    root = data.draw(st.integers(0, n - 1))
    lv = _Level(n, root)
    orbit, sv = [root], [-1] * n
    sv[root] = -2
    ref_gens = []
    for g in gens:
        lv.add_gen(g, inverse(g))
        _full_orbit_add_gen(orbit, sv, ref_gens, g)
        assert (lv.orbit, lv.sv.tolist()) == (orbit, sv)
    u = np.asarray(data.draw(st.permutations(range(n))), dtype=np.int32)
    conj = lv.conjugate(u, inverse(u))
    orbit, sv = list(conj.orbit), conj.sv.tolist()
    ref_gens = [g.tolist() for g in conj.gens]
    more = [np.asarray(data.draw(st.permutations(range(n))), dtype=np.int32)
            for _ in range(data.draw(st.integers(1, 2)))]
    for g in more:
        conj.add_gen(g, inverse(g))
        _full_orbit_add_gen(orbit, sv, ref_gens, g)
        assert (conj.orbit, conj.sv.tolist()) == (orbit, sv)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(groups(), st.data())
def test_line_orbit_rows_do_not_depend_on_the_maps(G, data):
    """Rows with maps on and off are equal at any slice size and equal to
    the rows of one default run; each map takes a row to the index of its
    image row."""
    n = G.degree
    line = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                              max_size=min(n, 5), unique=True))
    slice_rows = data.draw(st.none() | st.integers(1, 4))
    with pytest.MonkeyPatch.context() as mp:
        if slice_rows is not None:
            mp.setattr(permcore, "_ORBIT_SLICE", slice_rows * len(G.gens) * len(line))
        rows, maps = line_orbit(G.gens, line, with_maps=True)
        plain, none = line_orbit(G.gens, line)
    assert none is None
    assert plain.tolist() == rows.tolist()
    whole, _ = line_orbit(G.gens, line)
    assert rows.tolist() == whole.tolist()
    for g, m in zip(G.gens, maps):
        assert len(m) == len(rows)
        assert np.array_equal(rows[m], np.sort(g[rows], axis=1))
