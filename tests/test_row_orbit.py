"""Row orbits: coset actions and block checks against plain references."""

import hashlib

import numpy as np
import pytest

from rank3pls import catalog, permcore
from rank3pls.catalog import get_builtin
from rank3pls.permcore import PermGroup, compose, inverse
from tests_block_oracle import exhaustive_blocks


def _fifo_coset_action(G, sub):
    """Right cosets of sub by a plain FIFO search: coset after coset, then
    generator by generator, the image coset found by a membership sift of
    h * rep^-1 against every coset known so far.  Returns (generator image
    arrays, reps)."""
    reps = [permcore.identity(G.degree)]
    edges = {}
    head = 0
    while head < len(reps):
        for k, s in enumerate(G.gens):
            h = compose(reps[head], s)
            j = next((j for j, r in enumerate(reps)
                      if sub.contains(compose(h, inverse(r)))), None)
            if j is None:
                j = len(reps)
                reps.append(h)
            edges[head, k] = j
        head += 1
    gens = [np.array([edges[i, k] for i in range(len(reps))], dtype=np.int32)
            for k in range(len(G.gens))]
    return gens, reps


def _s4_on_g0():
    G = PermGroup(4, [[1, 0, 2, 3], [1, 2, 3, 0]], name="S4")
    return G, G.stabilizer(0)


def _psl32_index2():
    from rank3pls.gfield import field_make
    from rank3pls.matsemi import gens_sl
    from rank3pls.omega import vector_action
    F = field_make(2, 1)
    G, _ = vector_action(F, 3, gens_sl(3, F))
    assert G.order == 168
    return G, G.stabilizer(0).normal_subgroup_of_index(2)


def _m11_index2():
    G = catalog._plinth("M11_deg22")
    return G, G.stabilizer(0).normal_subgroup_of_index(2)


@pytest.mark.parametrize("pair", [_s4_on_g0, _psl32_index2, _m11_index2])
def test_coset_action_matches_fifo_reference(pair):
    G, sub = pair()
    image = G.coset_action(sub)
    ref_gens, ref_reps = _fifo_coset_action(G, sub)
    assert image.degree == len(ref_reps) == G.order // sub.order
    assert len(image.gens) == len(ref_gens)
    for got, want in zip(image.gens, ref_gens):
        assert got.tolist() == want.tolist()


def _set_orbit_slice(monkeypatch, rows, gens, width):
    """Cut _row_orbit's frontier slices to `rows` rows (None: one slice per
    layer)."""
    size = 1 << 62 if rows is None else rows * len(gens) * width
    monkeypatch.setattr(permcore, "_ORBIT_SLICE", size)


def test_line_orbit_does_not_depend_on_the_slice_size(monkeypatch):
    """Frontier slices of 1, 2 and 3 rows give the rows and image maps of
    one slice per layer; with maps off the rows are the same."""
    G = get_builtin("GammaL2_4").group
    line = (0, 1, 2, 3)

    def orbit(rows, with_maps=True):
        _set_orbit_slice(monkeypatch, rows, G.gens, len(line))
        return permcore.line_orbit(G.gens, line, with_maps=with_maps)

    want, want_maps = orbit(None)
    for rows in (1, 2, 3):
        got, maps = orbit(rows)
        assert got.tolist() == want.tolist()
        assert [m.tolist() for m in maps] == [m.tolist() for m in want_maps]
        got, maps = orbit(rows, with_maps=False)
        assert got.tolist() == want.tolist() and maps is None


def _dihedral_1000():
    x = np.arange(1000, dtype=np.int32)
    return [(x + 1) % 1000, (1000 - x) % 1000], (0, 1, 2, 5)


def _gammal2_16():
    return get_builtin("GammaL2_16").group.gens, (0, 1, 2, 3)


@pytest.mark.parametrize("case", [_gammal2_16, _dihedral_1000])
def test_line_orbit_hands_its_frontier_to_numpy(monkeypatch, case):
    """With _PYTHON_LAYER set so that the base layer alone, then the first
    two layers, run in plain Python, _row_orbit takes over at the next
    layer: its rows are those found so far and its frontier starts where
    that layer does.  The orbit equals a numpy-only and a Python-only run.
    At degree 1000, one call runs both kinds of layer."""
    gens, line = case()
    handoffs = []
    real = permcore._row_orbit

    def recorded(gens, rows, start, canon, **kwargs):
        handoffs.append((len(rows), start))
        return real(gens, rows, start, canon, **kwargs)

    monkeypatch.setattr(permcore, "_row_orbit", recorded)

    def orbit(layer):
        monkeypatch.setattr(permcore, "_PYTHON_LAYER", layer)
        rows, maps = permcore.line_orbit(gens, line)
        assert maps is None and rows.dtype == np.int32
        return rows.tolist()

    want = orbit(0)
    assert handoffs == [(1, 0)]
    assert orbit(1 << 30) == want and len(handoffs) == 1
    entries = len(gens) * len(line)             # image entries per frontier row
    assert orbit(entries + 1) == want           # layer 0 in Python
    rows1, start1 = handoffs[-1]
    assert start1 == 1
    assert orbit((rows1 - 1) * entries + 1) == want     # layers 0 and 1
    assert handoffs[-1][1] == rows1 and len(handoffs) == 3


@pytest.mark.parametrize("pair", [_psl32_index2, _m11_index2])
def test_coset_action_does_not_depend_on_the_slice_size(monkeypatch, pair):
    """The coset action's generators, the maps of its row orbit, are the
    same with frontier slices of 1, 2 and 3 cosets."""
    G, sub = pair()

    def action(rows):
        _set_orbit_slice(monkeypatch, rows, G.gens, G.degree)
        return [g.tolist() for g in G.coset_action(sub).gens]

    want = action(None)
    for rows in (1, 2, 3):
        assert action(rows) == want


def test_coset_route_generator_bytes():
    """One sha256 over the generator bytes of every coset-route builtin of
    degree <= 300, in name order: the `group --out` files they write."""
    digest = hashlib.sha256()
    names = [nm for nm in catalog.builtin_names()
             if catalog.ALL_BUILTINS[nm].route == "coset"
             and catalog.ALL_BUILTINS[nm].degree <= 300]
    assert len(names) == 8
    for nm in names:
        for g in get_builtin(nm).group.gens:
            digest.update(g.tobytes())
    assert digest.hexdigest() == (
        "e4d3ffdf5612f15dc52f5a190870212dc0152ce4712417f9e0fe2f41b9b25a57")


@pytest.mark.slow
def test_pgammal38_generator_bytes():
    """One sha256 over the generator bytes of PGammaL3_8_deg2044, the
    degree-2044 coset row, recorded before its subgroup came from data."""
    digest = hashlib.sha256()
    for g in get_builtin("PGammaL3_8_deg2044").group.gens:
        digest.update(g.tobytes())
    assert digest.hexdigest() == (
        "4b46103bfa8f2cb597fa613311afe73bb10856e30962bb85f6635b3f4b72e54e")


def _non_blocks(H, beta, carrier, blocks):
    """Unions of {beta} with one or two other G_beta-orbits in the carrier
    that are not blocks and not the whole carrier."""
    orbits = [set(o) for o in H.stabilizer(beta).orbits()
              if o[0] in carrier and beta not in o]
    unions = [{beta} | a for a in orbits]
    unions += [{beta} | a | b for i, a in enumerate(orbits) for b in orbits[i + 1:]]
    return [u for u in unions if frozenset(u) not in blocks and len(u) < len(carrier)]


@pytest.mark.parametrize("name", ["GammaL2_4", "PSL3_2_deg14", "M11_deg22",
                                  "3S6_deg18", "GammaL2_16", "PGL3_4_deg126"])
def test_verify_block_against_the_exhaustive_oracle(name):
    """Every block and non-block of each G_0-orbit, checked on G_0.  The
    G_0 of GammaL2_16 and of PGL3_4_deg126 has an orbit off its first basic
    orbit, so its stabilizer there takes the rebase branch of _stabilizer."""
    G = get_builtin(name).group
    H = G.stabilizer(0)
    seen = {"blocks": 0, "non_blocks": 0}
    for carrier in H.orbits():
        if len(carrier) <= 2:
            continue
        beta = carrier[0]
        blocks = exhaustive_blocks(H, beta, set(carrier))
        for b in blocks:
            assert H.verify_block(b), (name, sorted(b))
        for u in _non_blocks(H, beta, set(carrier), blocks):
            assert not H.verify_block(u), (name, sorted(u))
            seen["non_blocks"] += 1
        seen["blocks"] += len(blocks)
    assert seen["blocks"] and seen["non_blocks"], seen


def test_verify_block_edge_cases():
    """The empty set raises; a set leaving the orbit of its least point and
    a set that is no union of G_x-orbits are refused; {x} and x's whole
    orbit are blocks."""
    G = get_builtin("GammaL2_16").group
    H = G.stabilizer(0)
    with pytest.raises(ValueError, match="nonempty"):
        G.verify_block(set())
    with pytest.raises(ValueError, match="range"):
        G.verify_block({0, G.degree})
    swap = PermGroup(4, [np.array([1, 0, 3, 2], dtype=np.int32)])
    assert not swap.verify_block({0, 2})   # its images {0, 2}, {1, 3} are disjoint
    assert not H.verify_block({0, 1})      # 1 is off the orbit {0} of H
    far = max(H.orbits(), key=len)
    assert len(far) > 1 and not G.verify_block({0, far[0]})
    for K, orbit in [(G, range(G.degree)), (H, H.orbit(1)), (swap, (0, 1))]:
        x = min(orbit)
        assert K.verify_block({x}) and K.verify_block(orbit)


def test_block_checks_build_no_row_orbit(monkeypatch):
    """verify_block over a whole lattice builds no line orbit, and Sigma on
    a fresh group builds one, for its cells.  The count is taken at
    line_orbit, as a small orbit ends in plain Python layers before any
    _row_orbit."""
    calls = []
    real = permcore.line_orbit

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    G = get_builtin("GammaL2_16").group
    H = G.stabilizer(0)
    beta = max(H.orbits(), key=len)[0]
    blocks = H.all_blocks_through(beta)
    assert blocks
    monkeypatch.setattr(permcore, "line_orbit", counted)
    assert all(H.verify_block(b) for b in blocks)
    assert calls == []
    sigma_group = get_builtin("GammaL2_4").group
    fresh = PermGroup(sigma_group.degree, sigma_group.gens)
    cells = permcore.sigma_partition(fresh)
    assert calls == [cells.shape[1]]
