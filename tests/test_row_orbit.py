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
    G = catalog._plinth("M11_deg22", permcore.DEFAULT_SEED)
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


@pytest.mark.parametrize("max_rows", [None, 40])
def test_line_orbit_does_not_depend_on_the_slice_size(monkeypatch, max_rows):
    """Frontier slices of 1, 2 and 3 rows give the rows and image maps of
    one slice per layer, for a whole line orbit and for one cut after
    max_rows rows; with maps off the rows are the same."""
    G = get_builtin("GammaL2_4").group
    line = (0, 1, 2, 3)

    def orbit(rows, with_maps=True):
        _set_orbit_slice(monkeypatch, rows, G.gens, len(line))
        return permcore.line_orbit(G.gens, line, max_rows=max_rows,
                                   with_maps=with_maps)

    want, want_maps = orbit(None)
    for rows in (1, 2, 3):
        got, maps = orbit(rows)
        assert got.tolist() == want.tolist()
        assert [m.tolist() for m in maps] == [m.tolist() for m in want_maps]
        got, maps = orbit(rows, with_maps=False)
        assert got.tolist() == want.tolist() and maps is None


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
                                  "3S6_deg18"])
def test_verify_block_against_the_exhaustive_oracle(name):
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


def test_verify_block_stops_a_non_block_early(monkeypatch):
    """A pair {0, x} with x off the cell of 0 is no block of GammaL2_16; its
    row orbit is cut after the first layer that takes it past degree // 2
    rows, well short of the full orbit."""
    G = get_builtin("GammaL2_16").group
    H = G.stabilizer(0)
    far = max(H.orbits(), key=len)[0]
    pair = (0, far)
    full = len(permcore.line_orbit(G.gens, pair)[0])
    bound = G.degree // 2
    rows = []
    real = permcore.line_orbit

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        rows.append(len(out[0]))
        return out

    monkeypatch.setattr(permcore, "line_orbit", counted)
    assert not G.verify_block(pair)
    assert len(rows) == 1
    assert bound < rows[0] <= bound * (1 + len(G.gens)) < full
