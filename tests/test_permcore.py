"""Permutation kernel: BSGS, orbits, blocks, cosets, flags, files."""

import functools
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rank3pls import catalog, permcore, pipeline
from rank3pls.catalog import get_builtin
from rank3pls.permcore import (PermGroup, compose, flag_transitive_on_line,
                               identity, inverse, line_orbit, perm_from_images,
                               read_group_file, row_keys, write_group_file)
from tests_block_oracle import bfs_orbit, join_lattice
from tests_order_oracle import perm_order
from tests_sporadic_tool import normal_subgroup_of_index, setwise_stabilizer


def s4():
    return PermGroup(4, [[1, 0, 2, 3], [1, 2, 3, 0]], name="S4")


def test_perm_helpers():
    g = perm_from_images([1, 2, 0, 3])
    assert perm_order(g) == 3
    assert (compose(g, inverse(g)) == identity(4)).all()
    with pytest.raises(ValueError):
        perm_from_images([0, 0, 1])


def test_order_and_membership():
    G = s4()
    assert G.order == 24
    assert G.contains(perm_from_images([3, 2, 1, 0]))
    assert not PermGroup(4, [[1, 2, 3, 0]]).contains(perm_from_images([1, 0, 2, 3]))


def test_identity_group():
    G = PermGroup(5, [])
    assert G.order == 1
    assert G.orbits() == [[0], [1], [2], [3], [4]]


def test_orbit_stabilizer_catalogue():
    rng = random.Random(11)
    names = ["GammaL2_4", "PSL3_2_deg14", "M11_deg22", "GammaU3_4",
             "SL3_3", "YSL2phidiag_9", "3S6_deg18", "2M12_deg24",
             "PGL3_4_deg126", "ZSLphi2_25"]
    checks = 0
    for name in names:
        G = get_builtin(name).group
        for _ in range(5):
            x = rng.randrange(G.degree)
            assert G.order == len(G.orbit(x)) * G.stabilizer(x).order
            checks += 1
    assert checks == 50


def test_bsgs_base_invariance():
    rng = random.Random(3)
    for name in ["GammaL2_4", "PSL3_2_deg14", "M11_deg22", "SL3_3",
                 "YSL2phidiag_9"]:
        G = get_builtin(name).group
        for _ in range(5):
            base = rng.sample(range(G.degree), min(4, G.degree))
            H = PermGroup(G.degree, G.gens, base_hint=base)
            assert H.order == G.order


def test_rank_examples():
    assert s4().rank() == 2
    assert get_builtin("GammaL2_4").group.rank() == 3
    with pytest.raises(ValueError):
        PermGroup(4, [[1, 0, 2, 3]]).rank()


def test_stabilizer_examples():
    # regular group: trivial stabilizer
    c5 = PermGroup(5, [[1, 2, 3, 4, 0]])
    assert c5.stabilizer(0).order == 1
    psl32 = get_builtin("PSL3_2_deg14")
    # PSL3(2) on 7 points: stabilizer order 24
    from rank3pls.gfield import field_make
    from rank3pls.matsemi import gens_sl
    from rank3pls.omega import induced_group, projective_points
    F2 = field_make(2, 1)
    G7 = induced_group(projective_points(F2, 3, vectors=True), gens_sl(3, F2))
    assert G7.order == 168
    assert G7.stabilizer(0).order == 24
    G13 = induced_group(projective_points(field_make(3, 1), 3),
                        gens_sl(3, field_make(3, 1)))
    assert G13.order == 5616
    assert G13.stabilizer(0).order == 432


def test_minimal_block_examples():
    # 2-transitive action: whole carrier for every pair
    G = s4()
    for gamma in (1, 2, 3):
        assert len(G.minimal_block(0, gamma)) == 4
    b = get_builtin("GammaL2_4")
    Ga = b.group.stabilizer(0)
    space = b.space
    beta = space.index_of((0, 1))
    w = space.field.omega
    gamma1 = space.index_of((0, w))
    blk = Ga.minimal_block(beta, gamma1)
    assert len(blk) == 3  # B1
    gamma2 = space.index_of((1, 1))
    assert len(Ga.minimal_block(beta, gamma2)) == 2  # B4
    with pytest.raises(ValueError):
        Ga.minimal_block(beta, beta)


def test_all_blocks_through_examples():
    assert s4().all_blocks_through(0) == []
    b = get_builtin("GammaL2_4")
    Ga = b.group.stabilizer(0)
    beta = b.space.index_of((0, 1))
    sizes = sorted(len(x) for x in Ga.all_blocks_through(beta))
    assert sizes == [2, 3, 3, 4]
    bu = get_builtin("GammaU3_4")
    Ga = bu.group.stabilizer(0)
    beta = bu.space.index_of((0, 0, 1))
    sizes = sorted(len(x) for x in Ga.all_blocks_through(beta))
    assert sizes == [2, 3, 3, 4, 12, 64]


def test_block_closure_vs_exhaustive():
    """Join-closure over stabilizer-orbit representatives equals the closure
    over every point, with an independently coded union-find."""
    from tests_block_oracle import exhaustive_blocks
    cases = [
        get_builtin("GammaL2_4").group.stabilizer(0),    # 12-point orbit
        get_builtin("YSL2phidiag_9").group.stabilizer(0),  # 18-point orbit
        get_builtin("3S6_deg18").group.stabilizer(0),    # 15-point orbit
        get_builtin("PSL3_2_deg14").group.stabilizer(0),
    ]
    for H in cases:
        orbit = max(H.orbits(), key=len)
        assert len(orbit) <= 60
        beta = orbit[0]
        assert set(H.all_blocks_through(beta)) == exhaustive_blocks(H, beta, orbit)


def _cyclic(n):
    return PermGroup(n, [np.roll(np.arange(n, dtype=np.int32), -1)], name=f"C{n}")


def test_cyclic_blocks_known_answers():
    # the blocks of C_n through 0 are its proper nontrivial subgroups
    blocks = _cyclic(12).all_blocks_through(0)
    assert [sorted(b) for b in blocks] == [[0, 6], [0, 4, 8], [0, 3, 6, 9],
                                           [0, 2, 4, 6, 8, 10]]
    # the closure from {0, 1} runs one round per point, about 3000 rounds
    assert _cyclic(3000).minimal_block(0, 1) == frozenset(range(3000))


def test_block_lattice_cap(monkeypatch):
    """C_8's blocks through 0 are {0, 4} and {0, 2, 4, 6}: two blocks pass a
    cap of one."""
    monkeypatch.setattr(permcore, "MAX_BLOCKS", 1)
    with pytest.raises(RuntimeError, match="block lattice exceeded cap"):
        _cyclic(8).all_blocks_through(0)


class _CountingCap(int):
    """A MAX_BLOCKS that records each block count compared with it: for
    `count > cap`, Python asks the int subclass's reflected __lt__ first."""

    def __new__(cls, value, counts):
        cap = super().__new__(cls, value)
        cap.counts = counts
        return cap

    def __lt__(self, count):
        self.counts.append(count)
        return int(self) < count


def test_block_lattice_cap_is_checked_per_block(monkeypatch):
    """C_2^4's 15 minimal blocks fill a cap of 15, and its first join layer
    would add 35 more: the lattice stops at the 16th block it finds, not at
    the end of that layer."""
    counts = []
    monkeypatch.setattr(permcore, "MAX_BLOCKS", _CountingCap(15, counts))
    with pytest.raises(RuntimeError, match="block lattice exceeded cap 15"):
        _elementary_abelian(4).all_blocks_through(0)
    assert max(counts) == 16


def _elementary_abelian(k):
    """C_2^k acting regularly on 2^k points, x -> x xor 2^i."""
    x = np.arange(1 << k, dtype=np.int32)
    return PermGroup(1 << k, [x ^ (1 << i) for i in range(k)], name=f"2^{k}")


def test_lattice_with_three_join_layers():
    """In C_2^4 acting regularly the minimal blocks are its 15 subgroups of
    order 2, so the blocks of 4 and 8 points come from the first two join
    layers, and a third layer finds nothing new.  Both lattices equal the
    exhaustive search."""
    from tests_block_oracle import exhaustive_blocks
    G = _elementary_abelian(4)
    minimal = {G.minimal_block(0, g) for g in range(1, 16)}
    assert len(minimal) == 15 and {len(b) for b in minimal} == {2}
    blocks = G.all_blocks_through(0)
    assert Counter(len(b) for b in blocks) == {2: 15, 4: 35, 8: 15}
    assert set(blocks) == exhaustive_blocks(G, 0, range(16))
    C24 = _cyclic(24)
    assert set(C24.all_blocks_through(0)) == exhaustive_blocks(C24, 0, range(24))


def test_default_lattices_match_the_join_lattice(fresh_caches, monkeypatch):
    """Every lattice that Tables 2-6 and the negative controls compute, on
    each suborbit the pipeline reads, equals the lattice by point merges,
    blocks and order."""
    runs = []
    real = PermGroup._blocks_through
    monkeypatch.setattr(PermGroup, "_blocks_through",
                        lambda H, beta: runs.append((H, beta)) or real(H, beta))
    for t in range(2, 7):
        pipeline.reproduce_table(t, max_degree=300)
    pipeline.negative_controls()
    assert len(runs) == 24
    for H, beta in runs:
        assert H.all_blocks_through(beta) == join_lattice(H, beta), (H.name, beta)


@pytest.mark.slow
@pytest.mark.parametrize("name, k", [("GammaU3_16", 59), ("PGammaL3_8_deg2044", 182)])
def test_large_lattices_match_the_join_lattice(name, k):
    """The lattices on the largest G_0-orbit, with k suborbits."""
    G0 = get_builtin(name).group.stabilizer(0)
    beta = max(G0.orbits(), key=len)[0]
    labels = G0.stabilizer(beta).orbit_labels()
    assert len(set(labels[G0.orbit(beta)].tolist())) == k
    assert G0.all_blocks_through(beta) == join_lattice(G0, beta)


def test_block_lattice_does_not_depend_on_batch_size(monkeypatch):
    bu = get_builtin("GammaU3_4")
    Ga = bu.group.stabilizer(0)
    cases = [(Ga, bu.space.index_of((0, 0, 1))), (_elementary_abelian(5), 0),
             (get_builtin("3S6_deg18").group.stabilizer(0), 1)]
    want = [H.all_blocks_through(beta) for H, beta in cases]
    for rows in (1, 2, 7):
        got = []
        for H, beta in cases:
            monkeypatch.setattr(permcore, "_BATCH_ENTRIES", rows * H.degree)
            got.append(H._blocks_through(beta))     # afresh, not the kept lattice
        assert got == want


def test_block_join_rejects_points_off_the_orbit():
    G = PermGroup(6, [[1, 2, 0, 4, 5, 3]])    # (0 1 2)(3 4 5)
    with pytest.raises(ValueError, match="not in the orbit of 0"):
        G.block_join(0, [3])
    with pytest.raises(ValueError, match="not in the orbit of 0"):
        G.minimal_block(0, 4)
    assert G.block_join(0, [1]) == frozenset({0, 1, 2})
    assert G.block_join(3, []) == frozenset({3})


def test_block_join_reads_an_array_a_list_and_a_set_alike():
    """An int array is read whole, any other iterable point by point."""
    G = PermGroup(12, [list(range(1, 12)) + [0]])     # C_12
    int32 = functools.partial(np.array, dtype=np.int32)
    for pts, block in (([4], range(0, 12, 4)), ([4, 6], range(0, 12, 2)),
                       ([3, 8], range(12))):
        got = {G.block_join(0, wrap(pts)) for wrap in (np.array, int32, list, frozenset)}
        assert got == {frozenset(block)}


def _walk_apart(code: str) -> list[str]:
    """The stdout lines of code run in a fresh interpreter.  A tree walk
    that reads sv = -1, from a point off the orbit or off a stale walk
    table, stays put and never reaches the root, so the run has a timeout
    and a walk that does not return fails the test instead of hanging it."""
    src = str(Path(permcore.__file__).resolve().parents[1])
    try:
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=30, env={**os.environ, "PYTHONPATH": src})
    except subprocess.TimeoutExpired:
        pytest.fail("a to_root walk did not return")
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_to_root_rejects_points_off_the_orbit():
    """Rows at orbit points map by u^-1 (base^u = 2 for the identity row
    at 2), and every point off the orbit raises."""
    out = _walk_apart(
        "import numpy as np\n"
        "from rank3pls.permcore import _Level, identity, inverse\n"
        "tree = _Level(6, 0)\n"
        "g = np.array([1, 2, 0, 4, 5, 3], dtype=np.int32)\n"
        "tree.add_gen(g, inverse(g))\n"
        "rows = np.array([[0, 1, 2], [3, 4, 5]], dtype=np.int32)\n"
        "print(tree.to_root(rows, np.array([2, 0])).tolist())\n"
        "assert tree.to_root(identity(6)[None], np.array([2]))[0, 2] == 0\n"
        "for x in (3, 4, 5):\n"
        "    try:\n"
        "        tree.to_root(rows, np.array([0, x]))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n")
    assert out == ["[[1, 2, 0], [3, 4, 5]]"] + [f"point {x} is not in the orbit of 0"
                                                for x in (3, 4, 5)]


# Levels grown one short cycle at a time, so that most generators add
# points to the orbit after to_root has built its walk table.
_GROWN_LEVELS = (
    "import random\n"
    "import numpy as np\n"
    "from rank3pls.permcore import _Level, identity, inverse\n"
    "def cycles(rng):\n"
    "    n = rng.randrange(4, 16)\n"
    "    gens = []\n"
    "    for _ in range(rng.randrange(2, 6)):\n"
    "        g = identity(n)\n"
    "        cyc = rng.sample(range(n), rng.randrange(2, 4))\n"
    "        g[cyc] = np.roll(cyc, 1)\n"
    "        gens.append(g)\n"
    "    return n, gens\n"
    "rng = random.Random(5)\n"
    "grown = 0\n")


def test_to_root_after_add_gen_matches_a_fresh_level():
    """A level read by to_root between its add_gen calls walks as a level
    given the same generators with no read between them: the walk table
    goes with each change of the tree."""
    out = _walk_apart(_GROWN_LEVELS + (
        "for _ in range(40):\n"
        "    n, gens = cycles(rng)\n"
        "    lv, fresh = _Level(n, 0), _Level(n, 0)\n"
        "    for g in gens:\n"
        "        before = len(lv.orbit)\n"
        "        lv.add_gen(g, inverse(g))\n"
        "        fresh.add_gen(g, inverse(g))\n"
        "        grown += len(lv.orbit) > before > 1\n"
        "        lv.to_root(identity(n)[None], np.array(lv.orbit))\n"
        "    pts = np.array(fresh.orbit)\n"
        "    rows = np.array([rng.sample(range(n), n) for _ in pts], dtype=np.int32)\n"
        "    assert lv.orbit == fresh.orbit\n"
        "    assert np.array_equal(lv.to_root(rows, pts), fresh.to_root(rows, pts))\n"
        "print(grown > 20)\n"))
    assert out == ["True"]


def test_batched_to_root_matches_one_point_at_a_time():
    """One to_root over every orbit point, with a row per point or one row
    for all, equals the rows read one point at a time as each point joins
    the orbit (a point's rep does not change when the tree grows)."""
    out = _walk_apart(_GROWN_LEVELS + (
        "for _ in range(40):\n"
        "    n, gens = cycles(rng)\n"
        "    lv = _Level(n, 0)\n"
        "    R = np.array([rng.sample(range(n), n) for _ in range(n)], dtype=np.int32)\n"
        "    single = {0: lv.to_root(R[0][None], np.array([0]))[0]}\n"
        "    for g in gens:\n"
        "        before = len(lv.orbit)\n"
        "        lv.add_gen(g, inverse(g))\n"
        "        grown += len(lv.orbit) > before > 1\n"
        "        for x in lv.orbit[before:]:\n"
        "            single[x] = lv.to_root(R[x][None], np.array([x]))[0]\n"
        "    pts = np.array(lv.orbit)\n"
        "    want = np.array([single[x] for x in lv.orbit])\n"
        "    assert np.array_equal(lv.to_root(R[pts], pts), want)\n"
        "    inv = lv.to_root(identity(n)[None], pts)\n"
        "    assert np.array_equal(np.take_along_axis(inv, R[pts], axis=1), want)\n"
        "print(grown > 20)\n"))
    assert out == ["True"]


def test_coset_action_contract():
    G = s4()
    st = G.stabilizer(0)
    img = G.coset_action(st)
    assert img.degree == 4 and img.order == 24
    assert img.stabilizer(0).order == st.order
    # R = G: degree-1 action
    img1 = G.coset_action(G)
    assert img1.degree == 1
    a4 = normal_subgroup_of_index(G, 2)
    with pytest.raises(ValueError):
        a4.coset_action(PermGroup(4, [[1, 0, 2, 3]]))  # odd perm, not in A4


def test_coset_action_m11():
    m11_22 = get_builtin("M11_deg22").group
    assert (m11_22.degree, m11_22.order, m11_22.rank()) == (22, 7920, 3)
    assert m11_22.stabilizer(0).order == 360


def test_normal_subgroup_of_index():
    G = s4()
    A4 = normal_subgroup_of_index(G, 2)
    assert A4.order == 12
    with pytest.raises(RuntimeError):
        normal_subgroup_of_index(G, 5)


def test_flag_transitivity_vs_setwise_oracle():
    """The orbit-based test agrees with the explicit backtracking setwise
    stabilizer on lines of catalogued groups of degree <= 200."""
    rng = random.Random(23)
    cases = []
    for name in ["GammaL2_4", "PSL3_2_deg14", "M11_deg22", "3S6_deg18",
                 "YSL2phidiag_9", "GammaL2_16"]:
        G = get_builtin(name).group
        Ga = G.stabilizer(0)
        orbit = max(Ga.orbits(), key=len)
        for blk in Ga.all_blocks_through(orbit[0]):
            cases.append((G, tuple(sorted(set(blk) | {0}))))
        # a couple of random small sets as controls
        for _ in range(2):
            cases.append((G, tuple(sorted(rng.sample(range(G.degree), 3)))))
    assert len(cases) >= 12
    for G, line in cases:
        fast = flag_transitive_on_line(G, line)
        stab = setwise_stabilizer(G, line)
        oracle = bfs_orbit(stab.gens, line[0]) >= set(line)
        assert fast == oracle, (G.name, line)


def test_line_orbit_image_maps():
    G = get_builtin("GammaL2_4").group
    lines, limg = line_orbit(G.gens, (0, 1, 2, 3), with_maps=True)
    for k, g in enumerate(G.gens):
        for i, line in enumerate(lines):
            img = tuple(sorted(int(g[p]) for p in line))
            assert tuple(lines[limg[k][i]].tolist()) == img


def _tuple_line_orbit(gens, line):
    """Plain layer-wise BFS over sorted tuples: the orbit rows in FIFO order
    of discovery (source row by source row, then generator by generator) and
    the per-generator image maps."""
    rows = [tuple(sorted(line))]
    index = {rows[0]: 0}
    maps = [{} for _ in gens]
    layer = [0]
    while layer:
        nxt = []
        for i in layer:
            for k, g in enumerate(gens):
                img = tuple(sorted(int(g[p]) for p in rows[i]))
                if img not in index:
                    index[img] = len(rows)
                    rows.append(img)
                    nxt.append(index[img])
                maps[k][i] = index[img]
        layer = nxt
    return rows, maps


def test_line_orbit_matches_tuple_bfs():
    from rank3pls import families as fam
    G = get_builtin("GammaU3_4").group
    # USub(4,2,3) is one line orbit, so any of its lines serves as the base;
    # it is passed unsorted to check that row 0 is the sorted base line
    base = fam.usub(4, 2, 3).lines[5].tolist()
    lines, limg = line_orbit(G.gens, base[::-1], with_maps=True)
    rows, maps = _tuple_line_orbit(G.gens, base)
    assert row_keys(lines, G.degree).dtype == np.int64   # the rank keys
    assert lines.shape == (6240, 3) and lines.dtype == np.int32
    assert list(map(tuple, lines.tolist())) == rows
    for k in range(len(G.gens)):
        assert limg[k].tolist() == [maps[k][i] for i in range(len(rows))]


def test_line_orbit_void_keys_match_tuple_bfs():
    """C(3000, 7) >= 2**63, so the orbit is found on np.void row keys: the
    line (0,1,2,3,5,8,13) under x -> x + 1 and x -> 7x (7 has order 20 mod
    3000) has 60,000 images, in the same order as a tuple BFS finds them."""
    n = 3000
    x = np.arange(n, dtype=np.int32)
    gens = [(x + 1) % n, (7 * x) % n]
    base = (0, 1, 2, 3, 5, 8, 13)
    lines, limg = line_orbit(gens, base, with_maps=True)
    rows, maps = _tuple_line_orbit(gens, base)
    assert row_keys(lines, n).dtype.kind == "V"
    assert lines.shape == (60_000, 7)
    assert list(map(tuple, lines.tolist())) == rows
    for k in range(len(gens)):
        assert limg[k].tolist() == [maps[k][i] for i in range(len(rows))]


@pytest.mark.parametrize("kind", ["i", "V"])
def test_line_orbit_ties_number_lines_by_first_appearance(kind):
    """With generators [g, g, identity, g^-1, h], many frontier lines map to
    one image within a layer; lines and image maps still equal a tuple
    BFS's, on both kinds of row key."""
    if kind == "i":
        G = get_builtin("GammaU3_4").group
        from rank3pls import families as fam
        n, gens, base = G.degree, G.gens, fam.usub(4, 2, 3).lines[5].tolist()
    else:
        n = 3000
        x = np.arange(n, dtype=np.int32)
        gens, base = [(x + 1) % n, (7 * x) % n], (0, 1, 2, 3, 5, 8, 13)
    g, *rest = gens
    gens = [g, g, identity(n), inverse(g), *rest]
    lines, limg = line_orbit(gens, base, with_maps=True)
    rows, maps = _tuple_line_orbit(gens, base)
    assert row_keys(lines, n).dtype.kind == kind
    assert list(map(tuple, lines.tolist())) == rows
    for k in range(len(gens)):
        assert limg[k].tolist() == [maps[k][i] for i in range(len(rows))]


@pytest.mark.parametrize("with_maps", [False, True])
def test_line_orbit_rejects_what_is_not_a_point_set(with_maps):
    gens = [np.roll(np.arange(6, dtype=np.int32), 1)]
    for bad in [(0, 0, 1), (0, 1, 6), (-1, 2, 3)]:
        with pytest.raises(ValueError, match="not a set of points"):
            line_orbit(gens, bad, with_maps=with_maps)
    with pytest.raises(ValueError, match="^an empty line has no line orbit$"):
        line_orbit(gens, [], with_maps=with_maps)


def test_flag_test_refuses_an_empty_line():
    with pytest.raises(ValueError, match="empty line"):
        flag_transitive_on_line(s4(), [])


def _lex_rank(row, n):
    """How many k-subsets of range(n) precede `row` lexicographically."""
    k = len(row)
    rank, prev = 0, -1
    for i, x in enumerate(row):
        rank += sum(math.comb(n - 1 - v, k - 1 - i) for v in range(prev + 1, x))
        prev = x
    return rank


def _assert_strictly_increasing(keys):
    assert (np.argsort(keys, kind="stable") == np.arange(len(keys))).all()
    assert (keys[1:] != keys[:-1]).all()


def test_row_keys_rank_every_subset_in_order():
    for n, k in [(9, 4), (7, 1), (6, 6), (10, 2), (9, 7)]:
        rows = np.array(list(itertools.combinations(range(n), k)), dtype=np.int32)
        assert row_keys(rows, n).tolist() == list(range(math.comb(n, k)))


@pytest.mark.parametrize("k", [7, 12])
def test_row_keys_on_both_sides_of_the_int64_boundary(k):
    """Keys strictly increase in lexicographic row order for the largest n
    with C(n, k) < 2**63 (int64 ranks) and the next n (np.void rows)."""
    n_int = next(n for n in itertools.count(k) if math.comb(n + 1, k) >= 2**63)
    rng = np.random.default_rng(k)
    for n in (n_int, n_int + 1):
        picks = {tuple(sorted(rng.choice(n, k, replace=False).tolist()))
                 for _ in range(3000)}
        rows = np.array(sorted(picks | {tuple(range(k)),
                                        tuple(range(n - k, n))}), dtype=np.int32)
        keys = row_keys(rows, n)
        _assert_strictly_increasing(keys)
        if n == n_int:
            assert keys.dtype == np.int64
            assert keys[0] == 0 and keys[-1] == math.comb(n, k) - 1
            assert keys[:40].tolist() == [_lex_rank(r, n) for r in rows[:40].tolist()]
        else:
            assert keys.dtype.kind == "V"


def test_catalog_cache_keys_on_name(fresh_caches):
    a = get_builtin("GammaL2_4", seed=11)
    assert get_builtin("GammaL2_4", seed=12) is a
    assert get_builtin("GammaL2_4") is a
    assert list(catalog._CACHE) == ["GammaL2_4"]


def test_group_file_roundtrip(tmp_path):
    G = get_builtin("3S6_deg18").group
    path = tmp_path / "g.grp"
    write_group_file(path, G.degree, G.gens)
    degree, gens = read_group_file(path)
    assert degree == 18
    H = PermGroup(degree, gens)
    assert H.order == 2160


def test_random_element_uniform_support():
    G = s4()
    rng = random.Random(0)
    seen = {tuple(G.random_element(rng)) for _ in range(400)}
    assert len(seen) == 24


def test_deep_schreier_tree_dihedral_3000():
    """D_3000 on 3000 points: the first Schreier tree is about 1500 deep,
    which the deterministic pass must handle without recursion."""
    n = 3000
    a = np.arange(n, dtype=np.int32)
    G = PermGroup(n, [np.roll(a, -1), n - 1 - a])
    assert G.order == 2 * n
    S = G.stabilizer(5)
    assert S.order == 2
    rng = random.Random(5)
    elements = [G.random_element(rng) for _ in range(4)]
    elements += [identity(n), ((10 - a) % n).astype(np.int32),  # fixes 5
                 ((12 - a) % n).astype(np.int32)]               # fixes 6
    for g in elements:
        assert S.contains(g) == (g[5] == 5)


def test_stabilizer_reads_the_parent_chain(monkeypatch):
    """G_x for x in the first basic orbit runs no Schreier-Sims; its chain is
    a complete chain of the stabilizer.  A fresh copy of the group keeps no
    stabilizer from an earlier test."""
    b = get_builtin("GammaL2_4").group
    G = PermGroup(b.degree, b.gens, name=b.name)
    assert G.order == b.order

    def no_build(self):
        raise AssertionError(f"Schreier-Sims ran for {self!r}")

    monkeypatch.setattr(PermGroup, "_build_bsgs", no_build)
    rng = random.Random(2)
    for x in range(G.degree):
        S = G.stabilizer(x)
        assert S._levels is not None and "|rebase" not in S.name
        assert S.order == G.order // G.degree
        assert all(g[x] == x for g in S.gens)
        assert all(g[x] == x for g in (S.random_element(rng) for _ in range(5)))
        for g in (G.random_element(rng) for _ in range(5)):
            assert S.contains(g) == (g[x] == x)
    b = G._chain()[0].point
    assert G.stabilizer(b)._levels == G._levels[1:]


def test_stabilizer_of_a_fixed_point_is_the_group_on_its_own_chain(monkeypatch):
    """G_x = G for a point G fixes: it gets G's chain, and neither it nor
    its order runs Schreier-Sims."""
    G = PermGroup(6, [[1, 0, 2, 3, 4, 5], [0, 2, 1, 3, 4, 5], [3, 1, 2, 0, 4, 5]])
    assert G.order == 24

    def no_build(self):
        raise AssertionError(f"Schreier-Sims ran for {self!r}")

    monkeypatch.setattr(PermGroup, "_build_bsgs", no_build)
    for x in (4, 5):
        S = G.stabilizer(x)
        assert S._levels is G._levels and S.order == 24
        assert all(G.contains(g) for g in S.gens)
        assert S.contains(G.gens[2]) and not S.contains([0, 1, 2, 3, 5, 4])
