"""Orders, point stabilizers and membership against sympy.combinatorics."""

import random

import numpy as np
import pytest

from rank3pls.catalog import ALL_BUILTINS, builtin_names, get_builtin
from rank3pls.permcore import PermGroup, compose

combinatorics = pytest.importorskip("sympy.combinatorics")

DESK_BUILTINS = [n for n in builtin_names() if ALL_BUILTINS[n].degree <= 248]


def _sympy_group(G: PermGroup):
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(g.tolist()) for g in G.gens])


def _check_stabilizer(G: PermGroup, SG, x: int, rng: random.Random):
    S = G.stabilizer(x)
    T = SG.stabilizer(x)
    assert S.order == T.order()
    fixing = [np.array(t.array_form, dtype=np.int32) for t in T.generators]
    for h in fixing:
        assert S.contains(h)
    for _ in range(4):
        g = G.random_element(rng)
        assert S.contains(g) == (g[x] == x)
        for h in fixing[:2]:
            k = compose(h, g)
            assert S.contains(k) == (k[x] == x)


@pytest.mark.parametrize("name", DESK_BUILTINS)
def test_builtin_stabilizers_match_sympy(name):
    G = get_builtin(name).group
    SG = _sympy_group(G)
    assert G.order == SG.order()
    base = [lv.point for lv in G._chain()]
    off_base = next(p for p in range(G.degree) if p not in base)
    rng = random.Random(name)
    for x in (base[0], off_base):
        _check_stabilizer(G, SG, x, rng)


def test_intransitive_stabilizers_match_sympy():
    """S3 x D4 on {0,1,2} + {3,...,6}, point 7 fixed.  G_1 is conjugated
    off the chain, 4 and 6 lie outside the first basic orbit {0,1,2} (a
    rebased chain), and G_7 = G (the trivial-orbit branch)."""
    G = PermGroup(8, [[1, 2, 0, 3, 4, 5, 6, 7], [1, 0, 2, 3, 4, 5, 6, 7],
                      [0, 1, 2, 4, 5, 6, 3, 7], [0, 1, 2, 5, 4, 3, 6, 7]])
    SG = _sympy_group(G)
    assert G.order == SG.order() == 48
    assert G._chain()[0].point == 0
    rng = random.Random(8)
    for x in (0, 1, 4, 6, 7):
        _check_stabilizer(G, SG, x, rng)


@pytest.mark.parametrize("name", DESK_BUILTINS)
def test_builtin_minimal_blocks_match_sympy(name):
    """G.minimal_block(0, x) is the block of 0 in sympy's minimal block
    system for {0, x}, for x the next point of the Sigma cell of 0 and for
    x = degree - 1."""
    G = get_builtin(name).group
    SG = _sympy_group(G)
    cell, = G.all_blocks_through(0)
    for x in (sorted(cell)[1], G.degree - 1):
        labels = SG.minimal_block([0, x])
        want = frozenset(i for i, c in enumerate(labels) if c == labels[0])
        assert G.minimal_block(0, x) == want, (name, x)
