"""Cross-checks of individual stated facts beyond the acceptance criteria:
the Frobenius action on the degree-9 blocks, base-line 2-transitivity, the
subgroup-product identities behind the (k, t) parameters, and the witness
argument for the flag-transitive block of the large unitary case."""

import pytest

from rank3pls import families as fam
from rank3pls.catalog import get_builtin
from rank3pls.gfield import field_make
from rank3pls.matsemi import phi
from rank3pls.omega import induce_action
from rank3pls.permcore import compose, perm_from_images
from rank3pls.pipeline import expected_blocks_linear, expected_blocks_unitary
from tests_sporadic_tool import setwise_stabilizer


def test_frobenius_permutes_b9_blocks():
    """phi preserves the lambda in F_3 and lambda in w^2 F_3 blocks of the
    (q, r) = (9, 2) case and swaps the other two."""
    b = get_builtin("YSL2phidiag_9")
    space = b.space
    table = expected_blocks_linear(space)
    p = induce_action(space, [phi(space.field, 2)])[0]

    def image(blk):
        return frozenset(int(p[x]) for x in blk)

    assert image(table["B9_0"]) == table["B9_0"]
    assert image(table["B9_2"]) == table["B9_2"]
    assert image(table["B9_1"]) == table["B9_3"]
    assert image(table["B9_3"]) == table["B9_1"]


@pytest.mark.parametrize("build,group", [
    (lambda: fam.lsub(2, 16, 4, 5), "GammaL2_16"),
    (lambda: fam.usub(4, 2, 3), "GammaU3_4"),
    (lambda: fam.lsub(2, 25, 5, 3), "ZSLphi2_25"),
])
def test_base_line_stabilizer_two_transitive(build, group):
    """The line stabilizer acts 2-transitively on the base line."""
    D = build()
    G = get_builtin(group).group
    line = D.lines[0]
    stab = setwise_stabilizer(G, line)
    pairs = set()
    # closure over the (small) stabilizer, collecting ordered pair images
    from rank3pls.permcore import identity
    frontier = [identity(G.degree)]
    elements = {frontier[0].tobytes()}
    while frontier:
        nxt = []
        for h in frontier:
            pairs.add((int(h[line[0]]), int(h[line[1]])))
            for g in stab.gens:
                w = compose(h, g)
                if w.tobytes() not in elements:
                    elements.add(w.tobytes())
                    nxt.append(w)
        frontier = nxt
    s = len(line)
    assert len({pq for pq in pairs if pq[0] != pq[1]}) == s * (s - 1)


def test_subgroup_product_identities():
    """t | kr, k | t, kr = lcm(r, t), and <w^t><w^r> = <w^{t/k}>."""
    for (q, q0, r) in [(16, 4, 5), (9, 3, 2), (25, 5, 3), (81, 9, 5)]:
        k, t = fam.lsub_params(q, q0, r)
        assert (k * r) % t == 0 and t % k == 0
        assert k * r == _lcm(r, t)
        (p, a) = next(iter(_factorize(q).items()))
        F = field_make(p, a)
        prod = {F.mul(F.exp[(t * i) % (q - 1)], F.exp[(r * j) % (q - 1)])
                for i in range(q - 1) for j in range(q - 1)}
        want = {F.exp[((t // k) * i) % (q - 1)] for i in range(q - 1)}
        assert prod == want


def _factorize(n):
    from rank3pls.gfield import factorize
    return factorize(n)


def _lcm(a, b):
    from math import gcd
    return a * b // gcd(a, b)


@pytest.mark.slow
def test_unitary16_b7_flag_transitive_witness():
    """For (q, r) = (16, 5) the full line orbit (21 million lines) is out of
    desk scale, but flag-transitivity of B7 cup {alpha} follows from a single
    witness: the Weyl reflection fixes the line setwise and moves alpha onto
    it, and the block stabilizer inside the point stabilizer is transitive on
    the block."""
    b = get_builtin("GammaU3_16")
    space = b.space
    G = b.group
    table = expected_blocks_unitary(space)
    B7 = table["B7"]
    line = frozenset(B7) | {0}
    F = space.field
    from rank3pls.matsemi import Mat, linear
    weyl = linear(Mat(F, [[0, 0, 1], [0, F.neg(1), 0], [1, 0, 0]]))
    w = induce_action(space, [weyl])[0]
    assert G.contains(w)
    assert frozenset(int(w[x]) for x in line) == line
    assert int(w[0]) in B7
    # the computed block property already gives G_{alpha,B7} transitive on B7
    Ga = G.stabilizer(0)
    assert frozenset(B7) in set(Ga.all_blocks_through(space.index_of((0, 0, 1))))
