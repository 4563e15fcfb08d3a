"""Property tests of the union-find kernel on random small groups.

Orbits, minimal blocks, components and the flag test read their classes
from permcore.merge, and block lattices close over suborbits.  Each is
compared here with an oracle that does neither: networkx connected
components, the exhaustive block search of tests_block_oracle and the
backtracking setwise stabilizer of tools/gen_sporadic_data.py.  The runs are
derandomized, so every run
draws the same examples.
"""

import numpy as np
import pytest

from rank3pls.incidence import IncidenceStructure, components
from rank3pls.permcore import PermGroup, flag_transitive_on_line, identity, merge
from tests_block_oracle import _minimal, exhaustive_blocks
from tests_sporadic_tool import setwise_stabilizer

pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def groups(draw, max_degree: int = 40):
    """1-3 generators on at most max_degree points.  When the degree has a
    proper divisor b, half of the draws lie in S_b wr S_(n/b) with the
    points relabelled at random, so that nontrivial blocks are common.
    Unconstrained generators almost always give S_n or A_n, whose
    deterministic Schreier-Sims takes seconds above about 25 points, so
    those draws stay at degree <= 24."""
    n = draw(st.integers(2, max_degree))
    m = draw(st.integers(1, 3))
    sizes = [b for b in range(2, n) if n % b == 0]
    if not sizes or draw(st.booleans()):
        n = min(n, 24)
        return PermGroup(n, [draw(st.permutations(range(n))) for _ in range(m)])
    b = draw(st.sampled_from(sizes))
    relabel = draw(st.permutations(range(n)))
    gens = []
    for _ in range(m):
        sigma = draw(st.permutations(range(n // b)))
        taus = [draw(st.permutations(range(b))) for _ in range(n // b)]
        g = np.empty(n, dtype=np.int32)
        for x in range(n):
            g[relabel[x]] = relabel[sigma[x // b] * b + taus[x // b][x % b]]
        gens.append(g)
    return PermGroup(n, gens)


def _orbit_graph(degree: int, gens):
    graph = nx.Graph()
    graph.add_nodes_from(range(degree))
    graph.add_edges_from((x, int(g[x])) for g in gens for x in range(degree))
    return graph


def test_merge_roots_classes_at_least_point():
    parent = identity(8)
    joined = merge(parent, [7, 5, 6], [3, 7, 2])
    assert parent.tolist() == list(range(8))      # the argument is untouched
    assert joined.tolist() == [0, 1, 2, 3, 4, 3, 2, 3]
    assert merge(joined, [4], [5]).tolist() == [0, 1, 2, 3, 3, 3, 2, 3]


@SETTINGS
@given(groups())
def test_orbits_match_networkx(G):
    want = sorted(sorted(c) for c in nx.connected_components(_orbit_graph(G.degree, G.gens)))
    assert G.orbits() == want
    assert G.is_transitive() == (len(want) == 1)
    for orb in want:
        assert G.orbit(orb[-1]) == orb


@SETTINGS
@given(groups(), st.data())
def test_blocks_match_exhaustive_oracle(G, data):
    beta = data.draw(st.integers(0, G.degree - 1))
    carrier = sorted(nx.node_connected_component(_orbit_graph(G.degree, G.gens), beta))
    for gamma in carrier:
        if gamma != beta:
            assert G.minimal_block(beta, gamma) == _minimal(G, beta, [gamma])
    assert set(G.all_blocks_through(beta)) == exhaustive_blocks(G, beta, carrier)


@SETTINGS
@given(st.data())
def test_components_match_networkx(data):
    n = data.draw(st.integers(2, 40))
    k = data.draw(st.integers(2, min(5, n)))
    raw = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                                      unique=True), max_size=30))
    lines = sorted({tuple(sorted(line)) for line in raw})
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for line in lines:
        graph.add_edges_from(zip(line, line[1:]))
    want = sorted((sorted(c) for c in nx.connected_components(graph)),
                  key=lambda c: (len(c), c))
    assert components(IncidenceStructure(n, lines)) == want


# the backtracking oracle is exponential in the degree, hence degree <= 9
@SETTINGS
@given(groups(max_degree=9), st.data())
def test_flag_test_matches_setwise_stabilizer(G, data):
    line = sorted(data.draw(st.sets(st.integers(0, G.degree - 1), min_size=2, max_size=4)))
    stab = setwise_stabilizer(G, line)
    reach = nx.node_connected_component(_orbit_graph(G.degree, stab.gens), line[0])
    assert flag_transitive_on_line(G, line) == (set(line) <= reach)
