"""Family constructors versus the closed-form counts and paper identities."""

import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rank3pls import families as fam
from rank3pls.incidence import is_connected, is_proper, validate_pls
from rank3pls.matsemi import GroupSpec, gens_group
from rank3pls.omega import induce_action
from rank3pls.permcore import DEFAULT_SEED


def test_lsub_params():
    assert fam.lsub_params(16, 4, 5) == (1, 1)
    assert fam.lsub_params(9, 3, 2) == (2, 4)
    assert fam.lsub_params(25, 5, 3) == (2, 2)
    assert fam.lsub_params(81, 9, 5) == (2, 2)
    with pytest.raises(ValueError):
        fam.lsub_params(16, 3, 5)
    with pytest.raises(ValueError):
        fam.lsub_params(16, 4, 7)
    with pytest.raises(ValueError):
        fam.lsub_params(16, 16, 3)


def test_expected_counts_examples():
    assert fam.expected_counts("agstar", 2, 4) == {
        "points": 15, "lines": 15, "line_size": 4, "multiplicity": 1}
    assert fam.expected_counts("usub", 3, 4, 2, 3)["lines"] == 6240
    assert fam.expected_counts("lsub", 3, 25, 5, 3)["multiplicity"] == 2
    assert fam.expected_counts("delta", 3, 3)["lines"] == 104
    assert fam.expected_counts("agustar", 3, 4)["lines"] == 3120
    assert fam.expected_counts("usub", 3, 16, 4, 5)["lines"] == 20976640


def _props(D):
    rep = validate_pls(D)
    return rep, rep.is_pls and is_proper(D), is_connected(D)


def test_ag_star_instances():
    D = fam.ag_star(2, 4)
    rep, proper, conn = _props(D)
    assert (D.num_points, D.num_lines) == (15, 15)
    assert rep.is_pls and proper and conn
    assert fam.ag_star(2, 3).line_set() == fam.delta(2, 3).line_set()
    assert fam.ag_star(3, 4).num_lines == 315
    with pytest.raises(ValueError):
        fam.ag_star(1, 4)
    with pytest.raises(ValueError):
        fam.ag_star(2, 2)


def test_delta_instances():
    assert fam.delta(2, 4).num_lines == 30
    assert fam.delta(2, 3).num_lines == 8
    assert fam.delta(3, 3).num_lines == 104
    assert all(len(l) == 3 for l in fam.delta(2, 4).lines)


def test_lsub_instances():
    D = fam.lsub(2, 16, 4, 5)
    rep, proper, conn = _props(D)
    assert (D.num_points, D.num_lines) == (85, 340)
    assert rep.multiplicity == 1 and proper and conn
    D2 = fam.lsub(2, 25, 5, 3)
    assert (D2.num_points, D2.num_lines) == (78, 195)
    assert validate_pls(D2).multiplicity == 1
    assert fam.lsub(2, 4, 2, 3).line_set() == fam.delta(2, 4).line_set()
    with pytest.raises(ValueError):
        fam.lsub(2, 16, 4, 1)


@pytest.mark.slow
def test_lsub_multiplicity_two():
    D = fam.lsub(3, 25, 5, 3)
    rep = validate_pls(D)
    assert rep.multiplicity == 2 and not rep.is_pls


def test_dlsub_instances():
    D = fam.dlsub(9, 3, 2, 1)
    rep, proper, conn = _props(D)
    assert (D.num_points, D.num_lines) == (20, 30)
    assert rep.is_pls and proper and conn and D.params["disjoint_union"]
    bad = fam.dlsub(9, 3, 2, 2)
    assert validate_pls(bad).multiplicity >= 2
    with pytest.raises(ValueError):
        fam.dlsub(9, 3, 2, 4)  # j must lie strictly below t
    with pytest.raises(ValueError):
        fam.dlsub(9, 3, 2, 0)


def test_usub_instance():
    D = fam.usub(4, 2, 3)
    rep, proper, conn = _props(D)
    assert (D.num_points, D.num_lines) == (195, 6240)
    assert rep.is_pls and proper and conn
    assert all(len(l) == 3 for l in D.lines)
    with pytest.raises(ValueError):
        fam.usub(9, 3)   # r = 4 even
    with pytest.raises(ValueError):
        fam.usub(4, 4)


def test_usub_lines_independent_isotropic():
    """Every line consists of pairwise independent isotropic representatives."""
    D = fam.usub(4, 2, 3)
    from rank3pls.omega import build_omega
    sp = build_omega("unitary", 3, 4, 3)
    F = sp.field
    for line in D.lines[:500]:
        vecs = [sp.points[p] for p in line]
        for v in vecs:
            assert sp.form.is_isotropic(v)
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                # dependent would mean one is a scalar multiple of the other
                vi, vj = vecs[i], vecs[j]
                ratios = {(F.log[a] - F.log[b]) % (F.q - 1)
                          for a, b in zip(vi, vj) if a and b}
                zeros_mismatch = any((a == 0) != (b == 0) for a, b in zip(vi, vj))
                assert zeros_mismatch or len(ratios) > 1


def test_agu_star_instance():
    D = fam.agu_star(4)
    rep, proper, conn = _props(D)
    assert (D.num_points, D.num_lines) == (195, 3120)
    assert rep.is_pls and proper and conn
    with pytest.raises(ValueError):
        fam.agu_star(5)
    with pytest.raises(ValueError):
        fam.agu_star(2)


def test_agu_star_base_line_two_transitive():
    """The stabilizer of the base line acts 2-transitively on it."""
    from rank3pls.catalog import get_builtin
    from rank3pls.permcore import compose
    D = fam.agu_star(4)
    G = get_builtin("GammaU3_4").group
    line = D.lines[0]
    stab = G.setwise_stabilizer(line)
    # 2-transitivity on the 4 points: orbit of an ordered pair has size 12
    pairs = {(int(g[line[0]]), int(g[line[1]]))
             for g in _elements(stab)}
    assert len({p for p in pairs if p[0] != p[1]}) == 12


def _elements(G):
    # small groups only: breadth-first closure over generators
    from rank3pls.permcore import identity, compose
    seen = {identity(G.degree).tobytes(): identity(G.degree)}
    frontier = list(seen.values())
    while frontier:
        nxt = []
        for h in frontier:
            for g in G.gens:
                w = compose(h, g)
                key = w.tobytes()
                if key not in seen:
                    seen[key] = w
                    nxt.append(w)
        frontier = nxt
    return list(seen.values())


@pytest.mark.parametrize("seed, rng_seed, sampled", [
    (0, 0xC0, 8795),                  # the tables and CLI path
    (7, 7, 8772),
    (DEFAULT_SEED, DEFAULT_SEED, 8778),   # the perfbench path
])
def test_count_only_mode(seed, rng_seed, sampled):
    C = fam.usub(16, 4, 5, seed=seed)
    assert isinstance(C, fam.CountOnly)
    assert C.expected["lines"] == 20976640
    assert len(C.sample_lines) > 1000
    assert len(C.sample_lines) == sampled
    assert all(len(l) == 5 for l in C.sample_lines)
    # the sample is the seeded walk replayed with array gathers
    rng = random.Random(rng_seed)
    gens = induce_action(C.space, gens_group(GroupSpec("unitary", 3, 16, 5, "z_su")))
    walk = [np.array(C.base_line)]
    for _ in range(10000):
        walk.append(gens[rng.randrange(len(gens))][walk[-1]])
    assert C.sample_lines == sorted(set(map(tuple, np.sort(walk, axis=1).tolist())))


class _CountingRandom(random.Random):
    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def test_bulk_draw_is_randrange():
    """_randranges gives exactly rng.randrange's values: a change to CPython's
    random module fails here, not as a silently different sample."""
    calls = Counter()
    for m in (1, 2, 3, 5, 7, 8, 9, 16, 17):
        for seed in (0xC0, 7, DEFAULT_SEED):
            for count in [*range(1, 33), 10000]:
                rng = _CountingRandom(seed)
                got = fam._randranges(rng, m, count)
                ref = random.Random(seed)
                assert got.tolist() == [ref.randrange(m) for _ in range(count)]
                calls[rng.calls] += 1
    assert calls[2] and max(calls) >= 3     # one refill, and several


def test_distinct_lines():
    D = fam.delta(2, 4)
    lines = D.lines
    picks = np.random.default_rng(5).integers(0, len(lines), 3 * len(lines))
    rows = lines[picks]
    assert rows.shape[0] > len(set(map(tuple, rows.tolist()))) > 1
    got = fam._distinct_lines(rows, D.num_points)
    assert list(map(tuple, got.tolist())) == sorted(set(map(tuple, rows.tolist())))
    # two lines on the first two points, and two on a later pair
    for bad in ([[0, 1, 2], [0, 1, 3]], [[0, 2, 3], [1, 2, 3]]):
        with pytest.raises(AssertionError, match="violate the PLS property"):
            fam._distinct_lines(np.array(bad, dtype=np.int32), 4)


def test_agu_star_8_builds_but_is_not_rank3():
    """AGU*(8) satisfies the definition contract (r = q - 1 = 7) and builds;
    the acting group is rejected by the rank-3 arithmetic."""
    from rank3pls.matsemi import GroupSpec
    from rank3pls.omega import build_omega
    from rank3pls.gfield import is_primitive_prime_divisor
    sp = build_omega("unitary", 3, 8, 7)
    assert len(sp) == 7 * (8**3 + 1)
    spec = GroupSpec("unitary", 3, 8, 7, "gammau")
    # arithmetic only here; the full classify run happens in the slow suite
    assert not is_primitive_prime_divisor(7, 2, 6)


@pytest.mark.slow
def test_agu_star_8_structure():
    D = fam.agu_star(8)
    assert D.num_lines == 8**2 * (8**3 + 1) * 7
    rep = validate_pls(D)
    assert rep.is_pls


@pytest.mark.parametrize("build, args", [(fam.ag_star, (2, 4)), (fam.delta, (2, 4)),
                                         (fam.lsub, (2, 16, 4, 5)),
                                         (fam.usub, (4, 2)), (fam.agu_star, (4,))])
def test_orbit_constructor_rejects_a_wrong_line_count(build, args, monkeypatch):
    real = fam.expected_counts

    def one_more(family, *rest):
        out = real(family, *rest)
        return {**out, "lines": out["lines"] + 1}

    monkeypatch.setattr(fam, "expected_counts", one_more)
    with pytest.raises(AssertionError, match="lines, formula"):
        build(*args)


def test_constructor_table_covers_every_kind():
    assert sorted(fam.CONSTRUCTORS) == ["agstar", "agustar", "delta", "dlsub",
                                        "lsub", "usub"]
    for kind, build in fam.CONSTRUCTORS.items():
        assert callable(build) and build.__module__ == fam.__name__


def test_families_workload_traced_peak():
    """tools/memory_stages.py, run in a fresh interpreter, reports the
    traced peak (live + above_live over its calls) of the family builds and
    predicates of the `families` workload: at most 20 MiB."""
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, str(root / "tools" / "memory_stages.py")],
                         capture_output=True, text=True, timeout=300, check=True)
    name, peak, *_ = out.stdout.splitlines()[-1].split()
    assert name == "peak"
    assert float(peak) <= 20, out.stdout
