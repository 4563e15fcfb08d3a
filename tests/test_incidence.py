"""Incidence-structure model and verification predicates."""

import collections
import dataclasses
import gc
import itertools
import json
import math
import random
import re
import tracemalloc
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rank3pls import families as fam, incidence
from rank3pls.catalog import get_builtin
from rank3pls.incidence import (IncidenceStructure, components, fingerprint,
                                is_connected, is_proper, pair_keys, pair_summary,
                                validate_pls)
from rank3pls.permcore import _rank_table, row_keys
from tests_geometry_oracle import preserved_by, relabel
from tests_pipeline_oracle import multiplicity_bruteforce


def test_ingestion_rules():
    with pytest.raises(ValueError):
        IncidenceStructure(4, [(0, 0, 1)])
    with pytest.raises(ValueError):
        IncidenceStructure(4, [(2, 1, 0)])   # unsorted
    with pytest.raises(ValueError):
        IncidenceStructure(4, [(0,)])
    with pytest.raises(ValueError):
        IncidenceStructure(4, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        IncidenceStructure(3, [(0, 5)])


@pytest.mark.parametrize("n, k, kind", [(12, 3, "i"), (200, 40, "V")])
def test_ingestion_on_both_key_kinds(n, k, kind):
    """C(12, 3) ranks fit in an int64, C(200, 40) do not: both kinds of row
    key order the lines and find the first duplicate, and every rejection
    keeps its order and message."""
    a, b, c = (tuple(range(s, s + k)) for s in (0, 1, n - k))
    assert row_keys(np.array([a]), n).dtype.kind == kind
    D = IncidenceStructure(n, [c, a, b])
    assert D.lines.dtype == np.int32 and D.lines.tolist() == [list(a), list(b), list(c)]
    with pytest.raises(ValueError, match=re.escape(f"line {b} is a duplicate")):
        IncidenceStructure(n, [c, b, c, a, b])
    with pytest.raises(ValueError, match=re.escape(f"line {b[::-1]} is not strictly sorted")):
        IncidenceStructure(n, [c, c, b[::-1], a[::-1]])
    far = b[:-1] + (n,)
    with pytest.raises(ValueError, match=re.escape(f"line {far} out of range")):
        IncidenceStructure(n, [a, far, far])


def test_mixed_line_sizes_rejected():
    with pytest.raises(ValueError):
        IncidenceStructure(5, [(0, 1), (1, 2, 3)])
    with pytest.raises(ValueError):
        IncidenceStructure.from_json('{"points": 5, "lines": [[0, 1, 2], [3, 4]]}')


def test_components_on_a_shuffled_path():
    n = 20_000
    label = np.random.default_rng(5).permutation(n)
    path = np.sort(np.stack([label[:-1], label[1:]], axis=1), axis=1)
    comps = components(IncidenceStructure(n, path))
    assert len(comps) == 1 and comps[0] == list(range(n))


def test_predicate_outputs_are_plain_json():
    D = fam.dlsub(9, 3, 2, 1)
    text = json.dumps([dataclasses.asdict(validate_pls(D)), fingerprint(D),
                       components(D), sorted(D.line_sizes())])
    assert json.loads(text)[0]["line_size"] == 4


def test_validate_pls_examples():
    single = IncidenceStructure(4, [(0, 1, 2)])
    rep = validate_pls(single)
    assert rep.is_pls and rep.multiplicity == 1
    D = fam.delta(2, 4)
    rep = validate_pls(D)
    assert rep.is_pls and rep.line_size == 3
    assert int(D.point_degrees()[0]) == 6
    bad = fam.lsub(3, 25, 5, 3)
    assert validate_pls(bad).multiplicity == 2


@pytest.mark.parametrize("build", [
    lambda: fam.ag_star(2, 4),
    lambda: fam.delta(2, 4),
    lambda: fam.lsub(2, 9, 3, 2),
    lambda: fam.dlsub(9, 3, 2, 1),
    lambda: fam.dlsub(9, 3, 2, 2),
    lambda: fam.ag_star(3, 4),
])
def test_multiplicity_matches_bruteforce(build):
    D = build()
    assert D.num_points <= 500
    assert validate_pls(D).multiplicity == multiplicity_bruteforce(D)


def test_is_proper_examples():
    k7 = IncidenceStructure(7, [(i, j) for i in range(7) for j in range(i + 1, 7)])
    assert not is_proper(k7)          # a graph
    assert is_proper(fam.ag_star(2, 4))
    # Delta(n,2) would be PG(n-1,2): a linear space; emulate with the Fano plane
    fano = IncidenceStructure(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
                                  (1, 4, 6), (2, 3, 6), (2, 4, 5)])
    assert not is_proper(fano)
    with pytest.raises(ValueError):
        is_proper(fam.dlsub(9, 3, 2, 2))


def test_connectivity():
    one = IncidenceStructure(5, [(0, 1, 2, 3, 4)])
    assert is_connected(one)
    assert is_connected(fam.ag_star(2, 4))
    split = IncidenceStructure(6, [(0, 1, 2), (3, 4, 5)])
    assert not is_connected(split)
    assert [len(c) for c in components(split)] == [3, 3]


def test_fingerprint_relabeling_invariance():
    rng = random.Random(17)
    for D in [fam.delta(2, 4), fam.lsub(2, 9, 3, 2), fam.dlsub(9, 3, 2, 1)]:
        fp = fingerprint(D)
        for _ in range(20):
            perm = list(range(D.num_points))
            rng.shuffle(perm)
            assert fingerprint(relabel(D, perm)) == fp


def test_fingerprint_separates():
    assert fingerprint(fam.ag_star(2, 4)) != fingerprint(fam.delta(2, 4))
    assert fingerprint(fam.dlsub(9, 3, 2, 1)) == fingerprint(fam.dlsub(9, 3, 2, 3))


def test_preserved_by():
    D = fam.usub(4, 2, 3)
    G = get_builtin("GammaU3_4").group
    assert preserved_by(D, G.gens)
    rng = np.arange(D.num_points)
    rng[[0, 7]] = rng[[7, 0]]  # a fixed transposition
    assert not preserved_by(fam.agu_star(4), [rng])
    assert preserved_by(D, [np.arange(D.num_points)])
    with pytest.raises(ValueError):
        preserved_by(D, [np.arange(3)])


def test_family_invariance_under_table2_groups():
    cases = [
        (fam.ag_star(2, 4), "GammaL2_4"),
        (fam.delta(2, 4), "GammaL2_4"),
        (fam.delta(3, 3), "GL3_3"),
        (fam.lsub(2, 16, 4, 5), "GammaL2_16"),
        (fam.lsub(2, 25, 5, 3), "ZSLphi2_25"),
        (fam.dlsub(9, 3, 2, 1), "YSL2phidiag_9"),
        (fam.agu_star(4), "GammaU3_4"),
    ]
    for D, name in cases:
        G = get_builtin(name).group
        assert preserved_by(D, G.gens), name


def test_serialization_roundtrip(tmp_path):
    D = fam.delta(2, 4)
    D2 = IncidenceStructure.from_json(D.to_json())
    assert np.array_equal(D2.lines, D.lines) and D2.num_points == D.num_points
    csv = D.to_csv()
    assert csv.count("\n") == D.num_lines + 1


def test_is_proper_reads_the_kept_pair_summary():
    # every family instance is proper; the graph K7 and the Fano plane are
    # the improper partial linear spaces
    k7 = IncidenceStructure(7, [(i, j) for i in range(7) for j in range(i + 1, 7)])
    fano = IncidenceStructure(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
                                  (1, 4, 6), (2, 3, 6), (2, 4, 5)])
    for D, proper in ((fam.ag_star(2, 4), True), (fam.lsub(2, 9, 3, 2), True),
                      (k7, False), (fano, False)):
        assert is_proper(D) == proper
        summary = vars(D)["_pair_summary"]
        assert validate_pls(D).collinear_pairs == summary.collinear_pairs
        assert vars(D)["_pair_summary"] is summary and is_proper(D) == proper
    with pytest.raises(ValueError):
        is_proper(fam.dlsub(9, 3, 2, 2))


def _random_line_sets(seed):
    """Small random line sets, the empty set and a single line included."""
    rng = random.Random(seed)
    for size in (0, 1, *(rng.randrange(2, 16) for _ in range(4))):
        n = rng.randrange(3, 13)
        k = rng.randrange(2, min(n, 5) + 1)
        pool = list(itertools.combinations(range(n), k))
        yield n, rng.sample(pool, min(size, len(pool)))


def _reference_summary(lines, n):
    """(multiplicity, collinear pairs, concurrence) from np.unique over the
    pair keys of the lines, made with Python ints."""
    keys = np.array([a * n + b for l in lines
                     for a, b in itertools.combinations(l, 2)], dtype=np.int64)
    pairs, counts = np.unique(keys, return_counts=True)
    a, b = np.divmod(pairs, n)
    concurrence = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    return int(counts.max(initial=0)), len(pairs), concurrence.tolist()


def _summary_fields(summary):
    return (summary.multiplicity, summary.collinear_pairs,
            summary.concurrence.tolist())


@pytest.mark.parametrize("seed", range(8))
def test_pair_table_once_per_structure(seed):
    """The cached pair summary agrees with np.unique and the brute-force
    multiplicity, and is built once; the predicates answer the same in any
    call order and on a fresh copy; relabel builds its own summary; points
    and lines are read-only."""
    preds = {"fingerprint": fingerprint, "validate_pls": validate_pls,
             "components": components}
    for n, lines in _random_line_sets(seed):
        D = IncidenceStructure(n, lines)
        keys = [a * n + b for l in lines for a, b in itertools.combinations(l, 2)]
        assert pair_keys(D.lines, n).tolist() == sorted(keys)
        assert _summary_fields(pair_summary(D.lines, n)) == _reference_summary(lines, n)
        assert validate_pls(D).multiplicity == multiplicity_bruteforce(D)
        assert D._pair_summary is D._pair_summary
        assert not D._pair_summary.concurrence.flags.writeable
        expected = {name: f(IncidenceStructure(n, lines)) for name, f in preds.items()}
        for order in itertools.permutations(preds):
            E = IncidenceStructure(n, lines)
            for name in order + order:
                assert preds[name](E) == expected[name], (order, name)
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        fingerprint(D)
        R = relabel(D, perm)
        fresh = IncidenceStructure(n, R.lines)
        assert _summary_fields(R._pair_summary) == _summary_fields(fresh._pair_summary)
        assert R._pair_summary.collinear_pairs == len(set(keys))
        assert components(R) == components(fresh)
        assert validate_pls(R) == validate_pls(D)
        with pytest.raises(AttributeError):
            D.num_points = n + 1
        with pytest.raises(AttributeError):
            D.lines = R.lines
        if not lines:
            continue
        with pytest.raises(ValueError):
            D.lines[0] = R.lines[0]


@pytest.mark.parametrize("n, key_dtype", [(65536, np.uint32), (65537, np.int64)])
def test_pair_keys_at_the_dtype_boundary(n, key_dtype):
    """Keys are uint32 up to n = 2**16 and int64 past it; the largest key
    n**2 - n - 1 (the pair n-2, n-1) comes out exact either way, and so
    does the summary read off the keys."""
    top = [n - 3, n - 2, n - 1]
    lines = np.array([[0, 1, n - 1], [1, n - 2, n - 1], [0, n - 2, n - 1],
                      top, [2, 3, n - 2]], dtype=np.int32)
    want = collections.Counter(a * n + b for l in lines.tolist()
                               for a, b in itertools.combinations(l, 2))
    keys = pair_keys(lines, n)
    assert keys.dtype == key_dtype
    assert keys.tolist() == sorted(want.elements())
    assert keys[-1] == n * n - n - 1
    assert max(want.values()) == 3   # the pair (n-2, n-1) lies on three lines
    got = _summary_fields(pair_summary(lines, n))
    assert got == _reference_summary(lines.tolist(), n)


@st.composite
def _line_sets(draw):
    """A small line set, possibly empty, on n points; some draws send many
    lines through the pair (0, 1)."""
    n = draw(st.integers(3, 12))
    k = draw(st.integers(2, min(n, 5)))
    pool = list(itertools.combinations(range(n), k))
    if draw(st.booleans()):
        pool = [l for l in pool if l[:2] == (0, 1)]
    lines = draw(st.lists(st.sampled_from(pool), max_size=20, unique=True))
    return n, sorted(lines)


# pair (0, 1) on 40 lines, a run of 40 equal keys; and the empty structure
@example((50, [(0, 1, x) for x in range(2, 42)] + [(2, 3, 4), (5, 6, 7)]))
@example((5, []))
@settings(derandomize=True, max_examples=150, deadline=None)
@given(_line_sets())
def test_pair_summary_matches_np_unique(case):
    """The summary read off the sorted pair keys equals the one read off
    np.unique of the whole key list, a pair on many lines and the empty
    structure included, and pair_keys are the sorted keys."""
    n, lines = case
    want = sorted(a * n + b for l in lines for a, b in itertools.combinations(l, 2))
    D = IncidenceStructure(n, lines)
    assert _summary_fields(pair_summary(D.lines, n)) == _reference_summary(lines, n)
    assert pair_keys(D.lines, n).tolist() == want


@pytest.mark.parametrize("seed", range(4))
def test_components_and_degrees_do_not_depend_on_the_slice_size(seed):
    """components and point_degrees merge and count the lines slice by
    slice; slices of 1, 2 and 3 lines give what one slice gives."""
    def by_rows(rows):
        return lambda lines, n: (lines[lo:lo + rows] for lo in range(0, len(lines), rows))

    for n, lines in _random_line_sets(seed):
        D = IncidenceStructure(n, lines)
        want = (components(D), D.point_degrees().tolist())
        for rows in (1, 2, 3):
            with unittest.mock.patch.object(incidence, "_line_slices", by_rows(rows)):
                D = IncidenceStructure(n, lines)
                assert (components(D), D.point_degrees().tolist()) == want


def test_line_slices_cover_the_lines_in_order(monkeypatch):
    """Slices of _LINE_SLICE entries, or of num_points entries where that is
    more, in order and together the whole line array."""
    lines = np.arange(60, dtype=np.int32).reshape(20, 3)
    monkeypatch.setattr(incidence, "_LINE_SLICE", 6)
    for n, rows in [(4, 2), (9, 3), (60, 20)]:
        parts = list(incidence._line_slices(lines, n))
        assert [len(p) for p in parts[:-1]] == [rows] * (len(parts) - 1)
        assert np.array_equal(np.concatenate(parts), lines)


def test_pair_table_memory_per_incidence():
    """tracemalloc peak above live memory, per point-pair incidence, of the
    first validate_pls (which builds the pair summary from 4-byte keys,
    sorted in one array), of components (a merge over slices of lines) and of
    fingerprint reading the cached summary and components (its point
    degrees counted over slices of lines); after all three, the structure
    keeps O(points) bytes beyond its lines, not its pairs.  ag_star(3, 9)
    is an orbit structure, which reads its pairs off its lines through 0, so
    the test runs on a full-array copy of its lines."""
    A = fam.ag_star(3, 9)
    D = IncidenceStructure(A.num_points, A.lines)
    del A
    incidences = D.num_lines * math.comb(D.line_size, 2)

    def peak_per_incidence(f):
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        f(D)
        return (tracemalloc.get_traced_memory()[1] - live) / incidences

    gc.collect()
    tracemalloc.start()
    try:
        validate_cost = peak_per_incidence(validate_pls)
        components_cost = peak_per_incidence(components)
        fingerprint_cost = peak_per_incidence(fingerprint)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert validate_cost <= 15, validate_cost
    assert components_cost <= 2, components_cost
    assert fingerprint_cost <= 1, fingerprint_cost
    assert kept <= 100 * D.num_points, kept


def test_family_build_memory_per_line_entry():
    """tracemalloc peak above live memory of reading the line array of
    delta(3,7), 19,152 lines of size 3, per entry of that array: the
    structure builds its rows only when they are read, the row orbit builds
    no image maps and reads each layer in slices, and ingestion drops the
    row keys before it gathers the sorted rows."""
    D = fam.delta(3, 7)
    gc.collect()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        lines = D.lines
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert lines.shape == (19152, 3)
    assert peak / lines.size <= 29, peak / lines.size


def test_ingesting_a_line_of_almost_every_point_stays_small():
    """One line of 3,996 points on 4,000: the rank table keeps each row's
    reachable band, 3,996 x 5 int64, not 3,996 x 4,000 (122 MB)."""
    text = json.dumps({"points": 4000, "lines": [list(range(2, 3998))]})
    _rank_table.cache_clear()
    tracemalloc.start()
    try:
        D = IncidenceStructure.from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert D.lines.shape == (1, 3996)
    assert peak < 8 * 2**20, peak
