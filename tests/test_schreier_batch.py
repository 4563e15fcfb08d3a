"""The batched deterministic Schreier-Sims pass against the pair-by-pair
reference of tests_schreier_oracle: byte-identical chains (base, orbit
order, Schreier vectors, strong generators in order)."""

import numpy as np
import pytest

from rank3pls import permcore
from rank3pls.catalog import ALL_BUILTINS, get_builtin
from rank3pls.permcore import PermGroup
from tests_schreier_oracle import both_chains

DESK = sorted(name for name, meta in ALL_BUILTINS.items() if meta.degree <= 248)


@pytest.mark.parametrize("name", DESK)
def test_builtin_chains_match_reference(name):
    G = get_builtin(name).group
    ours, ref = both_chains(G.degree, G.gens, base_hint=G.base_hint)
    assert ours == ref


def test_dihedral_3000_chain_matches_reference():
    n = 3000
    a = np.arange(n, dtype=np.int32)
    ours, ref = both_chains(n, [np.roll(a, -1), n - 1 - a])
    assert ours == ref
    assert [len(np.frombuffer(orbit, dtype=np.int32)) for _, orbit, _, _ in ours] == [n, 2]


def _record_batches(monkeypatch) -> list[tuple]:
    """Record (level, rows, first, inserted) for every batch the pass sifts."""
    calls = []
    sift = permcore._sift_schreier_batch

    def recorded(lv, table, xs, ss, below):
        first, residue = sift(lv, table, xs, ss, below)
        calls.append((lv, len(xs), first, residue is not None))
        return first, residue

    monkeypatch.setattr(permcore, "_sift_schreier_batch", recorded)
    return calls


def _inserted_after_a_member_batch(calls) -> list[int]:
    """The first rows of the batches that inserted right after a batch of
    the same level scan came back all members."""
    return [cur[2] for prev, cur in zip(calls, calls[1:])
            if prev[0] is cur[0] and not prev[3] and cur[3]]


def test_first_non_member_past_the_first_batch(monkeypatch):
    """A 257-cycle times a transposition on 259 points: every Schreier
    generator of the first level is the identity except the last, the
    257th power, which is the transposition.  At 253 rows per batch the
    first non-member is row 3 of the second batch."""
    n, cycle = 259, 257
    g = np.arange(n, dtype=np.int32)
    g[:cycle] = np.roll(g[:cycle], -1)
    g[cycle:] = g[cycle:][::-1]
    calls = _record_batches(monkeypatch)
    ours, ref = both_chains(n, [g])
    assert ours == ref
    assert _inserted_after_a_member_batch(calls) == [cycle - 1 - permcore._BATCH_ENTRIES // n]
    assert len(ours) == 2


@pytest.mark.parametrize("rows", [1, 2, 7, 16])
def test_chains_do_not_depend_on_the_batch_size(monkeypatch, rows):
    """GammaU3_4 (degree 195, 7 generators) sifted a few pairs at a time
    builds the same chain as the reference."""
    G = get_builtin("GammaU3_4").group
    monkeypatch.setattr(permcore, "_BATCH_ENTRIES", rows * G.degree)
    calls = _record_batches(monkeypatch)
    ours, ref = both_chains(G.degree, G.gens, base_hint=G.base_hint)
    assert ours == ref
    assert max(size for _, size, _, _ in calls) == rows
    assert _inserted_after_a_member_batch(calls)


pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from test_merge_properties import groups  # noqa: E402


@st.composite
def intransitive_groups(draw, max_degree: int = 30):
    """Generators that keep each part of a random partition of the points
    into 2-4 parts, so that every orbit lies inside one part."""
    n = draw(st.integers(4, max_degree))
    labels = draw(st.lists(st.integers(0, draw(st.integers(1, 3))),
                           min_size=n, max_size=n))
    parts = [[x for x in range(n) if labels[x] == p] for p in sorted(set(labels))]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = np.arange(n, dtype=np.int32)
        for part in parts:
            if len(part) > 8 and draw(st.booleans()):
                sub = [part[(t + 1) % len(part)] for t in range(len(part))]
            else:
                sub = draw(st.permutations(part))
            g[part] = sub
        gens.append(g)
    return PermGroup(n, gens)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.one_of(groups(), intransitive_groups()), st.data())
def test_random_chains_match_reference(G, data):
    hint = data.draw(st.lists(st.integers(0, G.degree - 1), max_size=3, unique=True))
    ours, ref = both_chains(G.degree, G.gens, base_hint=hint)
    assert ours == ref


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.one_of(groups(), intransitive_groups()), st.data())
def test_trace_back_walks_to_the_rep_it_replaces(G, data):
    """On every level of a random chain, trace_back(g) is g u^-1 for the
    rep u with base^u = base^g, the row to_root walks g to, and None off
    the level's orbit; g is a random permutation, so base^g falls off the
    orbit too."""
    n = G.degree
    for lv in G._chain():
        g = np.array(data.draw(st.permutations(range(n))), dtype=np.int32)
        x = int(g[lv.point])
        got = lv.trace_back(g)
        if lv.sv[x] == -1:
            assert got is None
        else:
            want = lv.to_root(g[None], np.array([x]))[0]
            assert got.dtype == np.int32 and np.array_equal(got, want)
            assert got[lv.point] == lv.point
