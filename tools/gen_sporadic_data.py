#!/usr/bin/env python3
"""Regenerate the bundled group files in src/rank3pls/data.

3S6_deg18.grp
    The triple cover 3.Sym(6) of degree 18: preimage in GammaL_3(4), acting
    on the 63 cosets Omega(linear, 3, 4, 3), of the stabilizer of a
    hyperoval of PG(2, 4); its orbit of length 18 (the coset points over the
    six hyperoval 1-spaces) is extracted and relabelled.

2M12_deg24.grp
    The double cover 2.M12 of degree 24: the monomial automorphism group of
    the extended ternary Golay code acting on the 24 signed coordinate
    positions.  Generators: lifts of x -> x+1, x -> 3x, x -> -1/x
    (PSL_2(11) on PG(1,11) = the coordinate labels), plus the lift of one
    further automorphism of S(5, 6, 12) found by backtracking; sign vectors
    are solved per generator by code membership.  Any lift set covering M12
    modulo signs generates the full group of order 190080 because the cover
    is nonsplit.

<row>.sub.grp, one per coset row of the catalogue (the C2x rows read their
base row's file)
    The index-r subgroup R of the point stabilizer G_0 of the row's plinth G
    (`catalog._plinth`); the row's action is G on the cosets of R.
    PSL3_2_deg14 and M11_deg22: R is the normal subgroup of index 2 of G_0,
    built by `normal_subgroup_of_index` below as a normal closure.  The
    other five rows: R is the first subgroup that the seeded random search
    `PermGroup.subgroup_of_index` finds, under the row's seed in
    SEARCH_SEEDS, that passes the check the catalogue runs at load
    (`catalog._verified_coset_action`).

Every output is verified before writing: the covers by order, transitivity,
rank 3 and cell structure, each R by the catalogue's load check.

The subgroup searches that only this tool runs live here as functions of a
group: the normal closure, the normal subgroup of a given index and the
backtracking setwise stabilizer.  The tests call them as references too.

The searches draw random elements from stabilizer chains, and a chain
depends on how it was built.  The catalogue builds a matrix plinth from
random residues up to its proven order bound, so `_coset_row` rebuilds each
plinth, and `gen_3s6` its GammaL(3,4) on 63 points, with no order given:
the deterministic pass alone, whose chains the files were searched with.
So the files regenerate byte for byte, however the catalogue certifies its
orders.

Usage: python tools/gen_sporadic_data.py [outdir]
writes every file of FILES to outdir, by default src/rank3pls/data.
"""

import itertools
import random
import sys
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rank3pls import catalog
from rank3pls.gfield import field_make
from rank3pls.matsemi import Mat, SemilinearElem, gens_sl, linear
from rank3pls.omega import build_omega, induce_action
from rank3pls.permcore import (DEFAULT_SEED, PermGroup, compose, identity,
                               inverse, is_identity, perm_from_images,
                               write_group_file)


# ---- subgroup searches ------------------------------------------------------


def perm_power(g: np.ndarray, e: int) -> np.ndarray:
    out = identity(len(g))
    base = g
    while e:
        if e & 1:
            out = compose(out, base)
        base = compose(base, base)
        e >>= 1
    return out


def normal_closure(G: PermGroup, seeds) -> PermGroup:
    """The normal closure of seeds in G."""
    gens: list[np.ndarray] = []
    K = PermGroup(G.degree, [])
    queue = [s for s in seeds if not is_identity(s)]
    while queue:
        x = queue.pop()
        if K.contains(x):
            continue
        gens.append(x)
        K = PermGroup(G.degree, gens)
        for h in G.gens:
            queue.append(compose(compose(inverse(h), x), h))
    return K


def normal_subgroup_of_index(G: PermGroup, r: int) -> PermGroup:
    """A verified normal subgroup of index r of G.

    Built as the normal closure of commutators of generator pairs and r-th
    powers of a growing sample of elements; works whenever the quotient
    witnessing the index is abelian of exponent r.
    """
    rng = random.Random(DEFAULT_SEED ^ 0xC0117)
    seeds = []
    for a in G.gens:
        for b in G.gens:
            seeds.append(compose(compose(a, b), inverse(compose(b, a))))
    for g in G.gens:
        seeds.append(perm_power(g, r))
    N = normal_closure(G, seeds)
    tries = 0
    while G.order // N.order > r and tries < 48:
        g = G.random_element(rng)
        N = normal_closure(G, N.gens + [perm_power(g, r)])
        tries += 1
    if G.order // N.order != r:
        raise RuntimeError(
            f"no normal subgroup of index {r} found (index reached "
            f"{G.order // N.order})")
    for g in N.gens:
        for h in G.gens:
            if not N.contains(compose(compose(inverse(h), g), h)):
                raise AssertionError("normality verification failed")
    return N


def setwise_stabilizer(G: PermGroup, points) -> PermGroup:
    """Backtracking setwise stabilizer; meant for degree <= a few hundred."""
    S = frozenset(int(p) for p in points)
    rebased = PermGroup(G.degree, G.gens, base_hint=sorted(S),
                        name=f"{G.name}|setstab")
    rebased.order
    chain = rebased._levels
    found: list[np.ndarray] = []
    stab = PermGroup(G.degree, [])
    counter = [0]

    def search(level: int, h_inv: np.ndarray):
        # h, the reps chosen so far with the deepest applied first, as
        # its inverse: h[x] lies in S iff x lies in h_inv[S]
        nonlocal stab
        counter[0] += 1
        if counter[0] > 2_000_000:
            raise RuntimeError("setwise stabilizer search exceeded cap")
        back = set(h_inv[list(S)].tolist())
        if level == len(chain):
            if back == S and not is_identity(h_inv) \
                    and not stab.contains(h := inverse(h_inv)):
                found.append(h)
                stab = PermGroup(G.degree, list(found))
            return
        lv = chain[level]
        want = lv.point in S
        xs = np.array([x for x in lv.orbit if (x in back) == want], dtype=np.intp)
        for row in lv.to_root(h_inv[None], xs):
            search(level + 1, row)

    search(0, identity(G.degree))
    return PermGroup(G.degree, list(found), name=f"{G.name}_setstab")


def reduced_gens(G: PermGroup, rng: random.Random | None = None, tries: int = 30):
    """A small generating set of G with the same order (random subproducts)."""
    if not G.gens:
        return []
    rng = rng or random.Random(DEFAULT_SEED ^ 0x9E3779B9)
    order = G.order
    for k in (2, 3, 4):
        for _ in range(tries):
            cand = []
            for _ in range(k):
                g = identity(G.degree)
                for h in G.gens:
                    if rng.random() < 0.5:
                        g = compose(g, h)
                if not is_identity(g):
                    cand.append(g)
            if not cand:
                continue
            if PermGroup(G.degree, cand).order == order:
                return cand
    return list(G.gens)


def gen_3s6():
    F = field_make(2, 2)
    space = build_omega("linear", 3, 4, 3)  # 63 points, Y = 1
    w = F.omega
    # hyperoval: conic {(1, t, t^2)} plus nucleus (0,1,0) plus (0,0,1)
    oval_vecs = [(1, t, F.mul(t, t)) for t in range(4)] + [(0, 1, 0), (0, 0, 1)]
    target = set()
    for v in oval_vecs:
        for i in range(3):
            s = F.exp[i]
            target.add(space.index_of(tuple(F.mul(s, x) for x in v)))
    assert len(target) == 18
    gens = gens_sl(3, F) + [linear(Mat.diag(F, [w, 1, 1])),
                            SemilinearElem(1, Mat.identity(F, 3))]
    big = PermGroup(63, induce_action(space, gens), name="GammaL3(4)@63")
    assert big.order == 60480 * 3 * 2, big.order
    stab = setwise_stabilizer(big, sorted(target))
    assert stab.order == 2160, stab.order
    # restrict to the 18 moved points, relabelled in increasing order
    pts = sorted(target)
    pos = {p: i for i, p in enumerate(pts)}
    small_gens = []
    for g in stab.gens:
        img = [pos[int(g[p])] for p in pts]
        small_gens.append(perm_from_images(img))
    G = PermGroup(18, small_gens, name="3S6@18")
    G = PermGroup(18, reduced_gens(G), name="3S6@18")
    assert G.order == 2160 and G.is_transitive() and G.rank() == 3
    st = G.stabilizer(0)
    assert sorted(len(o) for o in st.orbits()) == [1, 2, 15]
    return 18, G.gens


# ---- ternary Golay / 2.M12 ---------------------------------------------------


def _golay12():
    """Generator matrix (rows) of the extended ternary Golay code; coordinates
    are labelled 0..10 (PG(1,11) finite part) plus 11 = infinity."""
    # length-11 QR code generated by g(x) = -1 + x^2 - x^3 + x^4 + x^5
    g = [2, 0, 1, 2, 1, 1]
    rows = []
    for shift in range(6):
        row = [0] * 11
        for i, c in enumerate(g):
            row[(i + shift) % 11] = c
        rows.append(row)
    # extend by a parity coordinate making each row sum to 0 mod 3
    full = [row + [(-sum(row)) % 3] for row in rows]
    return full


def _span(rows):
    """All 3^6 codewords as a set of tuples."""
    words = set()
    for coeffs in itertools.product(range(3), repeat=len(rows)):
        w = [0] * 12
        for c, row in zip(coeffs, rows):
            if c:
                for i, x in enumerate(row):
                    w[i] = (w[i] + c * x) % 3
        words.add(tuple(w))
    return words


def _hexads(words):
    out = set()
    for w in words:
        supp = tuple(i for i, x in enumerate(w) if x)
        if len(supp) == 6:
            out.add(supp)
    return sorted(out)


def _perm_of_map(fn):
    """12-point permutation from a map on labels {0..10, inf=11}."""
    img = [0] * 12
    for x in range(12):
        img[x] = fn(x)
    return perm_from_images(img)


def _mobius(a, b, c, d):
    """x -> (ax + b)/(cx + d) on {0..10, 11=inf} over F_11."""
    def fn(x):
        if x == 11:
            return 11 if c == 0 else (a * pow(c, 9, 11)) % 11
        num, den = (a * x + b) % 11, (c * x + d) % 11
        if den == 0:
            return 11
        return (num * pow(den, 9, 11)) % 11
    return fn


def _extra_s56_automorphism(hexads):
    """A permutation of the 12 labels preserving the hexad system, fixing
    inf, 0, 1 pointwise and not the identity; lies outside PSL_2(11)."""
    hexset = set(hexads)
    by_five = {}
    for h in hexads:
        for five in itertools.combinations(h, 5):
            by_five[five] = h

    labels = list(range(12))
    fixed = {11: 11, 0: 0, 1: 1}

    def consistent(partial):
        # every hexad fully inside the domain must map to a hexad
        dom = set(partial)
        for h in hexads:
            if all(x in dom for x in h):
                img = tuple(sorted(partial[x] for x in h))
                if img not in hexset:
                    return False
        return True

    def search(partial, remaining_src, remaining_dst):
        if not remaining_src:
            perm = _perm_of_map(lambda x: partial[x])
            if not all(partial[x] == x for x in range(12)):
                return perm
            return None
        x = remaining_src[0]
        for y in remaining_dst:
            partial[x] = y
            if consistent(partial):
                res = search(partial, remaining_src[1:],
                             [z for z in remaining_dst if z != y])
                if res is not None:
                    return res
            del partial[x]
        return None

    rest = [x for x in labels if x not in fixed]
    res = search(dict(fixed), rest, rest)
    if res is None:
        raise RuntimeError("no extra S(5,6,12) automorphism found")
    return res


def _lift_to_monomial(perm, words):
    """Sign vector d in {1,2}^12 with (c o perm^'t) * d in the code for all c;
    returns the permutation on 24 signed positions (i and i+12 = -e_i)."""
    basis = list(words)[:1]
    rows = _golay12()
    for d_bits in range(1 << 12):
        d = [1 if (d_bits >> i) & 1 == 0 else 2 for i in range(12)]
        ok = True
        for row in rows:
            moved = [0] * 12
            for i, x in enumerate(row):
                moved[int(perm[i])] = (x * d[int(perm[i])]) % 3
            if tuple(moved) not in words:
                ok = False
                break
        if ok:
            img = [0] * 24
            for i in range(12):
                j = int(perm[i])
                if d[j] == 1:
                    img[i] = j
                    img[i + 12] = j + 12
                else:
                    img[i] = j + 12
                    img[i + 12] = j
            return perm_from_images(img)
    raise RuntimeError("no monomial lift found")


def gen_2m12():
    rows = _golay12()
    words = _span(rows)
    assert min(sum(1 for x in w if x) for w in words if any(w)) == 6
    hexads = _hexads(words)
    assert len(hexads) == 132
    perms = [
        _perm_of_map(lambda x: 11 if x == 11 else (x + 1) % 11),   # x -> x+1
        _perm_of_map(lambda x: 11 if x == 11 else (3 * x) % 11),   # x -> 3x
        _perm_of_map(_mobius(0, -1 % 11, 1, 0)),                   # x -> -1/x
        _extra_s56_automorphism(hexads),
    ]
    monos = [_lift_to_monomial(p, words) for p in perms]
    G = PermGroup(24, monos, name="2M12@24")
    assert G.order == 190080, G.order
    assert G.is_transitive() and G.rank() == 3
    st = G.stabilizer(0)
    assert sorted(len(o) for o in st.orbits()) == [1, 1, 22]
    # center: the global negation, swapping i and i+12
    z = perm_from_images([(i + 12) % 24 for i in range(24)])
    assert G.contains(z)
    return 24, G.gens


# ---- index-r subgroups of the coset rows ------------------------------------

# seeds of the random streams that find the non-normal subgroups
SEARCH_SEEDS = {
    "PSL3_3_deg39": 1003,
    "PSL3_5_deg155": 1005,
    "PSL5_2_deg248": 1052,
    "PGL3_4_deg126": 1034,
    "PGammaL3_8_deg2044": 1038,
}


def _coset_row(name):
    """(row meta, plinth G, G_0), G's chain built by the deterministic pass
    alone (module docstring)."""
    meta, P = catalog.ALL_BUILTINS[name], catalog._plinth(name)
    G = PermGroup(P.degree, P.gens, base_hint=P.base_hint, name=P.name)
    assert G.order == meta.order, G.order
    return meta, G, G.stabilizer(0)


def gen_normal_sub(name):
    """R = the normal subgroup of index 2 of G_0."""
    meta, G, H = _coset_row(name)
    R = normal_subgroup_of_index(H, meta.r)
    catalog._verified_coset_action(G, H, R, meta)
    return R.degree, R.gens


def gen_searched_sub(name):
    """R = the first index-r subgroup of G_0 from the seeded search that
    passes the catalogue's load check."""
    meta, G, H = _coset_row(name)

    def accept(R):
        try:
            catalog._verified_coset_action(G, H, R, meta)
        except (AssertionError, ValueError):
            return False
        return True

    R = H.subgroup_of_index(meta.r, rng=random.Random(SEARCH_SEEDS[name]),
                            accept=accept)
    return R.degree, R.gens


FILES = {
    "3S6_deg18.grp": gen_3s6,
    "2M12_deg24.grp": gen_2m12,
    "PSL3_2_deg14.sub.grp": partial(gen_normal_sub, "PSL3_2_deg14"),
    "M11_deg22.sub.grp": partial(gen_normal_sub, "M11_deg22"),
    **{f"{name}.sub.grp": partial(gen_searched_sub, name) for name in SEARCH_SEEDS},
}


def write(filename, outdir):
    """Regenerate one file of FILES into outdir."""
    deg, gens = FILES[filename]()
    write_group_file(Path(outdir) / filename, deg, gens)
    return len(gens)


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(__file__).resolve().parent.parent / "src" / "rank3pls" / "data"
    outdir.mkdir(parents=True, exist_ok=True)
    for filename in FILES:
        print(f"wrote {filename} ({write(filename, outdir)} generators)")


if __name__ == "__main__":
    main()
