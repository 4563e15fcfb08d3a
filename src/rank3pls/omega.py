"""Coset point sets Omega and the induced permutation actions.

A point of Omega is the <w^r>-orbit of a nonzero (isotropic) row vector,
stored by its canonical representative: the unique scaling whose first
nonzero coordinate is w^i with 0 <= i < r.  Point indices are fixed by
sorting canonical vectors by their discrete-log coordinate tuples, compared
from the last coordinate to the first with zeros ordered first; this places
alpha = <w^r> e_1 (linear) and alpha = <w^r> e (unitary) at index 0 and the
whole cell of alpha at indices [0, r).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .gfield import Field, field_make, factorize, is_prime, is_primitive_prime_divisor
from .matsemi import GroupSpec, UnitaryForm, scalar
from .permcore import PermGroup, perm_order


class OmegaSpace:
    """Indexed point set of Construction-style <w^r>-cosets with partition Sigma."""

    def __init__(self, kind: str, n: int, q: int, r: int, field: Field,
                 points, sigma, form: UnitaryForm | None = None):
        self.kind = kind
        self.n = n
        self.q = q
        self.r = r
        self.field = field  # the matrix field: GF(q) linear, GF(q^2) unitary
        self.points = points
        self.index = {v: i for i, v in enumerate(points)}
        self.sigma = sigma
        self.form = form
        self.cell_of = np.empty(len(points), dtype=np.int32)
        for ci, cell in enumerate(sigma):
            for pt in cell:
                self.cell_of[pt] = ci

    def __len__(self):
        return len(self.points)

    def canonicalize(self, v) -> tuple:
        return _canonical(self.field, self.r, v)

    def index_of(self, v) -> int:
        return self.index[self.canonicalize(v)]

    def sort_key(self, v) -> tuple:
        log = self.field.log
        return tuple(-1 if x == 0 else log[x] for x in reversed(v))

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind, "n": self.n, "q": self.q, "r": self.r,
            "points": [list(v) for v in self.points],
            "sigma": [list(c) for c in self.sigma],
        })


_SPACE_CACHE: dict[tuple, OmegaSpace] = {}


def build_omega(kind: str, n: int, q: int, r: int) -> OmegaSpace:
    """Point sets of the linear and unitary coset constructions.

    Spaces are immutable after construction and cached per (kind, n, q, r).
    """
    key = (kind, n, q, r)
    if key in _SPACE_CACHE:
        return _SPACE_CACHE[key]
    space = _build_omega_uncached(kind, n, q, r)
    _SPACE_CACHE[key] = space
    return space


def _build_omega_uncached(kind: str, n: int, q: int, r: int) -> OmegaSpace:
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    (p, a), = fac.items()
    if kind == "linear":
        if n < 2 or q < 3 or (n, q) == (2, 3):
            raise ValueError(f"linear Omega needs n >= 2, q >= 3, (n,q) != (2,3)")
        if r <= 1 or (q - 1) % r:
            raise ValueError(f"r = {r} must satisfy 1 < r | q - 1 = {q - 1}")
        F = field_make(p, a)
        reps = _projective_reps(F, n)
        form = None
    elif kind == "unitary":
        if n != 3:
            raise ValueError("unitary Omega is 3-dimensional")
        if q < 3:
            raise ValueError("unitary Omega needs q >= 3")
        if r <= 1 or (q - 1) % r:
            raise ValueError(
                f"r = {r} must divide q - 1 = {q - 1}; the rank-3 catalogue "
                f"has no unitary cases with r | q + 1")
        F = field_make(p, 2 * a)
        form = UnitaryForm(F)
        reps = _isotropic_reps(F, form)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    points = []
    cells = []
    for u in reps:
        cell = []
        for i in range(r):
            s = F.exp[i]
            cell.append(_canonical(F, r, tuple(F.mul(s, x) for x in u)))
        if len(set(cell)) != r:
            raise AssertionError("cell members collide")
        points.extend(cell)
        cells.append(cell)
    log = F.log
    points.sort(key=lambda v: tuple(-1 if x == 0 else log[x] for x in reversed(v)))
    index = {v: i for i, v in enumerate(points)}
    sigma = [sorted(index[v] for v in cell) for cell in cells]
    sigma.sort()
    space = OmegaSpace(kind, n, q, r, F, points, sigma, form)
    expected = r * ((q**n - 1) // (q - 1)) if kind == "linear" else r * (q**3 + 1)
    if len(space) != expected:
        raise AssertionError(f"|Omega| = {len(space)}, expected {expected}")
    return space


def _canonical(F: Field, r: int, v) -> tuple:
    """Scale v by the unique element of <w^r> putting the first nonzero
    coordinate into {w^i : 0 <= i < r}."""
    c = next((x for x in v if x != 0), 0)
    if c == 0:
        raise ValueError("zero vector has no Omega point")
    d = F.log[c]
    shift = d - (d % r)
    if shift == 0:
        return tuple(v)
    s = F.exp[(-shift) % (F.q - 1)]
    return tuple(F.mul(s, x) for x in v)


def _projective_reps(F: Field, n: int):
    """One vector per 1-space, first nonzero coordinate equal to 1."""
    reps = []
    for pivot in range(n):
        tail = n - pivot - 1
        for idx in range(F.q**tail):
            rest = []
            k = idx
            for _ in range(tail):
                rest.append(k % F.q)
                k //= F.q
            reps.append(tuple([0] * pivot + [1] + rest))
    return reps


def _isotropic_reps(F: Field, form: UnitaryForm):
    """One vector per isotropic 1-space: <e> and <b e + c x + f>."""
    q = form.q
    by_trace: dict[int, list[int]] = {}
    for b in range(F.q):
        by_trace.setdefault(F.add(b, F.pow(b, q)), []).append(b)
    reps = [(1, 0, 0)]
    for c in range(F.q):
        t = F.neg(F.pow(c, q + 1)) if c else 0
        for b in by_trace.get(t, ()):
            reps.append((b, c, 1))
    if len(reps) != q**3 + 1:
        raise AssertionError("isotropic point count mismatch")
    for v in reps:
        if not form.is_isotropic(v):
            raise AssertionError("non-isotropic representative")
    return reps


def induce_action(space: OmegaSpace, gens) -> list[np.ndarray]:
    """Permutations induced on Omega by semilinear elements.

    Raises if a generator fails to permute Omega or to preserve Sigma.
    """
    n = len(space)
    perms = []
    for g in gens:
        img = np.empty(n, dtype=np.int32)
        for i, v in enumerate(space.points):
            try:
                img[i] = space.index_of(g.apply(v))
            except KeyError:
                raise ValueError(f"generator {g!r} does not permute Omega")
        if len(np.unique(img)) != n:
            raise ValueError(f"generator {g!r} does not act bijectively on Omega")
        cells = space.cell_of
        if not (cells[img[[c[0] for c in space.sigma]]]
                == cells[img[[c[-1] for c in space.sigma]]]).all():
            raise ValueError(f"generator {g!r} does not preserve Sigma")
        perms.append(img)
    return perms


def induced_kernel_facts(space: OmegaSpace) -> tuple[bool, int]:
    """(w^r I acts trivially, order of the w I permutation) -- must be
    (True, r) for every space."""
    F = space.field
    n = space.n
    wr = scalar(F, F.exp[space.r % (F.q - 1)], n)
    w1 = scalar(F, F.omega, n)
    perm_wr, perm_w = induce_action(space, [wr, w1])
    return bool((perm_wr == np.arange(len(space))).all()), perm_order(perm_w)


def vector_action(F: Field, n: int, gens,
                  expected_order: int | None = None) -> tuple[PermGroup, dict]:
    """Permutation action of semilinear elements on all q^n - 1 nonzero
    vectors; used for order self-checks of matrix generator sets."""
    vecs = []
    for idx in range(1, F.q**n):
        v = []
        k = idx
        for _ in range(n):
            v.append(k % F.q)
            k //= F.q
        vecs.append(tuple(v))
    index = {v: i for i, v in enumerate(vecs)}
    perms = []
    for g in gens:
        img = np.empty(len(vecs), dtype=np.int32)
        for i, v in enumerate(vecs):
            img[i] = index[g.apply(v)]
        perms.append(img)
    return PermGroup(len(vecs), perms, name="vector-action",
                     expected_order=expected_order), index


# -- the semiprimitive / innately transitive / quasiprimitive / rank-3 flags --


def classify_action(n: int, q: int, r: int, G: PermGroup, spec: GroupSpec,
                    space: OmegaSpace | None = None,
                    check_rank: bool = True) -> dict:
    """Arithmetic classification flags for an induced catalogue action.

    semiprimitive is identically true for these constructions; innate
    transitivity and the rank-3 flag are pure arithmetic; quasiprimitivity
    additionally sifts scalar permutations into G.  When check_rank is set,
    the rank-3 flag is compared against the computed rank and a mismatch
    raises (this is a test oracle, not a fallback).
    """
    fac = factorize(q)
    (p, a), = fac.items()
    flags = {"semiprimitive": True}
    if spec.kind == "linear":
        flags["innately_transitive"] = ((q - 1) // math.gcd(n, q - 1)) % r == 0
        if (n, r) != (2, 2):
            arith = (is_prime(r) and (q - 1) % r == 0
                     and is_primitive_prime_divisor(r, p, r - 1)
                     and math.gcd(r - 1, spec.j) == 1)
            # for n = 2 and r odd the case split behind the classification
            # additionally forces Z SL_2(q) <= G (the point stabilizer is too
            # small otherwise); shapes without the full scalar group fail
            if n == 2:
                arith = arith and spec.shape in ("gammal", "gl", "z_sl",
                                                 "z_sl_phi")
        else:
            # rank 3 iff G is not inside Y SigmaL_2(q)/Y: some generator's
            # matrix part must have determinant outside <w^{2r}>
            F = space.field if space is not None else field_make(p, a)
            from .matsemi import gens_group
            dets = [g.mat.det() for g in gens_group(spec)]
            stride = math.gcd(2 * r, q - 1)  # <w^{2r}> = <w^stride>
            arith = any(F.log[d] % stride for d in dets)
        flags["rank3"] = flags.get("rank3", arith)
    else:
        flags["innately_transitive"] = ((q**2 - 1) // math.gcd(3, q + 1)) % r == 0
        contains_zsu = spec.shape in ("z_su", "gammau")
        arith = (contains_zsu and r % 2 == 1 and is_prime(r)
                 and (q - 1) % r == 0
                 and is_primitive_prime_divisor(r, p, r - 1)
                 and math.gcd(r - 1, spec.j) == 1)
        flags["rank3"] = arith
    # quasiprimitive: innately transitive and G meets Z/Y trivially
    qp = flags["innately_transitive"]
    if qp and space is not None:
        F = space.field
        for s in sorted(set(factorize(r))):
            # generator of the order-s subgroup of Z/Y is the image of w^{r/s} I
            perm = induce_action(space, [scalar(F, F.exp[(space.r // s) % (F.q - 1)],
                                                space.n)])[0]
            if G.contains(perm):
                qp = False
                break
    elif qp and space is None:
        raise ValueError("quasiprimitivity test needs the OmegaSpace")
    flags["quasiprimitive"] = qp
    flags["type"] = ("qp" if flags["quasiprimitive"]
                     else "it" if flags["innately_transitive"] else "sp")
    if check_rank:
        computed = G.rank() == 3
        if computed != flags["rank3"]:
            raise AssertionError(
                f"rank-3 arithmetic flag {flags['rank3']} disagrees with "
                f"computed rank for {spec}")
    return flags
