"""Coset point sets Omega and the induced permutation actions.

A point of Omega is the <w^r>-orbit of a nonzero (isotropic) row vector,
stored by its canonical representative: the unique scaling whose first
nonzero coordinate is w^i with 0 <= i < r.  The points w^i u of a 1-space
<u> form one cell of Sigma.  Point indices sort the points by one log-
coordinate key, last coordinate most significant, zeros first; this places
alpha = <w^r> e_1 (linear) and alpha = <w^r> e (unitary) at index 0 and the
whole cell of alpha at indices [0, r).

Points are held as one (N, n) int64 array of packed field elements, and a
semilinear element acts on arrays of them at once (semilinear_image): the
Frobenius and the matrix product are gathers on the field's exp/log tables.
It maps cells to cells, so it acts on the N = r m points through the m
cell reps: w^i u goes to w^(i p^k + s) u' when u goes to w^s u'.  The same
kernel gives the projective action (r = 1) and the action on nonzero
vectors (r = q - 1).
"""

from __future__ import annotations

import json
import math
from functools import cached_property, lru_cache, reduce

import numpy as np

from .gfield import Field, field_make, factorize, is_prime, is_primitive_prime_divisor
from .matsemi import GroupSpec, UnitaryForm, induced_order_bound, scalar
from .permcore import PermGroup


class _Tables:
    """A field's exp/log tables as arrays; log[0] = -1.  Every operation maps
    0 to 0."""

    def __init__(self, F: Field):
        self.p = F.p
        self.q1 = q1 = F.q - 1
        self.exp = np.array(F.exp, dtype=np.int64)
        self.log = np.array(F.log, dtype=np.int64)
        self.digits = [F.p**i for i in range(F.a)]
        # exp twice, then zeros, and a log that sends 0 into the zeros: so
        # _log0[x] + (d mod q - 1) indexes x * w^d and _log0[x] + _log0[y]
        # indexes x * y for every x and y, 0 included
        self._exp3 = np.concatenate([self.exp, self.exp,
                                     np.zeros(2 * q1 + 1, dtype=np.int64)])
        self._log0 = self.log.copy()
        self._log0[0] = 2 * q1

    def scale(self, x, d):
        """x * w^d elementwise; d is an exponent or an array of them."""
        return self._exp3[self._log0[x] + d % self.q1]

    def mul(self, x, y):
        return self._exp3[self._log0[x] + self._log0[y]]

    def power(self, x, e: int):
        """x^e = x * w^(log x (e - 1)); 0 stays 0."""
        return self.scale(x, self.log[x] * (e - 1))

    def sum(self, terms, shape):
        """Field sum of equal-shape arrays: XOR for p = 2, else digit-wise
        addition mod p."""
        if not terms:
            return np.zeros(shape, dtype=np.int64)
        if self.p == 2:
            return reduce(np.bitwise_xor, terms)
        p = self.p
        return sum((sum(t // pw % p for t in terms) % p) * pw for pw in self.digits)


@lru_cache(maxsize=None)
def _tables(F: Field) -> _Tables:
    return _Tables(F)


def semilinear_image(g, V: np.ndarray) -> np.ndarray:
    """Rows of V, an (N, n) array of packed elements of g's field, mapped by
    the semilinear element g: v -> (v^{phi^k}) M."""
    T = _tables(g.field)
    if g.frob:
        V = T.power(V, g.field.p ** g.frob)
    rows = g.mat.rows
    n = len(rows)
    return np.stack([T.sum([T.scale(V[:, i], T.log[rows[i][j]]) for i in range(n)
                            if rows[i][j]], len(V)) for j in range(n)], axis=1)


def _projective(F: Field, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, d): each row of V divided by its first nonzero coordinate w^d, so
    that P's first nonzero coordinate is 1; d = -1 marks a zero row."""
    T = _tables(F)
    d = T.log[V[np.arange(len(V)), (V != 0).argmax(axis=1)]]
    return T.scale(V, -d[:, None]), d


def _scalings(F: Field, reps: np.ndarray, r: int) -> np.ndarray:
    """(m, r, n): w^i u for each row u of reps and 0 <= i < r."""
    return _tables(F).scale(reps[:, None, :], np.arange(r)[:, None])


class CanonicalPoints:
    """The points w^i u (0 <= i < r) of the 1-spaces of cell reps u over F,
    each with first nonzero coordinate 1; r = 1 gives projective points, r =
    q - 1 nonzero vectors.  Points are numbered in the order of their keys,
    keys[u, i] for w^i u: point pos[u, i], row pos[u, i] of vectors.  A
    vector is found by its projective form's key sum v_j q^j in the sorted
    keys of the reps and the log of its first nonzero coordinate mod r."""

    def __init__(self, field: Field, r: int, reps: np.ndarray, keys: np.ndarray):
        self.field, self.r = field, r
        order = np.argsort(keys, axis=None)
        if (np.diff(keys.ravel()[order]) == 0).any():
            raise AssertionError("cell members collide")
        pos = np.empty(order.size, dtype=np.intp)        # the rank of each key
        pos[order] = np.arange(order.size)
        pos = pos.reshape(keys.shape)
        self._place = field.q ** np.arange(reps.shape[1], dtype=np.int64)
        rep_keys = reps @ self._place
        by_key = np.argsort(rep_keys)
        self._rep_keys = rep_keys[by_key]
        self.reps = reps[by_key]
        self.pos = pos[by_key]
        self.vectors = np.empty((pos.size, reps.shape[1]), dtype=np.int64)
        self.vectors[self.pos] = _scalings(field, self.reps, r)

    def __len__(self):
        return len(self.vectors)

    def _reps_of(self, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u, d): the rep row u of each row of V (-1 where its 1-space is
        not a cell) and the log d of its first nonzero coordinate."""
        P, d = _projective(self.field, V)
        keys = P @ self._place
        at = np.minimum(np.searchsorted(self._rep_keys, keys), len(self._rep_keys) - 1)
        return np.where(self._rep_keys[at] == keys, at, -1), d

    def locate(self, V: np.ndarray) -> np.ndarray:
        """Point index of each row of V, or -1 where the row's orbit is not a
        point."""
        u, d = self._reps_of(V)
        return np.where(u >= 0, self.pos[u, d % self.r], -1)

    def image(self, g) -> np.ndarray:
        """The permutation of the points induced by the semilinear element g,
        read off its images of the reps."""
        if g.field != self.field:
            raise ValueError(f"generator {g!r} is over {g.field}, not {self.field}")
        u, d = self._reps_of(semilinear_image(g, self.reps))
        if (d < 0).any():
            raise ValueError(f"generator {g!r} does not act bijectively on Omega")
        if (u < 0).any():
            raise ValueError(f"generator {g!r} does not permute Omega")
        # w^i u -> w^(i p^frob + d_u) u'
        shift = np.arange(self.r) * (self.field.p ** g.frob % self.r) + d[:, None]
        img = np.empty(len(self.vectors), dtype=np.int32)
        img[self.pos] = self.pos[u[:, None], shift % self.r]
        return img


class OmegaSpace(CanonicalPoints):
    """Indexed point set of Construction-style <w^r>-cosets with partition
    Sigma.

    The space is held as arrays: `vectors` (row i is point i), `reps`,
    `pos` (see CanonicalPoints) and `cells` (Sigma, one sorted row of point
    indices per cell, the cells in order of their least points).  `points`
    (the vectors as tuples) and `sigma` (the cells as lists) are built from
    them the first time they are read and kept; the library itself reads
    only the arrays."""

    def __init__(self, kind: str, n: int, q: int, r: int, field: Field,
                 reps: np.ndarray, keys: np.ndarray, form: UnitaryForm | None = None):
        # field is the matrix field: GF(q) linear, GF(q^2) unitary
        super().__init__(field, r, reps, keys)
        self.kind, self.n, self.q, self.form = kind, n, q, form
        cells = np.sort(self.pos, axis=1)
        self.cells = cells = cells[np.argsort(cells[:, 0])]
        self.cell_of = np.empty(len(self), dtype=np.int32)
        self.cell_of[cells] = np.arange(len(cells), dtype=np.int32)[:, None]

    @cached_property
    def points(self) -> list[tuple]:
        return list(map(tuple, self.vectors.tolist()))

    @cached_property
    def sigma(self) -> list[list[int]]:
        return self.cells.tolist()

    def points_of(self, vectors) -> tuple[int, ...]:
        """The sorted distinct points of the given vectors (a sequence of
        rows, or an (N, n) array), found by one locate call.  Raises
        KeyError naming the first vector whose orbit is not a point."""
        V = np.asarray(vectors, dtype=np.int64).reshape(-1, self.n)
        idx = self.locate(V)
        if (idx < 0).any():
            v = V[int(np.argmax(idx < 0))]
            raise KeyError(f"{tuple(v.tolist())} is not a point of Omega")
        return tuple(sorted(set(idx.tolist())))

    def index_of(self, v) -> int:
        return self.points_of([v])[0]

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind, "n": self.n, "q": self.q, "r": self.r,
            "points": self.vectors.tolist(),
            "sigma": self.cells.tolist(),
        })


_SPACE_CACHE: dict[tuple, OmegaSpace] = {}


def build_omega(kind: str, n: int, q: int, r: int) -> OmegaSpace:
    """Point sets of the linear and unitary coset constructions.

    Spaces are immutable after construction and cached per (kind, n, q, r).
    """
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    if kind == "linear":
        if n < 2 or q < 3 or (n, q) == (2, 3):
            raise ValueError(f"linear Omega needs n >= 2, q >= 3, (n,q) != (2,3)")
        if r <= 1 or (q - 1) % r:
            raise ValueError(f"r = {r} must satisfy 1 < r | q - 1 = {q - 1}")
    elif kind == "unitary":
        if n != 3:
            raise ValueError("unitary Omega is 3-dimensional")
        if q < 3:
            raise ValueError("unitary Omega needs q >= 3")
        if r <= 1 or (q - 1) % r:
            raise ValueError(
                f"r = {r} must divide q - 1 = {q - 1}; the rank-3 catalogue "
                f"has no unitary cases with r | q + 1")
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return omega_space(kind, n, q, r)


def omega_space(kind: str, n: int, q: int, r: int) -> OmegaSpace:
    """The construction behind build_omega, without its range checks; cached
    per (kind, n, q, r)."""
    key = (kind, n, q, r)
    if key not in _SPACE_CACHE:
        _SPACE_CACHE[key] = _build_omega_uncached(kind, n, q, r)
    return _SPACE_CACHE[key]


def _build_omega_uncached(kind: str, n: int, q: int, r: int) -> OmegaSpace:
    (p, a), = factorize(q).items()
    if kind == "linear":
        F = field_make(p, a)
        form = None
        reps = _projective_reps(F, n)
    else:
        F = field_make(p, 2 * a)
        form = UnitaryForm(F)
        reps = _projective(F, _isotropic_reps(F, form))[0]
    # the cell of rep u is {w^i u : 0 <= i < r}; a point's key is its log
    # coordinates, the last coordinate most significant, zeros first
    logs = _tables(F).log[_scalings(F, reps, r)] + 1
    space = OmegaSpace(kind, n, q, r, F, reps, logs @ F.q ** np.arange(n), form)
    expected = r * ((q**n - 1) // (q - 1)) if kind == "linear" else r * (q**3 + 1)
    if len(space) != expected:
        raise AssertionError(f"|Omega| = {len(space)}, expected {expected}")
    return space


def _projective_reps(F: Field, n: int) -> np.ndarray:
    """One vector per 1-space, first nonzero coordinate equal to 1, ordered
    by the position of that 1 and then by the digits of the tail."""
    V = np.arange(1, F.q**n)[:, None] // F.q ** np.arange(n) % F.q   # digits of k
    pivot = (V != 0).argmax(axis=1)
    keep = V[np.arange(len(V)), pivot] == 1
    return V[keep][np.argsort(pivot[keep], kind="stable")]


def _isotropic_reps(F: Field, form: UnitaryForm) -> np.ndarray:
    """One vector per isotropic 1-space: <e>, then <b e + c x + f> for c in
    increasing order and, for each c, the b with Tr(b) = -c^{q+1} in
    increasing order."""
    q = form.q
    T = _tables(F)
    els = np.arange(F.q)
    trace = T.sum([els, T.power(els, q)], F.q)
    norm = T.mul(T.power(els, q + 1), F.neg(1))   # -c^{q+1}
    by_trace = np.argsort(trace, kind="stable")
    lo, hi = (np.searchsorted(trace[by_trace], norm, side) for side in ("left", "right"))
    if not (hi - lo == q).all():
        raise AssertionError("isotropic point count mismatch")
    b = by_trace[lo[:, None] + np.arange(q)].ravel()
    c = np.repeat(els, q)
    reps = np.concatenate([[[1, 0, 0]], np.stack([b, c, np.ones_like(b)], axis=1)])
    # (v, v) = v_e v_f^q + v_x v_x^q + v_f v_e^q
    conj = T.power(reps, q)
    if T.sum([T.mul(reps[:, 0], conj[:, 2]), T.mul(reps[:, 1], conj[:, 1]),
              T.mul(reps[:, 2], conj[:, 0])], len(reps)).any():
        raise AssertionError("non-isotropic representative")
    return reps


def induce_action(space: OmegaSpace, gens) -> list[np.ndarray]:
    """Permutations induced on Omega by semilinear elements.

    Raises if a generator fails to permute Omega or to preserve Sigma.
    """
    ends = space.cells[:, [0, -1]]
    perms = []
    for g in gens:
        img = space.image(g)
        if not np.bincount(img, minlength=len(space)).all():
            raise ValueError(f"generator {g!r} does not act bijectively on Omega")
        cells = space.cell_of[img[ends]]
        if not (cells[:, 0] == cells[:, 1]).all():
            raise ValueError(f"generator {g!r} does not preserve Sigma")
        perms.append(img)
    return perms


def projective_points(F: Field, n: int, vectors: bool = False) -> CanonicalPoints:
    """The 1-spaces of F^n as points (r = 1, in the order of
    _projective_reps), or with vectors the nonzero vectors (r = q - 1,
    point k - 1 with the base-q digits of k)."""
    reps = _projective_reps(F, n)
    if not vectors:
        return CanonicalPoints(F, 1, reps, np.arange(len(reps))[:, None])
    r = F.q - 1
    return CanonicalPoints(F, r, reps, _scalings(F, reps, r) @ F.q ** np.arange(n))


def vector_action(F: Field, n: int, gens) -> tuple[PermGroup, np.ndarray]:
    """Permutation action of semilinear elements on all q^n - 1 nonzero
    vectors, with the (q^n - 1, n) array whose row i is point i; used for
    PSL(3,2)'s plinth and for order checks of generator sets that contain
    SL_n(q). The action is faithful (r = q - 1, so Y = 1) and its chain
    stops at induced_order_bound; reading the order of a set that misses
    SL_n(q) raises "below the proven bound"."""
    vecs = projective_points(F, n, vectors=True)
    return PermGroup(len(vecs), [vecs.image(g) for g in gens], name="vector-action",
                     order_bound=induced_order_bound(gens, F.q - 1)), vecs.vectors


# -- the semiprimitive / innately transitive / quasiprimitive / rank-3 flags --


def classify_action(n: int, q: int, r: int, G: PermGroup, spec: GroupSpec,
                    space: OmegaSpace | None = None) -> dict:
    """Arithmetic classification flags for an induced catalogue action.

    semiprimitive is identically true for these constructions; innate
    transitivity and the rank-3 flag are pure arithmetic; quasiprimitivity
    additionally sifts scalar permutations into G.  The rank-3 flag is
    always compared against the computed rank, and a mismatch raises (an
    oracle, not a fallback).
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
            # rank 3 iff G is not inside Z SigmaL_2(q): some generator's
            # matrix part must have a non-square determinant (w I only
            # swaps the two points of a cell, so Z SL_2(q) has rank 4)
            F = space.field if space is not None else field_make(p, a)
            from .matsemi import gens_group
            dets = [g.mat.det() for g in gens_group(spec)]
            stride = math.gcd(2, q - 1)  # the squares are <w^stride>
            arith = any(F.log[d] % stride for d in dets)
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
    if (G.rank() == 3) != flags["rank3"]:
        raise AssertionError(
            f"rank-3 arithmetic flag {flags['rank3']} disagrees with "
            f"computed rank for {spec}")
    return flags
