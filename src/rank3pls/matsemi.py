"""Matrices and semilinear maps over GF(q), classical-group generators.

Everything acts on row vectors from the right.  A semilinear element is a
pair (k, M): v maps to (v^{phi^k}) M, where phi raises coordinates to the
p-th power.  Composition follows from that convention:

    (k1, M1) * (k2, M2) = (k1 + k2 mod e, M1^{phi^k2} M2)

with e the order of the field's automorphism group.  Vectors and matrix
entries are packed field integers (see gfield).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gfield import Field, SubfieldView, factorize, field_make


class Mat:
    """Square matrix over a Field; rows of packed ints, immutable."""

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = tuple(tuple(int(x) for x in r) for r in rows)
        self.n = len(self.rows)
        for r in self.rows:
            if len(r) != self.n:
                raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diag(cls, field: Field, entries) -> "Mat":
        n = len(entries)
        return cls(field, [[entries[i] if i == j else 0 for j in range(n)]
                           for i in range(n)])

    def __mul__(self, other: "Mat") -> "Mat":
        F = self.field
        n = self.n
        rows = []
        for i in range(n):
            out = [0] * n
            for k in range(n):
                a = self.rows[i][k]
                if a == 0:
                    continue
                brow = other.rows[k]
                for j in range(n):
                    if brow[j]:
                        out[j] = F.add(out[j], F.mul(a, brow[j]))
            rows.append(out)
        return Mat(F, rows)

    def map_entries(self, fn) -> "Mat":
        return Mat(self.field, [[fn(x) for x in r] for r in self.rows])

    def frob(self, k: int) -> "Mat":
        F = self.field
        return self.map_entries(lambda x: F.frob_iter(x, k))

    def transpose(self) -> "Mat":
        return Mat(self.field, list(zip(*self.rows)))

    def det(self) -> int:
        F = self.field
        n = self.n
        m = [list(r) for r in self.rows]
        det = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if m[r][col] != 0), None)
            if piv is None:
                return 0
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                det = F.neg(det)
            det = F.mul(det, m[col][col])
            inv = F.inv(m[col][col])
            for r in range(col + 1, n):
                if m[r][col]:
                    factor = F.mul(m[r][col], inv)
                    for c in range(col, n):
                        m[r][c] = F.sub(m[r][c], F.mul(factor, m[col][c]))
        return det

    def __eq__(self, other):
        return isinstance(other, Mat) and self.field is other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field.p, self.field.a, self.rows))

    def __repr__(self):
        return f"Mat({self.rows})"


class SemilinearElem:
    """Pair (frob exponent k, matrix M) acting as v -> (v^{phi^k}) M."""

    __slots__ = ("frob", "mat")

    def __init__(self, frob: int, mat: Mat):
        self.frob = frob % mat.field.a
        self.mat = mat

    @property
    def field(self) -> Field:
        return self.mat.field

    def __mul__(self, other: "SemilinearElem") -> "SemilinearElem":
        e = self.field.a
        return SemilinearElem((self.frob + other.frob) % e,
                              self.mat.frob(other.frob) * other.mat)

    def __eq__(self, other):
        return (isinstance(other, SemilinearElem)
                and self.frob == other.frob and self.mat == other.mat)

    def __hash__(self):
        return hash((self.frob, self.mat))

    def __repr__(self):
        return f"phi^{self.frob}*{self.mat!r}" if self.frob else repr(self.mat)


def linear(mat: Mat) -> SemilinearElem:
    return SemilinearElem(0, mat)


class UnitaryForm:
    """The standard unitary form on GF(q^2)^3 in the basis {e, x, f}:
    (e,f) = (x,x) = 1, all other basis products 0; Gram matrix antidiagonal."""

    def __init__(self, F2: Field):
        if F2.a % 2:
            raise ValueError("unitary form needs a field of square order")
        self.field = F2
        self.view = SubfieldView(F2, F2.a // 2)
        self.q = self.view.q0
        self.gram = Mat(F2, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])

    def conj(self, x: int) -> int:
        return self.field.pow(x, self.q)


def is_unitary(A: Mat, form: UnitaryForm) -> bool:
    """GU_3(q) membership: A P conj(A)^T = P."""
    if A.n != 3:
        raise ValueError("unitary check is for 3x3 matrices here")
    conj_t = A.map_entries(form.conj).transpose()
    return A * form.gram * conj_t == form.gram


def gens_sl(n: int, F: Field) -> list[SemilinearElem]:
    """Standard generators of SL_n(q): a transvection, a determinant-one
    basis cycle, and a torus element diag(w, w^{-1}, 1, ...).

    The generated order is verified against the published order by the
    group catalogue when the action is induced; tests cover every parameter
    set in use.
    """
    if n < 2:
        raise ValueError("n >= 2")
    q = F.q
    one = 1
    t = [[one if i == j else 0 for j in range(n)] for i in range(n)]
    t[1][0] = one  # transvection e2 -> e1 + e2
    cyc = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        cyc[i][i + 1] = one
    cyc[n - 1][0] = one if (n % 2 == 1) else F.neg(one)
    gens = [linear(Mat(F, t)), linear(Mat(F, cyc))]
    if q > 2:
        gens.append(linear(Mat.diag(F, [F.omega, F.inv(F.omega)] + [one] * (n - 2))))
    for g in gens:
        if g.mat.det() != 1:
            raise AssertionError("SL generator with det != 1")
    return gens


def sl_order(n: int, q: int) -> int:
    out = 1
    for i in range(1, n):
        out *= q**n - q**i
    return out * (q**n - 1) // (q - 1)


def su3_order(q: int) -> int:
    return q**3 * (q**3 + 1) * (q**2 - 1)


def induced_order_bound(gens, r: int, form: UnitaryForm | None = None) -> int:
    """A proven upper bound on the order of the group that the semilinear
    elements gens induce on a space whose kernel holds Y = <w^r I>:
    |SL_n(q)| |H'| / |Y|, with |SU_3(q)| in place of |SL_n(q)| when the
    unitary form is given.

    H' is the image of <gens, Y> under g -> (det, sigma), or (det, mu,
    sigma) with mu the form multiplier, found by closure.  The map's kernel
    is SL_n(q) on GammaL_n(q), or SU_3(q) on the unitary semisimilitudes, so
    |<gens, Y>| <= |SL_n(q)| |H'|, and the induced group is a quotient of
    <gens, Y> by a kernel that holds Y (orders: Kleidman and Liebeck, The
    Subgroup Structure of the Finite Classical Groups, ch. 2).  A chain that
    reaches the bound is complete (Seress, Permutation Group Algorithms,
    4.5); generators that miss SL_n(q) never reach it.  ValueError for a
    unitary generator that preserves the form up to no scalar.
    """
    F = gens[0].field
    q1, p, a = F.q - 1, F.p, F.a
    n = gens[0].mat.n
    if form is None:
        base, y = sl_order(n, F.q), (r * n % q1, 0)
    else:
        base, y = su3_order(form.q), (r * n % q1, r * (form.q + 1) % q1, 0)
    images = [y] + [_det_image(g, form) for g in gens]
    one = (0,) * len(y)
    group, frontier = {one}, [one]
    while frontier:
        fresh = []
        for h in frontier:
            for g in images:
                # (h g)'s entries: h's raised to p^sigma_g, times g's
                e = p ** g[-1]
                hg = tuple((x * e + z) % q1 for x, z in zip(h[:-1], g[:-1]))
                hg += ((h[-1] + g[-1]) % a,)
                if hg not in group:
                    group.add(hg)
                    fresh.append(hg)
        frontier = fresh
    return base * len(group) // (q1 // math.gcd(r, q1))


def _det_image(g: SemilinearElem, form: UnitaryForm | None) -> tuple:
    """(log det, sigma) of g, or (log det, log mu, sigma) for its form
    multiplier mu: A P conj(A)^T = mu P for g's matrix A and the form's
    Gram matrix P."""
    F, A = g.field, g.mat
    d = A.det()
    if d == 0:
        raise ValueError(f"generator {g!r} is singular")
    if form is None:
        return F.log[d], g.frob
    image = A * form.gram * A.map_entries(form.conj).transpose()
    mu = image.rows[0][2]
    if mu == 0 or image != form.gram.map_entries(lambda x: F.mul(mu, x)):
        raise ValueError(f"generator {g!r} is not a unitary semisimilitude")
    return F.log[d], F.log[mu], g.frob


def gens_su3(F2: Field) -> list[SemilinearElem]:
    """Generators of SU_3(q) on GF(q^2)^3 with the antidiagonal form:

    two unipotent elements of the standard shape (lower triangular with
    Tr(b) + c^{q+1} = 0), the torus diag(w, w^{q-1}, w^{-q}), and the Weyl
    element antidiag(1, -1, 1).  All are checked to be unitary with det 1;
    the generated order is checked against q^3 (q^3+1) (q^2-1) where the
    vector action is small enough (q <= 8), and by the induced-action order
    assertions otherwise.
    """
    form = UnitaryForm(F2)
    F = F2
    q = form.q
    one = 1

    def unipotent(b: int, c: int) -> Mat:
        return Mat(F, [[one, 0, 0],
                       [F.neg(F.pow(c, q)), one, 0],
                       [b, c, one]])

    # b with Tr(b) = 0, b != 0
    b0 = next(b for b in range(1, F.q) if F.add(b, F.pow(b, q)) == 0)
    # b with Tr(b) = -c^{q+1} for c = 1, i.e. Tr(b) = -1
    target = F.neg(F.pow(one, q + 1))
    b1 = next(b for b in range(F.q) if F.add(b, F.pow(b, q)) == target)
    torus = Mat.diag(F, [F.omega, F.pow(F.omega, q - 1),
                         F.pow(F.omega, (-q) % (F.q - 1))])
    weyl = Mat(F, [[0, 0, one], [0, F.neg(one), 0], [one, 0, 0]])
    gens = [unipotent(b0, 0), unipotent(b1, one), torus, weyl]
    for g in gens:
        if not is_unitary(g, form):
            raise AssertionError("SU3 generator fails the unitary check")
        if g.det() != 1:
            raise AssertionError("SU3 generator with det != 1")
    return [linear(g) for g in gens]


def scalar(F: Field, lam: int, n: int) -> SemilinearElem:
    return linear(Mat.diag(F, [lam] * n))


def phi(F: Field, n: int) -> SemilinearElem:
    return SemilinearElem(1, Mat.identity(F, n))


# -- named generator cosets for the catalogue ---------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """A named matrix/semilinear group from the rank-3 catalogue.

    kind: 'linear' (subgroups of GammaL_n(q)) or 'unitary' (of GammaU_3(q)).
    shape: which generator coset to build, one of
        linear: gammal, gl, sl, y_sl, z_sl, sl_phi, sl_diag_phi, z_sl_phi,
                y_sl_phidiag, y_sigmal
        unitary: gammau, z_su, su
    j: the field parameter with |G : G cap GL| = a/j (2a/j in the unitary
       case); carried for the arithmetic rank-3 predicate.
    """
    kind: str
    n: int
    q: int
    r: int
    shape: str

    @property
    def j(self) -> int:
        F = matrix_field(self)
        if self.shape in ("gammal", "sl_phi", "sl_diag_phi", "z_sl_phi",
                          "y_sl_phidiag", "y_sigmal", "gammau"):
            return 1
        return F.a  # no field part: a/j = 1


def matrix_field(spec: GroupSpec) -> Field:
    fac = factorize(spec.q)
    if len(fac) != 1:
        raise ValueError(f"q = {spec.q} is not a prime power")
    (p, a), = fac.items()
    if spec.kind == "unitary":
        return field_make(p, 2 * a)
    return field_make(p, a)


def gens_group(spec: GroupSpec) -> list[SemilinearElem]:
    """Generators of the matrix/semilinear group named by spec, before
    quotienting by Y = <w^r I> (the quotient is realized by the Omega
    action, whose kernel is exactly Y)."""
    F = matrix_field(spec)
    n, r = spec.n, spec.r
    w = F.omega
    if spec.kind == "linear":
        base = gens_sl(n, F)
        diag_w_first = linear(Mat.diag(F, [w] + [1] * (n - 1)))
        diag_w_last = linear(Mat.diag(F, [1] * (n - 1) + [w]))
        shapes = {
            "sl": base,
            "gl": base + [diag_w_first],
            "gammal": base + [diag_w_first, phi(F, n)],
            "y_sl": base + [scalar(F, F.pow(w, r), n)],
            "z_sl": base + [scalar(F, w, n)],
            "sl_phi": base + [phi(F, n)],
            "sl_diag_phi": base + [SemilinearElem(1, diag_w_last.mat)],
            "z_sl_phi": base + [scalar(F, w, n), phi(F, n)],
            "y_sl_phidiag": base + [scalar(F, F.pow(w, r), n),
                                    SemilinearElem(1, Mat.diag(F, [1, w]))],
            "y_sigmal": base + [scalar(F, F.pow(w, r), n), phi(F, n)],
        }
    else:
        if n != 3:
            raise ValueError("unitary catalogue is 3-dimensional")
        base = gens_su3(F)
        q = field_make(F.p, F.a // 2).q
        shapes = {
            "su": base,
            "z_su": base + [scalar(F, w, 3)],
            # GammaU_3(q) = (Z GU_3(q)) : <phi>, GU_3 = SU_3 : <diag(1, w^{q-1}, 1)>
            "gammau": base + [scalar(F, w, 3),
                              linear(Mat.diag(F, [1, F.pow(w, q - 1), 1])),
                              phi(F, 3)],
        }
    if spec.shape not in shapes:
        raise ValueError(f"unknown group shape {spec.shape!r} for kind {spec.kind!r}")
    return shapes[spec.shape]


def gens_det_restricted(n: int, F: Field, t: int) -> list[SemilinearElem]:
    """Generators of LSub's group G_1 = {g in GL_n(q) : det g in <w^t>} =
    <SL_n(q), diag(w^t, 1, ..., 1)>; determinant surjectivity makes the two
    descriptions agree."""
    gens = gens_sl(n, F)
    if t % (F.q - 1):
        gens = gens + [linear(Mat.diag(F, [F.exp[t % (F.q - 1)]] + [1] * (n - 1)))]
    return gens
