"""Order oracles: the published group orders written per shape, and the
element orders and matrices the tests check actions against.

Kept apart from the library on purpose.  The catalogue holds each builtin's
published order as an integer (`BuiltinMeta.order`) and every build stops
at the bound `matsemi.induced_order_bound` computes from its generators;
the closed forms below share no code with either, so the tests compare all
three.  The closed forms are right at the catalogue's parameters and wrong
at some others (`tests/test_order_bound.py` pins four such instances).
"""

import math

import numpy as np

from rank3pls.gfield import Field, SubfieldView, field_make
from rank3pls.matsemi import (GroupSpec, Mat, SemilinearElem, linear, matrix_field,
                              scalar, sl_order, su3_order)
from rank3pls.omega import OmegaSpace, induce_action


def group_matrix_order(spec: GroupSpec) -> int:
    """The catalogue's published order of the matrix/semilinear group
    built by gens_group, written per shape from |SL_n(q)|, |SU_3(q)| and
    the image in GammaL/SL.  It is right at the catalogue's parameters and
    wrong at some others; builds take their bound from induced_order_bound,
    and this value is the independent cross-check.
    """
    F = matrix_field(spec)
    n, q, r = spec.n, spec.q, spec.r
    a = F.a
    if spec.kind == "linear":
        sl = sl_order(n, q)
        p = F.p
        sizes = {
            "sl": sl,
            "gl": sl * (q - 1),
            "gammal": sl * (q - 1) * a,
            "y_sl": sl * ((q - 1) // r) // math.gcd(n, (q - 1) // r),
            "z_sl": sl * (q - 1) // math.gcd(n, q - 1),
            "sl_phi": sl * a,
            # image of D phi is ((w, phi)); its order is a(p-1) since
            # (w,phi)^{am} has det-exponent (p^{am}-1)/(p-1) = 0 mod q-1
            # exactly when (p-1) | m
            "sl_diag_phi": sl * a * (p - 1),
            "z_sl_phi": sl * (q - 1) // math.gcd(n, q - 1) * a,
            # (phi diag(1,w))^2 = diag(1, w^{p+1}) lies in Y SL_2 for the
            # catalogued (q, r) = (9, 2), giving index 2 over Y SL_2
            "y_sl_phidiag": sl * ((q - 1) // r) // math.gcd(n, (q - 1) // r) * 2,
            "y_sigmal": sl * ((q - 1) // r) // math.gcd(n, (q - 1) // r) * a,
        }
        return sizes[spec.shape]
    q0 = field_make(F.p, F.a // 2).q
    su = su3_order(q0)
    if spec.shape == "su":
        return su
    if spec.shape == "z_su":
        return (q0**2 - 1) * su // math.gcd(3, q0 + 1)
    if spec.shape == "gammau":
        # |Z GU_3(q)| = (q^2-1) |GU_3(q)| / (q+1) = (q^2-1) |SU_3(q)|
        return (q0**2 - 1) * su * F.a
    raise ValueError(spec.shape)


def _kernel_size(spec: GroupSpec) -> int:
    """|G cap Y| for the matrix group named by spec."""
    q, r, n = spec.q, spec.r, spec.n
    if spec.kind == "linear":
        y = (q - 1) // r
        if spec.shape in ("y_sl", "z_sl", "gl", "gammal", "z_sl_phi",
                          "y_sl_phidiag", "y_sigmal"):
            return y
        # SL-shapes: scalars lambda I with lambda in <w^r>, lambda^n = 1
        return math.gcd(n, y)
    y = (q**2 - 1) // r
    if spec.shape in ("z_su", "gammau"):
        return y
    # SU cap Y: lambda^{gcd(3, q+1)} = 1 within <w^r>
    return math.gcd(math.gcd(3, q + 1), y)


def induced_order(spec: GroupSpec) -> int:
    """The published order of the group spec induces on its Omega, right
    at the catalogue's parameters: BuiltinMeta.order."""
    return group_matrix_order(spec) // _kernel_size(spec)


def perm_order(g: np.ndarray) -> int:
    seen = np.zeros(len(g), dtype=bool)
    order = 1
    for i in range(len(g)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = int(g[j])
            length += 1
        order = math.lcm(order, length)
    return order


def induced_kernel_facts(space: OmegaSpace) -> tuple[bool, int]:
    """(w^r I acts trivially, order of the w I permutation) -- must be
    (True, r) for every space."""
    F = space.field
    n = space.n
    wr = scalar(F, F.exp[space.r % (F.q - 1)], n)
    w1 = scalar(F, F.omega, n)
    perm_wr, perm_w = induce_action(space, [wr, w1])
    return bool((perm_wr == np.arange(len(space))).all()), perm_order(perm_w)


def singer_cycle(n: int, F: Field) -> SemilinearElem:
    """A Singer cycle generator of GL_n(q): multiplication by a primitive
    element of GF(q^n) on GF(q^n) viewed as GF(q)^n in the basis
    {1, W, ..., W^{n-1}}."""
    big = field_make(F.p, F.a * n)
    view = SubfieldView(big, F.a)
    # minimal polynomial of Omega over GF(q): prod (x - Omega^{q^i})
    q = F.q
    roots = [big.pow(big.omega, q**i) for i in range(n)]
    poly = [1]  # ascending coefficients over big field
    for r in roots:
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] = big.add(nxt[i + 1], c)
            nxt[i] = big.add(nxt[i], big.mul(big.neg(r), c))
        poly = nxt
    coeffs = [view.project(c) for c in poly[:-1]]  # x^n = -(c0 + c1 x + ...)
    rows = []
    for i in range(n - 1):
        rows.append([1 if j == i + 1 else 0 for j in range(n)])
    rows.append([F.neg(c) for c in coeffs])
    return linear(Mat(F, rows))
