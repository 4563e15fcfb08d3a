"""Geometry oracles: vectors mapped one at a time, the unitary form, the
relative trace, and incidence structures relabelled point by point.

Kept apart from the library on purpose.  The library maps whole point sets
through arrays (`omega.induce_action`) and reads its structures off the lines
through one point; the tests compare those with the plain maps below.
"""

import numpy as np

from rank3pls.gfield import SubfieldView
from rank3pls.incidence import IncidenceStructure
from rank3pls.matsemi import Mat, SemilinearElem, UnitaryForm


# -- semilinear maps on row vectors -------------------------------------------


def apply_row(M: Mat, v) -> tuple:
    """The row vector v M."""
    F = M.field
    n = M.n
    out = [0] * n
    for i in range(n):
        a = v[i]
        if a == 0:
            continue
        row = M.rows[i]
        for j in range(n):
            if row[j]:
                out[j] = F.add(out[j], F.mul(a, row[j]))
    return tuple(out)


def apply(g: SemilinearElem, v) -> tuple:
    """The image (v^(phi^k)) M of v under g = (k, M)."""
    F = g.field
    if g.frob:
        v = tuple(F.frob_iter(x, g.frob) for x in v)
    return apply_row(g.mat, v)


def product(form: UnitaryForm, u, v) -> int:
    """(u, v) = u_e v_f^q + u_x v_x^q + u_f v_e^q."""
    F = form.field
    out = F.mul(u[0], form.conj(v[2]))
    out = F.add(out, F.mul(u[1], form.conj(v[1])))
    return F.add(out, F.mul(u[2], form.conj(v[0])))


def is_isotropic(form: UnitaryForm, v) -> bool:
    return product(form, v, v) == 0


# -- the subfield of a SubfieldView --------------------------------------------


def contains(view: SubfieldView, x: int) -> bool:
    """Whether x lies in the embedded subfield."""
    return x == 0 or view.big.log[x] % view.stride == 0


def project(view: SubfieldView, x: int) -> int:
    """The subfield element that embeds as x; ValueError off the subfield."""
    if x == 0:
        return 0
    d = view.big.log[x]
    if d % view.stride:
        raise ValueError("element does not lie in the subfield")
    return view.sub.exp[(d // view.stride) % (view.q0 - 1)]


def relative_frobenius(view: SubfieldView, x: int) -> int:
    """x -> x^{q0}, generator of Gal(big/sub)."""
    return view.big.pow(x, view.q0)


def trace(view: SubfieldView, x: int) -> int:
    """Relative trace into the subfield, returned as a big-field element."""
    out = x
    t = x
    for _ in range(view.degree - 1):
        t = relative_frobenius(view, t)
        out = view.big.add(out, t)
    return out


def trace_to_subfield(view: SubfieldView, x: int) -> int:
    """Tr(x) = x + x^q for a quadratic view GF(q^2)/GF(q), as a GF(q)
    element."""
    if view.degree != 2:
        raise ValueError("trace_to_subfield expects a quadratic view")
    return project(view, trace(view, x))


# -- incidence structures ------------------------------------------------------


def line_set(D: IncidenceStructure) -> frozenset:
    return frozenset(map(tuple, D.lines.tolist()))


def relabel(D: IncidenceStructure, perm) -> IncidenceStructure:
    """The image of D under the point permutation perm."""
    return IncidenceStructure(
        D.num_points, np.sort(np.asarray(perm)[D.lines], axis=1), D.params)


def preserved_by(D: IncidenceStructure, gens) -> bool:
    """True iff each generator (a permutation of the points) maps the line
    set onto itself."""
    for g in gens:
        if len(g) != D.num_points:
            raise ValueError("generator degree does not match the point count")
        if not np.array_equal(relabel(D, g).lines, D.lines):
            return False
    return True
