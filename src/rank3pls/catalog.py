"""Builtin permutation groups: every desk-scale row of the rank-3 catalogue.

Three construction routes:
  * omega: the row's shape induced on the coset point set (omega.omega_group,
    shared with a family on the same space and shape), the chain stopped at
    the bound computed from the generators (matsemi.induced_order_bound),
    which makes it exact, and its order compared with the published one, an
    integer in the row's BuiltinMeta;
  * coset: the plinth G built from its generators, the point stabilizer
    G_0 taken, and the index-r subgroup R of G_0 read from the bundled file
    data/<row>.sub.grp and verified (R <= G_0, |G_0 : R| = r, then the
    action of G on the cosets of R has order |G|, rank 3 and a Sigma of
    cells of size r) before the coset action is returned.  A C2x row takes
    its cached base row (r = 2) and adjoins the involution swapping the two
    points of each Sigma-cell, checked to centralize the base row and to
    lie outside it.  No load searches for a subgroup;
    tools/gen_sporadic_data.py regenerates the files;
  * file: bundled generator files for the two covers that are not derivable
    from the matrix layer.

Groups are cached per name (omega groups per (space, shape)): every chain is
certified and draws its random elements from one fixed stream
(permcore.PermGroup), the same on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .gfield import field_make
from .matsemi import GroupSpec, Mat, SemilinearElem, gens_sl, linear
from .omega import (OmegaSpace, build_omega, induced_group, omega_group,
                    projective_points)
from .permcore import (PermGroup, compose, identity, perm_from_images,
                       read_group_file, sigma_partition, DEFAULT_SEED)


@dataclass(frozen=True)
class BuiltinMeta:
    name: str
    degree: int
    order: int
    sigma_count: int          # |Sigma|
    r: int
    gtype: str                # expected qp / it / sp
    route: str                # omega | coset | file
    spec: GroupSpec | None = None
    slow: bool = False


@dataclass
class Builtin:
    meta: BuiltinMeta
    group: PermGroup
    space: OmegaSpace | None = None


def _omega_builtin(name, spec, order, gtype, slow=False) -> "BuiltinMeta":
    q, r = spec.q, spec.r
    if spec.kind == "linear":
        sigma = (q**spec.n - 1) // (q - 1)
    else:
        sigma = q**3 + 1
    return BuiltinMeta(name, sigma * r, order, sigma, r, gtype, "omega", spec, slow)


# each row's order is the published order of the group its spec induces on
# Omega, a literal that get_builtin compares with the build
OMEGA_BUILTINS = {meta.name: meta for meta in [
    # AG*(n,4) / Delta(n,4) rows (r = 3, Y = 1); for n = 2 only GammaL_2(4)
    # has rank 3, the SL-shapes are rank 3 from n >= 3 on (all of type sp at
    # n = 3 since Z <= SL_3(4) and r does not divide (q-1)/(n,q-1) = 1)
    _omega_builtin("GammaL2_4", GroupSpec("linear", 2, 4, 3, "gammal"), 360, "it"),
    _omega_builtin("SLdiagphi3_4", GroupSpec("linear", 3, 4, 3, "sl_diag_phi"), 120960, "sp"),
    _omega_builtin("SLphi3_4", GroupSpec("linear", 3, 4, 3, "sl_phi"), 120960, "sp"),
    _omega_builtin("GammaL3_4", GroupSpec("linear", 3, 4, 3, "gammal"), 362880, "sp"),
    # Delta(n,3) rows (r = 2, Y = 1)
    _omega_builtin("SL3_3", GroupSpec("linear", 3, 3, 2, "sl"), 5616, "qp"),
    _omega_builtin("GL3_3", GroupSpec("linear", 3, 3, 2, "gl"), 11232, "it"),
    # LSub(n,16,4,5) rows
    _omega_builtin("GammaL2_16", GroupSpec("linear", 2, 16, 5, "gammal"), 81600, "it"),
    _omega_builtin("GammaL3_16", GroupSpec("linear", 3, 16, 5, "gammal"), 85542912000, "it"),
    # LSub(2,81,9,5) and LSub(2,25,5,3)
    _omega_builtin("ZSLphi2_81", GroupSpec("linear", 2, 81, 5, "z_sl_phi"), 5313600, "it"),
    _omega_builtin("ZSLphi2_25", GroupSpec("linear", 2, 25, 3, "z_sl_phi"), 46800, "it"),
    # DLSub(9,3,2,1)
    _omega_builtin("YSL2phidiag_9", GroupSpec("linear", 2, 9, 2, "y_sl_phidiag"), 720, "qp"),
    # unitary rows
    _omega_builtin("GammaU3_4", GroupSpec("unitary", 3, 4, 3, "gammau"), 748800, "it"),
    _omega_builtin("GammaU3_16", GroupSpec("unitary", 3, 16, 5, "gammau"), 171169382400, "it",
                   slow=True),
]}

# parameter sets whose rank-3 arithmetic flag must come out false
NEGATIVE_CONTROLS = [
    GroupSpec("linear", 2, 7, 3, "gammal"),    # o_3(7) = 1, not a ppd
    GroupSpec("linear", 2, 13, 3, "gammal"),   # o_3(13) = 1
    GroupSpec("linear", 3, 7, 3, "gammal"),
    GroupSpec("linear", 2, 11, 5, "gammal"),   # o_5(11) = 1
    GroupSpec("linear", 2, 31, 5, "gammal"),
    GroupSpec("linear", 2, 31, 3, "gammal"),
    GroupSpec("linear", 3, 4, 3, "sl"),        # j = a = 2 shares a factor with r-1
    GroupSpec("linear", 2, 4, 3, "sl_phi"),    # n = 2 without the scalars Z
    GroupSpec("linear", 2, 4, 3, "sl_diag_phi"),
    GroupSpec("linear", 2, 16, 5, "y_sl"),     # j = 4, (r-1, j) = 4
    GroupSpec("linear", 2, 25, 2, "y_sigmal"),  # (n,r) = (2,2) inside Y SigmaL
    GroupSpec("linear", 2, 9, 2, "y_sigmal"),
    GroupSpec("unitary", 3, 8, 7, "gammau"),   # o_7(2) = 3
    GroupSpec("unitary", 3, 4, 3, "z_su"),     # j = 2a = 4 shares a factor with r-1
]


SPORADIC_METAS = {
    "PSL3_2_deg14": BuiltinMeta("PSL3_2_deg14", 14, 168, 7, 2, "qp", "coset"),
    "C2xPSL3_2_deg14": BuiltinMeta("C2xPSL3_2_deg14", 14, 336, 7, 2, "it", "coset"),
    "M11_deg22": BuiltinMeta("M11_deg22", 22, 7920, 11, 2, "qp", "coset"),
    "C2xM11_deg22": BuiltinMeta("C2xM11_deg22", 22, 15840, 11, 2, "it", "coset"),
    "PSL3_3_deg39": BuiltinMeta("PSL3_3_deg39", 39, 5616, 13, 3, "qp", "coset"),
    "PSL3_5_deg155": BuiltinMeta("PSL3_5_deg155", 155, 372000, 31, 5, "qp", "coset"),
    "PSL5_2_deg248": BuiltinMeta("PSL5_2_deg248", 248, 9999360, 31, 8, "qp", "coset"),
    "PGL3_4_deg126": BuiltinMeta("PGL3_4_deg126", 126, 60480, 21, 6, "qp", "coset"),
    "PGammaL3_8_deg2044": BuiltinMeta("PGammaL3_8_deg2044", 2044, 49448448, 73,
                                      28, "qp", "coset", slow=True),
    "3S6_deg18": BuiltinMeta("3S6_deg18", 18, 2160, 6, 3, "sp", "file"),
    "2M12_deg24": BuiltinMeta("2M12_deg24", 24, 190080, 12, 2, "sp", "file"),
}

ALL_BUILTINS = {**OMEGA_BUILTINS, **SPORADIC_METAS}

_CACHE: dict[str, Builtin] = {}
_DATA = resources.files("rank3pls.data")


def builtin_names() -> list[str]:
    return sorted(ALL_BUILTINS)


def get_builtin(name: str, seed: int = DEFAULT_SEED) -> Builtin:
    """The builtin row `name`, built once and cached.  seed is ignored; it
    exists only because perfbench/workloads.py passes it."""
    if name in _CACHE:
        return _CACHE[name]
    if name not in ALL_BUILTINS:
        raise KeyError(f"unknown builtin group {name!r}; "
                       f"known: {', '.join(builtin_names())}")
    meta = ALL_BUILTINS[name]
    if meta.route == "omega":
        built = _build_omega_group(meta)
    elif meta.route == "coset":
        built = _build_coset_group(meta)
    else:
        built = _build_file_group(meta)
    G = built.group
    if G.degree != meta.degree or G.order != meta.order:
        raise AssertionError(f"{name}: built degree/order "
                             f"{G.degree}/{G.order}, expected "
                             f"{meta.degree}/{meta.order}")
    _CACHE[name] = built
    return built


def _build_omega_group(meta: BuiltinMeta) -> Builtin:
    spec = meta.spec
    space = build_omega(spec.kind, spec.n, spec.q, spec.r)
    return Builtin(meta, omega_group(space, spec.shape), space)


def _build_coset_group(meta: BuiltinMeta) -> Builtin:
    if meta.name.startswith("C2x"):
        return Builtin(meta, _double_by_cell_swap(meta))
    G = _plinth(meta.name)
    H = G.stabilizer(0)
    R = PermGroup(*_read_data(f"{meta.name}.sub.grp"))
    try:
        image = _verified_coset_action(G, H, R, meta)
    except (AssertionError, ValueError) as exc:
        raise AssertionError(
            f"{meta.name}: bundled subgroup {meta.name}.sub.grp: {exc}") from None
    return Builtin(meta, image)


def _verified_coset_action(G, H, R, base: BuiltinMeta) -> PermGroup:
    """The action of G on the cosets of R, once R is checked to be an
    index-r subgroup of H = G_0 whose action has order |G| and whose Sigma
    has cells of size r; AssertionError otherwise, or sigma_partition's
    ValueError when the action is not imprimitive of rank 3."""
    if not all(H.contains(g) for g in R.gens):
        raise AssertionError("a generator lies outside G_0")
    if R.order * base.r != H.order:
        raise AssertionError(f"index {H.order // R.order} in G_0, expected {base.r}")
    image = G.coset_action(R, faithful=True)
    size = sigma_partition(image).shape[1]
    if size != base.r:
        raise AssertionError(f"the coset action has Sigma-cells of size {size}")
    return image


# the projective plinths: name -> (p, a, n, group), acting on PG(n-1, p^a)
_PROJECTIVE_PLINTHS = {
    "PSL3_3_deg39": (3, 1, 3, "PSL"),
    "PSL3_5_deg155": (5, 1, 3, "PSL"),
    "PSL5_2_deg248": (2, 1, 5, "PSL"),
    "PGL3_4_deg126": (2, 2, 3, "PGL"),
    "PGammaL3_8_deg2044": (2, 3, 3, "PGammaL"),
}


def _plinth(name: str) -> PermGroup:
    """The plinth G of a coset row, with point 0 leading its base: PSL(3,2)
    on the 7 nonzero vectors of GF(2)^3, M11 by its classical generators on
    11 points, or a projective group."""
    if name == "PSL3_2_deg14":
        F = field_make(2, 1)
        return induced_group(projective_points(F, 3, vectors=True), gens_sl(3, F),
                             name="vector-action")
    if name == "M11_deg22":
        a = perm_from_images([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0])
        b = np.arange(11, dtype=np.int32)
        for cyc in [(2, 6, 10, 7), (3, 9, 4, 5)]:
            for i in range(len(cyc)):
                b[cyc[i]] = cyc[(i + 1) % len(cyc)]
        return PermGroup(11, [a, b], name="M11")
    p, a, n, group = _PROJECTIVE_PLINTHS[name]
    F = field_make(p, a)
    gens = gens_sl(n, F)
    if group != "PSL":
        gens.append(linear(Mat.diag(F, [F.omega] + [1] * (n - 1))))
    if group == "PGammaL":
        gens.append(SemilinearElem(1, Mat.identity(F, n)))
    return induced_group(projective_points(F, n), gens, base_hint=[0],
                         name=f"{group}{n}({F.q})@{(F.q**n - 1) // (F.q - 1)}")


def _double_by_cell_swap(meta: BuiltinMeta) -> PermGroup:
    """C2 x G for the base row G (r = 2): G and the involution z swapping
    the two points of each Sigma-cell.  z is checked to centralize G and
    to lie outside it, which proves the order 2|G|, the chain's proven
    bound."""
    try:
        G = get_builtin(meta.name.removeprefix("C2x")).group
    except AssertionError as exc:
        raise AssertionError(f"{meta.name}: {exc}") from None
    cells = sigma_partition(G)
    if cells.shape[1] != 2:
        raise AssertionError(f"{meta.name}: Sigma-cells of size {cells.shape[1]}")
    z = identity(G.degree)
    z[cells] = cells[:, ::-1]
    if any((compose(z, g) != compose(g, z)).any() for g in G.gens) or G.contains(z):
        raise AssertionError(f"{meta.name}: the cell swap is not a fresh "
                             f"centralizing involution")
    return PermGroup(G.degree, G.gens + [z], order_bound=2 * G.order,
                     name=f"C2x{G.name}")


def _read_data(filename: str):
    """(degree, generators) of a bundled group file in rank3pls/data."""
    with resources.as_file(_DATA.joinpath(filename)) as path:
        return read_group_file(path)


def _build_file_group(meta: BuiltinMeta) -> Builtin:
    G = PermGroup(*_read_data(f"{meta.name}.grp"), name=meta.name)
    return Builtin(meta, G)


def load_group_argument(arg: str) -> Builtin:
    """Resolve a CLI --group argument: builtin:<name> or file:<path>."""
    if arg.startswith("builtin:"):
        return get_builtin(arg.split(":", 1)[1])
    if arg.startswith("file:"):
        path = arg.split(":", 1)[1]
        degree, gens = read_group_file(path)
        G = PermGroup(degree, gens, name=path)
        meta = BuiltinMeta(path, degree, G.order, 0, 0, "?", "file")
        return Builtin(meta, G)
    raise ValueError("--group must be builtin:<name> or file:<path>")
