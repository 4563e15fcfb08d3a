"""The six partial-linear-space families and their parameter arithmetic.

Each family is declared once, here.  A constructor finds its base line L
with one OmegaSpace.points_of call and builds its structure, the line orbit
L^G, as an OrbitStructure over its defining group G, whose line count is
checked against the closed-form count computed independently in
expected_counts.  G (the catalogue's GL or Z SU generators, or the
det-restricted group of LSub) is omega.omega_group's, built once per
(space, shape) and shared with the catalogue (Delta(3, 3) and GL3_3), its
chain stopped at the bound computed from its generators
(matsemi.induced_order_bound), which makes it exact, and is transitive.

So every count the validators read follows from S, the lines through 0:
for x in L let t_x take x to 0; then S is the union of the G_0-orbits of the
rows L^(t_x).  Each point lies on |S| lines, there are n |S| / k lines of
size k, the most lines through a point pair is the most rows of S through
one y != 0, and each point is collinear with the number of such y.  The
component of 0 is the orbit of 0 under G_0 and one t_y for each G_0-orbit
of those y (PermGroup.block_join), and the other components are its images
under G.  The line array (permcore.line_orbit, ingested as any line set) is
built only when something reads `lines`, such as the file output of
`family build`.

DLSub is the union of the orbits of L and of its image under a diagonal map
that normalizes G, so one OrbitStructure with two base rows.  USub above
FULL_ENUMERATION_LIMIT lines is counted by formula instead, and the lines a
seeded random walk of its base line meets are checked as a partial linear
space, deduplicated on their first two points (CountOnly, _count_only).
CONSTRUCTORS maps each family kind to its constructor; the command line and
the table reproduction build through it.  Non-PLS parameter sets construct
fine on purpose; the validator reports their multiplicity.

The pipeline emits the same class: pipeline.devillers_enumerate builds the
OrbitStructure of each flag-transitive line {0} | B under its rank 3 group.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gfield import SubfieldView, factorize
from .incidence import IncidenceStructure, PairSummary, pair_keys
from .matsemi import GroupSpec, Mat, gens_group, linear
from .omega import OmegaSpace, build_omega, induce_action, omega_group, omega_space
from .permcore import PermGroup, line_orbit, row_keys, sorted_rows

FULL_ENUMERATION_LIMIT = 10**7  # lines; above it usub counts and samples
SAMPLE_SIZE = 10000  # steps of a count-only result's random walk


@dataclass(frozen=True)
class FamilyParams:
    family: str
    n: int
    q: int
    q0: int | None = None
    r: int | None = None
    j: int | None = None
    k: int | None = None
    t: int | None = None

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


def _pi_part(r: int, k: int) -> int:
    """The pi-part of r for pi = primes dividing k."""
    pi = set(factorize(k))
    out = 1
    for s, e in factorize(r).items():
        if s in pi:
            out *= s**e
    return out


def lsub_params(q: int, q0: int, r: int) -> tuple[int, int]:
    """(k, t) with (q-1)/(q0-1) = r k and t minimal with
    <w^t> cap <w^r> = <w^{kr}>; cross-checked against t = k * r_pi."""
    fq = factorize(q)
    fq0 = factorize(q0)
    if set(fq) != set(fq0) or q == q0 or any(fq[p] % fq0[p] for p in fq):
        raise ValueError(f"q = {q} is not a proper power of q0 = {q0}")
    if (q - 1) % r:
        raise ValueError(f"r = {r} does not divide q - 1")
    if (q - 1) % (r * (q0 - 1)):
        raise ValueError(f"r (q0 - 1) = {r * (q0 - 1)} does not divide q - 1")
    k = (q - 1) // (r * (q0 - 1))
    kr = k * r
    t = None
    for cand in range(1, kr + 1):
        d = math.gcd(cand, q - 1)  # <w^cand> = <w^d>
        if math.lcm(d, r) == kr:
            t = cand
            break
    formula = k * _pi_part(r, k)
    if t != formula:
        raise AssertionError(f"t by minimality {t} != k * r_pi = {formula}")
    return k, t


def expected_counts(family: str, n: int = 0, q: int = 0, q0: int = 0,
                    r: int = 0, j: int = 0) -> dict:
    """The closed-form (points, lines, line_size, multiplicity) predictions;
    pure arithmetic, used as the oracle side of the acceptance tests."""
    if family == "agstar":
        return {"points": q**n - 1,
                "lines": (q**n - 1) * (q**(n - 1) - 1) // (q - 1),
                "line_size": q, "multiplicity": 1}
    if family == "delta":
        return {"points": q**n - 1,
                "lines": (q**n - 1) * (q**n - q) // 6,
                "line_size": 3, "multiplicity": 1}
    if family == "lsub":
        k, t = lsub_params(q, q0, r)
        lhat = r * q * (q**n - 1) * (q**(n - 1) - 1) // (q0 * (q0**2 - 1) * (q - 1))
        lines = lhat // math.gcd(2 * r, t) if n == 2 else lhat
        mult = k // math.gcd(2, k) if n == 2 else k
        return {"points": r * (q**n - 1) // (q - 1), "lines": lines,
                "line_size": q0 + 1, "multiplicity": mult}
    if family == "dlsub":
        base = expected_counts("lsub", 2, q, q0, r)
        k, t = lsub_params(q, q0, r)
        pls = (k == 2 and r % 2 == 0 and j != _pi_part(r, 2))
        return {"points": base["points"], "lines": 2 * base["lines"],
                "line_size": q0 + 1, "multiplicity": 1 if pls else 2}
    if family == "usub":
        return {"points": r * (q**3 + 1),
                "lines": q**3 * (q**3 + 1) * (q - 1)**2
                // (q0 * (q0**2 - 1) * (q0 - 1)),
                "line_size": q0 + 1, "multiplicity": 1}
    if family == "agustar":
        return {"points": (q - 1) * (q**3 + 1),
                "lines": q**2 * (q**3 + 1) * (q - 1),
                "line_size": q, "multiplicity": 1}
    raise ValueError(f"unknown family {family!r}")


class CountOnly:
    """Result of a constructor whose full line set exceeds the enumeration
    limit: the closed-form counts (expected) and sample_lines, the distinct
    lines a random walk of base_line meets, as sorted tuples in
    lexicographic order, no two of them sharing two points."""

    def __init__(self, space: OmegaSpace, params: FamilyParams, expected: dict,
                 base_line, sample_lines):
        self.space = space
        self.params = params
        self.expected = expected
        self.base_line = base_line
        self.sample_lines = sample_lines

    def __repr__(self):
        return (f"CountOnly({self.params.family}, {self.expected['points']} points, "
                f"{self.expected['lines']} lines by formula)")


# -- one orbit structure ----------------------------------------------------------


class OrbitStructure(IncidenceStructure):
    """The union of the line orbits B^G of one or more base rows B under a
    transitive group G, known by S, its lines through 0 (module docstring).

    S is read off G_0 and the Schreier tree of G at 0: the lines of B^G
    through 0 are the G_0-orbits of the rows B^(t_x), x in B, t_x taking x
    to 0.  The counts, the pair summary, the point degrees and the
    components follow from S; the line array is built by line_orbit and
    ingested the first time `lines` is read, and then kept.  `bases` keeps
    one base row per distinct orbit, `group` is G."""

    def __init__(self, G: PermGroup, bases, params: dict):
        if not G.is_transitive():
            raise ValueError(f"{G!r} is not transitive")
        self._num_points = n = G.degree
        self.params = dict(params)
        self.group = G
        self._lines = None
        self._at0 = G.schreier_tree(0)
        gens0 = G.stabilizer(0).gens
        seen, orbits, self.bases = set(), [], []
        for base in bases:
            base = np.sort(np.asarray(base, dtype=np.int32))
            rows = self._at0.to_root(np.tile(base, (len(base), 1)), base)
            rows.sort(axis=1)
            if rows[0].tobytes() in seen:
                continue        # an orbit met through an earlier base
            self.bases.append(base)
            for row in rows:
                if row.tobytes() not in seen:
                    orbit = line_orbit(gens0, row)[0]
                    seen.update(r.tobytes() for r in orbit)
                    orbits.append(orbit)
        self._rows = sorted_rows(np.concatenate(orbits), n)[0]
        self._keys = row_keys(self._rows, n)
        num_lines, rem = divmod(n * len(self._rows), self.line_size)
        if rem:
            raise AssertionError(f"{n} points on {len(self._rows)} lines each "
                                 f"do not fall into lines of size {self.line_size}")
        self._num_lines = num_lines

    @property
    def lines(self) -> np.ndarray:
        if self._lines is None:
            orbits = [line_orbit(self.group.gens, base)[0] for base in self.bases]
            lines = IncidenceStructure(self.num_points, np.concatenate(orbits)).lines
            if len(lines) != self._num_lines:
                raise AssertionError(f"line orbits of {len(lines)} lines, "
                                     f"{self._num_lines} counted at 0")
            self._lines = lines
        return self._lines

    @property
    def num_lines(self) -> int:
        return self._num_lines

    @property
    def line_size(self) -> int:
        return self._rows.shape[1]

    def point_degrees(self) -> np.ndarray:
        """Every point lies on |S| lines."""
        return np.full(self.num_points, len(self._rows), dtype=np.intp)

    @cached_property
    def _pair_summary(self) -> PairSummary:
        """The lines through 0 through each y != 0: the multiplicity is their
        most, the concurrence of every point the number of such y."""
        n = self.num_points
        through = np.bincount(self._rows[:, 1:].ravel(), minlength=n)
        conc = int(np.count_nonzero(through))
        concurrence = np.full(n, conc, dtype=np.int64)
        concurrence.flags.writeable = False
        return PairSummary(int(through.max()), n * conc // 2, concurrence)

    @cached_property
    def _components(self) -> tuple[tuple[int, ...], ...]:
        """The component of 0 is the smallest block of G holding 0 and every
        point collinear with it (`PermGroup.block_join`); the others are its
        images under G."""
        n, G = self.num_points, self.group
        collinear = np.zeros(n, dtype=bool)
        collinear[self._rows[:, 1:]] = True
        component = G.block_join(0, np.flatnonzero(collinear))
        if len(component) == n:
            return (tuple(range(n)),)
        cells = line_orbit(G.gens, sorted(component))[0]
        if len(cells) * len(component) != n:
            raise AssertionError(f"components of {len(component)} points do "
                                 f"not tile {n} points")
        return tuple(sorted(map(tuple, cells.tolist())))

    def has_lines(self, rows) -> np.ndarray:
        """Whether each row of point sets is a line: a row R is one exactly
        when R^(t), t taking its least point to 0, is in S.  ValueError
        for a point outside range(num_points)."""
        rows = np.sort(np.asarray(rows, dtype=np.int32), axis=1)
        if rows.size and (rows[:, 0].min() < 0 or rows[:, -1].max() >= self.num_points):
            raise ValueError(f"rows hold points outside range({self.num_points})")
        if rows.shape[1] != self.line_size:
            return np.zeros(len(rows), dtype=bool)
        images = self._at0.to_root(rows, rows[:, 0])
        images.sort(axis=1)
        keys = row_keys(images, self.num_points)
        at = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return self._keys[at] == keys


def _counted(space: OmegaSpace, shape, bases, params: FamilyParams,
             exp: dict) -> OrbitStructure:
    """The orbit structure of the bases under the group of the shape on the
    space (omega_group), its line count checked against the closed-form
    count exp."""
    D = OrbitStructure(omega_group(space, shape), bases, params.as_dict())
    if D.num_lines != exp["lines"]:
        args = ", ".join(f"{k}={v}" for k, v in D.params.items() if k != "family")
        raise AssertionError(f"{params.family}({args}): {D.num_lines} lines, "
                             f"formula {exp['lines']}")
    return D


# -- linear families -----------------------------------------------------------


def _linear_space(n, q, r):
    # AG*(2,3) = Delta(2,3) lives outside the range build_omega admits; the
    # construction still gives its point set F_3^2 - 0
    if (n, q, r) == (2, 3, 2):
        return omega_space("linear", n, q, r)
    return build_omega("linear", n, q, r)


def _plane_vectors(space: OmegaSpace, pairs):
    """The vectors a e1 + b e2 of the space for the (a, b) in pairs."""
    pad = [0] * (space.n - 2)
    return [[a, b] + pad for a, b in pairs]


def ag_star(n: int, q: int) -> IncidenceStructure:
    """All affine lines of F_q^n missing zero, on the punctured vector space."""
    if n < 2 or q < 3:
        raise ValueError("AG* needs n >= 2 and q >= 3")
    space = _linear_space(n, q, q - 1)
    F = space.field
    # the line through e1 and e2: lam e1 + (1 - lam) e2
    base = space.points_of(_plane_vectors(
        space, [(lam, F.sub(1, lam)) for lam in range(F.q)]))
    exp = expected_counts("agstar", n, q)
    return _counted(space, "gl", [base], FamilyParams("agstar", n, q), exp)


def delta(n: int, q: int) -> IncidenceStructure:
    """Lines {u, v, -(u+v)} over independent pairs, on F_q^n - 0."""
    if n < 2 or q < 3:
        raise ValueError("Delta needs n >= 2 and q >= 3")
    space = _linear_space(n, q, q - 1)
    F = space.field
    base = space.points_of(_plane_vectors(
        space, [(1, 0), (0, 1), (F.neg(1), F.neg(1))]))
    exp = expected_counts("delta", n, q)
    return _counted(space, "gl", [base], FamilyParams("delta", n, q), exp)


def _subfield(F, q0: int) -> SubfieldView:
    fac = factorize(q0)
    if set(fac) != {F.p}:
        raise ValueError(f"q0 = {q0} is not a power of p = {F.p}")
    return SubfieldView(F, fac[F.p])


def lsub(n: int, q: int, q0: int, r: int) -> IncidenceStructure:
    """Subfield-line structure: orbit of L_{e1,e2} under the det-restricted
    group; each line has q0 + 1 points."""
    if r <= 1:
        raise ValueError("LSub needs r > 1")
    k, t = lsub_params(q, q0, r)
    space = build_omega("linear", n, q, r)
    embed = _subfield(space.field, q0).embed
    # L_{e1,e2}: e1 and lam e1 + e2 for lam in the subfield
    base = space.points_of(_plane_vectors(
        space, [(1, 0)] + [(embed(lam0), 1) for lam0 in range(q0)]))
    exp = expected_counts("lsub", n, q, q0, r)
    return _counted(space, t, [base], FamilyParams("lsub", n, q, q0, r, k=k, t=t),
                    exp)


def diagonal_map(space: OmegaSpace, j: int) -> np.ndarray:
    """The permutation diag(w^j, 1, ..., 1) induces on the linear space."""
    F = space.field
    mat = Mat.diag(F, [F.exp[j % (F.q - 1)]] + [1] * (space.n - 1))
    return induce_action(space, [linear(mat)])[0]


def dlsub(q: int, q0: int, r: int, j: int) -> IncidenceStructure:
    """Doubled subfield structure (Omega, L cup w^j L) in dimension 2.

    w^j L is the image of L under h = diag(w^j, 1), which normalizes
    LSub's group G, so (w^j L)^G is the image of L^G: the two orbits are
    equal or disjoint.  The result is a partial linear space iff k = 2, r
    is even and j != r_2; other parameter sets build fine and are flagged
    by validate_pls.
    """
    k, t = lsub_params(q, q0, r)
    if not 0 < j < t:
        raise ValueError(f"DLSub needs 0 < j < t = {t}")
    (base,) = lsub(2, q, q0, r).bases
    space = build_omega("linear", 2, q, r)
    params = FamilyParams("dlsub", 2, q, q0, r, j=j, k=k, t=t)
    D = OrbitStructure(omega_group(space, t), [base, diagonal_map(space, j)[base]],
                       params.as_dict())
    D.params["disjoint_union"] = len(D.bases) == 2
    return D


# -- unitary families -----------------------------------------------------------


def usub(q: int, q0: int, r: int | None = None, seed: int = 0):
    """Unitary subfield structure USub(q, q0, r) with r = (q-1)/(q0-1) odd.

    Returns an IncidenceStructure or, when the line set exceeds
    FULL_ENUMERATION_LIMIT, a CountOnly of the closed-form counts and the
    lines a SAMPLE_SIZE-step random walk of the base line meets, drawn from
    random.Random(seed or 0xC0) (_count_only).
    """
    b = _power_degree(q, q0)
    if b < 2:
        raise ValueError("USub needs q = q0^b with b > 1")
    r_def = (q - 1) // (q0 - 1)
    if (q - 1) % (q0 - 1) or r_def % 2 == 0:
        raise ValueError("USub needs r = (q-1)/(q0-1) odd")
    if r is not None and r != r_def:
        raise ValueError(f"USub has r = (q-1)/(q0-1) = {r_def}")
    r = r_def
    space = build_omega("unitary", 3, q, r)
    F = space.field
    embed = _subfield(F, q0).embed
    w = F.exp[(r * (q + 1)) // math.gcd(q + 1, 2) % (F.q - 1)]
    base = space.points_of([(1, 0, 0)] + [(F.mul(w, embed(lam0)), 0, 1)
                                          for lam0 in range(q0)])
    exp = expected_counts("usub", 3, q, q0, r)
    params = FamilyParams("usub", 3, q, q0, r)
    if exp["lines"] > FULL_ENUMERATION_LIMIT:
        gens = induce_action(space, gens_group(GroupSpec("unitary", 3, q, r, "z_su")))
        return _count_only(space, params, exp, base, gens, seed)
    return _counted(space, "z_su", [base], params, exp)


def agu_star(q: int) -> IncidenceStructure:
    """Affine-style unitary structure AGU*(q): q even, q > 2, r = q - 1."""
    if q <= 2 or q % 2:
        raise ValueError("AGU* needs q even and q > 2")
    r = q - 1
    space = build_omega("unitary", 3, q, r)
    F = space.field
    embed = _subfield(F, q).embed
    base = space.points_of([(lam, 0, F.sub(1, lam))
                            for lam in map(embed, range(q))])
    exp = expected_counts("agustar", 3, q)
    return _counted(space, "z_su", [base], FamilyParams("agustar", 3, q, r=r), exp)


def _randranges(rng: random.Random, m: int, count: int) -> np.ndarray:
    """[rng.randrange(m) for _ in range(count)] as a uint32 array, in a few
    getrandbits calls.  CPython's randrange(m) keeps the top m.bit_length()
    bits of one 32-bit Mersenne Twister word and draws again while that is
    >= m; getrandbits(32 w) is w such words, the first in the low bits, so
    the same filter over them gives the same values.  m >= 2**(k-1) for
    k = m.bit_length(), so at least half the words are kept on average and
    2 * count words mostly suffice; the rest are drawn again."""
    shift = 32 - m.bit_length()
    picks = np.empty(0, dtype=np.uint32)
    while len(picks) < count:
        words = 2 * (count - len(picks))
        draw = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"),
                             dtype="<u4") >> shift
        picks = np.concatenate((picks, draw[draw < m]))
    return picks[:count]


def _random_walk(gens, base, steps: int, rng: random.Random) -> np.ndarray:
    """(steps + 1, k) int32: base, then each row's image under a generator
    drawn as rng.choice(gens) would draw it (_randranges).  Each point walks
    along the draws through memoryviews of the int32 generators, which copy
    nothing, and its walk goes into one row of an int32 array at once."""
    images = [memoryview(g) for g in gens]
    picks = [images[i] for i in _randranges(rng, len(gens), steps).tolist()]
    walk = np.empty((len(base), steps + 1), dtype=np.int32)
    for row, x in zip(walk, base):
        row[0] = x
        row[1:] = [x := g[x] for g in picks]
    return walk.T


def _distinct_lines(rows: np.ndarray, n: int) -> np.ndarray:
    """The distinct rows of an (m, k) array of strictly increasing rows of
    points in range(n), in lexicographic order, checked as lines of a
    partial linear space.  Two such lines share at most one point, so a
    line is known by its first two points a < b: the rows are sorted and
    deduplicated on the key a n + b, and rows with one key that differ, or
    a point pair on two kept rows (pair_keys), raise AssertionError."""
    keys = rows[:, 0].astype(np.int64) * n + rows[:, 1]
    order = np.argsort(keys)
    rows, keys = rows[order], keys[order]
    repeat = keys[1:] == keys[:-1]
    lines = rows[np.concatenate(([True], ~repeat))]
    pairs = pair_keys(lines, n)
    if (rows[1:][repeat] != rows[:-1][repeat]).any() or (pairs[1:] == pairs[:-1]).any():
        raise AssertionError("sampled lines violate the PLS property")
    return lines


def _count_only(space, params, exp, base, gens, seed):
    """The CountOnly result: the distinct lines met by a SAMPLE_SIZE-step
    random walk of the base line, seeded by seed (0xC0 for 0), checked as a
    partial linear space by _distinct_lines."""
    walk = _random_walk(gens, base, SAMPLE_SIZE, random.Random(seed or 0xC0))
    sample = _distinct_lines(np.sort(walk, axis=1), len(space))
    return CountOnly(space, params, exp, base, list(zip(*sample.T.tolist())))


def _power_degree(q: int, q0: int) -> int:
    """b with q = q0**b, or 0 when there is none (q0 < 2 has no power
    past 1)."""
    if q0 < 2:
        return 0
    b = 0
    t = 1
    while t < q:
        t *= q0
        b += 1
    return b if t == q else 0


# the constructor of each family kind; the CLI reads a kind's required
# arguments from its signature
CONSTRUCTORS = {"agstar": ag_star, "delta": delta, "lsub": lsub,
                "dlsub": dlsub, "usub": usub, "agustar": agu_star}
