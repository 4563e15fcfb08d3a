"""Permutation-group kernel: BSGS, orbits, blocks, coset actions, flags.

Permutations are numpy int32 arrays of images; composition is left-to-right
(apply g then h), matching the right actions used throughout the geometry
layers: compose(g, h)[x] = h[g[x]].

Schreier-Sims builds a chain in one of two ways (Seress, Permutation Group
Algorithms, 4.1-4.2); a chain's order never exceeds the true order:
  * proven bound (`order_bound`): the caller has proven |G| <= the bound,
    so a chain that reaches it is complete.  Sift residues of random
    elements (product replacement) are inserted until it does; a run of
    CERTIFICATE_SIFTS members below it raises.  Every group built from
    matrices proves one from its generators (omega.induced_group, through
    matsemi.induced_order_bound: the matrix plinths, and the omega builtins
    and family groups, one per space and shape by omega.omega_group), and
    so do a stabilizer's rebase (the generators of a certified G), a
    faithful coset action (its image has at most |G| elements) and the
    catalogue's C2x doubles (G x <z> once z is checked to centralize G and
    to lie outside it).
  * deterministic (no bound): full Schreier-generator processing, whose
    chain is complete whatever it started from, up to DETERMINISTIC_DEGREE.
    A larger group needs a proven bound.

The deterministic pass sifts a level's Schreier generators in batches of
about _BATCH_ENTRIES array entries (Seress, Permutation Group Algorithms,
4.1-4.2).  For the pass only, each level keeps its transversal as a table of
inverse reps, one row per orbit point, with a point -> row map; a batch is
built by flat gathers, and each level below costs it one gather, where
`_Level.trace_back` walks base^g up the Schreier tree, one inverse
generator a step.  g u^-1 is the same array either way, and the first
non-member of a batch, in the pair order of a one-at-a-time loop, is the one
inserted, so the base, orbits, Schreier vectors and strong generators are
exactly those of that loop.  trace_back stays the chain's sift, as chain
levels change between sifts; every other rep is read by `_Level.to_root`, a
batch of rows walked up the tree in step, as u^-1.

A chain is built once per group, and so is everything a group derives from
it or from its generators: each `PermGroup` keeps its point stabilizers,
Schreier trees and block lattices per point, its orbit partition and its
Sigma in one store of its own, the arrays read-only and each lattice handed
out as a new list.  So the pipeline, the block inventory check and Sigma
share one G_0, one set of G_0 labels, one tree and one lattice per beta.
The stabilizer of a point x in the first basic orbit (every point, for a
transitive group) is the chain below the first base point b conjugated by
the transversal rep taking b to x, so it runs no Schreier-Sims; only a point
outside that orbit gets a chain rebuilt with x first, and G_x keeps that
chain below x.  A Schreier tree that gains a generator grows by that
generator alone on its old points, which the old generators already keep
inside the orbit (`_Level.add_gen`).

`merge` is the one union-find: a partition is an array of class roots, each
class rooted at its least point.  Orbits, single block joins (a block through
beta is the beta-class of the orbit partition of an overgroup of G_beta),
flag orbits and the components of an incidence structure are all merges; the
block lattice through beta closes sets of G_beta-orbits over k^3 bits read
off the reps of its k suborbit heads, with no merge.  Two BFS loops over
points stay, because they need what a partition does not keep: the Schreier
tree of `_Level.extend_orbit` (BFS order and `sv`, which the transversal
reps are read from) and the orbit of one row of points with rows numbered
in FIFO order.  Each loop sizes a layer by its image entries,
frontier rows x generators x row width: below _PYTHON_LAYER the layer runs
in plain Python over memoryviews of the int32 generators, since a numpy
call costs more than a handful of points, and from there on in numpy.  The
two give the same points in the same order.  extend_orbit decides round by
round.  A line orbit without maps (`line_orbit`) runs Python layers on
sorted tuples from its base line and hands the rows found so far, with the
first large layer as the frontier, to `_row_orbit`, which goes on in numpy,
each layer read in frontier slices of about _ORBIT_SLICE image entries.
Line orbits with per-generator image maps (the flag test) and coset actions
(`coset_action`, on canonical coset elements read off the subgroup's chain)
are `_row_orbit` from the start, as their canonical forms are array-only.
Block checks (`verify_block`) read the Schreier tree at a block's least
point instead.  Sigma, the block system of an imprimitive rank 3 group
(`sigma_partition`), is one checked block and its line orbit; no block
lattice runs on the whole group.

Sets of sorted point sets (lines, cells, samples) are sorted, deduplicated
and searched through one key per row, `row_keys`: the row's lexicographic
rank as an int64 when every rank fits, its big-endian bytes otherwise.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

DETERMINISTIC_DEGREE = 4000
MAX_BLOCKS = 10000  # all_blocks_through raises past this many blocks
DEFAULT_SEED = 0x52334C53  # "R3LS"
CERTIFICATE_SIFTS = 40  # members in a row that stop a build below its bound
_BATCH_ENTRIES = 1 << 16  # array entries per batch of the deterministic pass
_ORBIT_SLICE = _BATCH_ENTRIES << 2  # image entries per frontier slice of _row_orbit
_PYTHON_LAYER = 512  # a BFS layer of fewer image entries runs in plain Python


def identity(degree: int) -> np.ndarray:
    return np.arange(degree, dtype=np.int32)


def compose(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Apply g, then h."""
    return h.take(g)


def inverse(g: np.ndarray) -> np.ndarray:
    inv = np.empty_like(g)
    inv[g] = np.arange(len(g), dtype=np.int32)
    return inv


def is_identity(g: np.ndarray) -> bool:
    return bool((g == np.arange(len(g), dtype=np.int32)).all())


def perm_from_images(images) -> np.ndarray:
    g = np.asarray(images, dtype=np.int32)
    if sorted(g.tolist()) != list(range(len(g))):
        raise ValueError("not a permutation")
    return g


def perm_power(g: np.ndarray, e: int) -> np.ndarray:
    out = identity(len(g))
    base = g
    while e:
        if e & 1:
            out = compose(out, base)
        base = compose(base, base)
        e >>= 1
    return out


def merge(parent: np.ndarray, a, b) -> np.ndarray:
    """Join the classes of a[i] and b[i] for every i.

    parent is a fully compressed forest: parent[x] is the root of x's class,
    and each class is rooted at its least point (identity(n) is the discrete
    partition).  Each round hooks the larger root of every pair still split
    onto the smaller one, then jumps pointers until every point sits on its
    root.  Returns a new array of the same kind; parent is left untouched.
    """
    parent = parent.copy()
    ra, rb = parent[a], parent[b]
    while True:
        split = ra != rb
        if not split.any():
            return parent
        ra, rb = ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        jumped = parent[parent]
        while not np.array_equal(jumped, parent):
            parent, jumped = jumped, jumped[jumped]
        ra, rb = parent[ra], parent[rb]


def classes(labels: np.ndarray) -> list[list[int]]:
    """The classes of a merged partition as ascending point lists, in order
    of their least points."""
    if not len(labels):
        return []
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return [c.tolist() for c in np.split(order, cuts)]


class _Level:
    """One level of a stabilizer chain: base point, level generators (all
    strong generators fixing the base prefix), Schreier tree."""

    __slots__ = ("point", "gens", "inv_gens", "orbit", "sv", "walk")

    def __init__(self, degree: int, point: int):
        self.point = point
        self.gens: list[np.ndarray] = []
        self.inv_gens: list[np.ndarray] = []
        self.orbit: list[int] = [point]
        self.sv = np.full(degree, -1, dtype=np.int32)
        self.sv[point] = -2  # root marker
        self.walk = None    # to_root's walk table, built at its first read

    def add_gen(self, g: np.ndarray, g_inv: np.ndarray):
        """Add the generator g, whose inverse is g_inv, and grow the orbit
        by it.  The orbit is closed under the old generators, so only g can
        take an old point out of it: the first round applies g alone
        (Seress, Permutation Group Algorithms, 4.1), and the orbit order and
        sv are those of a round over every generator.  Both are kept as
        C-contiguous int32, the layout extend_orbit's memoryviews read."""
        self.gens.append(np.ascontiguousarray(g, dtype=np.int32))
        self.inv_gens.append(np.ascontiguousarray(g_inv, dtype=np.int32))
        self.walk = None
        self.extend_orbit(len(self.gens) - 1)

    def extend_orbit(self, first_gen: int = 0):
        """Breadth-first growth of the orbit from all of its points, the
        first round by the generators from first_gen on, every later round
        by all of them on the points the round before added.  Each
        generator in turn adds its unmarked images, ascending, so a point it
        marks is not fresh for the generators after it.  A round of fewer
        than _PYTHON_LAYER images runs in plain Python over memoryviews,
        a larger one in numpy; both add the same points in the same order."""
        sv = self.sv
        if len(self.orbit) == len(sv):
            return                          # every point: nothing to add
        # a list, or an array after a numpy round; the orbit itself at
        # first, which each round reads in full before extending it
        frontier = self.orbit
        while len(frontier):
            if len(frontier) * (len(self.gens) - first_gen) < _PYTHON_LAYER:
                if isinstance(frontier, np.ndarray):
                    frontier = frontier.tolist()
                marks, layer = memoryview(sv), []
                for k in range(first_gen, len(self.gens)):
                    img = memoryview(self.gens[k])
                    fresh = sorted({y for y in map(img.__getitem__, frontier)
                                    if marks[y] == -1})
                    for y in fresh:
                        marks[y] = k
                    layer += fresh
                self.orbit += layer
            else:
                points, layer = np.asarray(frontier, dtype=np.int32), []
                for k in range(first_gen, len(self.gens)):
                    img = self.gens[k].take(points)
                    fresh = img[sv[img] == -1]
                    if fresh.size:
                        fresh = np.sort(fresh)
                        fresh = fresh[np.concatenate(([True], fresh[1:] != fresh[:-1]))]
                        sv[fresh] = k
                        self.orbit += fresh.tolist()
                        layer.append(fresh)
                layer = np.concatenate(layer) if layer else []
            frontier = layer
            first_gen = 0

    def conjugate(self, u: np.ndarray, u_inv: np.ndarray) -> "_Level":
        """This level of the chain of u^-1 G u: point, orbit and Schreier tree
        moved by u, generators g -> u^-1 g u."""
        lv = _Level.__new__(_Level)
        lv.point = int(u[self.point])
        lv.gens = [u[g[u_inv]] for g in self.gens]
        lv.inv_gens = [u[g[u_inv]] for g in self.inv_gens]
        lv.orbit = u[self.orbit].tolist()
        lv.sv = np.empty_like(self.sv)
        lv.sv[u] = self.sv
        lv.walk = None
        return lv

    def trace_back(self, g: np.ndarray):
        """g * u^{-1} for the transversal rep u with base^u = base^g, which
        fixes the base point: g composed with the inverse generator of each
        step up the tree from base^g.  None if base^g is outside the orbit."""
        x = int(g[self.point])
        if self.sv[x] == -1:
            return None
        while x != self.point:
            inv = self.inv_gens[self.sv[x]]
            g = inv.take(g)
            x = int(inv[x])
        return g

    def to_root(self, rows: np.ndarray, points: np.ndarray) -> np.ndarray:
        """A new array: each row of point images (one per point, or one for
        all) mapped by u^-1 for the rep u with base^u its point, all rows
        walked up the tree in step, one flat gather a step; a row g becomes
        g u^-1.  The walk table (the inverse generators and the identity,
        stacked, and each point's offset in it) is kept until add_gen
        changes the tree.  ValueError for a point outside the orbit."""
        off = points[self.sv[points] == -1]
        if len(off):
            raise ValueError(f"point {off[0]} is not in the orbit of {self.point}")
        if self.walk is None:
            n = len(self.sv)
            step = self.sv.astype(np.intp) * n
            step[self.point] = len(self.inv_gens) * n
            self.walk = np.concatenate([*self.inv_gens, identity(n)]), step
        flat, step = self.walk
        x = points
        while True:     # one step at least, so the rows are always new
            k = step[x]
            rows, x = flat[k[:, None] + rows], flat[k + x]
            if (x == self.point).all():
                return rows


class _InverseReps:
    """The inverse transversal reps of one level, as one table: row p is
    u^-1 for the rep u with base^u = orbit[p], as to_root reads it, and
    pos maps a point to its place in the orbit (-1 outside it)."""

    __slots__ = ("points", "pos", "rows")

    def __init__(self, degree: int):
        self.points = np.empty(0, dtype=np.intp)
        self.pos = np.full(degree, -1, dtype=np.intp)
        self.rows = np.empty((0, degree), dtype=np.int32)

    def extend(self, lv: _Level):
        """Add the rows of the points lv's orbit has gained.

        A point z reached by generator k from its Schreier-tree parent y has
        u_z^-1 = k^-1 u_y^-1.  Parents come earlier in the orbit, so rows
        are filled in runs whose parents are all filled already.
        """
        done, total = len(self.points), len(lv.orbit)
        if done == total:
            return
        n = len(self.pos)
        new = np.array(lv.orbit[done:], dtype=np.intp)
        self.points = np.concatenate([self.points, new])
        self.pos[new] = np.arange(done, total)
        rows = np.empty((total, n), dtype=np.int32)
        rows[:done] = self.rows
        self.rows = rows
        if not done:
            rows[0] = identity(n)
            done = 1
        pts = self.points[done:]
        ks = lv.sv[pts]
        inv_gens = np.asarray(lv.inv_gens)
        parents = self.pos[inv_gens[ks, pts]]
        flat = rows.reshape(-1)
        run = max(1, _BATCH_ENTRIES // n)
        a = done
        while a < total:
            end = min(total, a + run)
            late = np.flatnonzero(parents[a + 1 - done:end - done] >= a)
            b = a + 1 + int(late[0]) if late.size else end
            r = slice(a - done, b - done)
            rows[a:b] = flat[parents[r, None] * n + inv_gens[ks[r]]]
            a = b


def _sift_schreier_batch(lv: _Level, table: _InverseReps, xs: np.ndarray,
                         ss: np.ndarray, below) -> tuple[int, np.ndarray | None]:
    """Sift the Schreier generators u_x s u_(x^s)^-1 of the pairs
    (lv.orbit[xs[r]], lv.gens[ss[r]]) through the levels `below`, a list of
    (_Level, _InverseReps) from the next level down.

    Returns (first, residue): first is the row of the first non-member and
    residue its sift residue, or (len(xs), None) when every row is a member.
    One gather per level replaces g by g u^-1 for the rep u with
    base^u = base^g, the array trace_back and to_root reach by tree walks.
    A row whose base image falls outside the orbit stops with its current
    value, and the rows after it are dropped, since they cannot come first.
    """
    n = len(table.pos)
    flat = table.rows.reshape(-1)
    xrows, which = np.unique(xs, return_inverse=True)
    fwd = np.empty((len(xrows), n), dtype=np.int32)
    np.put_along_axis(fwd, table.rows[xrows], identity(n)[None, :], axis=1)
    gens = np.asarray(lv.gens)
    g = gens.reshape(-1)[ss[:, None] * n + fwd[which]]             # u_x s
    to = table.pos[gens[ss, table.points[xs]]]
    g = flat[to[:, None] * n + g]                                   # u_(x^s)^-1
    first, residue = len(xs), None
    for lvj, tj in below:
        p = tj.pos[g[:, lvj.point]]
        out = np.flatnonzero(p < 0)
        if out.size:
            first = int(out[0])
            residue = g[first].copy()
            g, p = g[:first], p[:first]
        g = tj.rows.reshape(-1)[p[:, None] * n + g]
    moved = np.flatnonzero((g != identity(n)).any(axis=1))
    if moved.size:
        first = int(moved[0])
        residue = g[first].copy()
    return first, residue


class PermGroup:
    """Permutation group of fixed degree given by generators.

    The base/strong-generating structure is built lazily on first use of
    order, membership, stabilizers or random elements.  What the group
    derives from it and from its generators (point stabilizers, Schreier
    trees, the orbit partition, block lattices, Sigma) is computed on first
    request and kept in the group's own store.  order_bound is an upper
    bound on the order that the caller has proven and expects reached;
    without one the chain comes from the deterministic pass (module
    docstring).  A proven-bound build draws its random elements from
    random.Random(DEFAULT_SEED) alone.
    """

    def __init__(self, degree: int, gens, *, order_bound: int | None = None,
                 base_hint=None, name: str = ""):
        self.degree = degree
        self.gens = []
        for g in gens:
            arr = g.astype(np.int32) if isinstance(g, np.ndarray) else perm_from_images(g)
            if len(arr) != degree:
                raise ValueError("generator degree mismatch")
            if not is_identity(arr):
                self.gens.append(arr)
        self.order_bound = order_bound
        self.base_hint = list(base_hint) if base_hint else []
        self.name = name
        self._levels: list[_Level] | None = None
        self._order: int | None = None
        self._store: dict = {}

    def _kept(self, key, make):
        """The value kept under key, made by make() on the first request."""
        store = self._store
        if key not in store:
            store[key] = make()
        return store[key]

    def __repr__(self):
        label = self.name or f"<{len(self.gens)} gens>"
        return f"PermGroup({label}, deg={self.degree})"

    # -- chain construction ---------------------------------------------------

    def _chain(self) -> list[_Level]:
        if self._levels is None:
            self._build_bsgs()
        return self._levels

    def _chain_order(self) -> int:
        return math.prod(len(lv.orbit) for lv in self._levels)

    def _first_moved(self, g: np.ndarray) -> int:
        used = {lv.point for lv in self._levels}
        for b in self.base_hint:
            if b not in used and g[b] != b:
                return b
        diff = np.nonzero(g != np.arange(self.degree, dtype=np.int32))[0]
        for b in diff:
            if int(b) not in used:
                return int(b)
        raise AssertionError("no unused moved point for base extension")

    def _sift(self, g: np.ndarray, start: int = 0):
        """The sift residue of g through the levels from start down; None
        means member."""
        for lv in self._levels[start:]:
            if int(g[lv.point]) == lv.point:
                continue
            g2 = lv.trace_back(g)
            if g2 is None:
                return g
            g = g2
        return None if is_identity(g) else g

    def _insert_strong_gen(self, g: np.ndarray) -> int:
        """Add g as a strong generator; returns the deepest level it joins."""
        m = 0
        while m < len(self._levels) and g[self._levels[m].point] == self._levels[m].point:
            m += 1
        if m == len(self._levels):
            self._levels.append(_Level(self.degree, self._first_moved(g)))
        g_inv = inverse(g)
        for j in range(m + 1):
            self._levels[j].add_gen(g, g_inv)
        return m

    def _build_path(self) -> str:
        """How _build_bsgs builds and certifies the chain: "proven bound" or
        "deterministic" (module docstring)."""
        return "deterministic" if self.order_bound is None else "proven bound"

    def _build_bsgs(self):
        """The chain, built and certified by _build_path's path: residues of
        random elements up to the proven bound, which then stops it, or the
        deterministic pass.  A chain that stops below the bound or passes it
        raises AssertionError; a degree past DETERMINISTIC_DEGREE with no
        bound raises ValueError."""
        self._levels = []
        if not self.gens:
            if (bound := self.order_bound or 1) > 1:
                raise AssertionError(f"{self!r}: order 1 below the proven bound {bound}")
            self._order = 1
            return
        first = next((b for b in self.base_hint
                      if any(g[b] != b for g in self.gens)), None)
        if first is None:
            first = self._first_moved(self.gens[0])
        self._levels.append(_Level(self.degree, first))
        for g in self.gens:
            # every input generator is a strong generator for its prefix
            self._insert_strong_gen(g)
        if self._build_path() == "deterministic":
            if self.degree > DETERMINISTIC_DEGREE:
                raise ValueError(
                    f"{self!r}: degree {self.degree} is past the deterministic "
                    f"cap {DETERMINISTIC_DEGREE}, so the group needs a proven "
                    f"order bound")
            self._deterministic_schreier_sims()
            self._order = self._chain_order()
            return
        bound = self.order_bound
        shaker = _Shaker(self.gens, random.Random(DEFAULT_SEED))
        members = 0
        while self._chain_order() < bound:
            residue = self._sift(shaker.element())
            if residue is not None:
                self._insert_strong_gen(residue)
                members = 0
            elif (members := members + 1) == CERTIFICATE_SIFTS:
                raise AssertionError(f"{self!r}: order {self._chain_order()} "
                                     f"below the proven bound {bound}")
        self._order = self._chain_order()
        if self._order != bound:
            raise AssertionError(
                f"{self!r}: order {self._order} above the proven bound {bound}")

    def _deterministic_schreier_sims(self):
        # Level i is scanned over its (orbit point x, generator s) pairs, x
        # in orbit order, then s in generator order, skipping the pairs whose
        # Schreier generator u_x s u_(x^s)^-1 is already accepted.  Schreier
        # trees and generator lists only grow and members stay members, so
        # skipping an accepted pair finds the same first non-member as
        # re-sifting it.  The pairs go through _sift_schreier_batch in
        # batches of about _BATCH_ENTRIES entries: its first non-member is
        # inserted and the pairs before it are accepted, exactly as a
        # pair-by-pair loop would, so the chain does not depend on the batch
        # size.  The inverse transversal tables live for this pass only.
        n = self.degree
        tables: list[_InverseReps] = []
        accepted: list[np.ndarray] = []     # per level, an (orbit, gens) grid
        batch = max(1, _BATCH_ENTRIES // n)
        i = len(self._levels) - 1
        while i >= 0:
            while len(tables) < len(self._levels):
                tables.append(_InverseReps(n))
                accepted.append(np.zeros((0, 0), dtype=bool))
            for lv, table in zip(self._levels[i:], tables[i:]):
                table.extend(lv)
            lv = self._levels[i]
            done = np.zeros((len(lv.orbit), len(lv.gens)), dtype=bool)
            old = accepted[i]
            done[:old.shape[0], :old.shape[1]] = old
            accepted[i] = done
            xs, ss = np.nonzero(~done)
            below = list(zip(self._levels[i + 1:], tables[i + 1:]))
            inserted_at = None
            for a in range(0, len(xs), batch):
                bx, bs = xs[a:a + batch], ss[a:a + batch]
                first, residue = _sift_schreier_batch(lv, tables[i], bx, bs, below)
                done[bx[:first], bs[:first]] = True
                if residue is not None:
                    inserted_at = self._insert_strong_gen(residue)
                    break
            i = i - 1 if inserted_at is None else inserted_at

    # -- public queries ---------------------------------------------------------

    @property
    def order(self) -> int:
        if self._order is None:
            self._build_bsgs()
        return self._order

    def contains(self, g) -> bool:
        g = g if isinstance(g, np.ndarray) else perm_from_images(g)
        if len(g) != self.degree:
            return False
        self.order
        return self._sift(g.astype(np.int32)) is None

    def orbit_labels(self) -> np.ndarray:
        """The least point of each point's orbit: one merge of every x with
        its images g[x], made once and kept as a read-only array."""
        def make():
            x = identity(self.degree)
            images = np.asarray(self.gens, dtype=np.int32).ravel()
            labels = merge(x, np.tile(x, len(self.gens)), images)
            labels.flags.writeable = False
            return labels
        return self._kept("labels", make)

    def orbit(self, x: int) -> list[int]:
        """The orbit of x, ascending."""
        labels = self.orbit_labels()
        return np.flatnonzero(labels == labels[x]).tolist()

    def orbits(self) -> list[list[int]]:
        return classes(self.orbit_labels())

    def is_transitive(self) -> bool:
        return not self.orbit_labels().any()

    def random_element(self, rng: random.Random) -> np.ndarray:
        self.order
        # the drawn reps' product, the deepest applied first, as its inverse
        g_inv = identity(self.degree)
        for lv in self._levels:
            x = rng.choice(lv.orbit)
            g_inv = lv.to_root(g_inv[None], np.array([x]))[0]
        return inverse(g_inv)

    def stabilizer(self, x: int) -> "PermGroup":
        """The point stabilizer G_x, with order |G| / |x^G|: the same object
        on every call for the same x, so its own stabilizers, trees and
        lattices are computed once.

        When x lies in the first basic orbit (always, for a transitive group),
        G_x = u^-1 G_b u for the transversal rep u with b^u = x, b the first
        base point, so the chain of G_x is this chain below b conjugated by u
        (shared as is when x = b) and no Schreier-Sims runs.  A point that G
        fixes gets G's own chain.  Otherwise the chain is rebuilt with x as
        first base point, its order |G| a proven bound, and G_x keeps it
        below x.  G_x is kept only once its chain is in place.
        """
        return self._kept(("stabilizer", int(x)), lambda: self._stabilizer(int(x)))

    def _stabilizer(self, x: int) -> "PermGroup":
        order = self.order
        lv0 = self._levels[0] if self._levels else None
        if lv0 is not None and lv0.sv[x] != -1:
            sub_order = order // len(lv0.orbit)
            if x == lv0.point:
                levels = self._levels[1:]
            else:
                u_inv = lv0.to_root(identity(self.degree)[None], np.array([x]))[0]
                u = inverse(u_inv)
                levels = [lv.conjugate(u, u_inv) for lv in self._levels[1:]]
        elif len(orb := self.orbit(x)) == 1:
            sub_order, levels = order, self._levels       # G fixes x
        else:
            sub_order = order // len(orb)
            rebased = PermGroup(self.degree, self.gens, order_bound=order,
                                base_hint=[x] + self.base_hint,
                                name=f"{self.name}|rebase{x}")
            levels = rebased._chain()[1:]
        if math.prod(len(lv.orbit) for lv in levels) != sub_order:
            raise AssertionError(f"{self!r}: stabilizer chain order mismatch")
        gens = {g.tobytes(): g for g in levels[0].gens} if levels else {}
        stab = PermGroup(self.degree, list(gens.values()),
                         base_hint=[lv.point for lv in levels], name=f"{self.name}_{x}")
        stab._levels = levels
        stab._order = sub_order
        return stab

    def rank(self) -> int:
        """Number of suborbits of a transitive group (orbits of G_x)."""
        if not self.is_transitive():
            raise ValueError("rank is defined for transitive groups only")
        return len(self.stabilizer(0).orbits())

    # -- blocks of imprimitivity ----------------------------------------------
    #
    # The blocks through beta are the orbits beta^H of the overgroups
    # G_beta <= H <= G, one per overgroup (Dixon & Mortimer, Permutation
    # Groups, Thm 1.5A), so each is a union of suborbits, the orbits of
    # G_beta.  The smallest block containing beta and gamma is
    # beta^<G_beta, u> for any u with beta^u = gamma, beta's component in
    # the orbital graph of (beta, gamma) (D. G. Higman, J. Algebra 6, 1967).
    # block_join merges G_beta's orbit labels with x ~ x^(u^-1); the lattice
    # closes sets of suborbits over a table of those graphs' edges.

    def schreier_tree(self, beta: int) -> _Level:
        """A Schreier tree rooted at beta over the group's generators: its
        orbit is beta's orbit, and to_root reads its reps u (beta^u = gamma)
        as u^-1.  Made once per beta and kept, its sv read-only."""
        def make():
            tree = _Level(self.degree, beta)
            tree.gens = list(self.gens)
            tree.inv_gens = [inverse(g) for g in self.gens]
            tree.extend_orbit()
            tree.sv.flags.writeable = False
            return tree
        return self._kept(("tree", int(beta)), make)

    def minimal_block(self, beta: int, gamma: int) -> frozenset:
        """Smallest block of imprimitivity containing {beta, gamma} for this
        group acting on the orbit of beta."""
        if beta == gamma:
            raise ValueError("minimal_block needs two distinct points")
        return self.block_join(beta, (gamma,))

    def block_join(self, beta: int, points) -> frozenset:
        """The smallest block containing beta and all of points: the orbit
        of beta under <G_beta, u_p for each p>, with beta^(u_p) = p.  Any
        two choices of u_p differ by G_beta on either side, so one p per
        G_beta-orbit serves.  Raises ValueError for a point outside the
        orbit of beta."""
        tree = self.schreier_tree(beta)
        pts = np.fromiter(points, dtype=np.int32)
        off = pts[tree.sv[pts] == -1]
        if off.size:
            raise ValueError(f"point {int(off[0])} is not in the orbit of {beta}")
        labels = self.stabilizer(beta).orbit_labels()
        heads = np.array(sorted(set(labels[pts].tolist())), dtype=np.intp)
        images = tree.to_root(identity(self.degree)[None], heads)
        row = merge(labels, np.tile(identity(self.degree), len(heads)), images.ravel())
        return frozenset(np.flatnonzero(row == row[beta]).tolist())

    def verify_block(self, block) -> bool:
        """Whether the set B is a block inside the orbit of x = min(B),
        decided on the kept Schreier tree at x and G_x's orbit labels: B must
        lie in x's orbit, be a union of G_x-orbits, and be mapped onto itself
        by the tree rep u_y (x^u_y = y) for the least point y of each.  That
        suffices (Dixon & Mortimer, Thm 1.5A): G_x and each u_y fix B
        setwise, and each z in B is y^h = x^(u_y h) for such a y and an h in
        G_x, so B is x's orbit under an overgroup of G_x.  A set that leaves
        x's orbit is False; ValueError for an empty set or a point off range(n)."""
        pts = np.sort(np.fromiter({int(x) for x in block}, dtype=np.intp))
        if not len(pts) or pts[0] < 0 or pts[-1] >= self.degree:
            raise ValueError(f"verify_block needs a nonempty set in range({self.degree})")
        tree = self.schreier_tree(int(pts[0]))
        labels = self.stabilizer(int(pts[0])).orbit_labels()
        inside = np.bincount(pts, minlength=self.degree).astype(bool)
        if (tree.sv[pts] == -1).any() or (inside[labels] != inside).any():
            return False
        heads = pts[labels[pts] == pts]
        rows = tree.to_root(np.tile(pts, (len(heads), 1)), heads)
        return bool((np.sort(rows, axis=1) == pts).all())

    def all_blocks_through(self, beta: int) -> list[frozenset]:
        """Every nontrivial block of imprimitivity containing beta, for this
        group transitive on the orbit of beta, ordered by size and then by
        sorted points; RuntimeError once more than MAX_BLOCKS blocks are
        found.  The lattice is computed once per beta and kept; each call
        returns a new list of its blocks."""
        return list(self._kept(("blocks", int(beta)),
                               lambda: tuple(self._blocks_through(int(beta)))))

    def _blocks_through(self, beta: int) -> list[frozenset]:
        """The lattice of all_blocks_through, computed afresh.  A block is
        held as its set of suborbits D_a, the orbits of G_beta on the orbit
        D of beta, with heads h_a (least points) and tree reps u_a.  One
        to_root read of the u_c^-1, in batches of max(1, _BATCH_ENTRIES //
        degree) rows, fills the relation table: bit b of table[a, c] is set
        when D_a^(u_c) meets D_b, an edge from D_c into D_b in the orbital
        graph of (beta, h_a).  It takes k * k * ceil(k / 64) words:
        8 k^2 bytes up to k = 64, about k^3 / 8 past it (0.8 MB at k = 182).
        A minimal block is beta's component in one such graph, and a join is
        reached along the relations that made its two blocks.  The minimal
        blocks join each block of the last layer until a layer finds no new
        block; verify_block checks every block returned."""
        tree = self.schreier_tree(beta)
        orbit = np.flatnonzero(tree.sv != -1)
        if len(orbit) <= 2:
            return []
        labels = self.stabilizer(beta).orbit_labels()
        heads = orbit[labels[orbit] == orbit]
        k, words = len(heads), (len(heads) + 63) // 64
        index = np.zeros(self.degree, dtype=np.intp)
        index[heads] = np.arange(k)
        index = index[labels]           # each orbit point's suborbit
        sub = index[orbit]
        table = np.empty((k, k, words), dtype=np.uint64)
        batch = max(1, _BATCH_ENTRIES // self.degree)
        for c in range(0, k, batch):
            reps = tree.to_root(identity(self.degree)[None], heads[c:c + batch])
            hit = np.zeros((len(reps), k, 64 * words), dtype=bool)
            hit[np.arange(len(reps))[:, None], index[reps[:, orbit]], sub] = True
            bits = np.packbits(hit, axis=2, bitorder="little").view(np.uint64)
            table[:, c:c + batch] = bits.swapaxes(0, 1)
        found = {}

        def add(layer, seen, steps):
            # reach from each row of seen, each step from the suborbits the last
            # one added (bit b of steps[i, c]: D_c -> D_b); keep the new blocks
            new, flat = seen, steps.reshape(-1, words)
            while len(at := np.flatnonzero(new)):
                bits = np.zeros((len(steps), words), dtype=np.uint64)
                np.bitwise_or.at(bits, at // k, flat[at])
                new = np.unpackbits(bits.view(np.uint8), axis=1, count=k,
                                    bitorder="little") > seen
                seen = seen | new
            for blk, step, whole in zip(seen, steps, seen.all(axis=1)):
                if not whole and found.setdefault(blk.tobytes(), blk) is blk:
                    if len(found) > MAX_BLOCKS:
                        raise RuntimeError(f"block lattice exceeded cap {MAX_BLOCKS}")
                    layer.append((blk, step))

        minimal = []
        start = np.arange(k) == index[beta]
        add(minimal, start[None].repeat(k - 1, axis=0), table[~start])
        min_sets = np.array([blk for blk, _ in minimal])
        min_steps = np.array([step for _, step in minimal])
        frontier = minimal
        while frontier:
            layer = []
            for blk, step in frontier:
                add(layer, min_sets | blk, min_steps | step)
            frontier = layer
        blocks = [frozenset(orbit[blk[sub]].tolist()) for blk in found.values()]
        out = sorted(blocks, key=lambda b: (len(b), sorted(b)))
        for b in out:
            if len(orbit) % len(b) != 0 or not self.verify_block(b):
                raise AssertionError(f"non-block of size {len(b)} escaped the lattice")
        return out

    # -- coset action ------------------------------------------------------------

    def coset_action(self, sub: "PermGroup", faithful: bool = False):
        """The right-multiplication action on the right cosets of sub, on
        [0, |G:sub|): the _row_orbit of the identity, cosets numbered in FIFO
        order (by layer, then source coset, then generator) and each one held
        as a canonical element, its big-endian bytes the key.  Level by level
        down sub's chain, one argmin and one gather turn h into u h for the
        transversal rep u taking the base point to the orbit point of least
        image under h; a base leaves no freedom, so this greedy minimum of the
        base images is one element of the coset, whatever the reps.

        Of the two ways to build a chain (module docstring), the image takes
        the proven bound when faithful is set: it has at most |G| elements,
        so its chain is complete once it reaches |G|, with no deterministic
        pass, and an action that is not faithful raises AssertionError
        ("below") once CERTIFICATE_SIFTS random elements in a row sift
        through its chain.  Without it the image's chain is built by the
        deterministic pass."""
        for g in sub.gens:
            if not self.contains(g):
                raise ValueError("not a subgroup: generator fails membership sift")
        index = self.order // sub.order
        n = self.degree
        levels = []
        for lv in sub._chain():
            points = np.array(lv.orbit, dtype=np.intp)
            inv = lv.to_root(identity(n)[None], points)
            fwd = np.empty_like(inv)
            np.put_along_axis(fwd, inv, identity(n)[None, :], axis=1)
            levels.append((points, fwd))

        def canon(h: np.ndarray):
            for points, fwd in levels:
                h = np.take_along_axis(h, fwd[np.argmin(h[:, points], axis=1)], axis=1)
            be = np.ascontiguousarray(h, dtype=">i4")
            return h, be.view(np.dtype((np.void, 4 * n))).ravel()

        cosets, new_gens = _row_orbit(self.gens, identity(n), 0, canon,
                                      with_maps=True)
        if len(cosets) != index:
            raise AssertionError(
                f"coset enumeration found {len(cosets)} cosets, index is {index}")
        return PermGroup(index, new_gens, order_bound=self.order if faithful else None,
                         name=f"{self.name}/cosets")

    # -- subgroup search -----------------------------------------------------------

    def normal_closure(self, seeds) -> "PermGroup":
        gens: list[np.ndarray] = []
        K = PermGroup(self.degree, [])
        queue = [s for s in seeds if not is_identity(s)]
        while queue:
            x = queue.pop()
            if K.contains(x):
                continue
            gens.append(x)
            K = PermGroup(self.degree, gens)
            for h in self.gens:
                queue.append(compose(compose(inverse(h), x), h))
        return K

    def normal_subgroup_of_index(self, r: int) -> "PermGroup":
        """A verified normal subgroup of index r.

        Built as the normal closure of commutators of generator pairs and
        r-th powers of a growing sample of elements; works whenever the
        quotient witnessing the index is abelian of exponent r.  Called by
        tools/gen_sporadic_data.py, which writes the index-2 subgroups of
        the PSL3_2_deg14 and M11_deg22 rows to the catalogue's data, and by
        the tests; no catalogue load calls it.
        """
        rng = random.Random(DEFAULT_SEED ^ 0xC0117)
        seeds = []
        for a in self.gens:
            for b in self.gens:
                seeds.append(compose(compose(a, b), inverse(compose(b, a))))
        for g in self.gens:
            seeds.append(perm_power(g, r))
        N = self.normal_closure(seeds)
        tries = 0
        while self.order // N.order > r and tries < 48:
            g = self.random_element(rng)
            N = self.normal_closure(N.gens + [perm_power(g, r)])
            tries += 1
        if self.order // N.order != r:
            raise RuntimeError(
                f"no normal subgroup of index {r} found (index reached "
                f"{self.order // N.order})")
        for g in N.gens:
            for h in self.gens:
                if not N.contains(compose(compose(inverse(h), g), h)):
                    raise AssertionError("normality verification failed")
        return N

    def subgroup_of_index(self, r: int, rng: random.Random | None = None,
                          accept=None) -> "PermGroup":
        """Search for an index-r subgroup by sampling small generating sets.

        accept() runs the caller's downstream verification and the first
        subgroup of the right order passing it is returned.  Called by
        tools/gen_sporadic_data.py, which writes the non-normal index-r
        subgroups of five coset rows to the catalogue's data; no catalogue
        load calls it.
        """
        if self.order % r:
            raise ValueError(f"index {r} does not divide the group order")
        target = self.order // r
        rng = rng or random.Random(DEFAULT_SEED ^ 0x5B6)
        for _ in range(2000):
            xs = [self.random_element(rng) for _ in range(2)]
            S = PermGroup(self.degree, xs)
            o = S.order
            if o != target and target % o == 0 and o > 1:
                xs.append(self.random_element(rng))
                S = PermGroup(self.degree, xs)
                o = S.order
            if o != target:
                continue
            if accept is None or accept(S):
                return S
        raise RuntimeError(f"no index-{r} subgroup found in 2000 attempts")

    # -- setwise stabilizer (oracle) ----------------------------------------------

    def setwise_stabilizer(self, points) -> "PermGroup":
        """Backtracking setwise stabilizer; meant for degree <= a few hundred."""
        S = frozenset(int(p) for p in points)
        rebased = PermGroup(self.degree, self.gens, base_hint=sorted(S),
                            name=f"{self.name}|setstab")
        rebased.order
        chain = rebased._levels
        found: list[np.ndarray] = []
        stab = PermGroup(self.degree, [])
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
                    stab = PermGroup(self.degree, list(found))
                return
            lv = chain[level]
            want = lv.point in S
            xs = np.array([x for x in lv.orbit if (x in back) == want], dtype=np.intp)
            for row in lv.to_root(h_inv[None], xs):
                search(level + 1, row)

        search(0, identity(self.degree))
        return PermGroup(self.degree, list(found), name=f"{self.name}_setstab")


class _Shaker:
    """Product-replacement random element generator: ten slots, sixty
    burn-in steps."""

    def __init__(self, gens, rng: random.Random):
        self.rng = rng
        base = [g.copy() for g in gens]
        while len(base) < 10:
            base.append(base[len(base) % len(gens)].copy())
        self.slots = base
        self.acc = identity(len(gens[0]))
        for _ in range(60):
            self._step()

    def _step(self):
        rng = self.rng
        n = len(self.slots)
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        if rng.random() < 0.5:
            self.slots[i] = compose(self.slots[i], self.slots[j])
        else:
            self.slots[i] = compose(self.slots[j], self.slots[i])
        self.acc = compose(self.acc, self.slots[i])

    def element(self) -> np.ndarray:
        self._step()
        return self.acc.copy()


# -- line and flag orbits ------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _rank_table(n: int, k: int) -> np.ndarray | None:
    """The (k, n) int64 table T with T[i, x] = C(n-1-i, k-i) - C(n-1-x, k-i)
    over the reachable range i <= x <= n-k+i, so that the lexicographic rank
    of a k-subset x_0 < ... < x_(k-1) of range(n) is sum_i T[i, x_i].  None
    when C(n, k) >= 2**63, where some rank would not fit in an int64.  Only
    that band, k x (n-k+1) entries, is stored: T is a read-only strided view
    whose row i reads band row i at x - i, so an entry off the band is
    another row's value.

    With y_j = n-1-x_(k-1-j), the complemented and reversed row, that sum is
    C(n, k) - 1 - sum_j C(y_j, j+1), the colex rank of y (Knuth, TAOCP 4A,
    7.2.1.3) counted down from the top.  Over its reachable range
    j <= y <= n-k+j, C(y, j+1) = sum_(j<=t<y) C(t, j) is an exclusive
    cumulative sum of the range of j-1, so each band row is one in-place
    cumsum of n-k+1 entries, and every entry is at most C(n-1, k).
    """
    if math.comb(n, k) >= 2**63:
        return None
    band = np.empty((k, n - k + 1), dtype=np.int64)
    col = np.ones(n - k + 1, dtype=np.int64)    # col[d] = C(d-1, 0), d >= 1
    for j in range(k):
        col[0] = 0
        np.cumsum(col, out=col)                 # col[d] = C(j+d, j+1)
        np.subtract(col[-1], col[::-1], out=band[k - 1 - j])
    # a row stride one entry short of the band's: T[i, x] = band[i, x - i]
    return np.lib.stride_tricks.as_strided(band, (k, n), (8 * (n - k), 8),
                                           writeable=False)


def row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """One key per row of an (m, k) array of strictly increasing rows of
    points in range(n), injective and increasing in lexicographic row order.

    When C(n, k) < 2**63 the key is the int64 lexicographic rank of the row
    among the k-subsets of range(n) (see _rank_table).  Otherwise it is the
    row viewed as one np.void scalar over big-endian int32, whose byte order
    is the lexicographic order of non-negative rows.  Either way one sort or
    searchsorted on the keys serves.
    """
    k = rows.shape[1]
    table = _rank_table(n, k)
    if table is None:
        be = np.ascontiguousarray(rows, dtype=">i4")
        return be.view(np.dtype((np.void, 4 * k))).ravel()
    key = np.zeros(len(rows), dtype=np.int64)
    for i in range(k):
        key += table[i][rows[:, i]]
    return key


def sorted_rows(rows: np.ndarray, n: int):
    """(rows, repeat) for strictly increasing rows of points in range(n):
    the rows in lexicographic order, and a mask of the sorted rows equal to
    the row before them."""
    keys = row_keys(rows, n)
    order = np.argsort(keys)
    keys = keys[order]
    repeat = np.zeros(len(keys), dtype=bool)
    repeat[1:] = keys[1:] == keys[:-1]
    del keys                            # dead before the rows are gathered
    return rows[order], repeat


def _merge_at(old: np.ndarray, kept: np.ndarray, at: np.ndarray,
              values: np.ndarray) -> np.ndarray:
    """old with values inserted: values go to the slots `at`, old to the
    slots marked in `kept`, each in its own order."""
    out = np.empty(len(kept), dtype=old.dtype)
    out[at] = values
    out[kept] = old
    return out


def _row_orbit(gens, rows, start, canon, *, with_maps=False):
    """Orbit of a row under <gens>, continuing a BFS from it, with
    per-generator image maps on request.

    canon maps an (m, w) array of image rows to (canonical rows, one
    sortable key per row).  rows is the BFS so far, an (m, w) array in FIFO
    order whose last layer, rows[start:], is the frontier; a fresh start is
    one row and start 0.  Their canon gives the first rows and the seen
    keys.  Returns (rows, maps): the canonical rows in FIFO order (by BFS
    layer, then by source row, then by generator), continuing those given;
    maps is None unless with_maps is set, and then maps[k] takes row index
    -> image index under gens[k] for every row from the frontier on, so
    a caller that wants whole maps starts from one row.

    A layer is processed in consecutive slices of its frontier, about
    _ORBIT_SLICE image entries each, in source-row order.  A slice gathers
    its images source-major into one new (m, len(gens), w) block, which
    canon may sort in place (rows itself is passed as a copy), and sorts
    their keys once (default unstable argsort); runs of equal keys are
    looked up in the sorted seen keys with one searchsorted, and a run is
    numbered by its least image index, so ties sort in any order.  The
    slice's new keys are merged into the seen keys in one linear pass
    before the next slice is read, and its fresh rows are numbered in order
    of first appearance, so rows, numbering and maps are those of one pass
    over the whole layer, while only one slice's image-wide temporaries are
    live at a time.  The row index of each seen key, which only the maps
    read, is kept only when they are asked for.
    """
    rows, keys = canon(np.array(rows, ndmin=2))
    order = np.argsort(keys)
    seen_keys = keys[order]
    # the row index of each seen key, which only the maps read
    seen_ids = order.astype(np.int32) if with_maps else None
    del keys, order
    frontier = rows[start:]
    w = frontier.shape[1]
    step = max(1, _ORBIT_SLICE // (max(1, len(gens)) * w))   # frontier rows
    layers = [rows]
    maps = [[] for _ in gens] if with_maps else None
    total = len(rows)
    while len(gens) and len(frontier):
        fresh_rows = []
        for lo in range(0, len(frontier), step):
            src = frontier[lo:lo + step]
            imgs = np.empty((len(src), len(gens), w), dtype=np.result_type(*gens))
            for k, g in enumerate(gens):
                np.take(g, src, out=imgs[:, k])
            imgs, keys = canon(imgs.reshape(-1, w))
            order = np.argsort(keys)
            keys = keys[order]
            start = np.empty(len(order), dtype=bool)
            start[0] = True
            start[1:] = keys[1:] != keys[:-1]   # np.not_equal has no np.void loop
            runs = np.flatnonzero(start)
            keys = keys[runs]
            first = np.minimum.reduceat(order, runs)
            if with_maps:
                inv = np.empty(len(order), dtype=np.int32)  # image -> its run
                inv[order] = np.cumsum(start, dtype=np.int32)
                inv -= 1
            del order, start, runs
            pos = np.searchsorted(seen_keys, keys)
            new = seen_keys[np.minimum(pos, len(seen_keys) - 1)] != keys
            # the fresh rows' least image indices, in order of first appearance
            fresh = np.sort(first[new])
            at = pos[new] + np.arange(len(fresh))   # pos[new] is non-decreasing
            kept = np.ones(len(seen_keys) + len(fresh), dtype=bool)
            kept[at] = False
            if with_maps:
                key_ids = np.empty(len(keys), dtype=np.int32)
                known = ~new
                key_ids[known] = seen_ids[pos[known]]
                in_order = np.flatnonzero(new)[np.argsort(first[new])]
                key_ids[in_order] = np.arange(total, total + len(fresh), dtype=np.int32)
                for k, part in enumerate(key_ids[inv].reshape(-1, len(gens)).T):
                    maps[k].append(part)
                seen_ids = _merge_at(seen_ids, kept, at, key_ids[new])
                del inv, key_ids
            total += len(fresh)
            seen_keys = _merge_at(seen_keys, kept, at, keys[new])
            fresh_rows.append(imgs[fresh])
            del imgs
        frontier = np.concatenate(fresh_rows)
        del fresh_rows
        layers.append(frontier)
    del seen_keys, seen_ids
    rows = np.concatenate(layers)
    return rows, None if maps is None else [np.concatenate(m) for m in maps]


def line_orbit(gens, line, *, with_maps=False):
    """Orbit of a point set under <gens>, with per-generator image maps on
    request.

    Returns (lines, limg): lines is an (L, k) int32 array of row-sorted
    point sets in FIFO order (by BFS layer, then by source line, then by
    generator), row 0 the sorted base line.  limg is None unless with_maps
    is set; then limg[k] is an int32 array mapping line index -> image
    index under gens[k].  An empty line, or one with a repeated point or a
    point outside range(n), raises ValueError.

    With maps it is _row_orbit on sorted rows keyed by row_keys.  Without,
    a BFS layer of fewer than _PYTHON_LAYER image entries (frontier rows x
    generators x line size) runs in plain Python on sorted tuples, read
    through memoryviews of the int32 generators, from the base line while
    the layers stay that small; the rows found so far, with the first larger
    layer as the frontier, then go to _row_orbit, which goes on in numpy in
    the same FIFO order.
    """
    base = np.sort(np.asarray(line, dtype=np.int32))
    if not len(base):
        raise ValueError("an empty line has no line orbit")
    if not len(gens):
        return base[None, :], [] if with_maps else None
    n = len(gens[0])
    if (np.diff(base) <= 0).any() or ((base < 0) | (base >= n)).any():
        raise ValueError(f"line {tuple(base.tolist())} is not a set of "
                         f"points in range({n})")
    gens = [np.ascontiguousarray(g, dtype=np.int32) for g in gens]

    def canon(rows):
        rows.sort(axis=1)
        return rows, row_keys(rows, n)

    if with_maps:
        return _row_orbit(gens, base, 0, canon, with_maps=True)
    takes = [memoryview(g).__getitem__ for g in gens]
    rows = [tuple(base.tolist())]
    seen = set(rows)
    start, width = 0, len(gens) * len(base)     # image entries per frontier row
    while start < len(rows) and (len(rows) - start) * width < _PYTHON_LAYER:
        frontier, start = rows[start:], len(rows)
        for row in frontier:
            for take in takes:
                image = tuple(sorted(map(take, row)))
                if image not in seen:
                    seen.add(image)
                    rows.append(image)
    if start == len(rows):
        return np.array(rows, dtype=np.int32), None
    return _row_orbit(gens, np.array(rows, dtype=np.int32), start, canon)


def sigma_partition(G: PermGroup) -> np.ndarray:
    """Sigma, the one block system of the imprimitive rank 3 group G, as a
    (cells, cell size) array of sorted cells in lexicographic order, found
    once per group and kept on G as a read-only array.

    A block through 0 is {0} and a union of G_0-orbits (Dixon & Mortimer,
    Thm 1.5A), and at rank 3 only {0} | Delta for the smaller suborbit Delta
    can have at most n/2 points.  Once |B| divides n, B is checked by
    verify_block; its line orbit, then n/|B| disjoint rows, gives the cells.
    ValueError unless G is transitive of rank 3 and B is a block; nothing is
    kept then."""
    return G._kept("sigma", lambda: _find_sigma(G))


def _find_sigma(G: PermGroup) -> np.ndarray:
    """Sigma as sigma_partition describes it, found afresh."""
    if not G.is_transitive():
        raise ValueError(f"{G!r}: needs a transitive group")
    n = G.degree
    labels = G.stabilizer(0).orbit_labels()
    roots = np.flatnonzero(labels == identity(n))   # 0 and one point per suborbit
    if len(roots) != 3:
        raise ValueError(f"{G!r}: needs rank 3, got rank {len(roots)}")
    beta = roots[1 + np.argmin(np.bincount(labels)[roots[1:]])]
    block = np.flatnonzero((labels == 0) | (labels == beta))
    k = len(block)
    if n % k == 0 and G.verify_block(block):
        cells = sorted_rows(line_orbit(G.gens, block)[0], n)[0]
        cells.flags.writeable = False
        return cells
    raise ValueError(f"{G!r}: {{0}} and its smaller suborbit, {k} points, "
                     f"are not a block, so G is primitive")


def flag_transitive_on_line(G: PermGroup, line) -> bool:
    """Whether the setwise stabilizer of `line` in G is transitive on it.

    Tested without computing the stabilizer, on the flags of the line orbit:
    flag l * k + c is point c of row l.  A generator g maps it to flag
    limg[l] * k + (the rank of g[lines[l, c]] in its image row), and
    merging every flag with its image under each generator gives the flag
    orbits.  The stabilizer of row 0, the base line, is transitive on it
    exactly when flags 0..k-1 share one root.
    """
    line0 = np.sort(np.asarray(line, dtype=np.int32))
    if len(line0) == 1:
        return True
    lines, limg = line_orbit(G.gens, line0, with_maps=True)
    nl, k = lines.shape
    flags = np.arange(nl * k).reshape(nl, k)
    labels = flags.ravel()
    for g, li in zip(G.gens, limg):
        rank = np.argsort(np.argsort(g[lines], axis=1), axis=1)
        labels = merge(labels, flags, li[:, None] * k + rank)
    return not labels[:k].any()


def write_group_file(path, degree: int, gens):
    with open(path, "w") as fh:
        fh.write(f"{degree}\n")
        for g in gens:
            fh.write(" ".join(str(int(x)) for x in g) + "\n")


def read_group_file(path):
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw:
        raise ValueError(f"{path}: empty group file")
    if not raw[0].isdigit():
        raise ValueError(f"{path}: the first line must be the degree, got {raw[0]!r}")
    degree = int(raw[0])
    if degree < 1:
        raise ValueError(f"{path}: the degree must be at least 1, got {degree}")
    gens = []
    for ln in raw[1:]:
        imgs = [int(t) for t in ln.split()]
        if len(imgs) != degree:
            raise ValueError("generator length does not match degree")
        gens.append(perm_from_images(imgs))
    return degree, gens
