"""Incidence structures and their verification predicates.

A line set is one (L, k) int32 array: every row strictly increasing, the rows
in lexicographic order, no row repeated, and all lines of one size k.
Ingestion checks all of it for every input, orbit output included (a
violation from a constructor is a bug, not data), in this order: equal sizes,
at least 2 points, strictly sorted rows, points in range, no duplicate.  The
rows are put in order by sorting one key per row, `permcore.row_keys`: the
row's lexicographic rank among the k-subsets of the points as an int64 when
C(num_points, k) < 2**63, and the row's big-endian int32 bytes as one np.void
otherwise, where a rank could overflow (7-point lines on 2044 points, say);
a duplicate is a key equal to the one before it.  The predicates work on the
whole array; the point pairs on the lines are packed into keys
a * num_points + b with a < b, uint32 when num_points**2 <= 2**32 and
int64 otherwise (see pair_counts).

A structure's lines and point count are read-only, so its pair table
(pair_counts of its lines) and its components are built once, the first time
a predicate needs them, and kept: validate_pls, is_proper, components,
fingerprint and to_dot all read the same table, sorted once.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .permcore import classes, merge, sorted_rows


def _reject(lines: np.ndarray, bad: np.ndarray, what: str):
    """Raise ValueError naming the first line flagged in the mask `bad`."""
    idx = np.flatnonzero(bad)
    if idx.size:
        raise ValueError(f"line {tuple(lines[idx[0]].tolist())} {what}")


def _line_array(lines, num_points: int) -> np.ndarray:
    try:
        arr = np.asarray(lines)
    except ValueError:
        raise ValueError("all lines must have the same size") from None
    if len(arr) == 0:
        return np.empty((0, 0), dtype=np.int32)
    if arr.ndim != 2 or arr.dtype.kind not in "iu":
        raise ValueError("lines must be equal-size sequences of point indices")
    if arr.shape[1] < 2:
        raise ValueError(f"line {tuple(arr[0].tolist())} has fewer than 2 points")
    _reject(arr, (np.diff(arr, axis=1) <= 0).any(axis=1), "is not strictly sorted")
    _reject(arr, (arr[:, 0] < 0) | (arr[:, -1] >= num_points), "out of range")
    arr, repeat = sorted_rows(arr.astype(np.int32, copy=False), num_points)
    _reject(arr, repeat, "is a duplicate")
    arr.flags.writeable = False
    return arr


def pair_counts(lines: np.ndarray, num_points: int):
    """(keys, counts): the collinear point pairs a < b as increasing keys
    a * num_points + b, and the number of lines through each pair as int32.

    The keys are uint32 when num_points**2 <= 2**32 (the largest key is
    num_points**2 - num_points - 1), int64 otherwise.  They are built in
    one preallocated array, one point pair of the lines at a time with the
    arithmetic in the key dtype, and sorted in place with numpy's default
    (unstable) sort; each count is the length of a run of equal keys."""
    n = num_points
    dtype = np.dtype(np.uint32 if n * n <= 2**32 else np.int64)
    i, j = np.triu_indices(lines.shape[1], 1)
    keys = np.empty((len(i), len(lines)), dtype=dtype)
    for key, a, b in zip(keys, i, j):
        np.multiply(lines[:, a], n, out=key, dtype=dtype, casting="unsafe")
        np.add(key, lines[:, b], out=key, dtype=dtype, casting="unsafe")
    keys = keys.ravel()
    keys.sort()
    edge = np.empty(len(keys) + 1, dtype=bool)  # run starts, then the end
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    counts = np.empty(len(bounds) - 1, dtype=np.int32)
    np.subtract(bounds[1:], bounds[:-1], out=counts, casting="unsafe")
    return keys[bounds[:-1]], counts


class IncidenceStructure:

    def __init__(self, num_points: int, lines, params: dict | None = None):
        self._num_points = num_points
        self._lines = _line_array(lines, num_points)
        self.params = dict(params or {})

    @property
    def num_points(self) -> int:
        return self._num_points

    @property
    def lines(self) -> np.ndarray:
        return self._lines

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """pair_counts of the lines, read-only."""
        keys, counts = pair_counts(self.lines, self.num_points)
        keys.flags.writeable = counts.flags.writeable = False
        return keys, counts

    @cached_property
    def _components(self) -> tuple[tuple[int, ...], ...]:
        """The components as components() returns them, as tuples."""
        rest = self.lines[:, 1:]
        labels = merge(np.arange(self.num_points, dtype=np.int32), rest,
                       np.broadcast_to(self.lines[:, :1], rest.shape))
        return tuple(sorted(map(tuple, classes(labels)), key=lambda c: (len(c), c)))

    @property
    def num_lines(self) -> int:
        return len(self.lines)

    @property
    def line_size(self) -> int | None:
        return self.lines.shape[1] if self.num_lines else None

    def line_sizes(self) -> set[int]:
        return {self.line_size} if self.num_lines else set()

    def line_set(self) -> frozenset:
        return frozenset(map(tuple, self.lines.tolist()))

    def point_degrees(self) -> np.ndarray:
        return np.bincount(self.lines.ravel(), minlength=self.num_points)

    def __repr__(self):
        return (f"IncidenceStructure({self.num_points} points, "
                f"{self.num_lines} lines)")

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "points": self.num_points,
            "line_size": self.line_size,
            "lines": self.lines.tolist(),
            "params": self.params,
        })

    @classmethod
    def from_json(cls, text: str) -> "IncidenceStructure":
        data = json.loads(text)
        return cls(data["points"], data["lines"], data.get("params"))

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(f"# points={self.num_points}\n")
        np.savetxt(out, self.lines, fmt="%d", delimiter=",")
        return out.getvalue()

    def to_dot(self) -> str:
        """Collinearity graph for small instances."""
        if self.num_points > 200:
            raise ValueError("DOT export is limited to 200 points")
        a, b = np.divmod(self._pairs[0], self.num_points)
        body = "\n".join(map("  {} -- {};".format, a.tolist(), b.tolist()))
        return "graph collinearity {\n" + body + "\n}\n"


@dataclass
class PLSReport:
    is_pls: bool
    multiplicity: int
    line_size_constant: bool
    point_degree_constant: bool
    line_size: int | None = None
    collinear_pairs: int = 0


def validate_pls(D: IncidenceStructure) -> PLSReport:
    """Exact multiplicity over all point pairs via a pair -> count table."""
    deg = D.point_degrees()
    deg_const = bool((deg == deg[0]).all()) if D.num_points else True
    if not D.num_lines:
        return PLSReport(True, 0, True, deg_const, None, 0)
    counts = D._pairs[1]
    mult = int(counts.max())
    return PLSReport(mult <= 1, mult, True, deg_const, D.line_size, len(counts))


def multiplicity_bruteforce(D: IncidenceStructure) -> int:
    """Independent per-pair scan; quadratic, for structures <= ~500 points."""
    lines = D.lines.tolist()
    best = 0
    for i in range(D.num_points):
        through = [set(l) for l in lines if i in l]
        for j in range(i + 1, D.num_points):
            c = sum(1 for s in through if j in s)
            best = max(best, c)
    return best


def is_proper(D: IncidenceStructure, rep: PLSReport | None = None) -> bool:
    """Neither a linear space nor a graph: line size >= 3 and some point
    pair lies on no line.  `rep`, when given, must be validate_pls(D); it
    is used instead of validating D again.  Either way D's pair table is
    built at most once, so passing `rep` saves only the report."""
    if rep is None:
        rep = validate_pls(D)
    if not rep.is_pls:
        raise ValueError("properness is defined for partial linear spaces")
    if (D.line_size or 0) < 3:
        return False
    all_pairs = D.num_points * (D.num_points - 1) // 2
    return rep.collinear_pairs < all_pairs


def components(D: IncidenceStructure) -> list[list[int]]:
    """Connected components as sorted point lists, ordered by (size, points):
    one merge of every point of a line with the line's first point, made
    once per structure."""
    return [list(c) for c in D._components]


def is_connected(D: IncidenceStructure) -> bool:
    return len(components(D)) == 1


def fingerprint(D: IncidenceStructure) -> tuple:
    """Isomorphism-invariant summary: equal structures (same labelling or
    relabelled) have equal fingerprints."""
    n = D.num_points
    a, b = np.divmod(D._pairs[0], n)
    concurrence = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    comp_sizes = tuple(sorted(len(c) for c in D._components))
    return (n, D.num_lines, tuple(sorted(D.line_sizes())),
            tuple(np.sort(D.point_degrees()).tolist()),
            tuple(np.sort(concurrence).tolist()), comp_sizes)


def preserved_by(D: IncidenceStructure, gens) -> bool:
    """True iff each generator (a permutation of the points) maps the line
    set onto itself."""
    for g in gens:
        if len(g) != D.num_points:
            raise ValueError("generator degree does not match the point count")
        if not np.array_equal(relabel(D, g).lines, D.lines):
            return False
    return True


def relabel(D: IncidenceStructure, perm) -> IncidenceStructure:
    """The image of D under the point permutation perm."""
    return IncidenceStructure(
        D.num_points, np.sort(np.asarray(perm)[D.lines], axis=1), D.params)
