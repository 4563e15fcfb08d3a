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
int64 otherwise (see pair_keys).

The point count must be a non-negative integer and the params a dict, and
a JSON document an object with "points" and "lines"; a ValueError names the
one that is not.

A structure's lines and point count are read-only, so its pair summary (the
multiplicity, the number of collinear pairs and each point's concurrence;
see pair_summary) and its components are built once, the first time a
predicate needs them, and kept: validate_pls, is_proper and fingerprint read
the summary.  The sorted pair keys it is read off are freed once it is
built, so beyond its lines a structure keeps O(num_points) bytes; to_dot,
which needs the pairs themselves, sorts them again with pair_keys.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .permcore import _BATCH_ENTRIES, classes, merge, sorted_rows

_PAIR_SLICE = _BATCH_ENTRIES  # pair keys per slice of pair_summary


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
    if arr.ndim and not len(arr):
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


def pair_keys(lines: np.ndarray, num_points: int) -> np.ndarray:
    """The point pairs a < b of every line as keys a * num_points + b, in
    increasing order, a pair on m lines m times.

    The keys are uint32 when num_points**2 <= 2**32 (the largest key is
    num_points**2 - num_points - 1), int64 otherwise.  They are built in
    one preallocated array, one point pair of the lines at a time with the
    arithmetic in the key dtype, and sorted in place with numpy's default
    (unstable) sort."""
    n = num_points
    dtype = np.dtype(np.uint32 if n * n <= 2**32 else np.int64)
    i, j = np.triu_indices(lines.shape[1], 1)
    keys = np.empty((len(i), len(lines)), dtype=dtype)
    for key, a, b in zip(keys, i, j):
        np.multiply(lines[:, a], n, out=key, dtype=dtype, casting="unsafe")
        np.add(key, lines[:, b], out=key, dtype=dtype, casting="unsafe")
    keys = keys.ravel()
    keys.sort()
    return keys


def _run_starts(keys: np.ndarray, before=None) -> np.ndarray:
    """Mask of the keys that differ from the key before them; the first
    differs unless it equals `before`."""
    start = np.empty(len(keys), dtype=bool)
    if len(keys):
        start[0] = before is None or keys[0] != before
        np.not_equal(keys[1:], keys[:-1], out=start[1:])
    return start


@dataclass(frozen=True)
class PairSummary:
    """What the predicates read off the point pairs of a line set."""
    multiplicity: int      # the most lines through one point pair
    collinear_pairs: int   # point pairs on at least one line
    concurrence: np.ndarray  # per point, the points collinear with it


def pair_summary(lines: np.ndarray, num_points: int) -> PairSummary:
    """The PairSummary of the lines, read off pair_keys in one pass over
    slices of _PAIR_SLICE keys.  Each slice finds its own run starts (a run
    may begin in an earlier slice), run lengths and distinct pairs, whose
    two points it counts with one bincount each; the run still open at a
    slice's end carries its length into the next."""
    n = num_points
    keys = pair_keys(lines, n)
    concurrence = np.zeros(n, dtype=np.int64)
    mult = pairs = open_run = 0
    for lo in range(0, len(keys), _PAIR_SLICE):
        part = keys[lo:lo + _PAIR_SLICE]
        at = np.flatnonzero(_run_starts(part, keys[lo - 1] if lo else None))
        if not len(at):
            open_run += len(part)
            continue
        mult = max(mult, open_run + int(at[0]), int(np.diff(at).max(initial=0)))
        open_run = len(part) - int(at[-1])
        pairs += len(at)
        a, b = np.divmod(part[at], n)
        concurrence += np.bincount(a, minlength=n)
        concurrence += np.bincount(b, minlength=n)
    concurrence.flags.writeable = False
    return PairSummary(max(mult, open_run), pairs, concurrence)


class IncidenceStructure:

    def __init__(self, num_points: int, lines, params: dict | None = None):
        if (not isinstance(num_points, (int, np.integer))
                or isinstance(num_points, bool) or num_points < 0):
            raise ValueError(f"points must be a non-negative integer, "
                             f"not {num_points!r}")
        if not isinstance(params, (dict, type(None))):
            raise ValueError(f"params must be a dict, not {params!r}")
        self._num_points = int(num_points)
        self._lines = _line_array(lines, self._num_points)
        self.params = dict(params or {})

    @property
    def num_points(self) -> int:
        return self._num_points

    @property
    def lines(self) -> np.ndarray:
        return self._lines

    @cached_property
    def _pair_summary(self) -> PairSummary:
        """pair_summary of the lines."""
        return pair_summary(self.lines, self.num_points)

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
        if not isinstance(data, dict) or not {"points", "lines"} <= data.keys():
            raise ValueError('a structure is a JSON object with "points" and "lines"')
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
        keys = pair_keys(self.lines, self.num_points)
        a, b = np.divmod(keys[_run_starts(keys)], self.num_points)
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
    """Exact multiplicity over all point pairs, from the pair summary."""
    deg = D.point_degrees()
    deg_const = bool((deg == deg[0]).all()) if D.num_points else True
    if not D.num_lines:
        return PLSReport(True, 0, True, deg_const, None, 0)
    pairs = D._pair_summary
    return PLSReport(pairs.multiplicity <= 1, pairs.multiplicity, True,
                     deg_const, D.line_size, pairs.collinear_pairs)


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
    is used instead of validating D again.  Either way D's pair summary is
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
    comp_sizes = tuple(sorted(len(c) for c in D._components))
    return (D.num_points, D.num_lines, tuple(sorted(D.line_sizes())),
            tuple(np.sort(D.point_degrees()).tolist()),
            tuple(np.sort(D._pair_summary.concurrence).tolist()), comp_sizes)


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
