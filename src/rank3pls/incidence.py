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
a duplicate is a key equal to the one before it.  The point pairs on the
lines are packed into keys a * num_points + b with a < b, uint32 when
num_points**2 <= 2**32 and int64 otherwise (see pair_keys).

The point count must be a non-negative integer of at most MAX_POINTS, the
points an int32 line array can address, and the params a dict, and a JSON
document an object with "points" and "lines"; a ValueError names the one
that is not.

A structure's lines and point count are read-only, so its pair summary (the
multiplicity, the number of collinear pairs and each point's concurrence;
see pair_summary) and its components are built once, the first time a
predicate needs them, and kept: validate_pls, is_proper and fingerprint read
the summary.  The summary is read off the sorted pair keys, which take 4 or
8 bytes per point-pair incidence (uint32 or int64) while it is built;
components and point_degrees merge and count the lines slice by slice
(_line_slices), holding no array as large as the line array.  Beyond its
lines a structure keeps O(num_points) bytes.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .permcore import _BATCH_ENTRIES, classes, merge, sorted_rows

MAX_POINTS = 2**31 - 1  # the largest point count an int32 line array addresses
_LINE_SLICE = _BATCH_ENTRIES >> 2  # line entries per slice, at least


def _line_slices(lines: np.ndarray, num_points: int):
    """Consecutive slices of the lines, each of about max(_LINE_SLICE,
    num_points) entries: a pass that keeps per-point arrays costs O(points)
    per slice, so a slice is never smaller than them."""
    step = max(1, max(_LINE_SLICE, num_points) // max(1, lines.shape[1]))
    return (lines[lo:lo + step] for lo in range(0, len(lines), step))


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
    unsorted = np.zeros(len(arr), dtype=bool)
    for i in range(1, arr.shape[1]):    # one column pair at a time
        unsorted |= arr[:, i] <= arr[:, i - 1]
    _reject(arr, unsorted, "is not strictly sorted")
    _reject(arr, (arr[:, 0] < 0) | (arr[:, -1] >= num_points), "out of range")
    arr, repeat = sorted_rows(arr.astype(np.int32, copy=False), num_points)
    _reject(arr, repeat, "is a duplicate")
    arr.flags.writeable = False
    return arr


def _key_dtype(num_points: int) -> np.dtype:
    return np.dtype(np.uint32 if num_points**2 <= 2**32 else np.int64)


def pair_keys(lines: np.ndarray, num_points: int) -> np.ndarray:
    """The point pairs a < b of every line as keys a * num_points + b, in
    increasing order, a pair on m lines m times: the keys of each column
    pair i < j go into one preallocated array, which is sorted in place.

    The keys are uint32 when num_points**2 <= 2**32 (the largest key is
    num_points**2 - num_points - 1), int64 otherwise."""
    n = num_points
    lines = np.asarray(lines, dtype=np.int32)
    k = lines.shape[1] if lines.size else 0
    keys = np.empty(len(lines) * (k * (k - 1) // 2), dtype=_key_dtype(n))
    points = lines.view(np.uint32)     # the same bits: no cast in the keys
    at = 0
    for i in range(k - 1):
        a = np.multiply(points[:, i], n, dtype=keys.dtype)
        for j in range(i + 1, k):
            np.add(a, points[:, j], out=keys[at:at + len(a)])
            at += len(a)
    keys.sort()
    return keys


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the keys that differ from the key before them."""
    start = np.empty(len(keys), dtype=bool)
    if len(keys):
        start[0] = True
        np.not_equal(keys[1:], keys[:-1], out=start[1:])
    return start


@dataclass(frozen=True)
class PairSummary:
    """What the predicates read off the point pairs of a line set."""
    multiplicity: int      # the most lines through one point pair
    collinear_pairs: int   # point pairs on at least one line
    concurrence: np.ndarray  # per point, the points collinear with it


def _longest_run(keys: np.ndarray) -> int:
    """The length of the longest run of equal keys in sorted, non-empty
    keys: a run of m keys exists iff some key equals the key m - 1 places
    on, tested for m = 2, 4, 8, ... and then bisected."""
    def has_run(m):
        return m <= len(keys) and bool((keys[m - 1:] == keys[:len(keys) - m + 1]).any())

    lo, hi = 1, 2       # a run of lo keys exists; none of hi may
    while has_run(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if has_run(mid) else (lo, mid)
    return lo


def pair_summary(lines: np.ndarray, num_points: int) -> PairSummary:
    """The PairSummary of the lines, read off pair_keys.  The distinct keys
    are the run starts; the distinct pairs of each smaller point a lie
    between a * n and (a + 1) * n (one searchsorted), and the larger points,
    the keys modulo n, are counted with one bincount."""
    n = num_points
    keys = pair_keys(lines, n)
    if not len(keys):
        concurrence, mult = np.zeros(n, dtype=np.intp), 0
    else:
        mult = _longest_run(keys)
        keys = keys[_run_starts(keys)]
        cuts = np.searchsorted(keys, np.arange(1, n, dtype=keys.dtype) * n)
        concurrence = np.diff(cuts, prepend=0, append=len(keys))
        concurrence += np.bincount(np.remainder(keys, n, out=keys), minlength=n)
    concurrence.flags.writeable = False
    return PairSummary(mult, len(keys), concurrence)


class IncidenceStructure:

    def __init__(self, num_points: int, lines, params: dict | None = None):
        if (not isinstance(num_points, (int, np.integer))
                or isinstance(num_points, bool) or num_points < 0):
            raise ValueError(f"points must be a non-negative integer, "
                             f"not {num_points!r}")
        if num_points > MAX_POINTS:
            raise ValueError(f"points must be at most {MAX_POINTS}, the int32 "
                             f"line array's range, not {num_points}")
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
        labels = np.arange(self.num_points, dtype=np.int32)
        for part in _line_slices(self.lines, self.num_points):
            rest = part[:, 1:]
            labels = merge(labels, rest, np.broadcast_to(part[:, :1], rest.shape))
        return tuple(sorted(map(tuple, classes(labels)), key=lambda c: (len(c), c)))

    @property
    def num_lines(self) -> int:
        return len(self.lines)

    @property
    def line_size(self) -> int | None:
        return self.lines.shape[1] if self.num_lines else None

    def line_sizes(self) -> set[int]:
        return {self.line_size} if self.num_lines else set()

    def point_degrees(self) -> np.ndarray:
        deg = np.zeros(self.num_points, dtype=np.intp)
        for part in _line_slices(self.lines, self.num_points):
            deg += np.bincount(part.ravel(), minlength=self.num_points)
        return deg

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


def is_proper(D: IncidenceStructure) -> bool:
    """Neither a linear space nor a graph: line size >= 3 and some point
    pair lies on no line.  Read off D's pair summary, built at most once per
    structure; ValueError when D is not a partial linear space."""
    pairs = D._pair_summary
    if pairs.multiplicity > 1:
        raise ValueError("properness is defined for partial linear spaces")
    if (D.line_size or 0) < 3:
        return False
    return pairs.collinear_pairs < D.num_points * (D.num_points - 1) // 2


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
