"""Span tracer for the benchmark's traced runs.

The tracer wraps the entry points of the rank3pls layers from outside the
library.  Each wrapped call appends one span (name, start, end, parent) to an
in-memory list, and an optional counter hook records the work the call did
(lines found, pair keys checked, ...).  Nothing is written while the workload
runs; `layer_metrics` reduces the spans at the end, where a span's self time
is its duration minus the durations of its child spans.

A function is replaced in its defining module or class and under every other
name that binds the same object inside the package: modules that did
`from .permcore import line_orbit`, and module-level dicts such as
`pipeline._FAMILY_BUILDERS`.  A property is replaced by a property over the
wrapped getter.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

PACKAGE = "rank3pls"
LAYERS = ("catalog", "permcore", "omega", "families", "incidence", "pipeline")


def _pair_keys(rep, D) -> int:
    if rep.line_size_constant and rep.line_size is not None:
        return D.num_lines * rep.line_size * (rep.line_size - 1) // 2
    return sum(len(l) * (len(l) - 1) // 2 for l in D.lines)


def _pipeline_counts(counts, res):
    tested = [e for e in res.entries if not e.filtered]
    counts["pipeline.blocks"] += len(res.entries)
    counts["pipeline.blocks_filtered"] += len(res.entries) - len(tested)
    counts["pipeline.flag_tests"] += len(tested)
    counts["pipeline.flag_transitive"] += sum(e.flag_transitive for e in tested)
    counts["pipeline.structures"] += sum(e.structure is not None for e in tested)


def _family_lines(counts, D):
    # CountOnly results enumerate only their sampled lines
    lines = D.num_lines if hasattr(D, "num_lines") else len(D.sample_lines)
    counts["families.lines"] += lines


# (module, attribute path, span name, counter hook(counts, args, result))
# A span name of None records no span, only the counter.
TARGETS = [
    ("catalog", "get_builtin", "catalog.get_builtin", None),
    ("permcore", "PermGroup.__init__", None,
     lambda c, a, r: c.update(["permcore.groups_built"])),
    ("permcore", "PermGroup.order", "permcore.order", None),
    ("permcore", "PermGroup.contains", "permcore.contains", None),
    ("permcore", "PermGroup.stabilizer", "permcore.stabilizer", None),
    ("permcore", "PermGroup.subgroup_of_index", "permcore.subgroup_of_index", None),
    ("permcore", "PermGroup.coset_action", "permcore.coset_action", None),
    ("permcore", "PermGroup.all_blocks_through", "permcore.all_blocks_through", None),
    ("permcore", "PermGroup.minimal_block", "permcore.minimal_block", None),
    ("permcore", "PermGroup.block_join", "permcore.block_join", None),
    ("permcore", "PermGroup.verify_block", "permcore.verify_block", None),
    ("permcore", "line_orbit", "permcore.line_orbit",
     lambda c, a, r: c.update({"permcore.line_orbit.lines": len(r[0])})),
    ("permcore", "flag_transitive_on_line", "permcore.flag_transitive_on_line",
     lambda c, a, r: c.update({"permcore.flag_transitive_on_line.true": int(r)})),
    ("omega", "build_omega", "omega.build_omega", None),
    ("omega", "induce_action", "omega.induce_action",
     lambda c, a, r: c.update({"omega.induce_action.images": len(a[0]) * len(r)})),
    ("omega", "classify_action", "omega.classify_action", None),
    *[("families", fn, "families.build", lambda c, a, r: _family_lines(c, r))
      for fn in ("ag_star", "delta", "lsub", "dlsub", "usub", "agu_star")],
    ("incidence", "IncidenceStructure.__init__", "incidence.IncidenceStructure",
     lambda c, a, r: c.update({"incidence.IncidenceStructure.lines": a[0].num_lines})),
    ("incidence", "validate_pls", "incidence.validate_pls",
     lambda c, a, r: c.update({"incidence.validate_pls.pair_keys": _pair_keys(r, a[0])})),
    ("incidence", "is_proper", "incidence.is_proper", None),
    ("incidence", "components", "incidence.components", None),
    ("incidence", "fingerprint", "incidence.fingerprint", None),
    ("pipeline", "reproduce_table", "pipeline.reproduce_table", None),
    ("pipeline", "negative_controls", "pipeline.negative_controls", None),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("pipeline", "devillers_enumerate", "pipeline.devillers_enumerate",
     lambda c, a, r: _pipeline_counts(c, r)),
    ("pipeline", "sigma_partition", "pipeline.sigma_partition", None),
    ("pipeline", "classify_blocks", "pipeline.classify_blocks", None),
]

# metrics with a span: <name>.s (self time) and <name>.calls
SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS if name})
COUNT_NAMES = ["permcore.groups_built", "permcore.line_orbit.lines",
               "permcore.flag_transitive_on_line.true", "omega.induce_action.images",
               "families.lines", "incidence.IncidenceStructure.lines",
               "incidence.validate_pls.pair_keys", "pipeline.blocks",
               "pipeline.blocks_filtered", "pipeline.flag_tests",
               "pipeline.flag_transitive", "pipeline.structures"]


class Tracer:

    def __init__(self):
        self.spans: list = []     # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name, fn, hook):
        spans, counts, open_ = self.spans, self.counts, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
                open_.append(len(spans))
                spans.append(span)
                span[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    open_.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target; import the package first."""
        mods = {k: v for k, v in sys.modules.items()
                if k == PACKAGE or k.startswith(PACKAGE + ".")}
        for modname, path, name, hook in TARGETS:
            owner = mods[f"{PACKAGE}.{modname}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            if isinstance(orig, property):
                setattr(owner, attr, property(self.wrap(name, orig.fget, hook)))
                continue
            new = self.wrap(name, orig, hook)
            setattr(owner, attr, new)
            if outer:
                continue
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, new)
                    elif isinstance(val, dict):
                        for k, v in val.items():
                            if v is orig:
                                val[k] = new

    def layer_metrics(self) -> dict:
        """Self time and calls per span name, per-layer self-time totals,
        the counters, and the two pipeline ratios."""
        self_s = Counter()
        calls = Counter()
        for name, t0, t1, parent in self.spans:
            dur = t1 - t0
            self_s[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = (self_s[name], "s")
            out[f"{name}.calls"] = (calls[name], "count")
        for layer in LAYERS:
            out[f"{layer}.s"] = (sum(v for k, v in self_s.items()
                                     if k.startswith(layer + ".")), "s")
        for name in COUNT_NAMES:
            out[name] = (self.counts[name], "count")
        c = self.counts
        out["pipeline.filter_ratio"] = (
            c["pipeline.blocks_filtered"] / c["pipeline.blocks"]
            if c["pipeline.blocks"] else 0.0, "ratio")
        out["pipeline.flag_yield"] = (
            c["pipeline.flag_transitive"] / c["pipeline.flag_tests"]
            if c["pipeline.flag_tests"] else 0.0, "ratio")
        out["trace.spans"] = (len(self.spans), "count")
        return out
