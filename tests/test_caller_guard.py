"""Every function, method and class in the library is reached from its entry
points.

The roots are the command line (`cli.main`), the public `rank3pls.__all__`,
the allow-list below and the module-level code of every module; a root name
reaches every definition of that name.  A definition is live when a live
definition or module-level code mentions it: a function or class through its
bare name or an attribute (`x.name`), a method or property (a def directly in
a class body) only through an attribute, since a bare name of the same
spelling calls something else.  Mentions are matched by spelling, not scope.
Special methods (`__init__`, `__eq__`, ...) are called by the language, so
their bodies count as their class's.  A definition that no root reaches is
flagged, and so is everything only it mentions: it gets a live caller, goes,
or joins the allow-list with a reason.

Two inventories ride along.  Every parameter with a default is listed in
DEFAULTS with a file that calls the function with another value; a default
no caller overrides is a constant.  Every module-level name that no code in
the library reads is listed in MODULE_DATA with a reason.
"""

import ast
import collections
from pathlib import Path
from typing import NamedTuple

import rank3pls

SRC = Path(__file__).resolve().parents[1] / "src" / "rank3pls"

ALLOWED = {
    # perfbench/tracer.py wraps these by name and fails to install without them
    "minimal_block": "wrapped by perfbench/tracer.py",
    "subgroup_of_index": "wrapped by perfbench/tracer.py",
}
ROOTS = {"main", *rank3pls.__all__}

# module.[class.]function.parameter -> a file that passes another value
DEFAULTS = {
    "catalog._omega_builtin.slow": "src/rank3pls/catalog.py",
    "catalog.get_builtin.seed": "perfbench/workloads.py",
    "cli.main.argv": "tests/test_cli.py",
    "families.expected_counts.n": "src/rank3pls/families.py",
    "families.expected_counts.q": "src/rank3pls/families.py",
    "families.expected_counts.q0": "src/rank3pls/families.py",
    "families.expected_counts.r": "src/rank3pls/families.py",
    "families.expected_counts.j": "src/rank3pls/cli.py",
    "families.usub.r": "src/rank3pls/pipeline.py",
    "families.usub.seed": "perfbench/workloads.py",
    "incidence.IncidenceStructure.__init__.params": "src/rank3pls/incidence.py",
    "matsemi.induced_order_bound.form": "src/rank3pls/omega.py",
    "omega.OmegaSpace.__init__.form": "src/rank3pls/omega.py",
    "omega.projective_points.vectors": "src/rank3pls/catalog.py",
    "omega.induced_group.name": "src/rank3pls/omega.py",
    "omega.induced_group.base_hint": "src/rank3pls/catalog.py",
    "permcore._Level.extend_orbit.first_gen": "src/rank3pls/permcore.py",
    "permcore.PermGroup.__init__.order_bound": "src/rank3pls/omega.py",
    "permcore.PermGroup.__init__.base_hint": "src/rank3pls/omega.py",
    "permcore.PermGroup.__init__.name": "src/rank3pls/omega.py",
    "permcore.PermGroup._sift.start": "tests/tests_schreier_oracle.py",
    "permcore.PermGroup.subgroup_of_index.rng": "tools/gen_sporadic_data.py",
    "permcore.PermGroup.subgroup_of_index.accept": "tools/gen_sporadic_data.py",
    "permcore._row_orbit.with_maps": "src/rank3pls/permcore.py",
    "permcore.line_orbit.with_maps": "src/rank3pls/permcore.py",
    "pipeline.PipelineResult.structures.connected": "src/rank3pls/pipeline.py",
    "pipeline.PipelineResult.distinct_structures.connected": "src/rank3pls/pipeline.py",
    "pipeline.PipelineResult.line_signature.connected": "src/rank3pls/cli.py",
    "pipeline.devillers_enumerate.name": "src/rank3pls/cli.py",
    "pipeline.devillers_enumerate.slow": "src/rank3pls/cli.py",
    "pipeline.run_pipeline.slow": "src/rank3pls/pipeline.py",
    "pipeline.reproduce_table.max_degree": "src/rank3pls/cli.py",
    "pipeline.reproduce_table.slow": "src/rank3pls/cli.py",
}

# module-level names that no library code reads
MODULE_DATA = {
    "NEGATIVE_CONTROLS": "the specs whose rank-3 flag must come out false, "
                         "run by tests/test_omega.py and tests/test_acceptance.py",
    "FLAG_TRANSITIVE_EXPECT": "the classification's flag-transitive blocks per "
                              "space, read by tests/test_pipeline.py and "
                              "tests/test_acceptance.py",
}


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


class _Unit(NamedTuple):
    """A def or class but a special method, or a module's own code (line 0,
    name None), with the bare names and attributes it mentions outside the
    units nested in it."""
    module: str
    line: int
    name: str | None
    is_method: bool
    names: set
    attrs: set


def _units(trees) -> list[_Unit]:
    units = []

    def visit(node, unit, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not (in_class and child.name.startswith("__")
                             and child.name.endswith("__")):
                sub = _Unit(unit.module, child.lineno, child.name, in_class, set(), set())
                units.append(sub)
                visit(child, sub, isinstance(child, ast.ClassDef))
                continue
            if isinstance(child, ast.Name):
                unit.names.add(child.id)
            elif isinstance(child, ast.Attribute):
                unit.attrs.add(child.attr)
            visit(child, unit, in_class and not isinstance(child, ast.FunctionDef))

    for module, tree in trees.items():
        units.append(_Unit(module, 0, None, False, set(), set()))
        visit(tree, units[-1], False)
    return units


def _unreached(trees, roots):
    """(module, line, name) of every definition no root reaches."""
    units = _units(trees)
    by_name = collections.defaultdict(list)
    for i, unit in enumerate(units):
        by_name[unit.name].append(i)
    live = [i for i, unit in enumerate(units) if unit.line == 0 or unit.name in roots]
    seen = set(live)
    while live:
        unit = units[live.pop()]
        reached = [i for name in unit.names for i in by_name.get(name, ())
                   if not units[i].is_method]
        reached += [i for attr in unit.attrs for i in by_name.get(attr, ())]
        for i in set(reached) - seen:
            seen.add(i)
            live.append(i)
    return sorted(unit[:3] for i, unit in enumerate(units) if i not in seen)


def test_every_definition_has_a_caller_in_src():
    unreached = [f"{module}:{line} {name}"
                 for module, line, name in _unreached(_trees(), ROOTS | ALLOWED.keys())]
    assert unreached == []


def test_allow_list_names_only_existing_uncalled_definitions():
    """A stale allow-list entry would hide a future dead definition."""
    unreached = {name for _, _, name in _unreached(_trees(), ROOTS)}
    assert sorted(name for name in ALLOWED if name not in unreached) == []


def test_guard_follows_calls_out_of_dead_code():
    """A name that only unreached code mentions is unreached too; a special
    method's body is its class's, and a bare name reaches no method."""
    source = '''
def root():
    return C(n)

class C:
    def __init__(self):
        self.m()

    def m(self):
        pass

    def n(self):
        return a()

def a():
    return b()

def b():
    pass
'''
    flagged = _unreached({"mod.py": ast.parse(source)}, {"root"})
    assert [name for _, _, name in flagged] == ["n", "a", "b"]


def _defaults(trees):
    """module.[class.]function.parameter of every parameter with a default."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):]
                with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                                 if d is not None]
                out.extend(f"{prefix}{child.name}.{a.arg}" for a in with_default)
                visit(child, f"{prefix}{child.name}.")

    for module, tree in trees.items():
        visit(tree, f"{module.removesuffix('.py')}.")
    return out


def test_every_default_has_a_caller_that_overrides_it():
    """A default joins DEFAULTS with a file that calls its function, and an
    entry whose parameter is gone leaves."""
    found = _defaults(_trees())
    assert sorted(found) == sorted(DEFAULTS)
    root = SRC.parents[1]
    for key, path in DEFAULTS.items():
        parts = key.split(".")
        name = parts[-3] if parts[-2] == "__init__" else parts[-2]
        assert f"{name}(" in (root / path).read_text(), key


def test_every_module_level_name_is_read():
    """A module-level assignment that no library code reads, dunders aside,
    is dead unless MODULE_DATA gives its reason."""
    trees = _trees()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assigned = {target.id for tree in trees.values() for stmt in tree.body
                if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                for node in (stmt.targets if isinstance(stmt, ast.Assign)
                             else [stmt.target])
                for target in ast.walk(node) if isinstance(target, ast.Name)}
    unread = {name for name in assigned - read if not name.startswith("__")}
    assert sorted(unread) == sorted(MODULE_DATA)
