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
