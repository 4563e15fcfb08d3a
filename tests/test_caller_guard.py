"""Every function, method and class in the library has a caller in src/.

A function or class under src/rank3pls/ passes when its name appears
somewhere in src/ as a bare name or as an attribute (`x.name`); a method or
property (a def directly in a class body) passes only through an attribute,
since a bare name of the same spelling calls something else.  Either passes
when it is on the allow-list below.  Special methods (`__init__`, `__eq__`,
...) are called by the language and are skipped.  A new definition that
nothing in the library uses either gets a caller, goes, or joins an
allow-list group with a reason.
"""

import ast
from pathlib import Path

import rank3pls

SRC = Path(__file__).resolve().parents[1] / "src" / "rank3pls"

ALLOWED = {
    # the package's public API, for readers of the library
    **{name: "rank3pls.__all__" for name in rank3pls.__all__},
    # perfbench/tracer.py wraps these by name and fails to install without them
    "minimal_block": "wrapped by perfbench/tracer.py",
    "subgroup_of_index": "wrapped by perfbench/tracer.py",
    # test oracles and tool helpers kept in src/ (ROADMAP Direction H)
    **{name: "test oracle or tool helper" for name in (
        "setwise_stabilizer", "normal_subgroup_of_index",
        "apply", "is_isotropic", "line_set")},
    # IncidenceStructure's Graphviz export, an output format for readers
    "to_dot": "Graphviz export",
}


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _definitions(tree):
    """(name, line, is_method) for every def and class but special methods."""
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno, id(node) in methods


def _uncalled(trees):
    """(module, line, name) of every definition src/ never refers to."""
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return [(module, line, name)
            for module, tree in trees.items()
            for name, line, is_method in _definitions(tree)
            if name not in attrs and (is_method or name not in names)]


def test_every_definition_has_a_caller_in_src():
    uncalled = [f"{module}:{line} {name}"
                for module, line, name in _uncalled(_trees())
                if name not in ALLOWED]
    assert uncalled == []


def test_allow_list_names_only_existing_uncalled_definitions():
    """A stale allow-list entry would hide a future dead definition."""
    uncalled = {name for _, _, name in _uncalled(_trees())}
    stale = sorted(name for name in ALLOWED
                   if name not in rank3pls.__all__ and name not in uncalled)
    assert stale == []
