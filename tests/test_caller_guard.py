"""Every function, method and class in the library has a caller in src/.

A definition under src/rank3pls/ passes when its name appears somewhere in
src/ as a bare name or as an attribute (`x.name`), or when it is on the
allow-list below.  Special methods (`__init__`, `__eq__`, ...) are called by
the language and are skipped.  A new definition that nothing in the library
uses either gets a caller, goes, or joins an allow-list group with a reason.
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
        "multiplicity_bruteforce", "induced_kernel_facts", "singer_cycle",
        "apply", "is_isotropic", "canonicalize", "line_set", "sigma_blocks")},
    # IncidenceStructure's Graphviz export, an output format for readers
    "to_dot": "Graphviz export",
}


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def _references(trees):
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_definition_has_a_caller_in_src():
    trees = _trees()
    used = _references(trees)
    uncalled = [f"{module}:{line} {name}"
                for module, tree in trees.items()
                for name, line in _definitions(tree)
                if name not in used and name not in ALLOWED]
    assert uncalled == []


def test_allow_list_names_only_existing_uncalled_definitions():
    """A stale allow-list entry would hide a future dead definition."""
    trees = _trees()
    defined = {name for tree in trees.values() for name, _ in _definitions(tree)}
    used = _references(trees)
    stale = sorted(name for name in ALLOWED
                   if name not in rank3pls.__all__
                   and (name not in defined or name in used))
    assert stale == []
