"""Every function, class and method defined in ``src/symquot`` is used by
code outside the tests, so API that only the tests reach cannot come back.

The match is by name: a definition counts as used when its name occurs as
a ``Name``, an ``Attribute`` or an import alias anywhere in ``src/``,
``tools/``, ``demos/`` or ``perfbench/``, except in
``symquot/__init__.py``, whose re-exports are not uses, and in the
benchmark's own ``test_*.py``.  So the match cannot see a method whose
name is also used for something else (a ``derived`` or an ``elements``
method would pass while any variable of that name exists outside the
tests); it only catches names that nothing outside the tests mentions.
For the names known to collide (``COLLIDING``), every method of that name
must be listed in ``COLLIDING_METHODS`` with its caller instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symquot"
USERS = ("src", "tools", "demos", "perfbench")

# name -> why it stays with no caller outside the tests
ALLOWED = {
    "graph_from_graph6": "reads what graph_to_graph6 writes; the round-trip tests check both",
    "graph_from_dimacs": "reads what graph_to_dimacs writes; the round-trip tests check both",
    "graph_from_json": "reads what graph_to_json writes; classify --from will read it",
}


# method names that attributes or other classes' methods also use, so the
# name match reads them as used whatever the method
COLLIDING = {"as_json", "degree"}

# "Class.method" -> the caller outside the tests, for every method whose
# name is in COLLIDING
COLLIDING_METHODS = {
    "Permutation.degree": "a property: groups and designs read a permutation's degree",
    "TripleParams.as_json": "cli prints a triple's parameters",
    "ClassificationVerdict.as_json": "cli and perfbench print verdicts",
}


def _defined_names() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names.add(node.name)
    return names


def _used_names() -> set[str]:
    used = set()
    skip = PACKAGE / "__init__.py"
    for top in USERS:
        for path in (ROOT / top).rglob("*.py"):
            if path == skip or path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
                    if node.asname:
                        used.add(node.asname)
    return used


def test_every_definition_has_a_caller_outside_the_tests():
    unused = _defined_names() - _used_names()
    assert sorted(unused - set(ALLOWED)) == []


def test_allow_list_names_only_definitions_without_callers():
    assert set(ALLOWED) <= _defined_names() - _used_names()


def test_methods_of_colliding_names_have_callers():
    methods = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                methods.update(
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in COLLIDING
                )
    assert methods == set(COLLIDING_METHODS)
