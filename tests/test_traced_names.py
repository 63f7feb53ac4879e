"""Every name the benchmark traces still exists where its tracer looks.

``perfbench/spans.py`` rebinds each ``TRACED`` entry at run time: a dotted
name through its class's own ``__dict__``, any other name as an attribute
of the layer's module.  The table is read from the file's syntax tree, so
nothing under ``perfbench/`` is imported or written.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced() -> list[tuple[str, str]]:
    for node in ast.parse(SPANS.read_text(), str(SPANS)).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED":
            table = ast.literal_eval(node.value)
            return [(layer, dotted) for layer, names in table for dotted in names]
    raise AssertionError(f"no TRACED table in {SPANS}")


@pytest.mark.parametrize("layer,dotted", _traced())
def test_traced_name_resolves(layer, dotted):
    module = importlib.import_module(f"symquot.{layer}")
    cls_name, _, attr = dotted.rpartition(".")
    if cls_name:
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr, None))
