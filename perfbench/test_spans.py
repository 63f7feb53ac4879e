"""Tests of the benchmark's own span arithmetic and wrapper lifetime.

    python3 -m pytest perfbench/test_spans.py
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402


def ticking(*times):
    it = iter(times)
    return lambda: next(it)


def test_nested_and_back_to_back_children():
    # root [0, 100] holds a [10, 40] and b [40, 70]; a holds c [15, 25]
    rec = spans.Recorder(ticking(0, 10, 15, 25, 40, 40, 70, 100))
    root = rec.open("root")
    a = rec.open("a")
    c = rec.open("c")
    rec.close(c)
    rec.close(a)
    b = rec.open("b")
    rec.close(b)
    rec.close(root)
    selfs = spans.self_times(rec.spans)
    assert selfs == {root[0]: 40, a[0]: 20, c[0]: 10, b[0]: 30}
    assert {s[2] for s in rec.spans} == {root[0]}
    assert spans.self_sum_mismatches(rec.spans) == []


def test_overlapping_children_counted_once():
    assert spans.covered_ns(0, 100, [(10, 50), (30, 60), (55, 58), (90, 120)]) == 60
    # a parent span with two children from different processes that overlap
    tree = [
        [0, None, 0, "root", 0, 100, False],
        [1, 0, 0, "x", 10, 50, False],
        [2, 0, 0, "y", 30, 60, False],
    ]
    assert spans.self_times(tree)[0] == 50


def test_self_sum_detects_a_child_outside_its_parent():
    tree = [
        [0, None, 0, "root", 0, 100, False],
        [1, 0, 0, "x", 90, 130, False],
    ]
    assert spans.self_sum_mismatches(tree) == [0]


def test_raised_error_still_closes_its_span():
    from symquot.errors import GraphError

    rec = spans.Recorder(ticking(0, 5, 7, 9, 12, 20))

    def boom():
        raise GraphError("bad graph")

    ok = spans.wrap(rec, "graphs.ok", lambda: 1, (GraphError,))
    bad = spans.wrap(rec, "graphs.boom", boom, (GraphError,))
    outer = spans.wrap(rec, "graphs.outer", lambda: (ok(), bad()), (GraphError,))
    with pytest.raises(GraphError):
        outer()
    assert [(s[3], s[4], s[5], s[6]) for s in rec.spans] == [
        ("graphs.outer", 0, 20, True),
        ("graphs.ok", 5, 7, False),
        ("graphs.boom", 9, 12, True),
    ]
    assert rec._stack == []
    assert spans.self_sum_mismatches(rec.spans) == []


def test_graft_hangs_child_roots_off_the_parent():
    tree = [[0, None, 0, "bench.request", 0, 100, False]]
    child = [
        [0, None, 0, "cli.run", 20, 90, False],
        [1, 0, 0, "cli.parse_tag", 21, 22, False],
    ]
    spans.graft(tree, child, tree[0])
    assert [s[:3] for s in tree] == [[0, None, 0], [1, 0, 0], [2, 1, 0]]
    assert spans.self_times(tree)[0] == 30
    assert spans.self_sum_mismatches(tree) == []
    spans.graft(tree, child)
    assert [s[:3] for s in tree[3:]] == [[3, None, 3], [4, 3, 3]]


def _bindings():
    import symquot  # noqa: F401

    out = {}
    for mod in spans._symquot_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, key, attr)] = member
    return out


def test_traced_run_restores_every_rebound_name():
    import symquot.classify
    import symquot.cli
    import symquot.graphs
    import symquot.permgroup

    before = _bindings()
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        assert symquot.classify.is_g_symmetric is not before[("symquot.graphs", "is_g_symmetric")]
        assert symquot.cli.census is symquot.classify.census
        assert rec.spans == []
        rc = symquot.cli.run(["classify", "cr:q=5:d=2:s=1", "--json"], io.StringIO(), io.StringIO())
        assert rc == 0
    finally:
        spans.uninstall(undo)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    names = {s[3] for s in rec.spans}
    assert {"cli.run", "classify.classify_triple", "graphs.is_g_symmetric", "permgroup.order"} <= names
    assert names <= set(spans.SPAN_NAMES)
    assert spans.self_sum_mismatches(rec.spans) == []
    assert len({(holder, attr) for holder, attr, _ in undo}) == len(undo)
    assert len(undo) >= sum(len(names) for _, names in spans.TRACED)
