"""Span recording for traced benchmark runs.

The wrappers are installed at run time from here; nothing in ``src/``
knows about them.  ``install`` rebinds every traced function in each
``symquot.*`` module namespace that holds it (and on the class, for
methods) and returns what it replaced, so ``uninstall`` can put every
original back.  Only coarse functions are wrapped: per-element calls
such as ``Permutation.__call__`` run millions of times per census and
would bury the work under wrapper cost.

A span is ``[id, parent, op, name, start_ns, end_ns, error]``.  ``op``
is the id of the root span the span belongs to, so one operation's
spans share it.  Times come from ``time.perf_counter_ns``, which is
CLOCK_MONOTONIC on Linux and therefore comparable between a parent and
the child processes it starts.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Optional

# (layer, dotted name inside the layer's module).  A name with a dot is a
# method on a class of that module.
TRACED: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("cli", ("parse_tag", "build_triple", "run")),
    (
        "groups_catalog",
        (
            "pgl2",
            "psl2",
            "pgammal_subgroup",
            "m_group",
            "agl",
            "sym_alt",
            "mathieu",
            "z24_a7",
        ),
    ),
    (
        "permgroup",
        (
            "PermutationGroup.order",
            "PermutationGroup.induced_action",
            "PermutationGroup.stabilizer",
            "PermutationGroup.transitivity_degree",
            "PermutationGroup.is_block_system",
            "PermutationGroup.is_self_paired",
        ),
    ),
    (
        "graphs",
        (
            "is_g_symmetric",
            "orbital_graph",
            "Graph.__init__",
            "quotient_graph",
            "recognize_structure",
            "graph_to_graph6",
            "graph_to_dimacs",
            "graph_to_json",
        ),
    ),
    (
        "designs",
        ("design_from_partition", "ag_design", "steiner_3_22_6", "design_3_12_6_2"),
    ),
    (
        "constructions",
        (
            "cross_ratio_graph",
            "twisted_cross_ratio_graph",
            "pair_graph",
            "flag_graph",
            "matching_graph",
            "star_transform",
            "pair_action",
        ),
    ),
    (
        "classify",
        (
            "classify_triple",
            "verify_hypotheses",
            "compute_params",
            "corollary_case",
            "census",
        ),
    ),
)


def span_name(layer: str, dotted: str) -> str:
    """Metric prefix for a traced name: methods drop their class, and the
    ``Graph`` constructor is reported as ``graphs.Graph``."""
    cls, _, meth = dotted.rpartition(".")
    if meth == "__init__":
        return f"{layer}.{cls}"
    return f"{layer}.{meth}"


SPAN_NAMES: tuple[str, ...] = tuple(
    span_name(layer, dotted) for layer, names in TRACED for dotted in names
)
LAYERS: tuple[str, ...] = tuple(layer for layer, _ in TRACED)


class Recorder:
    """Spans and counters of one process, kept in memory until dumped."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._stack: list[list] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = [
            sid,
            None if parent is None else parent[0],
            sid if parent is None else parent[2],
            name,
            self.clock(),
            None,
            False,
        ]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list, error: bool = False) -> None:
        span[5] = self.clock()
        span[6] = error
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[3]} closed out of order")

    def raise_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }


def _count_order(rec: Recorder, result, args) -> None:
    chain = args[0].chain
    entries = sum(len(level.transversal) for level in chain.levels)
    rec.raise_max("permgroup.chain_degree_max", chain.degree)
    rec.raise_max("permgroup.transversal_entries", entries)
    # every transversal entry holds a full image tuple of the chain's
    # degree, so this is computed from the two counts, not measured
    rec.raise_max("permgroup.transversal_ints", entries * chain.degree)


def _count_arcs(rec: Recorder, result, args) -> None:
    rec.counts["graphs.is_g_symmetric.arcs"] += 2 * args[0].edge_count


def _count_bytes(rec: Recorder, result, args) -> None:
    text = result if isinstance(result, str) else json.dumps(result)
    rec.counts["graphs.serialize.bytes"] += len(text)


def _count_triple(rec: Recorder, result, args) -> None:
    rec.counts["constructions.vertices"] += result.graph.n
    rec.counts["constructions.edges"] += result.graph.edge_count


_COUNTERS = {
    "permgroup.order": _count_order,
    "graphs.is_g_symmetric": _count_arcs,
    "graphs.graph_to_graph6": _count_bytes,
    "graphs.graph_to_dimacs": _count_bytes,
    "graphs.graph_to_json": _count_bytes,
    "constructions.cross_ratio_graph": _count_triple,
    "constructions.twisted_cross_ratio_graph": _count_triple,
    "constructions.pair_graph": _count_triple,
    "constructions.flag_graph": _count_triple,
    "constructions.matching_graph": _count_triple,
    "constructions.star_transform": _count_triple,
}


def wrap(rec: Recorder, name: str, fn: Callable, domain_errors: tuple = ()) -> Callable:
    """A span-recording stand-in for ``fn``.  Counters run after the span
    closes, so their cost lands in the caller's self time."""
    count = _COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(span, error=isinstance(exc, domain_errors))
            raise
        rec.close(span)
        if count is not None:
            count(rec, result, args)
        return result

    return traced


def _symquot_modules() -> list:
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "symquot" or key.startswith("symquot."))
    ]


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Rebind every traced name; returns (holder, attribute, original)
    for each rebinding, in the order made."""
    import symquot.cli
    from symquot.errors import SymquotError

    domain = (SymquotError, symquot.cli.TagError)
    modules = _symquot_modules()
    undo: list[tuple[object, str, object]] = []
    for layer, names in TRACED:
        home = sys.modules[f"symquot.{layer}"]
        for dotted in names:
            name = span_name(layer, dotted)
            cls_name, _, attr = dotted.rpartition(".")
            if cls_name:
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, wrap(rec, name, original, domain))
                undo.append((cls, attr, original))
                continue
            original = getattr(home, attr)
            stand_in = wrap(rec, name, original, domain)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, stand_in)
                        undo.append((mod, key, original))
    return undo


def uninstall(undo: Iterable[tuple[object, str, object]]) -> None:
    for holder, attr, original in reversed(list(undo)):
        setattr(holder, attr, original)


def catalog_cache_totals() -> tuple[int, int]:
    """(hits, misses) summed over the cached catalog builders; call it
    with the wrappers uninstalled."""
    import symquot.groups_catalog as gc

    hits = misses = 0
    for dotted in dict(TRACED)["groups_catalog"]:
        info = getattr(gc, dotted).cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


# ---------------------------------------------------------------------------
# Span arithmetic.


def covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[list]) -> dict[int, int]:
    """Self time per span id: its duration minus the part of it that its
    children cover, overlapping children counted once."""
    kids: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            kids[s[1]].append((s[4], s[5]))
    return {s[0]: (s[5] - s[4]) - covered_ns(s[4], s[5], kids[s[0]]) for s in spans}


def self_sum_mismatches(spans: list[list], selfs: Optional[dict[int, int]] = None) -> list[int]:
    """Op ids whose spans' self times do not add up to the root duration."""
    if selfs is None:
        selfs = self_times(spans)
    per_op: Counter = Counter()
    roots = {}
    for s in spans:
        per_op[s[2]] += selfs[s[0]]
        if s[1] is None:
            roots[s[0]] = s[5] - s[4]
    return sorted(op for op, total in per_op.items() if total != roots.get(op))


def graft(spans: list[list], child_spans: list[list], parent: Optional[list] = None) -> None:
    """Append another process's spans.  Ids are shifted past the existing
    ones; the other process's roots hang off ``parent`` when one is given
    and stay roots otherwise."""
    base = len(spans)
    for sid, par, op, name, start, end, err in child_spans:
        if par is not None:
            par += base
        elif parent is not None:
            par = parent[0]
        spans.append(
            [
                sid + base,
                par,
                op + base if parent is None else parent[2],
                name,
                start,
                end,
                err,
            ]
        )
