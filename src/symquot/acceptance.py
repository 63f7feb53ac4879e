"""Executable acceptance checklist.

Nine numbered criteria pin the package to known ground truth: structure
identities of the smallest cross-ratio graphs, the parameter law across
a field sweep, the self-paired gate of the twisted family, the worked
small examples, flag graph shapes, stabilizer orbit tables, the cross
valencies of the t >= 2 constructions, a closed classification loop,
and a bundle of algebraic properties.  Each criterion reports a list of
failure strings and carries a wall-clock budget.

``_FIXTURES`` is one table: fixture name -> (tag, declared verdicts,
{criterion number: {fact: expected value}}), where a fact is a
``TripleParams`` field or a name in ``_READERS``.  Criteria 1, 4, 5, 6
and 7 only compare those facts, criterion 3 also compares tcr81's, and
criterion 8 replays the verdicts.  The sweeps, the rejected shifts,
group orders and design counts stay code.  Each triple built here runs its hypothesis checks first, so
measuring it reads one block pair.

``run_all`` drives every criterion in order.  The command line selftest
verb and the acceptance test module both call into this file, so there
is exactly one definition of what a working build means.
"""

from __future__ import annotations

import time
from functools import lru_cache, partial
from itertools import product
from typing import Callable, NamedTuple

from .classify import (
    _cr_expected,
    census,
    classify_triple,
    compute_params,
    orbit_length_check,
    verify_hypotheses,
)
from .constructions import Triple, build_triple, parse_tag, star_transform
from .designs import design_3_12_6_2, steiner_3_22_6
from .errors import (
    ClassificationError,
    ConstructionError,
    NotSelfPairedError,
    SymquotError,
)
from .graphs import StructureTag, connected_components
from .groups_catalog import _field_for, agl, mathieu, z24_a7

BUDGET_SECONDS = {
    1: 1.0,
    2: 60.0,
    3: 300.0,
    4: 5.0,
    5: 120.0,
    6: 120.0,
    7: 180.0,
    8: 600.0,
    9: 300.0,
}

TITLES = {
    1: "small cross-ratio identities",
    2: "cross-ratio parameter law",
    3: "twisted self-paired gate",
    4: "worked small examples",
    5: "flag graph shapes",
    6: "stabilizer orbit tables",
    7: "cross valencies for t >= 2",
    8: "closed-loop classification",
    9: "property suites",
}

CR_FIELD_SIZES = (3, 4, 5, 7, 8, 9, 11, 13, 16)


class CriterionResult(NamedTuple):
    number: int
    passed: bool
    elapsed: float
    detail: str


# name -> (tag, verdicts its constructor declares, {criterion: {fact: wanted}})
_FIXTURES: dict[str, tuple[str, tuple[str, ...], dict[int, dict[str, object]]]] = {
    "cr3": ("cr:q=3:d=2:s=1", _cr_expected(3, 1), {
        1: {"structure": StructureTag("DisjointCycles", (3, 4))},
    }),
    "cr5": ("cr:q=5:d=4:s=1", _cr_expected(5, 1), {
        1: {"structure": StructureTag("DisjointCompleteMultipartite", (5, 3, 2))},
    }),
    "tcr81": ("tcr:q=81:d=3:s=2", _cr_expected(81, 2), {
        3: {"v": 81, "blocks": 82, "b": 81, "t": 2},
    }),
    "pair_plane_d3": ("pair:group=agl_d3:rule=affine_plane", ("1.1(b)(iv)",), {
        4: {"v": 7, "b": 7, "r": 6, "k": 6, "t": 1,
            "structure": StructureTag("DisjointCompleteMultipartite", (7, 4, 2))},
    }),
    "pair_distinct_s5": ("pair:group=s5:rule=all_distinct", ("1.2(b)(i)",), {
        4: {"v": 4, "b": 4, "r": 3, "k": 3, "t": 2, "valency": 6, "components": 1,
            "blocks": 5, "star": StructureTag("DisjointComplete", (5, 4))},
    }),
    "pair_out_22": ("pair:group=m22:design=s22:rule=design_out", ("1.2(b)(iii.1)",), {
        7: {"t": 16},
    }),
    "pair_in_22": ("pair:group=m22:design=s22:rule=design_in", ("1.2(b)(iii.2)",), {
        7: {"t": 3},
    }),
    "pair_out_12": ("pair:group=m11_12:design=h12:rule=design_out", ("1.2(b)(iii.1)",), {
        7: {"t": 3},
    }),
    "pair_in_12": ("pair:group=m11_12:design=h12:rule=design_in", ("1.2(b)(iii.2)",), {
        7: {"t": 6},
    }),
    "flag_same_d3": ("flag:design=ag_d3:group=agl_d3:rule=same_block", ("1.1(c)(i)",), {
        5: {"structure": StructureTag("DisjointComplete", (14, 4))},
        6: {"orbits": ((1, 2, 4), (1, 3, 3))},
    }),
    "flag_same_d4": ("flag:design=ag_d4:group=agl_d4:rule=same_block", ("1.1(c)(i)",), {
        5: {"structure": StructureTag("DisjointComplete", (30, 8))},
        6: {"orbits": ((1, 6, 8), (1, 7, 7))},
    }),
    "flag_disjoint_d3": ("flag:design=ag_d3:group=agl_d3:rule=disjoint_blocks", ("1.1(d)",), {
        5: {"structure": StructureTag("DisjointCompleteBipartite", (7, 4))},
    }),
    "flag_disjoint_d4": ("flag:design=ag_d4:group=agl_d4:rule=disjoint_blocks", ("1.1(d)",), {
        5: {"structure": StructureTag("DisjointCompleteBipartite", (15, 8))},
    }),
    "flag_common_d3": (
        "flag:design=ag_d3:group=agl_d3:rule=common_two_points", ("1.2(c)(i)",), {
            4: {"v": 7, "b": 7, "k": 3, "t": 2, "blocks": 8,
                "star": StructureTag("DisjointComplete", (14, 4))},
            7: {"t": 2},
        },
    ),
    "flag_common_d4": (
        "flag:design=ag_d4:group=agl_d4:rule=common_two_points", ("1.2(c)(i)",), {
            7: {"t": 6},
        },
    ),
    "flag_same_22": ("flag:design=s22:group=m22:rule=same_block", ("1.1(c)(ii)",), {
        5: {"structure": StructureTag("DisjointComplete", (77, 6))},
        6: {"orbits": ((1, 4, 16), (5, 6, 10))},
    }),
    "flag_far_22": ("flag:design=s22:group=m22:rule=m22_disjoint", ("1.2(c)(iii)",), {
        7: {"t": 6},
    }),
    "flag_meet_two_22": ("flag:design=s22:group=m22:rule=m22_meet_two", ("1.2(c)(iii)",), {
        7: {"t": 10},
    }),
    "flag_same_12": ("flag:design=h12:group=m11_12:rule=same_block", ("1.1(c)(iii)",), {
        5: {"structure": StructureTag("DisjointComplete", (22, 6))},
        6: {"orbits": ((1, 4, 6), (1, 5, 5))},
    }),
    "flag_disjoint_12": ("flag:design=h12:group=m11_12:rule=disjoint_blocks", ("1.1(d)",), {
        5: {"structure": StructureTag("DisjointCompleteBipartite", (11, 6))},
    }),
}


def _orbit_lengths(T: Triple) -> tuple:
    res = orbit_length_check(T)
    got = tuple(tuple(res[c]["orbit_lengths"]) for c in ("incident", "non_incident"))
    # lengths that orbit_length_check's own table rejects are never wanted
    return got if res["match"] else got + ("off the classifier's table",)


_READERS: dict[str, Callable[[Triple], object]] = {
    "structure": lambda T: T.structure,
    "star": lambda T: star_transform(T).structure,
    "valency": lambda T: T.graph.valency(),
    "components": lambda T: len(connected_components(T.graph)),
    "blocks": lambda T: T.partition.block_count,
    "orbits": _orbit_lengths,
}


@lru_cache(maxsize=None)
def _triple(tag: str) -> Triple:
    """The triple a tag names, with its hypotheses run: a kept full report
    lets every later ``compute_params`` read one block pair."""
    T = build_triple(parse_tag(tag))
    verify_hypotheses(T)
    return T


@lru_cache(maxsize=None)
def _cr_sweep() -> tuple:
    out = []
    for q in CR_FIELD_SIZES:
        F = _field_for(q)
        for idx in range(2, q):
            sd = F.subfield_degree(F.element(idx))
            for s in range(1, sd + 1):
                if sd % s == 0:
                    out.append((q, sd, s, _triple(f"cr:q={q}:d={idx}:s={s}")))
    return tuple(out)


@lru_cache(maxsize=None)
def _tcr9_cases() -> tuple:
    """(tag, square?, triple-or-None) for every even-closure shift over
    the nine-element field."""
    F = _field_for(9)
    one = F.element(1)
    out = []
    for idx in range(2, 9):
        el = F.element(idx)
        if F.subfield_degree(el) % 2:
            continue
        tag = f"tcr:q=9:d={idx}:s=2"
        if F.is_square(el - one):
            out.append((tag, True, _triple(tag)))
        else:
            out.append((tag, False, None))
    return tuple(out)


def _check_facts(number: int) -> list[str]:
    """Compare every fact the table expects under criterion ``number``,
    building only the fixtures that have one."""
    fails = []
    for name, (tag, _, facts) in _FIXTURES.items():
        for fact, want in facts.get(number, {}).items():
            T = _triple(tag)
            got = _READERS[fact](T) if fact in _READERS else getattr(compute_params(T), fact)
            if got != want:
                fails.append(f"{name} {fact} is {got}, wanted {want}")
    return fails


def _criterion_2() -> list[str]:
    fails = []
    for q, sd, s, T in _cr_sweep():
        P = compute_params(T)
        # b = q on q + 1 blocks: the quotient is complete
        got = (P.v, P.b, P.k, P.t, T.partition.block_count)
        want = (q, q, q - 1, sd // s, q + 1)
        if got != want:
            tag = T.provenance.tag
            fails.append(f"{tag} measured (v,b,k,t,blocks)={got}, wanted {want}")
    return fails


def _criterion_3() -> list[str]:
    fails = []
    for tag, is_square, T in _tcr9_cases():
        if is_square:
            P = compute_params(T)
            if (P.k, P.t) != (8, 1) or P.b != T.partition.block_count - 1:
                fails.append(f"{tag} measured (k,t)=({P.k},{P.t}), wanted (8,1)")
        else:
            try:
                _triple(tag)
                fails.append(f"{tag} built; a non-square shift must be rejected")
            except NotSelfPairedError:
                pass
    F = _field_for(81)
    if F.subfield_degree(F.element(3)) != 4:
        fails.append("shift index 3 over the 81-element field should close at 4")
    return fails + _check_facts(3)


def _declared() -> list[tuple[Triple, tuple[str, ...]]]:
    """Every triple the checklist builds, with the verdicts declared for it."""
    out = [(T, _cr_expected(q, sd // s)) for q, sd, s, T in _cr_sweep()]
    out += [(T, _cr_expected(9, 1)) for _, square, T in _tcr9_cases() if square]
    return out + [(_triple(tag), want) for tag, want, _ in _FIXTURES.values()]


def _criterion_8() -> list[str]:
    fails = []
    for T, want in _declared():
        verdict = classify_triple(T).theorem_case
        if verdict not in want:
            fails.append(f"{T.provenance.tag} classified {verdict}, declared {want}")
    try:
        rows = census(9, 3)
    except ClassificationError as exc:
        return fails + [f"census(9, 3) reported escapes: {exc}"]
    bad = [r.tag for r in rows if r.verdict.theorem_case not in r.expected]
    if bad:
        fails.append(f"census rows off their declared lists: {bad}")
    return fails


def _criterion_9() -> list[str]:
    fails = []
    for T, _ in _declared():
        compute_params(T)  # raises when vs = bm or vr = bk fails

    # every fixture whose star transform exists
    involution = (
        "cr3",
        "pair_distinct_s5",
        "flag_same_d3",
        "flag_same_d4",
        "flag_disjoint_d3",
        "flag_disjoint_d4",
        "flag_common_d3",
        "flag_common_d4",
        "flag_same_22",
        "flag_far_22",
        "flag_meet_two_22",
        "flag_same_12",
        "flag_disjoint_12",
    )
    for name in involution:
        T = _triple(_FIXTURES[name][0])
        try:
            back = star_transform(star_transform(T))
        except ConstructionError as exc:
            fails.append(f"{name} has no star transform: {exc}")
            continue
        if back.graph.adj != T.graph.adj:
            fails.append(f"{name} star transform applied twice moved edges")

    for label, got, want in (
        ("22-point Mathieu group", mathieu("M22").order(), 443520),
        ("11-point Mathieu group on 12 points", mathieu("M11on12").order(), 7920),
        ("rank-4 binary affine group", agl(4).order(), 322560),
        ("binary translation extension", z24_a7().order(), 40320),
    ):
        if got != want:
            fails.append(f"{label} has order {got}, not {want}")

    D = steiner_3_22_6()
    if D.b != 77 or D.lambda_t(3) != 1:
        fails.append(f"22-point design has b={D.b}, lambda_3={D.lambda_t(3)}")
    beta = set(D.blocks[0])
    meets_two = sum(len(beta.intersection(blk)) == 2 for blk in D.blocks[1:])
    if meets_two != 60:
        fails.append(f"{meets_two} blocks meet a fixed block in two points, not 60")
    for P0, P1 in product(sorted(beta), sorted(set(range(D.v)) - beta)):
        # the blocks through P1 meet the fixed block at P0 and one more
        # point, at two points other than P0, or not at all
        meets = [beta.intersection(blk) for blk in D.blocks if P1 in blk]
        split = (
            sum(len(m) == 2 and P0 in m for m in meets),
            sum(len(m) == 2 and P0 not in m for m in meets),
            sum(not m for m in meets),
        )
        if split != (5, 10, 6):
            fails.append(f"point split {split} at ({P0}, {P1}), wanted (5, 10, 6)")
            break

    H = design_3_12_6_2()
    blocks = set(H.blocks)
    closed = all(tuple(sorted(set(range(12)) - set(blk))) in blocks for blk in blocks)
    if H.b != 22 or not closed or H.lambda_t(3) != 2:
        fails.append(
            f"12-point design has b={H.b}, complement-closed={closed}, "
            f"lambda_3={H.lambda_t(3)}"
        )
    return fails


_CRITERIA: dict[int, Callable[[], list[str]]] = {
    1: partial(_check_facts, 1),
    2: _criterion_2,
    3: _criterion_3,
    4: partial(_check_facts, 4),
    5: partial(_check_facts, 5),
    6: partial(_check_facts, 6),
    7: partial(_check_facts, 7),
    8: _criterion_8,
    9: _criterion_9,
}


def run_criterion(number: int) -> CriterionResult:
    """Run one criterion; a SymquotError raised inside it is its failure."""
    if number not in _CRITERIA:
        raise ValueError(f"criterion number must be 1..9, got {number}")
    start = time.perf_counter()
    try:
        fails = _CRITERIA[number]()
    except SymquotError as exc:
        fails = [f"raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    budget = BUDGET_SECONDS[number]
    if elapsed > budget:
        fails = fails + [f"overran the {budget:.0f}s budget at {elapsed:.1f}s"]
    if len(fails) > 6:
        fails = fails[:6] + [f"... {len(fails) - 6} more"]
    detail = "ok" if not fails else "; ".join(fails)
    return CriterionResult(number, not fails, elapsed, detail)


def run_all() -> list[CriterionResult]:
    return [run_criterion(n) for n in sorted(_CRITERIA)]
