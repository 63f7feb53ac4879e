"""Executable acceptance checklist.

Nine numbered criteria pin the package to known ground truth: structure
identities of the smallest cross-ratio graphs, the parameter law across
a field sweep, the self-paired gate of the twisted family, the worked
small examples, flag graph shapes, stabilizer orbit tables, the cross
valencies of the t >= 2 constructions, a closed classification loop,
and a bundle of algebraic properties.  Each criterion reports a list of
failure strings and carries a wall-clock budget.

``run_all`` drives every criterion in order.  The command line selftest
verb and the acceptance test module both call into this file, so there
is exactly one definition of what a working build means.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Callable, NamedTuple

from .classify import (
    _cr_expected,
    census,
    classify_triple,
    compute_params,
    orbit_length_check,
)
from .constructions import (
    Triple,
    build_triple,
    parse_tag,
    star_transform,
)
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


# name -> (tag, verdicts its constructor declares); criterion 8 replays
# every one through the classifier.
_FIXTURES = {
    "cr3": ("cr:q=3:d=2:s=1", _cr_expected(3, 1)),
    "cr5": ("cr:q=5:d=4:s=1", _cr_expected(5, 1)),
    "tcr81": ("tcr:q=81:d=3:s=2", _cr_expected(81, 2)),
    "pair_plane_d3": ("pair:group=agl_d3:rule=affine_plane", ("1.1(b)(iv)",)),
    "pair_distinct_s5": ("pair:group=s5:rule=all_distinct", ("1.2(b)(i)",)),
    "pair_out_22": ("pair:group=m22:design=s22:rule=design_out", ("1.2(b)(iii.1)",)),
    "pair_in_22": ("pair:group=m22:design=s22:rule=design_in", ("1.2(b)(iii.2)",)),
    "pair_out_12": ("pair:group=m11_12:design=h12:rule=design_out", ("1.2(b)(iii.1)",)),
    "pair_in_12": ("pair:group=m11_12:design=h12:rule=design_in", ("1.2(b)(iii.2)",)),
    "flag_same_d3": ("flag:design=ag_d3:group=agl_d3:rule=same_block", ("1.1(c)(i)",)),
    "flag_same_d4": ("flag:design=ag_d4:group=agl_d4:rule=same_block", ("1.1(c)(i)",)),
    "flag_disjoint_d3": ("flag:design=ag_d3:group=agl_d3:rule=disjoint_blocks", ("1.1(d)",)),
    "flag_disjoint_d4": ("flag:design=ag_d4:group=agl_d4:rule=disjoint_blocks", ("1.1(d)",)),
    "flag_common_d3": ("flag:design=ag_d3:group=agl_d3:rule=common_two_points", ("1.2(c)(i)",)),
    "flag_common_d4": ("flag:design=ag_d4:group=agl_d4:rule=common_two_points", ("1.2(c)(i)",)),
    "flag_same_22": ("flag:design=s22:group=m22:rule=same_block", ("1.1(c)(ii)",)),
    "flag_far_22": ("flag:design=s22:group=m22:rule=m22_disjoint", ("1.2(c)(iii)",)),
    "flag_meet_two_22": ("flag:design=s22:group=m22:rule=m22_meet_two", ("1.2(c)(iii)",)),
    "flag_same_12": ("flag:design=h12:group=m11_12:rule=same_block", ("1.1(c)(iii)",)),
    "flag_disjoint_12": ("flag:design=h12:group=m11_12:rule=disjoint_blocks", ("1.1(d)",)),
}


@lru_cache(maxsize=None)
def _triple(name: str) -> Triple:
    return build_triple(parse_tag(_FIXTURES[name][0]))


@lru_cache(maxsize=None)
def _cr_sweep() -> tuple:
    out = []
    for q in CR_FIELD_SIZES:
        F = _field_for(q)
        for idx in range(2, q):
            sd = F.subfield_degree(F.element(idx))
            for s in range(1, sd + 1):
                if sd % s == 0:
                    T = build_triple(parse_tag(f"cr:q={q}:d={idx}:s={s}"))
                    out.append((q, sd, s, T))
    return tuple(out)


@lru_cache(maxsize=None)
def _tcr9_cases() -> tuple:
    """(tag, square?, triple-or-None) for every even-closure shift over
    the nine-element field."""
    F = _field_for(9)
    one = F.element(1)
    squares = {F.element(i) * F.element(i) for i in range(9)}
    out = []
    for idx in range(2, 9):
        el = F.element(idx)
        if F.subfield_degree(el) % 2:
            continue
        tag = f"tcr:q=9:d={idx}:s=2"
        if el - one in squares:
            out.append((tag, True, build_triple(parse_tag(tag))))
        else:
            out.append((tag, False, None))
    return tuple(out)


def _criterion_1() -> list[str]:
    fails = []
    for name, want in (
        ("cr3", StructureTag("DisjointCycles", (3, 4))),
        ("cr5", StructureTag("DisjointCompleteMultipartite", (5, 3, 2))),
    ):
        got = _triple(name).structure
        if got != want:
            fails.append(f"{name} has structure {got}, not {want}")
    return fails


def _criterion_2() -> list[str]:
    fails = []
    for q, sd, s, T in _cr_sweep():
        P = compute_params(T)
        c = T.partition.block_count
        tag = T.provenance.tag
        if (P.v, P.b, P.k, P.t) != (q, q, q - 1, sd // s):
            fails.append(
                f"{tag} measured (v,b,k,t)=({P.v},{P.b},{P.k},{P.t}), "
                f"wanted ({q},{q},{q - 1},{sd // s})"
            )
        if c != q + 1 or P.b != c - 1:
            fails.append(f"{tag} quotient is not complete on {q + 1} blocks")
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
                build_triple(parse_tag(tag))
                fails.append(f"{tag} built; a non-square shift must be rejected")
            except NotSelfPairedError:
                pass
    F = _field_for(81)
    if F.subfield_degree(F.element(3)) != 4:
        fails.append("shift index 3 over the 81-element field should close at 4")
    big = _triple("tcr81")
    P = compute_params(big)
    if big.graph.n != 6642 or P.t != 2 or P.b != big.partition.block_count - 1:
        fails.append(
            f"{big.provenance.tag} gives n={big.graph.n}, t={P.t}; wanted n=6642, t=2"
        )
    return fails


def _criterion_4() -> list[str]:
    fails = []

    T = _triple("pair_plane_d3")
    P = compute_params(T)
    if (P.v, P.b, P.r, P.k, P.t) != (7, 7, 6, 6, 1):
        fails.append(f"pair_plane_d3 params {P}, wanted (7,7,6,6,1)")
    got = T.structure
    if got != StructureTag("DisjointCompleteMultipartite", (7, 4, 2)):
        fails.append(f"pair_plane_d3 structure {got}")

    T = _triple("pair_distinct_s5")
    P = compute_params(T)
    if (P.v, P.b, P.r, P.k, P.t) != (4, 4, 3, 3, 2):
        fails.append(f"pair_distinct_s5 params {P}, wanted (4,4,3,3,2)")
    if T.graph.valency() != 6:
        fails.append(f"pair_distinct_s5 valency {T.graph.valency()}, wanted 6")
    if len(connected_components(T.graph)) != 1:
        fails.append("pair_distinct_s5 is not connected")
    c = T.partition.block_count
    if c != 5 or P.b != c - 1:
        fails.append("pair_distinct_s5 quotient is not complete on 5 blocks")
    star = star_transform(T).structure
    if star != StructureTag("DisjointComplete", (5, 4)):
        fails.append(f"pair_distinct_s5 star structure {star}")

    T = _triple("flag_common_d3")
    P = compute_params(T)
    if (P.v, P.k, P.t) != (7, 3, 2):
        fails.append(f"flag_common_d3 (v,k,t)=({P.v},{P.k},{P.t}), wanted (7,3,2)")
    c = T.partition.block_count
    if c != 8 or P.b != c - 1:
        fails.append("flag_common_d3 quotient is not complete on 8 blocks")
    star = star_transform(T).structure
    if star != StructureTag("DisjointComplete", (14, 4)):
        fails.append(f"flag_common_d3 star structure {star}")
    return fails


def _criterion_5() -> list[str]:
    fails = []
    for name, want in (
        ("flag_same_d3", StructureTag("DisjointComplete", (14, 4))),
        ("flag_same_d4", StructureTag("DisjointComplete", (30, 8))),
        ("flag_disjoint_d3", StructureTag("DisjointCompleteBipartite", (7, 4))),
        ("flag_disjoint_d4", StructureTag("DisjointCompleteBipartite", (15, 8))),
        ("flag_same_22", StructureTag("DisjointComplete", (77, 6))),
        ("flag_same_12", StructureTag("DisjointComplete", (22, 6))),
        ("flag_disjoint_12", StructureTag("DisjointCompleteBipartite", (11, 6))),
    ):
        got = _triple(name).structure
        if got != want:
            fails.append(f"{name} has structure {got}, not {want}")
    return fails


def _criterion_6() -> list[str]:
    tables = {
        "flag_same_d3": ((1, 2, 4), (1, 3, 3)),
        "flag_same_d4": ((1, 6, 8), (1, 7, 7)),
        "flag_same_22": ((1, 4, 16), (5, 6, 10)),
        "flag_same_12": ((1, 4, 6), (1, 5, 5)),
    }
    fails = []
    for name, (inc, non) in tables.items():
        res = orbit_length_check(_triple(name))
        got_inc = tuple(res["incident"]["orbit_lengths"])
        got_non = tuple(res["non_incident"]["orbit_lengths"])
        if got_inc != inc or got_non != non:
            fails.append(
                f"{name} orbit lengths {got_inc}/{got_non}, wanted {inc}/{non}"
            )
        if not res["match"]:
            fails.append(f"{name} orbit table mismatch: {res}")
    return fails


def _criterion_7() -> list[str]:
    wanted = {
        "pair_out_22": 16,
        "pair_in_22": 3,
        "pair_out_12": 3,
        "pair_in_12": 6,
        "flag_far_22": 6,
        "flag_meet_two_22": 10,
        "flag_common_d3": 2,
        "flag_common_d4": 6,
    }
    fails = []
    for name, t_want in wanted.items():
        t = compute_params(_triple(name)).t
        if t != t_want:
            fails.append(f"{name} has cross valency {t}, wanted {t_want}")
    return fails


def _criterion_8() -> list[str]:
    fails = []
    for q, sd, s, T in _cr_sweep():
        want = _cr_expected(q, sd // s)
        verdict = classify_triple(T).theorem_case
        if verdict not in want:
            fails.append(f"{T.provenance.tag} classified {verdict}, not {want}")
    for _, is_square, T in _tcr9_cases():
        if not is_square:
            continue
        verdict = classify_triple(T).theorem_case
        if verdict not in _cr_expected(9, 1):
            fails.append(f"{T.provenance.tag} classified {verdict}")
    for name, (_, want) in _FIXTURES.items():
        verdict = classify_triple(_triple(name)).theorem_case
        if verdict not in want:
            fails.append(f"{name} classified {verdict}, declared {want}")
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

    counted = [T for _, _, _, T in _cr_sweep()]
    counted += [T for _, sq, T in _tcr9_cases() if sq]
    counted += [_triple(name) for name in _FIXTURES]
    for T in counted:
        P = compute_params(T)
        if P.v * P.s != P.b * P.m or P.v * P.r != P.b * P.k:
            fails.append(f"{T.provenance.tag} breaks vs = bm or vr = bk: {P}")

    involution = (
        "pair_plane_d3",
        "pair_distinct_s5",
        "pair_out_12",
        "pair_in_12",
        "flag_same_d3",
        "flag_disjoint_d3",
        "flag_common_d3",
        "flag_same_12",
        "flag_disjoint_12",
        "flag_same_22",
    )
    for name in involution:
        T = _triple(name)
        try:
            back = star_transform(star_transform(T))
        except ConstructionError:
            continue
        if back.graph.adj != T.graph.adj:
            fails.append(f"{name} star transform applied twice moved edges")

    for label, got, want in (
        ("22-point Mathieu group", mathieu("M22").order(), 443520),
        ("11-point Mathieu group on 12 points", mathieu("M11on12").order(), 7920),
        ("rank-4 binary affine group", agl(4, 2).order(), 322560),
        ("binary translation extension", z24_a7().order(), 40320),
    ):
        if got != want:
            fails.append(f"{label} has order {got}, not {want}")

    D = steiner_3_22_6()
    if D.b != 77 or D.lambda_t(3) != 1:
        fails.append(f"22-point design has b={D.b}, lambda_3={D.lambda_t(3)}")
    beta = set(D.blocks[0])
    meets_two = sum(
        1 for blk in D.blocks[1:] if len(beta.intersection(blk)) == 2
    )
    if meets_two != 60:
        fails.append(f"{meets_two} blocks meet a fixed block in two points, not 60")
    outside = [p for p in range(D.v) if p not in beta]
    for P0 in sorted(beta):
        for P1 in outside:
            both = on_new = disj = 0
            for blk in D.blocks:
                if P1 not in blk:
                    continue
                hits = len(beta.intersection(blk))
                if hits == 0:
                    disj += 1
                elif hits == 2:
                    if P0 in blk:
                        both += 1
                    else:
                        on_new += 1
            if (both, on_new, disj) != (5, 10, 6):
                fails.append(
                    f"point split ({both},{on_new},{disj}) at ({P0},{P1}), "
                    "wanted (5,10,6)"
                )
                break
        else:
            continue
        break

    H = design_3_12_6_2()
    blocks = set(H.blocks)
    closed = all(
        tuple(sorted(set(range(12)) - set(blk))) in blocks for blk in blocks
    )
    if H.b != 22 or not closed or H.lambda_t(3) != 2:
        fails.append(
            f"12-point design has b={H.b}, complement-closed={closed}, "
            f"lambda_3={H.lambda_t(3)}"
        )
    return fails


_CRITERIA: dict[int, Callable[[], list[str]]] = {
    1: _criterion_1,
    2: _criterion_2,
    3: _criterion_3,
    4: _criterion_4,
    5: _criterion_5,
    6: _criterion_6,
    7: _criterion_7,
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
