"""The signature table against the branch-by-branch matchers it replaced.

``classify._match`` walks one ordered table, ``_SIGNATURES``.  The
references below are the earlier matchers, one ``if`` chain per cross
valency branch, kept verbatim.  The table must give the reference's
label on every census triple and on a forged grid of parameters, block
actions, group orders, structure tags and edge kinds.
"""

import itertools
from types import SimpleNamespace
from typing import Optional

import pytest

from symquot import classify
from symquot.classify import (
    M11_ORDER,
    M22_ORDERS,
    TripleParams,
    _fits_projective_line,
    _prime_power,
    census,
)
from symquot.constructions import Triple
from symquot.graphs import StructureTag
from symquot.groups_catalog import (
    agl,
    mathieu,
    psl2,
    sym_alt,
    three_transitive_pgammal_list,
    z24_a7,
)
from symquot.permgroup import PermutationGroup

# ---------------------------------------------------------------------------
# References: the two branch matchers, with the module's label helpers
# looked up at call time so a test can replace them.


def _pair_labels(T):
    return classify._pair_labels(T)


def _edge_label_kind(g, labels):
    return classify._edge_label_kind(g, labels)


def _affine_group_orders(d: int) -> frozenset:
    o = 1 << d
    for i in range(d):
        o *= (1 << d) - (1 << i)
    # dimension 4 admits one proper subgroup with the same block action
    return frozenset({o, 40320}) if d == 4 else frozenset({o})


def _binary_dim(x: int) -> Optional[int]:
    d = x.bit_length() - 1
    return d if d >= 0 and 1 << d == x else None


def _flag_complete_case(v: int, comps: int, size: int, order: int) -> Optional[str]:
    d = _binary_dim(v + 1)
    if (
        d is not None
        and d >= 2
        and (comps, size) == ((1 << (d + 1)) - 2, 1 << (d - 1))
        and order in _affine_group_orders(d)
    ):
        return "1.1(c)(i)"
    if (v, comps, size) == (21, 77, 6) and order in M22_ORDERS:
        return "1.1(c)(ii)"
    if (v, comps, size) == (11, 22, 6) and order == M11_ORDER:
        return "1.1(c)(iii)"
    return None


def _match_t1(
    T: Triple,
    P: TripleParams,
    structure: StructureTag,
    order: int,
    blocks_action: PermutationGroup,
) -> str:
    v, k = P.v, P.k
    if k == v - 1:
        labels = _pair_labels(T)
        if labels is None:
            return "Unmatched"
        kind = _edge_label_kind(T.graph, labels)
        if kind == "same_second":
            if structure == StructureTag("DisjointComplete", (v + 1, v)):
                return "1.1(b)(ii)"
            return "Unmatched"
        if kind != "four_distinct":
            return "Unmatched"
        # on 4 blocks the affine and projective families coincide; the
        # projective label is the canonical verdict there, so test it first
        if _fits_projective_line(blocks_action, v):
            return "1.1(b)(iii)"
        d = _binary_dim(v + 1)
        if d is not None and d >= 2 and order in _affine_group_orders(d):
            want = (
                StructureTag("DisjointCycles", (3, 4))
                if d == 2
                else StructureTag(
                    "DisjointCompleteMultipartite", (v, 1 << (d - 1), 2)
                )
            )
            if structure == want:
                return "1.1(b)(iv)"
        return "Unmatched"
    if structure.kind == "DisjointComplete":
        comps, size = structure.params
        case = _flag_complete_case(v, comps, size, order)
        if case is not None and k == size - 1:
            return case
        return "Unmatched"
    if structure.kind == "DisjointCompleteBipartite":
        comps, size = structure.params
        d = _binary_dim(v + 1)
        if (
            d is not None
            and d >= 3
            and (comps, size) == (v, 1 << (d - 1))
            and order in _affine_group_orders(d)
        ):
            return "1.1(d)"
        if (v, comps, size) == (11, 11, 6) and order == M11_ORDER:
            return "1.1(d)"
        return "Unmatched"
    return "Unmatched"


def _match_t2(
    T: Triple,
    P: TripleParams,
    structure: StructureTag,
    order: int,
    blocks_action: PermutationGroup,
) -> str:
    v, t, k = P.v, P.t, P.k
    if k == v - 1:
        labels = _pair_labels(T)
        if labels is None or _edge_label_kind(T.graph, labels) != "four_distinct":
            return "Unmatched"
        # the t = v - 2 family exists exactly for 4-transitive block
        # actions, and must win over the projective test: degree 5 fits
        # both signatures
        if t == v - 2 and blocks_action.transitivity_degree() >= 4:
            return "1.2(b)(i)"
        if _fits_projective_line(blocks_action, v):
            _, n = _prime_power(v)
            if any(n % sd == 0 and sd % t == 0 for sd in range(t, n + 1)):
                return "1.2(b)(ii)"
            return "Unmatched"
        d = _binary_dim(v + 1)
        if d is not None and d >= 3 and order in _affine_group_orders(d):
            return "1.2(b)(iii.1)" if t == (1 << d) - 4 else "Unmatched"
        if v == 21 and order in M22_ORDERS:
            if t == 16:
                return "1.2(b)(iii.1)"
            if t == 3:
                return "1.2(b)(iii.2)"
            return "Unmatched"
        if v == 11 and order == M11_ORDER:
            if t == 3:
                return "1.2(b)(iii.1)"
            if t == 6:
                return "1.2(b)(iii.2)"
            return "Unmatched"
        return "Unmatched"
    if not 3 <= k <= v - 2:
        return "Unmatched"
    d = _binary_dim(v + 1)
    if d is not None and d >= 3 and order in _affine_group_orders(d):
        half = 1 << (d - 1)
        if (k, t) == (half - 1, half - 2):
            return "1.2(c)(i)"
        if (k, t) == (half, half - 1):
            return "1.2(c)(ii)"
        return "Unmatched"
    if v == 21 and order in M22_ORDERS:
        if (k, t) == (5, 4):
            return "1.2(c)(i)"
        if k == 16 and t in (6, 10):
            return "1.2(c)(iii)"
        return "Unmatched"
    if v == 11 and order == M11_ORDER:
        if (k, t) == (5, 4):
            return "1.2(c)(i)"
        if (k, t) == (6, 5):
            return "1.2(c)(ii)"
        return "Unmatched"
    return "Unmatched"


def match_ref(T, P, structure, order, blocks_action) -> str:
    match = _match_t1 if P.t == 1 else _match_t2
    return match(T, P, structure, order, blocks_action)


# ---------------------------------------------------------------------------
# Every census triple, with the arguments classify_triple passes.


def test_table_matches_reference_on_census(monkeypatch):
    seen = []
    table = classify._match

    def both(*args):
        label = table(*args)
        seen.append((label, match_ref(*args)))
        return label

    monkeypatch.setattr(classify, "_match", both)
    census(16, 4)
    assert len(seen) > 100
    assert [ref for _, ref in seen] == [label for label, _ in seen]


# ---------------------------------------------------------------------------
# A forged grid.  The pair labelling and the edge kind are replaced by
# fixed answers, so every kind meets every block action.

AFFINE_ORDERS = [24, 1344, 322560, 40320, 319979520]
ROW_ORDERS = AFFINE_ORDERS + sorted(M22_ORDERS) + [M11_ORDER]
KINDS = [None, "same_second", "four_distinct", "mixed"]


def _block_actions():
    """Catalogued 2- and 3-transitive actions of degree 4 to 32."""
    out = [agl(d) for d in range(2, 6)] + [z24_a7()]
    out += [
        mathieu(tag)
        for tag in ("M11on11", "M11on12", "M12", "M22", "AutM22", "M23", "M24")
    ]
    for q in [3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31]:
        out += [H for _, H in three_transitive_pgammal_list(q)]
        out.append(psl2(q))
    for m in [4, 5, 6, 8, 12, 16, 22]:
        out += [sym_alt(m, False)] + ([sym_alt(m, True)] if m >= 5 else [])
    return out


def _near(*values):
    return sorted({x + e for x in values for e in (-1, 0, 1) if x + e >= 1})


def _structures(v, half):
    return [
        StructureTag("Other"),
        StructureTag("DisjointComplete", (v + 1, v)),
        StructureTag("DisjointCycles", (3, 4)),
        StructureTag("DisjointCompleteMultipartite", (v, half, 2)),
        StructureTag("DisjointComplete", (2 * v, half)),
        StructureTag("DisjointComplete", (77, 6)),
        StructureTag("DisjointComplete", (22, 6)),
        StructureTag("DisjointCompleteBipartite", (v, half)),
        StructureTag("DisjointCompleteBipartite", (11, 6)),
    ]


def _grid():
    """(v, k, t, H, order, structures) cells.  Orders only matter beside
    the block sizes of the flag geometries, so elsewhere H's own order
    and one affine order stand for them all."""
    for H in _block_actions():
        v = H.degree - 1
        half = (v + 1) // 2
        orders = ROW_ORDERS if v in (3, 7, 11, 15, 21, 31) else [1344]
        orders = sorted(set(orders) | {H.order()})
        ks = _near(v - 1, half - 1, half, 5, 6, 16)
        ts = _near(1, v - 3, v - 2, half - 2, half - 1, 3, 4, 5, 6, 10, 16)
        structures = _structures(v, half)
        for order, k, t in itertools.product(orders, ks, ts):
            # structure tags are read by the t = 1 rows only
            yield v, k, t, H, order, structures if t == 1 else structures[::4]


def test_table_matches_reference_on_forged_grid(monkeypatch):
    T = SimpleNamespace(graph=None)
    cells = list(_grid())
    # the stop row: a projective block action whose order is not its own
    assert any(
        H.degree == 8 and H.order() == 336 and order == 1344 and (k, t) == (6, 4)
        for v, k, t, H, order, _ in cells
    )
    checked = 0
    differ = []
    for kind in KINDS:
        labels = None if kind is None else []
        monkeypatch.setattr(classify, "_pair_labels", lambda T, out=labels: out)
        monkeypatch.setattr(classify, "_edge_label_kind", lambda g, _, out=kind: out)
        for v, k, t, H, order, structures in cells:
            if kind is not None and k != v - 1:
                continue  # the kind is read at k = v - 1 only
            P = TripleParams(v=v, b=v, s=k * t, t=t, m=k * t, r=k, k=k, lam=None, rho=1)
            for structure in structures:
                args = (T, P, structure, order, H)
                got, want = classify._match(*args), match_ref(*args)
                checked += 1
                if got != want:
                    differ.append((kind, P, H.order(), order, structure, got, want))
    assert checked > 100000
    assert differ == []


@pytest.mark.parametrize("t,want", [(4, "Unmatched"), (1, "1.1(b)(iii)")])
def test_projective_block_action_wins_over_the_order(monkeypatch, t, want):
    # PGL(2, 7) on 8 blocks beside the order of AGL(3, 2), as when the
    # block kernel is not trivial: the projective rows decide
    H = next(H for _, H in three_transitive_pgammal_list(7) if H.order() == 336)
    monkeypatch.setattr(classify, "_pair_labels", lambda T: [])
    monkeypatch.setattr(classify, "_edge_label_kind", lambda g, _: "four_distinct")
    P = TripleParams(v=7, b=7, s=6 * t, t=t, m=6 * t, r=6, k=6, lam=None, rho=1)
    args = (SimpleNamespace(graph=None), P, StructureTag("Other"), 1344, H)
    assert classify._match(*args) == match_ref(*args) == want
