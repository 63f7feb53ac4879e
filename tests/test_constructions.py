import gc
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symquot import constructions
from symquot.constructions import (
    AFFINE_NON_PLANE,
    AFFINE_PLANE,
    ALL_DISTINCT,
    COMMON_TWO_POINTS,
    DISJOINT_BLOCKS,
    M22_DISJOINT,
    M22_MEET_TWO,
    OPPOSITE_NON_COMPLEMENT,
    SAME_BLOCK,
    SAME_SECOND,
    PairRule,
    Provenance,
    Triple,
    build_triple,
    cross_ratio_graph,
    flag_graph,
    matching_graph,
    pair_action,
    pair_graph,
    pair_partition,
    parse_tag,
    star_transform,
    twisted_cross_ratio_graph,
)
from symquot.designs import (
    IncidenceStructure,
    ag_design,
    design_3_12_6_2,
    steiner_3_22_6,
)
from symquot.errors import ConstructionError, NotSelfPairedError, SymquotError
from symquot.ffield import field
from symquot.graphs import (
    connected_components,
    pair_index,
    quotient_graph,
    recognize_structure,
)
from symquot.groups_catalog import agl, mathieu, pgl2, sym_alt
from symquot.permgroup import LiftedGroup, Permutation, PermutationGroup

from _reference import pair_from_index


def measure(triple):
    """Independent readback of (block size, quotient valency, k, t) from the
    first adjacent block pair."""
    g, P = triple.graph, triple.partition
    quot = quotient_graph(g, P)
    i, j = quot.edges()[0]
    A, B = P.blocks[i], P.blocks[j]
    out = [sum(g.has_edge(x, y) for y in B) for x in A]
    back = [sum(g.has_edge(y, x) for x in A) for y in B]
    tset = {d for d in out + back if d}
    assert len(tset) == 1, f"uneven cross valencies {tset}"
    k = sum(1 for d in out if d)
    return len(A), quot.valency(), k, tset.pop()


class TestProvenance:
    def test_flat_tag(self):
        p = Provenance("cr", (("q", "9"), ("d", "4"), ("s", "1")))
        assert p.tag == "cr:q=9:d=4:s=1"

    def test_nested_tag(self):
        inner = Provenance("pair", (("rule", "all_distinct"),))
        assert Provenance("star", (), inner).tag == "star:pair:rule=all_distinct"

    def test_bare_kind(self):
        assert Provenance("match").tag == "match"


class TestPairAction:
    def test_degree_and_blocks(self):
        G = pair_action(sym_alt(5, False))
        assert G.degree == 20
        P = pair_partition(5)
        assert P.n == 20
        assert all(len(b) == 4 for b in P.blocks)
        assert G.is_block_system(P.blocks)

    def test_too_small(self):
        with pytest.raises(ConstructionError):
            pair_action(sym_alt(2, False))

    @given(st.integers(min_value=3, max_value=7))
    @settings(max_examples=10, deadline=None)
    def test_faithful(self, m):
        # the point-group order agrees with Schreier-Sims on the pairs
        G = sym_alt(m, False)
        L = pair_action(G)
        assert L.order() == PermutationGroup(L.degree, L.generators).order()
        assert L.order() == G.order()


def _plain(L):
    """The same generators as a plain group, so every answer comes from
    Schreier-Sims on the lifted domain."""
    return PermutationGroup(L.degree, L.generators)


def _images(G):
    return [g.images for g in G.generators]


PAIR_LIFTS = {
    **{f"s{m}": (lambda m=m: sym_alt(m, False)) for m in range(3, 8)},
    "a6": lambda: sym_alt(6, True),
    "agl_d3": lambda: agl(3, 2),
    "pgl2_q7": lambda: pgl2(7),
}
FLAG_LIFTS = {
    "ag_d3/agl_d3": lambda: flag_graph(AG3, agl(3, 2), SAME_BLOCK),
    "h12/m11_12": lambda: flag_graph(
        design_3_12_6_2(), mathieu("M11on12"), SAME_BLOCK
    ),
}


def _lifted_groups():
    out = []
    for name, make in PAIR_LIFTS.items():
        out.append(pytest.param(lambda make=make: pair_action(make()), id=name))
    for name, make in FLAG_LIFTS.items():
        out.append(pytest.param(lambda make=make: make().group, id=name))
    return out


class TestLiftedGroup:
    """The point-group answers of a lift against the generic path on the
    same generators."""

    @pytest.mark.parametrize("make", _lifted_groups())
    def test_order_matches_schreier_sims(self, make):
        L = make()
        assert isinstance(L, LiftedGroup)
        assert L.order() == _plain(L).order() == L.point_group.order()
        assert L._chain is None  # no chain was built on the lifted domain

    @pytest.mark.parametrize("make", _lifted_groups())
    def test_fibre_action_matches_generic(self, make):
        L = make()
        img, faithful = L.induced_action(L.fibres)
        want, want_faithful = _plain(L).induced_action(L.fibres)
        assert img.degree == want.degree == L.point_group.degree
        assert _images(img) == _images(want)
        assert faithful is want_faithful is True
        assert L._chain is None

    def test_fibres_are_the_triple_partition(self):
        for T in (
            pair_graph(sym_alt(5, False), SAME_SECOND),
            flag_graph(AG3, agl(3, 2), SAME_BLOCK),
            star_transform(pair_graph(sym_alt(5, False), ALL_DISTINCT)),
        ):
            assert isinstance(T.group, LiftedGroup)
            assert T.group.fibres == T.partition.blocks

    def test_other_partitions_take_the_generic_path(self):
        L = pair_action(sym_alt(4, False))
        # one block: the whole group is kernel
        img, faithful = L.induced_action([range(L.degree)])
        assert img.order() == 1 and not faithful
        # the fibres in another order relabel the points
        swapped = [L.fibres[1], L.fibres[0]] + list(L.fibres[2:])
        got = L.induced_action(swapped)
        want = _plain(L).induced_action(swapped)
        assert _images(got[0]) == _images(want[0]) and got[1] == want[1]
        assert _images(got[0]) != _images(L.point_group)

    def test_duplicate_point_generators_collapse(self):
        c = Permutation.from_cycles(3, [(0, 1, 2)])
        G = PermutationGroup(3, [c, c])
        L = pair_action(G)
        img, faithful = L.induced_action(L.fibres)
        assert _images(img) == _images(_plain(L).induced_action(L.fibres)[0])
        assert _images(img) == [c.images] and faithful


_S3_FIXING_3 = PermutationGroup(
    4, [Permutation.from_cycles(4, [(0, 1, 2)]), Permutation.from_cycles(4, [(1, 2)])]
)


def _suborbit_lifts():
    out = list(_lifted_groups())
    out.append(pytest.param(lambda: pair_action(_S3_FIXING_3), id="intransitive"))
    out.append(pytest.param(lambda: pair_action(PermutationGroup(3, [])), id="trivial"))
    return out


@pytest.mark.parametrize("make", _suborbit_lifts())
def test_lifted_suborbit_matches_generic(make):
    L = make()
    n = L.degree
    for x in range(n):
        for y in {x, (7 * x + 1) % n, (x + n // 2) % n}:
            assert L.suborbit(x, y) == PermutationGroup.suborbit(L, x, y)
    assert L._chain is None


def test_intransitive_lift_uses_the_fallback():
    # point 3 lies outside the first basic orbit of the point chain, so
    # its fibre takes the fresh-stabilizer fallback
    L = pair_action(_S3_FIXING_3)
    assert 3 not in _S3_FIXING_3.chain.levels[0].transversal
    x = pair_index(4, 3, 0)  # stabilized by (1 2) only
    assert L.suborbit(x, pair_index(4, 1, 2)) == [pair_index(4, 1, 2), pair_index(4, 2, 1)]
    assert L.suborbit(x, pair_index(4, 1, 3)) == [pair_index(4, 1, 3), pair_index(4, 2, 3)]
    assert L.suborbit(x, pair_index(4, 0, 3)) == [pair_index(4, 0, 3)]


def test_lifted_suborbits_of_a_flag_lift():
    L = FLAG_LIFTS["h12/m11_12"]().group
    subs = L.suborbits(0)
    assert subs == PermutationGroup(L.degree, L.generators).suborbits(0)
    assert sorted(x for sub in subs for x in sub) == list(range(L.degree))


def _valid_cr_triples(qs):
    from symquot.groups_catalog import _field_for

    out = []
    for q in qs:
        F = _field_for(q)
        for i in range(2, q):
            sd = F.subfield_degree(F.element(i))
            for s in range(1, sd + 1):
                if sd % s == 0:
                    out.append((q, i, s))
    return out


class TestCrossRatio:
    def test_smallest_field_gives_squares(self):
        T = cross_ratio_graph(3, 2, 1)
        tag = recognize_structure(T.graph)
        assert tag.kind == "DisjointCycles"
        assert tag.params == (3, 4)

    def test_q5_gives_multipartite(self):
        tag = recognize_structure(cross_ratio_graph(5, 4, 1).graph)
        assert tag.kind == "DisjointCompleteMultipartite"
        assert tag.params == (5, 3, 2)

    @pytest.mark.parametrize("q,d,s", _valid_cr_triples([3, 4, 5, 7, 8, 9]))
    def test_parameter_law(self, q, d, s):
        T = cross_ratio_graph(q, d, s)
        assert T.graph.n == q * (q + 1)
        sd = field_degree_of(q, d)
        v, b, k, t = measure(T)
        assert (v, b, k, t) == (q, q, q - 1, sd // s)
        quot = quotient_graph(T.graph, T.partition)
        qt = recognize_structure(quot)
        assert qt.kind == "DisjointComplete"
        assert qt.params == (1, q + 1)

    def test_matches_pair_labeling_for_q4(self):
        # the projective semilinear group on 5 points is the symmetric group,
        # so the same graph arises from the all-distinct pair rule
        T = cross_ratio_graph(4, 2, 1)
        P = pair_graph(sym_alt(5, False), ALL_DISTINCT)
        assert T.group.order() == 120
        assert T.graph == P.graph

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConstructionError):
            cross_ratio_graph(3, 0, 1)
        with pytest.raises(ConstructionError):
            cross_ratio_graph(3, 1, 1)
        with pytest.raises(ConstructionError):
            cross_ratio_graph(2, 0, 1)
        with pytest.raises(ConstructionError):
            cross_ratio_graph(9, 4, 3)  # 3 does not divide s(d)=2
        with pytest.raises(SymquotError):
            cross_ratio_graph(6, 2, 1)

    def test_wrong_field_element(self):
        F25 = field(5, 2)
        with pytest.raises(ConstructionError):
            cross_ratio_graph(9, F25.element(3), 1)

    def test_provenance_tag(self):
        assert cross_ratio_graph(5, 3, 1).provenance.tag == "cr:q=5:d=3:s=1"


def field_degree_of(q, index):
    from symquot.groups_catalog import _field_for

    F = _field_for(q)
    return F.subfield_degree(F.element(index))


class TestTwisted:
    # in GF(9) with modulus x^2+1 the elements off the prime subfield have
    # indices 3..8; d-1 lands on a square for indices 4 and 7
    def test_square_case_builds(self):
        T = twisted_cross_ratio_graph(9, 4, 2)
        v, b, k, t = measure(T)
        assert (v, b, k, t) == (9, 9, 8, 1)
        assert T.group.order() == 720
        assert T.provenance.tag == "tcr:q=9:d=4:s=2"

    def test_nonsquare_case_refuses(self):
        with pytest.raises(NotSelfPairedError):
            twisted_cross_ratio_graph(9, 3, 2)

    @pytest.mark.parametrize(
        "q,d,s",
        [
            (8, 2, 2),  # even characteristic
            (27, 4, 2),  # odd field degree
            (3, 2, 2),  # too small
            (9, 2, 2),  # d inside the prime field: s(d) odd
            (9, 4, 1),  # odd s
            (9, 4, 4),  # s does not divide s(d)
        ],
    )
    def test_preconditions(self, q, d, s):
        with pytest.raises(ConstructionError):
            twisted_cross_ratio_graph(q, d, s)


class TestPairRules:
    def test_all_distinct_on_five_points(self):
        T = pair_graph(sym_alt(5, False), ALL_DISTINCT, group_label="s:n=5")
        assert measure(T) == (4, 4, 3, 2)
        assert T.graph.valency() == 6
        assert len(connected_components(T.graph)) == 1
        quot = recognize_structure(quotient_graph(T.graph, T.partition))
        assert quot.params == (1, 5)
        assert T.provenance.tag == "pair:group=s:n=5:rule=all_distinct"

    def test_same_second_components(self):
        T = pair_graph(sym_alt(5, False), SAME_SECOND)
        tag = recognize_structure(T.graph)
        assert tag.kind == "DisjointComplete"
        assert tag.params == (5, 4)

    def test_affine_plane_rule(self):
        T = pair_graph(agl(3, 2), AFFINE_PLANE)
        assert measure(T) == (7, 7, 6, 1)
        tag = recognize_structure(T.graph)
        assert tag.kind == "DisjointCompleteMultipartite"
        assert tag.params == (7, 4, 2)

    def test_affine_plane_d4(self):
        tag = recognize_structure(pair_graph(agl(4, 2), AFFINE_PLANE).graph)
        assert tag.params == (15, 8, 2)

    def test_affine_rules_partition_the_distinct_rule(self):
        G = agl(3, 2)
        plane = pair_graph(G, AFFINE_PLANE).graph
        rest = pair_graph(G, AFFINE_NON_PLANE).graph
        both = pair_graph(G, ALL_DISTINCT).graph
        assert not set(plane.edges()) & set(rest.edges())
        assert set(plane.edges()) | set(rest.edges()) == set(both.edges())

    def test_design_rules_on_twelve_points(self):
        D = design_3_12_6_2()
        G = mathieu("M11on12")
        inside = pair_graph(G, PairRule("design_in", D), group_label="mathieu:M11on12")
        outside = pair_graph(G, PairRule("design_out", D))
        assert measure(inside) == (11, 11, 10, 6)
        assert measure(outside) == (11, 11, 10, 3)
        assert "design=v12b22" in inside.provenance.tag

    def test_affine_rule_needs_power_of_two(self):
        with pytest.raises(ConstructionError):
            pair_graph(sym_alt(5, False), AFFINE_PLANE)

    def test_design_rule_needs_triple_coverage(self):
        fano = IncidenceStructure(
            7, [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
        )
        G = sym_alt(7, False)
        with pytest.raises(ConstructionError):
            pair_graph(G, PairRule("design_in", fano))

    def test_design_rule_needs_matching_degree(self):
        with pytest.raises(ConstructionError):
            pair_graph(sym_alt(5, False), PairRule("design_in", design_3_12_6_2()))

    def test_unknown_rule(self):
        with pytest.raises(ConstructionError):
            pair_graph(sym_alt(5, False), PairRule("weird"))

    def test_plain_rule_refuses_design(self):
        with pytest.raises(ConstructionError):
            pair_graph(sym_alt(5, False), PairRule("same_second", design_3_12_6_2()))

    def test_intransitive_group(self):
        G = PermutationGroup(5, [])
        with pytest.raises(ConstructionError):
            pair_graph(G, ALL_DISTINCT)


AG3 = ag_design(3, 2)


class TestFlagRules:
    def test_same_block_shape(self):
        T = flag_graph(AG3, agl(3, 2), SAME_BLOCK, design_label="ag:d=3:e=2")
        tag = recognize_structure(T.graph)
        assert tag.kind == "DisjointComplete"
        assert tag.params == (14, 4)
        assert T.provenance.tag == "flag:design=ag:d=3:e=2:rule=same_block"

    def test_disjoint_blocks_shape(self):
        tag = recognize_structure(flag_graph(AG3, agl(3, 2), DISJOINT_BLOCKS).graph)
        assert tag.kind == "DisjointCompleteBipartite"
        assert tag.params == (7, 4)

    def test_common_two_points_parameters(self):
        T = flag_graph(AG3, agl(3, 2), COMMON_TWO_POINTS)
        assert measure(T) == (7, 7, 3, 2)
        assert T.graph.valency() == 6
        quot = recognize_structure(quotient_graph(T.graph, T.partition))
        assert quot.params == (1, 8)

    def test_opposite_parameters(self):
        T = flag_graph(AG3, agl(3, 2), OPPOSITE_NON_COMPLEMENT)
        assert measure(T)[3] == 3

    def test_opposite_needs_complement_closure(self):
        with pytest.raises(ConstructionError):
            flag_graph(steiner_3_22_6(), mathieu("M22"), OPPOSITE_NON_COMPLEMENT)

    def test_m22_rules(self):
        D = steiner_3_22_6()
        G = mathieu("M22")
        disj = flag_graph(D, G, M22_DISJOINT, group_label="mathieu:M22")
        meet = flag_graph(D, G, M22_MEET_TWO)
        assert measure(disj) == (21, 21, 16, 6)
        assert measure(meet)[3] == 10
        assert disj.graph.n == 22 * 21

    def test_m22_rules_reject_other_designs(self):
        with pytest.raises(ConstructionError):
            flag_graph(design_3_12_6_2(), mathieu("M11on12"), M22_DISJOINT)

    def test_group_must_preserve(self):
        with pytest.raises(ConstructionError):
            flag_graph(AG3, sym_alt(8, False), SAME_BLOCK)

    def test_repeated_blocks_refused(self):
        doubled = IncidenceStructure(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
        with pytest.raises(ConstructionError):
            flag_graph(doubled, sym_alt(4, False), SAME_BLOCK)

    def test_unknown_rule(self):
        from symquot.constructions import FlagRule

        with pytest.raises(ConstructionError):
            flag_graph(AG3, agl(3, 2), FlagRule("sideways"))


# ---------------------------------------------------------------------------
# Neighbourhoods against the all-pairs rules they enumerate: the builders
# list each vertex's neighbours from its rule, and these closures test every
# vertex pair against the rule as the paper states it.

REFERENCE_DESIGNS = {
    "h12": design_3_12_6_2,
    "ag_d3": lambda: ag_design(3, 2),
    "ag_d4": lambda: ag_design(4, 3),
    "s22": steiner_3_22_6,
}


def _design_foursets(D):
    out = set()
    for blk in D.blocks:
        n = len(blk)
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(b + 1, n):
                    for e in range(c + 1, n):
                        out.add(frozenset((blk[a], blk[b], blk[c], blk[e])))
    return out


def _pair_adjacency(rule, D):
    fourset = _design_foursets(D) if D is not None else None

    def adjacent(i, j, i2, j2):
        if rule == "same_second":
            return j == j2 and i != i2
        distinct = len({i, j, i2, j2}) == 4
        if rule == "all_distinct":
            return distinct
        if rule == "affine_plane":
            return distinct and i ^ j ^ i2 ^ j2 == 0
        if rule == "affine_non_plane":
            return distinct and i ^ j ^ i2 ^ j2 != 0
        if not distinct:
            return False
        inside = frozenset((i, j, i2, j2)) in fourset
        return inside if rule == "design_in" else not inside

    return adjacent


def _flag_adjacency(rule, D):
    block_sets = [frozenset(b) for b in D.blocks]
    full = frozenset(range(D.v))
    complement_of = {
        i: next((c for c, fs2 in enumerate(block_sets) if fs2 == full - fs), None)
        for i, fs in enumerate(block_sets)
    }

    def adjacent(p, bi, p2, bi2):
        if p == p2:
            return False
        b1, b2 = block_sets[bi], block_sets[bi2]
        if rule == "same_block":
            return bi == bi2
        if rule == "disjoint_blocks":
            return not b1 & b2
        if rule == "common_two_points":
            return bi != bi2 and p in b2 and p2 in b1
        if p in b2 or p2 in b1:
            return False
        if rule == "opposite_non_complement":
            return bi2 != complement_of[bi]
        meet = len(b1 & b2)
        return meet == 0 if rule == "m22_disjoint" else meet == 2

    return adjacent


def _reference_nbrs(tag, n):
    """Neighbour tuples of the tag's n-vertex graph, from testing every
    vertex pair against the rule."""
    fields = dict(parse_tag(tag).params)
    D = REFERENCE_DESIGNS[fields["design"]]() if "design" in fields else None
    if tag.startswith("pair:"):
        m = math.isqrt(n) + 1  # n = m(m - 1)
        labels = [pair_from_index(m, z) for z in range(m * (m - 1))]
        adjacent = _pair_adjacency(fields["rule"], D)
    else:
        labels = [
            (p, bi) for p in range(D.v) for bi, blk in enumerate(D.blocks) if p in blk
        ]
        adjacent = _flag_adjacency(fields["rule"], D)
    return tuple(
        tuple(b for b, y in enumerate(labels) if b != a and adjacent(*x, *y))
        for a, x in enumerate(labels)
    )


REFERENCE_TAGS = [
    *(
        f"pair:group={g}:rule={r}"
        for g in ("s5", "s6", "a6", "agl_d3", "agl_d4", "z24_a7")
        for r in ("same_second", "all_distinct")
    ),
    *(
        f"pair:group={g}:rule={r}"
        for g in ("agl_d3", "agl_d4", "z24_a7")
        for r in ("affine_plane", "affine_non_plane")
    ),
    # ag_d4's blocks meet in four points, so two blocks share a four-set
    *(
        f"pair:group={g}:design={d}:rule={r}"
        for g, d in (("m11_12", "h12"), ("agl_d4", "ag_d4"))
        for r in ("design_in", "design_out")
    ),
    *(
        f"flag:design={d}:group={g}:rule={r}"
        for d, g in (("ag_d3", "agl_d3"), ("ag_d4", "agl_d4"), ("h12", "m11_12"))
        for r in (
            "same_block", "disjoint_blocks", "common_two_points", "opposite_non_complement"
        )
    ),
    "flag:design=s22:group=m22:rule=m22_disjoint",
    "flag:design=s22:group=m22:rule=m22_meet_two",
    # S8 does not preserve the affine rule, so no neighbourhood may be
    # carried around by the group; agl_d4 with ag_d4 design_in, above,
    # is not arc-transitive either
    "pair:group=s8:rule=affine_plane",
]


@pytest.mark.parametrize("tag", REFERENCE_TAGS)
def test_nbrs_match_the_rule_scan(tag):
    g = build_triple(parse_tag(tag)).graph
    assert g.nbrs == _reference_nbrs(tag, g.n)


@pytest.mark.parametrize(
    "tag",
    [
        "pair:group=m22:design=s22:rule=design_in",
        "flag:design=s22:group=m22:rule=m22_meet_two",
    ],
)
def test_nbrs_share_one_int_per_vertex(tag):
    # past 256 vertices ints are not interned, so a fresh int per entry
    # would cost a 28-byte object for every arc
    g = build_triple(parse_tag(tag)).graph
    assert g.n > 256
    assert len({id(v) for nb in g.nbrs for v in nb}) <= g.n


class TestStar:
    def test_involution_on_pair_graph(self):
        T = pair_graph(sym_alt(5, False), ALL_DISTINCT)
        S = star_transform(T)
        tag = recognize_structure(S.graph)
        assert (tag.kind, tag.params) == ("DisjointComplete", (5, 4))
        assert measure(S) == (4, 4, 3, 1)
        assert star_transform(S).graph == T.graph
        assert S.provenance.tag == "star:pair:rule=all_distinct"

    def test_flag_graph_pairing(self):
        # complementing the incidence rectangles swaps the two-common-points
        # rule with the shared-block rule, in both directions
        G = agl(3, 2)
        common = flag_graph(AG3, G, COMMON_TWO_POINTS)
        same = flag_graph(AG3, G, SAME_BLOCK)
        assert star_transform(common).graph == same.graph
        assert star_transform(same).graph == common.graph

    def test_star_of_cross_ratio(self):
        T = cross_ratio_graph(4, 2, 1)
        S = star_transform(T)
        assert recognize_structure(S.graph).params == (5, 4)
        assert star_transform(S).graph == T.graph

    def test_group_and_partition_carried(self):
        T = pair_graph(sym_alt(5, False), ALL_DISTINCT)
        S = star_transform(T)
        assert S.group is T.group
        assert S.partition is T.partition

    def test_refuses_complete_rectangle(self):
        from symquot.graphs import Graph, Partition
        from symquot.permgroup import Permutation

        g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        G = PermutationGroup(
            4,
            [
                Permutation([1, 0, 2, 3]),
                Permutation([0, 1, 3, 2]),
                Permutation([2, 3, 0, 1]),
            ],
        )
        T = Triple(g, G, Partition([(0, 1), (2, 3)]), Provenance("other"))
        with pytest.raises(ConstructionError):
            star_transform(T)

    def test_refuses_tiny_support(self):
        with pytest.raises(ConstructionError):
            star_transform(matching_graph(sym_alt(4, False)))


class TestMatching:
    def test_shape(self):
        T = matching_graph(sym_alt(4, False), group_label="s:n=4")
        tag = recognize_structure(T.graph)
        assert (tag.kind, tag.params) == ("DisjointComplete", (6, 2))
        assert measure(T) == (3, 3, 1, 1)
        assert T.provenance.tag == "match:group=s:n=4"

    def test_needs_three_transitivity(self):
        with pytest.raises(ConstructionError):
            matching_graph(sym_alt(4, True))


class TestTriple:
    def test_degree_mismatch(self):
        T = pair_graph(sym_alt(5, False), ALL_DISTINCT)
        with pytest.raises(ConstructionError):
            Triple(T.graph, sym_alt(5, False), T.partition, T.provenance)

    def test_quotient_and_hits_filled_once(self):
        T = pair_graph(sym_alt(5, False), ALL_DISTINCT)
        assert T.quotient is T.quotient and T.hits is T.hits
        assert T.quotient == quotient_graph(T.graph, T.partition)


class TestKeptTriple:
    """build_triple keeps the last triple it built, and only that one."""

    TAG = "cr:q=5:d=4:s=1"

    @pytest.fixture(autouse=True)
    def empty_slot(self):
        constructions._kept.clear()

    def test_equal_tag_returns_the_same_triple(self):
        T = build_triple(parse_tag(self.TAG))
        assert build_triple(parse_tag(self.TAG)) is T
        assert build_triple(parse_tag("cr:s=1:d=4:q=5")) is T
        assert build_triple(parse_tag("cr:q=05:d=4:s=001")) is T

    def test_other_tag_evicts_and_frees(self, monkeypatch):
        # a cr triple alone holds its lifted group, so the group is freed
        # only once the triple is
        first = build_triple(parse_tag(self.TAG))
        ref = weakref.ref(first.group)
        del first
        # the old triple is gone before the next build starts
        freed_at_start = []
        build = constructions._build

        def spy(tag):
            gc.collect()
            freed_at_start.append(ref() is None)
            return build(tag)

        monkeypatch.setattr(constructions, "_build", spy)
        other = build_triple(parse_tag("cr:q=5:d=3:s=1"))
        assert freed_at_start == [True]
        assert build_triple(parse_tag("cr:q=5:d=3:s=1")) is other
        again = build_triple(parse_tag(self.TAG))
        assert again.provenance.tag == self.TAG
        assert build_triple(parse_tag("cr:q=5:d=3:s=1")) is not other

    @pytest.mark.parametrize(
        "tag",
        [
            "cr:q=1009:d=2:s=1",  # refused on its vertex count
            "cr:q=6:d=2:s=1",  # no field of order 6
            "star:cr:q=7:d=3:s=1",  # the inner triple builds, the star fails
        ],
    )
    def test_failing_tag_raises_every_time_and_keeps_nothing(self, tag):
        T = build_triple(parse_tag(self.TAG))
        ref = weakref.ref(T.group)
        del T
        for _ in range(2):
            with pytest.raises(SymquotError):
                build_triple(parse_tag(tag))
            assert constructions._kept == {}
        gc.collect()
        assert ref() is None

    def test_star_tag_keeps_the_star_triple(self):
        inner_tag = parse_tag("pair:group=s5:rule=all_distinct")
        star_tag = Provenance("star", (), inner_tag)
        S = build_triple(star_tag)
        assert S.provenance == star_tag
        assert build_triple(parse_tag(star_tag.tag)) is S
        # the inner triple was not kept: asking for it builds it anew,
        # with a lifted group of its own
        inner = build_triple(inner_tag)
        assert inner.provenance == inner_tag and inner.group is not S.group
        assert inner.graph != S.graph
        assert build_triple(star_tag) is not S


# Tags that differ by group alone, on one rule graph.  s22 and steiner_22
# name one design object, so a flag rule shares across the two labels.
SHARED_GRAPH_TAGS = [
    (
        "pair:group=m22:design=s22:rule=design_out",
        "pair:group=aut_m22:design=s22:rule=design_out",
    ),
    (
        "flag:design=steiner_22:group=m22:rule=m22_meet_two",
        "flag:design=s22:group=aut_m22:rule=m22_meet_two",
    ),
    ("match:group=s6", "match:group=a6"),
]


class TestSharedRuleGraph:
    """pair_graph, flag_graph and matching_graph keep the last rule graph
    they listed and hand it to the next triple with the same kind, point
    count, rule and design, whatever its group."""

    @pytest.fixture(autouse=True)
    def empty_slots(self):
        constructions._kept.clear()
        constructions._rule_graphs.clear()

    @pytest.mark.parametrize("first,second", SHARED_GRAPH_TAGS)
    def test_rows_differing_by_group_share_one_graph(self, first, second):
        T = build_triple(parse_tag(first))
        U = build_triple(parse_tag(second))
        assert U.graph is T.graph
        assert U.group is not T.group and U.group.order() != T.group.order()

    @pytest.mark.parametrize(
        "first,second",
        [
            ("pair:group=s6:rule=same_second", "pair:group=s6:rule=all_distinct"),
            (
                "flag:design=ag_d3:group=agl_d3:rule=same_block",
                "flag:design=ag_d3:group=agl_d3:rule=disjoint_blocks",
            ),
            ("pair:group=s5:rule=same_second", "pair:group=s6:rule=same_second"),
            ("match:group=s5", "match:group=s6"),
            ("pair:group=m11_12:design=h12:rule=design_in", "pair:group=m11_12:rule=all_distinct"),
        ],
    )
    def test_another_rule_design_or_point_count_lists_its_own(self, first, second):
        T = build_triple(parse_tag(first))
        U = build_triple(parse_tag(second))
        assert U.graph is not T.graph and U.graph != T.graph

    def test_an_equal_design_object_lists_its_own(self):
        # the key holds the design itself, not what it equals
        D = ag_design(3, 2)
        copy = IncidenceStructure(D.v, D.blocks)
        assert copy == D
        G = agl(3, 2)
        T = flag_graph(D, G, SAME_BLOCK)
        U = flag_graph(copy, G, SAME_BLOCK)
        assert U.graph is not T.graph and U.graph == T.graph

    def test_checks_still_run_on_a_shared_graph(self):
        # the slot holds S6's matching graph; a group that is not
        # 3-transitive on the same six points is still refused
        matching_graph(sym_alt(6, False))
        cyclic = PermutationGroup(6, [Permutation([1, 2, 3, 4, 5, 0])])
        with pytest.raises(ConstructionError, match="3-transitivity"):
            matching_graph(cyclic)
        with pytest.raises(ConstructionError, match="transitive"):
            pair_graph(PermutationGroup(6, [Permutation([1, 0, 2, 3, 4, 5])]), SAME_SECOND)
        D = steiner_3_22_6()
        flag_graph(D, mathieu("M22"), M22_MEET_TWO)
        with pytest.raises(ConstructionError, match="does not preserve"):
            flag_graph(D, sym_alt(22, True), M22_MEET_TWO)

    def test_census_lists_each_rule_graph_once(self, monkeypatch):
        from symquot.classify import census

        listed = []
        real = constructions._rule_graph

        def spy(what, design, nbrs):
            def count():
                listed.append((*what, id(design)))
                return nbrs()

            return real(what, design, count)

        monkeypatch.setattr(constructions, "_rule_graph", spy)
        census(9, 3)
        assert len(listed) == len(set(listed)) == 41

    def test_census_keeps_instance_order_and_fresh_verdicts(self):
        from symquot.classify import _census_instances, census, classify_triple

        rows = census(9, 3)
        assert [(r.tag, r.expected) for r in rows] == _census_instances(9, 3)
        for row in rows:
            constructions._kept.clear()
            constructions._rule_graphs.clear()
            assert row.verdict == classify_triple(build_triple(parse_tag(row.tag)))
