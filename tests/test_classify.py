import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symquot.classify import (
    CensusRow,
    ClassificationVerdict,
    TripleParams,
    _census_point_groups,
    _edge_label_kind,
    _fits_projective_line,
    _match,
    _pair_labels,
    _two_transitive_within_block,
    census,
    classify_triple,
    compute_params,
    corollary_case,
    orbit_length_check,
    verify_hypotheses,
)
from symquot.constructions import (
    AFFINE_NON_PLANE,
    AFFINE_PLANE,
    ALL_DISTINCT,
    COMMON_TWO_POINTS,
    DISJOINT_BLOCKS,
    OPPOSITE_NON_COMPLEMENT,
    SAME_BLOCK,
    SAME_SECOND,
    PairRule,
    Provenance,
    Triple,
    _group_spec,
    cross_ratio_graph,
    flag_graph,
    matching_graph,
    pair_action,
    pair_graph,
    pair_partition,
    star_transform,
    twisted_cross_ratio_graph,
)
from symquot.designs import ag_design, design_3_12_6_2
from symquot.errors import ClassificationError
from symquot.graphs import Graph, Partition, StructureTag
from symquot.groups_catalog import agl, mathieu, sym_alt
from symquot.permgroup import Permutation, PermutationGroup


def adhoc(graph, group, partition, name):
    return Triple(graph, group, partition, Provenance(name))


@pytest.fixture(scope="module")
def s4():
    return sym_alt(4, False)


@pytest.fixture(scope="module")
def s5():
    return sym_alt(5, False)


@pytest.fixture(scope="module")
def agl3():
    return agl(3, 2)


@pytest.fixture(scope="module")
def ag3():
    return ag_design(3, 2)


@pytest.fixture(scope="module")
def m11():
    return mathieu("M11on12")


@pytest.fixture(scope="module")
def twelve():
    return design_3_12_6_2()


def petersen_triple():
    """Kneser graph on 2-subsets of five points, singleton blocks."""
    pairs = list(itertools.combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = [
        (index[a], index[b])
        for a, b in itertools.combinations(pairs, 2)
        if not set(a) & set(b)
    ]
    g = Graph.from_edges(10, edges)

    def lift(images):
        return Permutation(
            [index[tuple(sorted((images[a], images[b])))] for a, b in pairs]
        )

    G = PermutationGroup(10, [lift([1, 2, 3, 4, 0]), lift([1, 0, 2, 3, 4])])
    P = Partition([(i,) for i in range(10)], 10)
    return adhoc(g, G, P, "petersen")


def multipartite_triple(transitive=True):
    """K_{3;2} on classes {i, i+3}; the full class-preserving group, or a
    3-cycle that cannot swap the two vertices of a class."""
    edges = [
        (i, j) for i in range(6) for j in range(i + 1, 6) if i % 3 != j % 3
    ]
    g = Graph.from_edges(6, edges)
    P = Partition([(0, 3), (1, 4), (2, 5)], 6)
    rotate = Permutation([1, 2, 0, 4, 5, 3])
    if transitive:
        gens = [
            Permutation([3, 1, 2, 0, 4, 5]),
            Permutation([1, 0, 2, 4, 3, 5]),
            rotate,
        ]
    else:
        gens = [rotate]
    return adhoc(g, PermutationGroup(6, gens), P, "multipartite")


def cube_triple():
    """The 3-cube under its rotation group, antipodal blocks."""
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 0),
        (4, 5), (5, 6), (6, 7), (7, 4),
        (0, 4), (1, 5), (2, 6), (3, 7),
    ]
    g = Graph.from_edges(8, edges)
    P = Partition([(0, 6), (1, 7), (2, 4), (3, 5)], 8)
    G = PermutationGroup(8, [
        Permutation([1, 2, 3, 0, 5, 6, 7, 4]),
        Permutation([0, 4, 5, 1, 3, 7, 6, 2]),
    ])
    return adhoc(g, G, P, "cube")


def pentagons_triple():
    """Two 5-cycles glued over five two-point blocks: vertex i rides the
    step-one cycle, vertex 5+i the step-two cycle, block i holds both.
    Every adjacent block pair carries a single edge, so k = 1 while the
    quotient valency is 4."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    g = Graph.from_edges(10, edges)
    P = Partition([(i, 5 + i) for i in range(5)], 10)
    rho = Permutation([1, 2, 3, 4, 0, 6, 7, 8, 9, 5])
    tau = Permutation([5, 7, 9, 6, 8, 0, 2, 4, 1, 3])
    return adhoc(g, PermutationGroup(10, [rho, tau]), P, "pentagons")


class TestHypotheses:
    def test_all_pass_on_cross_ratio(self):
        report = verify_hypotheses(cross_ratio_graph(5, 2, 1))
        assert report == {
            "arc_transitive": True,
            "invariant_partition": True,
            "no_internal_edges": True,
            "complete_quotient": True,
            "two_transitive_blocks": True,
        }

    def test_petersen_quotient_not_complete(self):
        report = verify_hypotheses(petersen_triple())
        assert report["arc_transitive"]
        assert report["invariant_partition"]
        assert not report["complete_quotient"]

    def test_small_group_breaks_block_transitivity(self):
        report = verify_hypotheses(multipartite_triple(transitive=False))
        assert not report["two_transitive_blocks"]

    def test_internal_edges_detected(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        P = Partition([(0, 1), (2, 3)], 4)
        G = PermutationGroup(4, [Permutation([1, 0, 3, 2])])
        report = verify_hypotheses(adhoc(g, G, P, "c4"))
        assert not report["no_internal_edges"]


class TestComputeParams:
    @pytest.mark.parametrize(
        "q,idx,sd",
        [(3, 2, 1), (4, 2, 2), (5, 2, 1), (7, 2, 1), (8, 2, 3), (9, 3, 2)],
    )
    def test_cross_ratio_shape(self, q, idx, sd):
        # idx picks the defining element; its subfield degree sd fixes the
        # cross valency when the step parameter is 1
        p = compute_params(cross_ratio_graph(q, idx, 1))
        assert (p.v, p.b, p.r, p.t) == (q, q, q - 1, sd)
        assert p.k == q - 1 and p.s == sd * (q - 1) and p.m == sd * (q - 1)
        assert p.rho == 1

    def test_all_distinct_pair(self, s5):
        p = compute_params(pair_graph(s5, ALL_DISTINCT))
        assert p == TripleParams(v=4, b=4, s=6, t=2, m=6, r=3, k=3, lam=2, rho=1)

    def test_common_two_points_flag(self, ag3, agl3):
        p = compute_params(flag_graph(ag3, agl3, COMMON_TWO_POINTS))
        assert (p.v, p.b, p.k, p.t, p.lam) == (7, 7, 3, 2, 1)

    def test_not_regular(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        G = PermutationGroup(3, [Permutation([2, 1, 0])])
        P = Partition([(0,), (1,), (2,)], 3)
        with pytest.raises(ClassificationError, match="valency"):
            compute_params(adhoc(g, G, P, "path"))

    def test_uneven_cross_valency(self):
        # regular of degree 2, but vertex 0 sends two edges into {2, 3}
        # while vertex 1 sends one
        g = Graph.from_edges(6, [(0, 2), (0, 3), (1, 2), (1, 4), (3, 5), (4, 5)])
        G = PermutationGroup(6, [Permutation(range(6))])
        P = Partition([(0, 1), (2, 3), (4, 5)], 6)
        with pytest.raises(ClassificationError, match="uneven"):
            compute_params(adhoc(g, G, P, "lopsided"))

    def test_parameters_vary_between_pairs(self):
        g = Graph.from_edges(
            6,
            [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 5), (2, 4), (3, 5), (4, 5)],
        )
        G = PermutationGroup(6, [Permutation(range(6))])
        P = Partition([(0, 1), (2, 3), (4, 5)], 6)
        with pytest.raises(ClassificationError, match="vary"):
            compute_params(adhoc(g, G, P, "ragged"))

    def test_edgeless(self):
        g = Graph.from_edges(4, [])
        G = PermutationGroup(4, [Permutation([1, 0, 3, 2])])
        P = Partition([(0, 1), (2, 3)], 4)
        with pytest.raises(ClassificationError, match="no edges"):
            compute_params(adhoc(g, G, P, "empty"))


class TestCorollaryCase:
    def test_matching_is_case_b(self, s5):
        V = classify_triple(matching_graph(s5))
        assert V.corollary_case == "b"
        assert V.params.k == 1 and V.params.v == V.params.b

    def test_multipartite_is_case_c(self):
        V = classify_triple(multipartite_triple())
        assert all(V.hypotheses.values())
        assert V.corollary_case == "c"
        assert V.theorem_case is None
        assert V.params.v == V.params.k == 2

    def test_cube_is_case_c(self):
        # every vertex of a block has support in every adjacent block,
        # so v = k even though v < b
        V = classify_triple(cube_triple())
        assert V.corollary_case == "c"
        assert (V.params.v, V.params.b, V.params.rho) == (2, 3, 3)

    def test_pentagons_are_case_a(self):
        V = classify_triple(pentagons_triple())
        assert all(V.hypotheses.values())
        assert V.corollary_case == "a"
        assert V.theorem_case is None
        assert V.params == TripleParams(
            v=2, b=4, s=2, t=1, m=1, r=2, k=1, lam=0, rho=2
        )

    def test_affine_plane_pair_is_case_d(self, agl3):
        V = classify_triple(pair_graph(agl3, AFFINE_PLANE))
        assert V.corollary_case == "d"
        assert (V.params.v, V.params.b, V.params.s, V.params.t) == (7, 7, 6, 1)

    def test_forged_case_b_inconsistency(self):
        forged = TripleParams(v=3, b=3, s=2, t=2, m=2, r=1, k=1, lam=0, rho=1)
        with pytest.raises(ClassificationError):
            corollary_case(forged)

    def test_forged_case_c_inconsistency(self):
        forged = TripleParams(v=2, b=4, s=3, t=1, m=2, r=3, k=2, lam=3, rho=2)
        with pytest.raises(ClassificationError):
            corollary_case(forged)

    def test_no_case_fits(self):
        forged = TripleParams(v=4, b=2, s=4, t=1, m=8, r=4, k=2, lam=None, rho=1)
        with pytest.raises(ClassificationError, match="no case"):
            corollary_case(forged)

    @given(
        v=st.integers(min_value=1, max_value=30),
        b=st.integers(min_value=1, max_value=30),
        k=st.integers(min_value=1, max_value=30),
        t=st.integers(min_value=1, max_value=5),
        r=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_total_on_arbitrary_params(self, v, b, k, t, r):
        forged = TripleParams(
            v=v, b=b, s=t * r, t=t, m=t * k, r=r, k=k, lam=0, rho=2
        )
        try:
            case = corollary_case(forged)
        except ClassificationError:
            return
        assert case in ("a", "b", "c", "d")


CLOSED_LOOP = [
    ("cr:q=3:d=2:s=1", "1.1(b)(iii)"),
    ("cr:q=4:d=2:s=1", "1.2(b)(i)"),
    ("cr:q=5:d=2:s=1", "1.1(b)(iii)"),
    ("cr:q=8:d=2:s=1", "1.2(b)(ii)"),
    ("cr:q=9:d=4:s=1", "1.2(b)(ii)"),
    ("tcr:q=9:d=4:s=2", "1.1(b)(iii)"),
]


class TestClassifyTriple:
    @pytest.mark.parametrize("tag,expected", CLOSED_LOOP)
    def test_cross_ratio_family(self, tag, expected):
        head, *parts = tag.split(":")
        args = dict(p.split("=") for p in parts)
        build = cross_ratio_graph if head == "cr" else twisted_cross_ratio_graph
        T = build(int(args["q"]), int(args["d"]), int(args["s"]))
        V = classify_triple(T)
        assert V.corollary_case == "d"
        assert V.theorem_case == expected

    def test_matching_labels(self, s5):
        assert classify_triple(matching_graph(s5)).theorem_case == "1.1(b)(i)"

    def test_same_second_pair(self, s5):
        V = classify_triple(pair_graph(s5, SAME_SECOND))
        assert V.theorem_case == "1.1(b)(ii)"
        assert V.structure == StructureTag("DisjointComplete", (5, 4))

    def test_all_distinct_four_transitive(self, s5):
        assert classify_triple(pair_graph(s5, ALL_DISTINCT)).theorem_case == "1.2(b)(i)"

    def test_all_distinct_on_four_points(self, s4):
        # same triple as the smallest cross ratio graph, so the
        # projective label wins over the affine one
        V = classify_triple(pair_graph(s4, ALL_DISTINCT))
        assert V.theorem_case == "1.1(b)(iii)"
        assert V.structure == StructureTag("DisjointCycles", (3, 4))

    def test_affine_pair_rules(self, agl3):
        assert (
            classify_triple(pair_graph(agl3, AFFINE_PLANE)).theorem_case
            == "1.1(b)(iv)"
        )
        assert (
            classify_triple(pair_graph(agl3, AFFINE_NON_PLANE)).theorem_case
            == "1.2(b)(iii.1)"
        )

    @pytest.mark.parametrize(
        "rule,expected",
        [
            (SAME_BLOCK, "1.1(c)(i)"),
            (DISJOINT_BLOCKS, "1.1(d)"),
            (COMMON_TWO_POINTS, "1.2(c)(i)"),
            (OPPOSITE_NON_COMPLEMENT, "1.2(c)(ii)"),
        ],
    )
    def test_affine_flag_rules(self, ag3, agl3, rule, expected):
        V = classify_triple(flag_graph(ag3, agl3, rule))
        assert V.corollary_case == "d"
        assert V.theorem_case == expected

    @pytest.mark.parametrize(
        "rule,expected",
        [
            (SAME_BLOCK, "1.1(c)(iii)"),
            (DISJOINT_BLOCKS, "1.1(d)"),
            (COMMON_TWO_POINTS, "1.2(c)(i)"),
            (OPPOSITE_NON_COMPLEMENT, "1.2(c)(ii)"),
        ],
    )
    def test_twelve_point_flag_rules(self, twelve, m11, rule, expected):
        V = classify_triple(flag_graph(twelve, m11, rule))
        assert V.theorem_case == expected

    def test_twelve_point_pair_rules(self, twelve, m11):
        V = classify_triple(pair_graph(m11, PairRule("design_out", twelve)))
        assert V.theorem_case == "1.2(b)(iii.1)" and V.params.t == 3
        V = classify_triple(pair_graph(m11, PairRule("design_in", twelve)))
        assert V.theorem_case == "1.2(b)(iii.2)" and V.params.t == 6

    def test_star_of_same_second(self, s4):
        V = classify_triple(star_transform(pair_graph(s4, SAME_SECOND)))
        assert V.theorem_case == "1.1(b)(iii)"

    def test_star_of_flag_graphs(self, ag3, agl3):
        V = classify_triple(star_transform(flag_graph(ag3, agl3, SAME_BLOCK)))
        assert V.theorem_case == "1.2(c)(i)"
        V = classify_triple(star_transform(flag_graph(ag3, agl3, DISJOINT_BLOCKS)))
        assert V.theorem_case == "1.2(c)(ii)"

    def test_failed_hypotheses_stop_early(self):
        V = classify_triple(petersen_triple())
        assert V.params is None
        assert V.corollary_case is None
        assert V.theorem_case is None

    def test_verdict_is_deterministic(self):
        a = classify_triple(cross_ratio_graph(4, 2, 1))
        b = classify_triple(cross_ratio_graph(4, 2, 1))
        assert a == b

    def test_theorem_only_in_main_cases(self, s5):
        for T in [
            pentagons_triple(),
            cube_triple(),
            matching_graph(s5),
            cross_ratio_graph(5, 2, 1),
        ]:
            V = classify_triple(T)
            assert (V.theorem_case is not None) == (V.corollary_case in ("b", "d"))

    def test_counting_identities_hold(self, s5, agl3, ag3):
        for T in [
            cross_ratio_graph(7, 2, 1),
            pair_graph(s5, ALL_DISTINCT),
            flag_graph(ag3, agl3, OPPOSITE_NON_COMPLEMENT),
            pentagons_triple(),
        ]:
            p = classify_triple(T).params
            assert p.v * p.s == p.b * p.m
            assert p.v * p.r == p.b * p.k

    def test_point_stabilizer_of_block_is_trivial(self, agl3, ag3):
        # in the main case the kernel of the block action is trivial
        for T in [cross_ratio_graph(5, 2, 1), flag_graph(ag3, agl3, SAME_BLOCK)]:
            _, kernel_trivial = T.group.induced_action(T.partition)
            assert kernel_trivial


class TestMatcherInternals:
    def test_projective_window_rejects_small_groups(self):
        trivial = PermutationGroup(6, [Permutation(range(6))])
        assert not _fits_projective_line(trivial, 5)

    def test_projective_window_rejects_bad_degree(self, s5):
        assert not _fits_projective_line(s5, 5)

    def test_unmatched_when_group_fits_nothing(self):
        T = cross_ratio_graph(5, 2, 1)
        forged = classify_triple(T).params
        trivial = PermutationGroup(6, [Permutation(range(6))])
        assert _match(T, forged, StructureTag("Other"), 59, trivial) == "Unmatched"

    def test_unmatched_for_out_of_range_support(self):
        T = cross_ratio_graph(5, 2, 1)
        forged = TripleParams(v=5, b=5, s=4, t=2, m=4, r=2, k=2, lam=1, rho=1)
        trivial = PermutationGroup(6, [Permutation(range(6))])
        assert _match(T, forged, StructureTag("Other"), 59, trivial) == "Unmatched"

    def test_unmatched_for_wrong_sporadic_cross_valency(self):
        T = cross_ratio_graph(5, 2, 1)
        forged = TripleParams(v=11, b=11, s=20, t=2, m=20, r=10, k=10, lam=9, rho=1)
        trivial = PermutationGroup(6, [Permutation(range(6))])
        assert _match(T, forged, StructureTag("Other"), 7920, trivial) == "Unmatched"

    def test_pair_labels_need_full_support(self, s4):
        # valency 1 misses two blocks per vertex, so no labelling exists
        assert _pair_labels(matching_graph(s4)) is None

    def test_pair_labels_on_same_second(self, s4):
        T = pair_graph(s4, SAME_SECOND)
        labels = _pair_labels(T)
        assert labels is not None and len(set(labels)) == 12
        assert _edge_label_kind(T.graph, labels) == "same_second"
        for x, y in T.graph.edges():
            assert labels[x][1] == labels[y][1]

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_edge_label_kind_against_edge_list(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        edges = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        g = Graph.from_edges(n, [(x, y) for x, y in edges if x != y])
        pair = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda p: p[0] != p[1])
        labels = data.draw(st.lists(pair, min_size=n, max_size=n))
        kinds = set()
        for x, y in g.edges():
            (i, j), (i2, j2) = labels[x], labels[y]
            if j == j2 and i != i2:
                kinds.add("same_second")
            elif len({i, j, i2, j2}) == 4:
                kinds.add("four_distinct")
            else:
                kinds.add("mixed")
        want = "mixed" if len(kinds) > 1 else kinds.pop() if kinds else "empty"
        assert _edge_label_kind(g, labels) == want


class TestOrbitLengths:
    def test_affine_tables(self, ag3, agl3):
        r = orbit_length_check(flag_graph(ag3, agl3, SAME_BLOCK))
        assert r["design"] == "affine"
        assert r["incident"]["orbit_lengths"] == [1, 2, 4]
        assert r["non_incident"]["orbit_lengths"] == [1, 3, 3]
        assert r["match"]

    def test_twelve_point_tables(self, twelve, m11):
        r = orbit_length_check(flag_graph(twelve, m11, SAME_BLOCK))
        assert r["design"] == "hadamard_12"
        assert r["incident"]["orbit_lengths"] == [1, 4, 6]
        assert r["non_incident"]["orbit_lengths"] == [1, 5, 5]
        assert r["match"]

    def test_rejects_other_triples(self):
        with pytest.raises(ClassificationError):
            orbit_length_check(cross_ratio_graph(5, 2, 1))


class TestCensus:
    def test_smallest_sweep(self):
        rows = census(3, 2)
        assert [r.tag for r in rows] == [
            "cr:q=3:d=2:s=1",
            "match:group=s4",
            "pair:group=s4:rule=same_second",
            "pair:group=s4:rule=all_distinct",
            "pair:group=agl_d2:rule=affine_plane",
        ]
        for row in rows:
            assert row.verdict.theorem_case in row.expected

    def test_empty_sweep(self):
        assert census(0, 0) == []

    def test_cap_refused(self):
        with pytest.raises(ClassificationError, match="max_q"):
            census(17, 4)

    def test_medium_sweep_closed(self):
        rows = census(5, 3)
        assert len(rows) == 31
        tags = [r.tag for r in rows]
        assert len(set(tags)) == len(tags)
        for row in rows:
            assert isinstance(row, CensusRow)
            assert row.verdict.corollary_case in ("b", "d")
            assert row.verdict.theorem_case in row.expected

    def test_four_transitive_flags_match_the_groups(self):
        # the census offers the all-distinct rule on exactly these groups
        flags = [(m, *row) for m in range(4, 18) for row in _census_point_groups(m)]
        assert len(flags) == 45
        for m, token, four_transitive in flags:
            G = _group_spec(token)[1]()
            assert G.degree == m
            assert (G.transitivity_degree() >= 4) == four_transitive, token


class TestVerdictJson:
    def test_full_shape(self, s5):
        doc = classify_triple(pair_graph(s5, SAME_SECOND)).as_json()
        assert set(doc) == {
            "hypotheses", "params", "corollary_case", "theorem_case", "structure",
        }
        assert doc["params"]["lambda"] == 2
        assert doc["theorem_case"] == "1.1(b)(ii)"
        assert doc["structure"] == {"kind": "DisjointComplete", "params": [5, 4]}

    def test_degraded_shape(self):
        doc = classify_triple(petersen_triple()).as_json()
        assert doc["params"] is None
        assert doc["corollary_case"] is None
        assert doc["hypotheses"]["complete_quotient"] is False


def _two_transitive_by_pair_bfs(group, partition):
    """Reference: count the ordered pairs inside the first block that lie in
    the orbit of its first two points, by a BFS over all ordered pairs."""
    home = partition.blocks[0]
    if len(home) == 1:
        return True
    seen = {(home[0], home[1])}
    queue = list(seen)
    for a, b in queue:
        for g in group.generators:
            if (g(a), g(b)) not in seen:
                seen.add((g(a), g(b)))
                queue.append((g(a), g(b)))
    inside = set(home)
    hits = sum(1 for a, b in seen if a in inside and b in inside)
    return hits == len(home) * (len(home) - 1)


@st.composite
def _group_and_partition(draw):
    """A group from up to three random generators and any partition of its
    points, block system or not."""
    n = draw(st.integers(min_value=1, max_value=8))
    gens = [
        Permutation(draw(st.permutations(range(n))))
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    blocks = [[x for x in range(n) if labels[x] == c] for c in dict.fromkeys(labels)]
    return PermutationGroup(n, gens), Partition(blocks)


@settings(max_examples=200, deadline=None)
@given(_group_and_partition())
def test_two_transitive_within_block_matches_pair_bfs(case):
    G, P = case
    assert _two_transitive_within_block(G, P) == _two_transitive_by_pair_bfs(G, P)


@pytest.mark.parametrize(
    "point_group",
    [sym_alt(4, False), sym_alt(5, False), agl(3, 2), mathieu("M11on12"), sym_alt(6, True)],
    ids=["s4", "s5", "agl_d3", "m11_12", "a6"],
)
def test_two_transitive_within_block_on_pair_lifts(point_group):
    L = pair_action(point_group)
    m = L.point_group.degree
    shuffled = [tuple(range(i, L.degree, m)) for i in range(m)]  # not fibres
    for P in (pair_partition(m), Partition(shuffled)):
        assert _two_transitive_within_block(L, P) == _two_transitive_by_pair_bfs(L, P)


def test_lift_checks_search_under_fibre_stabilizers(monkeypatch):
    """On a lift, the orbital graph and the arc and block checks take their
    suborbits under point stabilizers, never under the whole lifted group."""
    from symquot import constructions, permgroup
    from symquot.constructions import build_triple, parse_tag

    # a kept triple would have run its searches already
    constructions._kept.clear()
    calls = []
    real = permgroup._pair_suborbit

    def spy(gens, n, x, y):
        calls.append(gens)
        return real(gens, n, x, y)

    monkeypatch.setattr(permgroup, "_pair_suborbit", spy)
    for tag in ("cr:q=9:d=4:s=1", "tcr:q=9:d=4:s=2", "flag:design=h12:group=m11_12:rule=same_block"):
        calls.clear()
        T = build_triple(parse_tag(tag))
        hyps = verify_hypotheses(T)
        assert hyps["arc_transitive"] and hyps["two_transitive_blocks"], tag
        assert len(calls) >= 2 and all(gens is not T.group._gen_images for gens in calls), tag
