"""Graph container, recognizers, and serialization formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symquot.errors import GraphError, NotSelfPairedError
from symquot.graphs import (
    OTHER,
    Graph,
    Partition,
    bipartite_between,
    complete_graph,
    complete_multipartite_graph,
    connected_components,
    cycle_graph,
    disjoint_complete,
    disjoint_complete_bipartite,
    disjoint_complete_multipartite,
    disjoint_cycles,
    disjoint_union,
    graph_from_dimacs,
    graph_from_graph6,
    graph_from_json,
    graph_to_dimacs,
    graph_to_graph6,
    graph_to_json,
    has_intra_block_edges,
    is_g_symmetric,
    is_isomorphic,
    orbital_graph,
    pair_from_index,
    pair_index,
    quotient_graph,
    recognize_structure,
    structure_graph,
)
from symquot.groups_catalog import sym_alt
from symquot.permgroup import Permutation, PermutationGroup


class TestGraphBasics:
    def test_rejects_asymmetric_rows(self):
        with pytest.raises(GraphError):
            Graph(2, [0b10, 0b00])

    def test_rejects_loops(self):
        with pytest.raises(GraphError):
            Graph(2, [0b01, 0b10])

    def test_rejects_stray_bits(self):
        with pytest.raises(GraphError):
            Graph(2, [0b100, 0])

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(GraphError):
            Graph(3, [0, 0])

    def test_from_edges(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.degree(1) == 2
        assert not g.has_edge(0, 2)

    def test_from_edges_rejects_loop(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(1, 1)])

    def test_valency_on_irregular(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert not g.is_regular()
        with pytest.raises(GraphError):
            g.valency()

    def test_valency_on_cycle(self):
        assert cycle_graph(5).valency() == 2


class TestPartition:
    def test_rejects_overlap(self):
        with pytest.raises(GraphError):
            Partition([(0, 1), (1, 2)])

    def test_rejects_gap(self):
        with pytest.raises(GraphError):
            Partition([(0,), (2,)])

    def test_rejects_empty_block(self):
        with pytest.raises(GraphError):
            Partition([(0, 1), ()])

    def test_block_lookup(self):
        P = Partition([(0, 2), (1, 3)])
        assert P.block_of == (0, 1, 0, 1)
        assert P.block_mask(1) == 0b1010
        assert P.uniform_block_size() == 2

    def test_nonuniform_size(self):
        P = Partition([(0,), (1, 2)])
        assert P.uniform_block_size() is None


class TestBuilders:
    def test_cycle_needs_three(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_multipartite_valencies(self):
        g = complete_multipartite_graph([2, 2, 2])
        assert g.valency() == 4
        assert g.edge_count == 12

    def test_multipartite_rejects_empty_part(self):
        with pytest.raises(GraphError):
            complete_multipartite_graph([2, 0])

    def test_disjoint_union_offsets(self):
        g = disjoint_union([complete_graph(2), complete_graph(3)])
        assert g.n == 5
        assert g.has_edge(0, 1) and g.has_edge(2, 4)
        assert not g.has_edge(1, 2)


class TestPairNumbering:
    def test_lexicographic_rank(self):
        m = 5
        ranks = [pair_index(m, i, j) for i in range(m) for j in range(m) if i != j]
        assert ranks == list(range(m * (m - 1)))

    @given(st.integers(min_value=2, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, m):
        for idx in range(m * (m - 1)):
            i, j = pair_from_index(m, idx)
            assert pair_index(m, i, j) == idx

    def test_rejects_diagonal(self):
        with pytest.raises(GraphError):
            pair_index(4, 2, 2)

    def test_rejects_bad_index(self):
        with pytest.raises(GraphError):
            pair_from_index(4, 12)


class TestOrbitalGraph:
    def test_two_transitive_gives_complete(self):
        g = orbital_graph(sym_alt(4, False), 0, 1)
        assert g == complete_graph(4)

    def test_rotation_only_pair_is_directed(self):
        rot = PermutationGroup(4, [Permutation([1, 2, 3, 0])])
        with pytest.raises(NotSelfPairedError):
            orbital_graph(rot, 0, 1)

    def test_dihedral_pair_gives_cycle(self):
        dih = PermutationGroup(
            4, [Permutation([1, 2, 3, 0]), Permutation([0, 3, 2, 1])]
        )
        assert orbital_graph(dih, 0, 1) == cycle_graph(4)


class TestQuotient:
    def test_opposite_pairs_of_hexagon(self):
        q = quotient_graph(cycle_graph(6), Partition([(0, 3), (1, 4), (2, 5)]))
        assert q == complete_graph(3)

    def test_singleton_partition_is_identity(self):
        g = cycle_graph(6)
        assert quotient_graph(g, Partition([(i,) for i in range(6)])) == g

    def test_intra_block_edges_flagged_not_looped(self):
        g = cycle_graph(6)
        P = Partition([(0, 1), (2, 3), (4, 5)])
        assert has_intra_block_edges(g, P)
        q = quotient_graph(g, P)
        assert all(not q.has_edge(i, i) for i in range(3))

    def test_partition_size_mismatch(self):
        with pytest.raises(GraphError):
            quotient_graph(cycle_graph(5), Partition([(0, 1), (2, 3)]))


class TestComponents:
    def test_order_by_least_vertex(self):
        g = disjoint_union([cycle_graph(4), complete_graph(3)])
        assert connected_components(g) == [(0, 1, 2, 3), (4, 5, 6)]

    def test_edgeless(self):
        assert connected_components(Graph(3, [0, 0, 0])) == [(0,), (1,), (2,)]


class TestBipartiteBetween:
    def test_biclique(self):
        g = complete_multipartite_graph([3, 3])
        assert bipartite_between(g, [0, 1, 2], [3, 4, 5]) == {3}

    def test_no_cross_edges(self):
        assert bipartite_between(Graph(4, [0] * 4), [0, 1], [2, 3]) == set()

    def test_mixed_valencies(self):
        g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2)])
        assert bipartite_between(g, [0, 1], [2, 3]) == {1, 2}

    def test_overlap_rejected(self):
        with pytest.raises(GraphError):
            bipartite_between(complete_graph(3), [0, 1], [1, 2])


class TestRecognition:
    CASES = [
        (complete_graph(4), disjoint_complete(1, 4)),
        (Graph(5, [0] * 5), disjoint_complete(5, 1)),
        (cycle_graph(5), disjoint_cycles(1, 5)),
        (cycle_graph(3), disjoint_complete(1, 3)),
        (cycle_graph(4), disjoint_cycles(1, 4)),
        (complete_multipartite_graph([3, 3]), disjoint_complete_bipartite(1, 3)),
        (complete_multipartite_graph([2, 2, 2]), disjoint_complete_multipartite(1, 3, 2)),
        (complete_multipartite_graph([2, 3]), OTHER),
        (disjoint_union([complete_graph(3)] * 2), disjoint_complete(2, 3)),
        (disjoint_union([complete_graph(3), complete_graph(4)]), OTHER),
        (disjoint_union([complete_graph(3), cycle_graph(4)]), OTHER),
        (Graph.from_edges(4, [(0, 1), (1, 2)]), OTHER),
    ]

    @pytest.mark.parametrize("graph,tag", CASES)
    def test_expected_tag(self, graph, tag):
        assert recognize_structure(graph) == tag

    def test_square_is_a_cycle_not_a_biclique(self):
        # the 4-cycle doubles as the 2x2 biclique; the cycle name wins
        g = structure_graph(disjoint_complete_bipartite(3, 2))
        assert recognize_structure(g) == disjoint_cycles(3, 4)

    @pytest.mark.parametrize("tag", [
        disjoint_complete(2, 4),
        disjoint_complete(1, 1),
        disjoint_cycles(3, 5),
        disjoint_complete_bipartite(2, 3),
        disjoint_complete_multipartite(2, 3, 2),
        disjoint_complete_multipartite(1, 4, 3),
    ])
    def test_reconstruction_closes(self, tag):
        g = structure_graph(tag)
        assert recognize_structure(g) == tag
        assert is_isomorphic(g, structure_graph(recognize_structure(g)))

    def test_other_has_no_reconstruction(self):
        with pytest.raises(GraphError):
            structure_graph(OTHER)

    def test_tag_rendering(self):
        assert str(disjoint_cycles(3, 4)) == "DisjointCycles(3,4)"
        assert str(OTHER) == "Other"


class TestIsomorphism:
    def test_cycle_against_split_cycles(self):
        assert not is_isomorphic(cycle_graph(6), disjoint_union([cycle_graph(3)] * 2))

    def test_relabeled_petersen(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6),
                 (2, 7), (3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
        g1 = Graph.from_edges(10, edges)
        relabel = [3, 5, 0, 9, 7, 1, 8, 2, 6, 4]
        g2 = Graph.from_edges(10, [(relabel[u], relabel[v]) for u, v in edges])
        assert is_isomorphic(g1, g2)

    def test_degree_sequence_mismatch(self):
        assert not is_isomorphic(complete_graph(4), cycle_graph(4))

    def test_same_degrees_different_structure(self):
        # both cubic on 6 vertices
        k33 = complete_multipartite_graph([3, 3])
        prism = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                                     (5, 3), (0, 3), (1, 4), (2, 5)])
        assert not is_isomorphic(k33, prism)

    def test_size_cap(self):
        big = Graph(300, [0] * 300)
        with pytest.raises(GraphError):
            is_isomorphic(big, big)


class TestSymmetryCheck:
    def test_complete_under_full_symmetric(self):
        assert is_g_symmetric(complete_graph(4), sym_alt(4, False))

    def test_rotation_alone_is_not_arc_transitive(self):
        rot = PermutationGroup(4, [Permutation([1, 2, 3, 0])])
        assert not is_g_symmetric(cycle_graph(4), rot)

    def test_dihedral_fixes_that(self):
        dih = PermutationGroup(
            4, [Permutation([1, 2, 3, 0]), Permutation([0, 3, 2, 1])]
        )
        assert is_g_symmetric(cycle_graph(4), dih)

    def test_path_fails_vertex_transitivity(self):
        p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert not is_g_symmetric(p3, PermutationGroup(3, [Permutation([2, 1, 0])]))

    def test_non_invariant_graph(self):
        g = Graph.from_edges(4, [(0, 1)])
        assert not is_g_symmetric(g, sym_alt(4, False))

    def test_degree_mismatch(self):
        with pytest.raises(GraphError):
            is_g_symmetric(complete_graph(3), sym_alt(4, False))


class TestSerialization:
    def test_known_graph6_complete(self):
        assert graph_to_graph6(complete_graph(4)) == "C~"
        assert graph_from_graph6("C~") == complete_graph(4)

    def test_graph6_long_header(self):
        g = disjoint_union([complete_graph(9)] * 8)  # 72 vertices
        enc = graph_to_graph6(g)
        assert enc.startswith("~")
        assert graph_from_graph6(enc) == g

    def test_graph6_rejects_garbage(self):
        with pytest.raises(GraphError):
            graph_from_graph6("")
        with pytest.raises(GraphError):
            graph_from_graph6("C~extra")
        with pytest.raises(GraphError):
            graph_from_graph6("C\x1f")

    def test_dimacs_roundtrip(self):
        g = cycle_graph(5)
        text = graph_to_dimacs(g)
        assert text.splitlines()[0] == "p edge 5 5"
        assert graph_from_dimacs(text) == g

    def test_dimacs_ignores_comments(self):
        text = "c hello\np edge 3 1\nc mid\ne 1 3\n"
        assert graph_from_dimacs(text) == Graph.from_edges(3, [(0, 2)])

    def test_dimacs_count_mismatch(self):
        with pytest.raises(GraphError):
            graph_from_dimacs("p edge 3 2\ne 1 2\n")

    def test_dimacs_edge_before_header(self):
        with pytest.raises(GraphError):
            graph_from_dimacs("e 1 2\np edge 3 1\n")

    @pytest.mark.parametrize(
        "text",
        [
            "p edge x 3\n",
            "p edge 3 1.5\n",
            "p edge 3 1\ne 1 y\n",
            "p edge 3 1\ne - 2\n",
        ],
        ids=["problem_n", "problem_edges", "edge_head", "edge_tail"],
    )
    def test_dimacs_bad_number(self, text):
        with pytest.raises(GraphError, match="bad number"):
            graph_from_dimacs(text)

    def test_json_roundtrip(self):
        g = complete_multipartite_graph([2, 2, 2])
        assert graph_from_json(graph_to_json(g)) == g


@st.composite
def _graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    edges = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).map(lambda p: (min(p), max(p))).filter(lambda p: p[0] != p[1]),
            max_size=20,
        )
    )
    return Graph.from_edges(n, list(edges))


@settings(max_examples=60, deadline=None)
@given(_graphs(), st.randoms(use_true_random=False))
def test_relabeling_preserves_isomorphism(g, rng):
    order = list(range(g.n))
    rng.shuffle(order)
    h = Graph.from_edges(g.n, [(order[u], order[v]) for u, v in g.edges()])
    assert is_isomorphic(g, h)


@settings(max_examples=60, deadline=None)
@given(_graphs())
def test_graph6_roundtrip(g):
    assert graph_from_graph6(graph_to_graph6(g)) == g


@settings(max_examples=60, deadline=None)
@given(_graphs())
def test_dimacs_roundtrip_property(g):
    assert graph_from_dimacs(graph_to_dimacs(g)) == g


@settings(max_examples=40, deadline=None)
@given(_graphs())
def test_components_partition_vertices(g):
    comps = connected_components(g)
    seen = sorted(v for comp in comps for v in comp)
    assert seen == list(range(g.n))
