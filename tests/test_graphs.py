"""Graph container, recognizers, and serialization formats."""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symquot.classify import _census_instances
from symquot.constructions import build_triple, parse_tag
from symquot.errors import GraphError, GroupError, NotSelfPairedError
from symquot.graphs import (
    OTHER,
    Graph,
    Partition,
    _bits,
    connected_components,
    cross_counts,
    graph_from_dimacs,
    graph_from_graph6,
    graph_from_json,
    graph_to_dimacs,
    graph_to_graph6,
    graph_to_json,
    has_intra_block_edges,
    is_g_symmetric,
    orbital_graph,
    pair_index,
    quotient_graph,
    recognize_structure,
)
from symquot.groups_catalog import sym_alt
from symquot.permgroup import Permutation, PermutationGroup

from _reference import (
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    disjoint_complete,
    disjoint_complete_bipartite,
    disjoint_complete_multipartite,
    disjoint_cycles,
    disjoint_union,
    elements,
    pair_from_index,
    structure_graph,
)


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
        assert len(g.nbrs[1]) == 2
        assert not g.has_edge(0, 2)

    def test_from_edges_rejects_loop(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(1, 1)])

    def test_valency_on_irregular(self):
        g = Graph.from_edges(3, [(0, 1)])
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

    @pytest.mark.parametrize("lifted", [False, True])
    def test_one_walk_per_orbital_graph(self, monkeypatch, lifted):
        # the self-pairing check's suborbit and translates are the rows
        from symquot.constructions import pair_action
        from symquot.groups_catalog import pgammal_subgroup

        G = pair_action(pgammal_subgroup(9, 1)) if lifted else sym_alt(5, False)
        x, y = (0, pair_index(10, 1, 0)) if lifted else (0, 1)
        calls = {}
        for name in ("suborbit", "translates", "is_self_paired"):
            def counted(*args, _real=getattr(G, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args)

            monkeypatch.setattr(G, name, counted)
        g = orbital_graph(G, x, y)
        assert calls == {"suborbit": 1, "translates": 1, "is_self_paired": 1}
        assert g.has_edge(x, y) and g.nbrs == tuple(G._translated[1])


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
    """The bipartite graph between two blocks, as cross_counts measures it."""

    def test_biclique(self):
        g = complete_multipartite_graph([3, 3])
        assert cross_counts(g, Partition([(0, 1, 2), (3, 4, 5)]), 0, 1) == ({3}, 9, 3)

    def test_no_cross_edges(self):
        P = Partition([(0, 1), (2, 3)])
        assert cross_counts(Graph(4, [0] * 4), P, 0, 1) == (set(), 0, 0)

    def test_mixed_valencies(self):
        g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2)])
        assert cross_counts(g, Partition([(0, 1), (2, 3)]), 0, 1) == ({1, 2}, 3, 2)

    def test_overlap_rejected(self):
        with pytest.raises(GraphError):
            cross_counts(complete_graph(3), Partition([(0, 1), (2,)]), 1, 1)

    def test_partition_larger_than_graph(self):
        g = Graph(3, nbrs=[(1,), (0,), ()])
        with pytest.raises(GraphError, match="partition does not match the graph"):
            cross_counts(g, Partition([(0, 1), (2, 3)]), 0, 1)


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

    def test_other_has_no_reconstruction(self):
        with pytest.raises(GraphError):
            structure_graph(OTHER)

    def test_tag_rendering(self):
        assert str(disjoint_cycles(3, 4)) == "DisjointCycles(3,4)"
        assert str(OTHER) == "Other"


class TestIsomorphism:
    """Non-isomorphic graphs of one size get different shapes; a relabelled
    graph keeps its symmetry under the relabelled group."""

    def test_cycle_against_split_cycles(self):
        assert recognize_structure(cycle_graph(6)) == disjoint_cycles(1, 6)
        assert recognize_structure(disjoint_union([cycle_graph(3)] * 2)) == disjoint_complete(2, 3)

    def test_relabeled_petersen(self):
        # the Kneser graph on the 2-subsets of 0..4, with S5 acting on them
        pairs = [frozenset(p) for p in itertools.combinations(range(5), 2)]
        index = {p: i for i, p in enumerate(pairs)}
        edges = [(index[a], index[b]) for a, b in itertools.combinations(pairs, 2) if not a & b]
        relabel = [3, 5, 0, 9, 7, 1, 8, 2, 6, 4]
        g = Graph.from_edges(10, [(relabel[u], relabel[v]) for u, v in edges])

        def on_pairs(cycle):
            s = Permutation.from_cycles(5, [cycle])
            images = [0] * 10
            for p, i in index.items():
                images[relabel[i]] = relabel[index[frozenset(s(x) for x in p)]]
            return Permutation(images)

        G = PermutationGroup(10, [on_pairs((0, 1)), on_pairs((0, 1, 2, 3, 4))])
        assert G.order() == 120
        assert g.valency() == 3 and len(connected_components(g)) == 1
        assert is_g_symmetric(g, G)
        assert recognize_structure(g) == OTHER

    def test_degree_sequence_mismatch(self):
        assert recognize_structure(complete_graph(4)) == disjoint_complete(1, 4)
        assert recognize_structure(cycle_graph(4)) == disjoint_cycles(1, 4)

    def test_same_degrees_different_structure(self):
        # both cubic on 6 vertices
        k33 = complete_multipartite_graph([3, 3])
        prism = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                                     (5, 3), (0, 3), (1, 4), (2, 5)])
        assert recognize_structure(k33) == disjoint_complete_bipartite(1, 3)
        assert recognize_structure(prism) == OTHER


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

    def test_swapped_edge_pair_off_the_kept_walk_root(self):
        # The builder's orbital walk, kept by the group, starts at vertex 0.
        # A graph that agrees with it at vertex 0 and shares every other
        # untouched neighbour tuple must still be compared in full.
        from symquot.constructions import cross_ratio_graph

        T = cross_ratio_graph(5, 4, 1)
        g, G = T.graph, T.group
        assert G._translated[0] == (0, g.nbrs[0])
        assert is_g_symmetric(g, G)
        a, b, c, d = next(
            (a, b, c, d)
            for (a, b), (c, d) in itertools.combinations(g.edges(), 2)
            if 0 not in (a, b, c, d) and len({a, b, c, d}) == 4
            and not g.has_edge(a, d) and not g.has_edge(c, b)
        )
        nbrs = list(g.nbrs)
        for x, old, new in ((a, b, d), (b, a, c), (c, d, b), (d, c, a)):
            nbrs[x] = tuple(sorted(set(nbrs[x]) - {old} | {new}))
        forged = Graph(g.n, nbrs=nbrs)
        assert forged.nbrs[0] is g.nbrs[0] and forged.valency() == g.valency()
        assert not is_g_symmetric(forged, G)
        assert is_g_symmetric(g, G)


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

    @pytest.mark.parametrize(
        "data",
        [
            {"n": 2, "adj": [[-1], []]},
            {"n": 2, "adj": [[1.0], [0]]},
            {"n": 2.5, "adj": [[1], [0]]},
            {"adj": [[1], [0]]},
            {"n": 2, "adj": [[10 ** 9], []]},
            {"n": 1, "adj": [[], []]},
            {"n": 2, "adj": [1, 0]},
            [[1], [0]],
        ],
        ids=[
            "negative", "float", "float_n", "missing_n",
            "huge", "extra_row", "int_row", "not_an_object",
        ],
    )
    def test_json_malformed_is_a_graph_error(self, data):
        with pytest.raises(GraphError):
            graph_from_json(data)


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
    assert recognize_structure(h) == recognize_structure(g)
    assert sorted(len(c) for c in connected_components(h)) == sorted(
        len(c) for c in connected_components(g)
    )


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


@settings(max_examples=80, deadline=None)
@given(_graphs(), st.data())
def test_cross_counts_against_edge_count(g, data):
    labels = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    names = sorted(set(labels))
    P = Partition([[x for x in range(g.n) if labels[x] == a] for a in names])
    i = data.draw(st.integers(0, len(names) - 1))
    j = data.draw(st.integers(0, len(names) - 1))
    if i == j:
        with pytest.raises(GraphError):
            cross_counts(g, P, i, j)
        return
    A, B = P.blocks[i], P.blocks[j]
    out = [sum(g.has_edge(x, y) for y in B) for x in A]
    back = [sum(g.has_edge(x, y) for x in A) for y in B]
    edges = sum(1 for u, v in g.edges() if (u in A and v in B) or (u in B and v in A))
    assert cross_counts(g, P, i, j) == (
        {d for d in out + back if d},
        edges,
        sum(1 for d in out if d),
    )


# ---------------------------------------------------------------------------
# The neighbour-tuple core against references that read only the bitsets.


def _row_bits(row, n):
    return tuple(v for v in range(n) if row >> v & 1)


def _assert_nbrs_match_rows(g):
    assert len(g.nbrs) == g.n
    for row, nb in zip(g.adj, g.nbrs):
        assert nb == tuple(_bits(row)) == _row_bits(row, g.n)


def _random_graph(n, rng, density=0.3):
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    )


@settings(max_examples=60, deadline=None)
@given(_graphs())
def test_nbrs_match_rows(g):
    _assert_nbrs_match_rows(g)  # from_edges
    rebuilt = Graph(g.n, g.adj)
    _assert_nbrs_match_rows(rebuilt)
    assert rebuilt.nbrs == g.nbrs
    assert Graph(g.n, nbrs=g.nbrs).adj == g.adj
    assert g.edges() == [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1
    ]
    assert graph_to_json(g)["adj"] == [list(_row_bits(r, g.n)) for r in g.adj]


def test_nbrs_of_builders_and_orbital_graphs():
    for g in (
        complete_graph(6),
        cycle_graph(7),
        complete_multipartite_graph([2, 3, 1]),
        disjoint_union([complete_graph(3), cycle_graph(4)]),
    ):
        _assert_nbrs_match_rows(g)
    S5 = sym_alt(5, False)
    _assert_nbrs_match_rows(orbital_graph(S5, 0, 1))
    dih = PermutationGroup(
        8, [Permutation([(i + 1) % 8 for i in range(8)]), Permutation([(-i) % 8 for i in range(8)])]
    )
    for y in range(1, 8):
        _assert_nbrs_match_rows(orbital_graph(dih, 0, y))


def test_from_edges_merges_repeated_edges():
    g = Graph.from_edges(4, [(0, 1), (1, 0), (0, 1), (2, 3)])
    assert g.nbrs == ((1,), (0,), (3,), (2,))
    assert g.edge_count == 2


@pytest.mark.parametrize(
    "n,rows,message",
    [
        (3, [0b110, 0b001, 0b000], "edge 0-2 missing its reverse"),
        (3, [0b010, 0b000, 0b000], "edge 0-1 missing its reverse"),
        (3, [0b000, 0b100, 0b000], "edge 1-2 missing its reverse"),
        (3, [0b101, 0b000, 0b001], "loop at vertex 0"),
        (3, [0b000, 0b010, 0b000], "loop at vertex 1"),
        (3, [0b1000, 0, 0], "row 0 has bits outside 0..2"),
        (2, [0, -1], "row 1 has bits outside 0..1"),
        (3, [0, 0], "adjacency has 2 rows for 3 vertices"),
        (0, [], "graph needs at least one vertex"),
    ],
)
def test_bad_rows_still_raise(n, rows, message):
    with pytest.raises(GraphError, match=message):
        Graph(n, rows)


UNSORTED = "neighbours of vertex 0 are unsorted or repeat a vertex"


@pytest.mark.parametrize(
    "n,nbrs,message",
    [
        # symmetric, so no edge lacks its reverse, yet not sorted sets
        (3, [(2, 1), (0,), (0,)], UNSORTED),
        (3, [(1, 1), (0, 0), ()], UNSORTED),
        (8, [(-1,), (), (), (), (), (), (), (0,)], "row 0 has bits outside 0..7"),
        (3, [(1,), (), ()], "edge 0-1 missing its reverse"),
        (3, [(2, 1), (), ()], "edge 0-1 missing its reverse"),
        (3, [(0,), (), ()], "loop at vertex 0"),
        (3, [(3,), (), ()], "row 0 has bits outside 0..2"),
        (3, [(1,), (0,)], "adjacency has 2 rows for 3 vertices"),
        # out of range, whether _rows would index past the row or wrap
        (3, [(9,), (), ()], "row 0 has bits outside 0..2"),
        (3, [(-7,), (0,), ()], "row 0 has bits outside 0..2"),
        (3, [(-8,), (), ()], "row 0 has bits outside 0..2"),
        (3, [(1, 99, 2), (0,), (0,)], "row 0 has bits outside 0..2"),
    ],
)
def test_bad_neighbour_tuples_raise(n, nbrs, message):
    with pytest.raises(GraphError, match=message):
        Graph(n, nbrs=nbrs)


def test_rows_or_neighbour_tuples_not_both():
    # rows and tuples that disagree (graph6 would read edge 0-2, JSON 0-1)
    with pytest.raises(TypeError):
        Graph(3, [0b100, 0, 0b001], nbrs=[(1,), (0,), ()])
    with pytest.raises(TypeError):
        Graph(3)


@pytest.mark.parametrize(
    "edges,message",
    [
        ([(0, 1), (2, 2)], "loop at vertex 2"),
        ([(0, 3)], "edge 0-3 out of range"),
        ([(-1, 0)], "edge -1-0 out of range"),
    ],
)
def test_bad_edges_still_raise(edges, message):
    with pytest.raises(GraphError, match=message):
        Graph.from_edges(3, edges)


def _symmetric_by_elements(g, G):
    """is_g_symmetric by brute force over every group element."""
    group = [p.images for p in elements(G)]
    arcs = {(u, v) for u in range(g.n) for v in range(g.n) if g.has_edge(u, v)}
    for im in group:
        if {(im[u], im[v]) for u, v in arcs} != arcs:
            return False
    if {im[0] for im in group} != set(range(g.n)):
        return False
    if not arcs:
        return True
    u0, v0 = min(arcs)
    return {(im[u0], im[v0]) for im in group} == arcs


def _block_sizes(n):
    """Block sizes b for which S_b wr S_(n/b) has at most 7! elements."""
    return [
        b for b in range(1, n + 1)
        if n % b == 0
        and math.factorial(n // b) * math.factorial(b) ** (n // b) <= 5040
    ]


@st.composite
def _graph_and_group(draw):
    """A graph on at most 9 vertices and a group that permutes consecutive
    blocks of size b, small enough to list.  Half the graphs are unions of
    generator orbits on edges, so the group preserves them."""
    n = draw(st.integers(min_value=1, max_value=9))
    b = draw(st.sampled_from(_block_sizes(n)))
    c = n // b
    gens = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        outer = draw(st.permutations(range(c)))
        inner = [draw(st.permutations(range(b))) for _ in range(c)]
        gens.append(
            Permutation([outer[x // b] * b + inner[x // b][x % b] for x in range(n)])
        )
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {(u, v) for u, v in draw(st.sets(pairs, max_size=12)) if u != v}
    if draw(st.booleans()):
        todo = list(edges)
        while todo:
            u, v = todo.pop()
            for p in gens:
                e = (p(u), p(v))
                if e not in edges and e[::-1] not in edges:
                    edges.add(e)
                    todo.append(e)
    return Graph.from_edges(n, edges), PermutationGroup(n, gens)


@settings(max_examples=150, deadline=None)
@given(_graph_and_group())
def test_is_g_symmetric_matches_brute_force(case):
    g, G = case
    assert is_g_symmetric(g, G) == _symmetric_by_elements(g, G)


def _dihedral(n):
    return PermutationGroup(
        n,
        [
            Permutation([(i + 1) % n for i in range(n)]),
            Permutation([(-i) % n for i in range(n)]),
        ],
    )


@pytest.mark.parametrize(
    "g,G,want",
    [
        # the reflection i -> -i maps edge {0, 1} to the non-edge {0, 5}
        (Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)]), _dihedral(6), False),
        # swapping the two triangles' vertices 0 and 3 alone breaks adjacency
        (
            disjoint_union([complete_graph(3)] * 2),
            PermutationGroup(6, [Permutation([3, 1, 2, 0, 4, 5])]),
            False,
        ),
        # invariant but intransitive: the group fixes vertex 4
        (
            Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)]),
            PermutationGroup(
                5, [Permutation([1, 2, 3, 0, 4]), Permutation([0, 3, 2, 1, 4])]
            ),
            False,
        ),
        # the arc orbit of the matching has four members, as many as its
        # arcs, but two of them are non-edges: counting alone accepts this
        (
            Graph.from_edges(4, [(0, 1), (2, 3)]),
            PermutationGroup(4, [Permutation([1, 2, 3, 0])]),
            False,
        ),
        (Graph(5, [0] * 5), _dihedral(5), True),  # edgeless, transitive
        (Graph(5, [0] * 5), PermutationGroup(5, [Permutation([1, 0, 2, 3, 4])]), False),
        (Graph(1, [0]), PermutationGroup(1, []), True),
        (cycle_graph(6), _dihedral(6), True),
        (cycle_graph(6), PermutationGroup(6, _dihedral(6).generators[:1]), False),
        # two triangles: the Schreier tree from 0 uses only the 6-cycle
        # (0 3 4 5 1 2), which preserves them, never (0 3 4)(1 2 5), which
        # does not; G_0 moves 1 onto 3, so the suborbit {1, 3} has the size
        # of N(0) = {1, 4} but not its points
        (
            Graph.from_edges(6, [(0, 1), (1, 4), (4, 0), (2, 3), (3, 5), (5, 2)]),
            PermutationGroup(6, [Permutation([3, 2, 0, 4, 5, 1]), Permutation([3, 2, 5, 4, 0, 1])]),
            False,
        ),
        # K_{3,3} as the hexagon plus its long diagonals: D6 preserves it,
        # but N(0) is the two suborbits {1, 5} and {3}
        (
            Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4), (2, 5)]),
            _dihedral(6),
            False,
        ),
        # the hexagon missing edge {2, 3}: N(0) is still a G_0-orbit, and
        # only the tree walk reaches the break
        (Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 0)]), _dihedral(6), False),
    ],
    ids=[
        "breaks_adjacency",
        "one_generator_breaks_adjacency",
        "intransitive",
        "arc_count_coincidence",
        "edgeless_transitive",
        "edgeless_intransitive",
        "single_vertex",
        "dihedral_cycle",
        "rotations_only",
        "tree_images_match_but_not_invariant",
        "neighbourhood_is_two_suborbits",
        "break_away_from_u0",
    ],
)
def test_is_g_symmetric_cases(g, G, want):
    assert _symmetric_by_elements(g, G) == want
    assert is_g_symmetric(g, G) == want


def _graph6_reference(g):
    """graph6 one bit at a time, straight from the format description."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    bits = [int(g.has_edge(i, j)) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = []
    for k in range(0, len(bits), 6):
        val = 0
        for bit in bits[k : k + 6]:
            val = val << 1 | bit
        body.append(chr(val + 63))
    return head + "".join(body)


def test_graph6_matches_reference_for_every_small_order():
    rng = random.Random(7)
    for n in range(1, 71):
        for density in (0.0, 0.4, 1.0):
            g = _random_graph(n, rng, density)
            assert graph_to_graph6(g) == _graph6_reference(g), (n, density)


def test_graph6_matches_reference_above_two_hundred_vertices():
    g = _random_graph(233, random.Random(11), 0.2)
    text = graph_to_graph6(g)
    assert text == _graph6_reference(g)
    assert graph_from_graph6(text) == g


def _orbital_by_pair_bfs(G, x, y):
    """Reference orbital graph: BFS of the unordered pair {x, y}."""
    seen = {(min(x, y), max(x, y))}
    queue = list(seen)
    for u, v in queue:
        for p in G.generators:
            e = (min(p(u), p(v)), max(p(u), p(v)))
            if e not in seen:
                seen.add(e)
                queue.append(e)
    return Graph.from_edges(G.degree, seen)


@settings(max_examples=150, deadline=None)
@given(_graph_and_group(), st.data())
def test_orbital_graph_matches_unordered_pair_bfs(case, data):
    _, G = case
    assume(G.degree >= 2)
    x, y = data.draw(st.permutations(range(G.degree)))[:2]
    arcs = {(x, y)}
    queue = [(x, y)]
    for u, v in queue:
        for p in G.generators:
            if (p(u), p(v)) not in arcs:
                arcs.add((p(u), p(v)))
                queue.append((p(u), p(v)))
    if y not in G.orbit(x):
        with pytest.raises(GroupError):
            orbital_graph(G, x, y)
    elif (y, x) not in arcs:
        with pytest.raises(NotSelfPairedError):
            orbital_graph(G, x, y)
    else:
        g, want = orbital_graph(G, x, y), _orbital_by_pair_bfs(G, x, y)
        assert g == want and g.nbrs == want.nbrs


def test_orbital_graphs_of_census_cross_ratio_tags():
    tags = [tag for tag, _ in _census_instances(9, 3) if tag.startswith(("cr:", "tcr:"))]
    assert len(tags) >= 10
    for tag in tags:
        T = build_triple(parse_tag(tag))
        fields = dict(f.split("=") for f in tag.split(":")[1:])
        m = int(fields["q"]) + 1
        x, y = pair_index(m, 0, 1), pair_index(m, 2, 1 + int(fields["d"]))
        want = _orbital_by_pair_bfs(T.group, x, y)
        assert T.graph == want and T.graph.nbrs == want.nbrs, tag
