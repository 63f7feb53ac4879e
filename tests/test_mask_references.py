"""Whole-block helpers against their per-vertex and per-arc references.

The classifier reads pair labels, edge kinds, the block design and
2-transitivity on a block from block masks and one Schreier-tree walk;
the lifts map each block once per generator.  The references below are
the direct readings, one vertex, arc, pair or flag at a time.  Every
helper must give the reference's value on every input.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symquot.classify import (
    _census_instances,
    _edge_label_kind,
    _pair_labels,
    _two_transitive_within_block,
)
from symquot.constructions import (
    ALL_DISTINCT,
    SAME_BLOCK,
    SAME_SECOND,
    build_triple,
    flag_graph,
    pair_action,
    pair_graph,
    parse_tag,
)
from symquot.designs import (
    IncidenceStructure,
    ag_design,
    design_3_12_6_2,
    design_from_partition,
    steiner_3_22_6,
)
from symquot.errors import DesignError
from symquot.graphs import Graph, Partition, hit_mask, pair_index
from symquot.groups_catalog import agl, mathieu, sym_alt
from symquot.permgroup import Permutation, PermutationGroup

from _reference import counted_design, pair_from_index

# ---------------------------------------------------------------------------
# References: one vertex, arc, pair or flag at a time.


def pair_labels_ref(T):
    g, P = T.graph, T.partition
    labels = []
    for x in range(g.n):
        i = P.block_of[x]
        miss = [
            j for j in range(P.block_count)
            if j != i and not g.adj[x] & P.block_mask(j)
        ]
        if len(miss) != 1:
            return None
        labels.append((i, miss[0]))
    return labels if len(set(labels)) == g.n else None


def edge_label_kind_ref(g, labels):
    kinds = set()
    for x, nb in enumerate(g.nbrs):
        i, j = labels[x]
        for y in nb:
            if y < x:
                continue  # each edge once, from its lower end
            i2, j2 = labels[y]
            if j == j2 and i != i2:
                kinds.add("same_second")
            elif i2 not in (i, j) and j2 not in (i, j):
                kinds.add("four_distinct")
            else:
                return "mixed"
            if len(kinds) > 1:
                return "mixed"
    return kinds.pop() if kinds else "empty"


def design_profile_ref(D):
    per_point = Counter()
    for blk in D.blocks:
        per_point.update(blk)
    vals = {per_point.get(p, 0) for p in range(D.v)}
    r = vals.pop() if len(vals) == 1 else None
    pairs = Counter()
    for blk in D.blocks:
        for a in range(len(blk)):
            for b in range(a + 1, len(blk)):
                pairs[blk[a], blk[b]] += 1
    if not pairs:
        lam2 = 0
    else:
        seen = set(pairs.values())
        full = len(pairs) == math.comb(D.v, 2)
        lam2 = seen.pop() if full and len(seen) == 1 else None
    if r is None:  # compute_params reports the pair count only where r is constant
        lam2 = None
    mult = set(Counter(D.blocks).values())
    return r, lam2, mult.pop() if len(mult) == 1 else None


def design_profile(D):
    """The (r, lambda, rho) that compute_params reads off the structure."""
    return D.lambda_t(1), D.lambda_t(2), D.rho


def translates_ref(G, x, points):
    out = [None] * G.degree
    out[x] = tuple(sorted(points))
    queue = [x]
    for u in queue:
        for g in G.generators:
            w = g(u)
            if out[w] is None:
                out[w] = tuple(sorted(g(p) for p in out[u]))
                queue.append(w)
    return out


def orbit_ref(G, x):
    out = [x]
    for u in out:
        out.extend(w for w in dict.fromkeys(g(u) for g in G.generators) if w not in out)
    return out


def two_transitive_ref(G, P):
    home = P.blocks[0]
    v = len(home)
    if v == 1:
        return True
    out = translates_ref(G, home[0], G.suborbit(home[0], home[1]))
    inside = set(home)
    hits = sum(len(inside.intersection(out[a])) for a in home if out[a] is not None)
    return hits == v * (v - 1)


def pair_lift_ref(m, im):
    return tuple(
        pair_index(m, *(im[a] for a in pair_from_index(m, z)))
        for z in range(m * (m - 1))
    )


def flag_lift_ref(D, im):
    flags = [(p, bi) for p in range(D.v) for bi, blk in enumerate(D.blocks) if p in blk]
    index = {f: z for z, f in enumerate(flags)}
    block_index = {blk: bi for bi, blk in enumerate(D.blocks)}
    return tuple(
        index[im[p], block_index[tuple(sorted(im[x] for x in D.blocks[bi]))]]
        for p, bi in flags
    )


def assert_helpers_match(T):
    labels = pair_labels_ref(T)
    assert _pair_labels(T) == labels
    if labels is not None:
        assert _edge_label_kind(T.graph, labels) == edge_label_kind_ref(T.graph, labels)
    if T.partition.block_count > 1:
        D = design_from_partition(T.graph, T.partition, 0)
        assert design_profile(D) == design_profile_ref(D)
    assert _two_transitive_within_block(T.group, T.partition) == two_transitive_ref(
        T.group, T.partition
    )


# ---------------------------------------------------------------------------
# Random inputs.


class _Bare:
    """The graph and partition of a triple, with its blocks' hit masks,
    which is all the label helpers read."""

    def __init__(self, graph, partition):
        self.graph, self.partition = graph, partition
        self.hits = [hit_mask(graph, blk) for blk in partition.blocks]


@st.composite
def graph_and_partition(draw):
    """A pair-lift graph as built, with one edge dropped or added, or
    under a random partition; or a random graph and partition, with
    singleton blocks and one-vertex graphs among them."""
    if draw(st.integers(0, 2)):
        m = draw(st.integers(3, 5))
        rule = draw(st.sampled_from([SAME_SECOND, ALL_DISTINCT]))
        g = pair_graph(sym_alt(m, False), rule).graph
        n = g.n
        edges = set(g.edges())
        blocks = [range(i * (m - 1), (i + 1) * (m - 1)) for i in range(m)]
        change = draw(st.sampled_from(["none", "drop", "add", "partition"]))
        if change == "drop" and edges:
            edges.remove(draw(st.sampled_from(sorted(edges))))
        elif change == "add":
            edges.add(draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        elif change == "partition":
            blocks = None
    else:
        n = draw(st.integers(1, 9))
        vertex = st.integers(0, n - 1)
        edges = draw(st.sets(st.tuples(vertex, vertex), max_size=20))
        blocks = None
    if blocks is None:
        colour = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        blocks = [[x for x in range(n) if colour[x] == c] for c in dict.fromkeys(colour)]
    graph = Graph.from_edges(n, [(x, y) for x, y in edges if x != y])
    return graph, Partition(blocks)


@st.composite
def designs(draw):
    """Up to eight blocks on v <= 7 points, none at all included, with
    repeated and one-point blocks."""
    v = draw(st.integers(1, 7))
    block = st.sets(st.integers(0, v - 1), min_size=1).map(sorted)
    base = draw(st.lists(block, max_size=5))
    repeats = draw(st.lists(st.sampled_from(base), max_size=3)) if base else []
    return IncidenceStructure(v, base + repeats)


@settings(max_examples=300, deadline=None)
@given(graph_and_partition())
def test_pair_labels_match_reference(case):
    T = _Bare(*case)
    labels = pair_labels_ref(T)
    assert _pair_labels(T) == labels
    if labels is not None:
        assert _edge_label_kind(T.graph, labels) == edge_label_kind_ref(T.graph, labels)
    if T.partition.block_count > 1 and any(T.graph.adj):
        try:
            D = design_from_partition(T.graph, T.partition, 0)
        except DesignError:  # block 0 meets no other block
            return
        assert design_profile(D) == design_profile_ref(D)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_edge_label_kind_matches_reference_on_any_labels(data):
    # labels need not come from a partition, and may repeat a coordinate
    g, _ = data.draw(graph_and_partition())
    label = st.tuples(st.integers(0, 4), st.integers(0, 4))
    labels = data.draw(st.lists(label, min_size=g.n, max_size=g.n))
    assert _edge_label_kind(g, labels) == edge_label_kind_ref(g, labels)


@settings(max_examples=300, deadline=None)
@given(designs())
def test_design_profile_matches_reference(D):
    assert design_profile(D) == design_profile_ref(D)


@settings(max_examples=300, deadline=None)
@given(designs())
def test_lambda_t_matches_counted_reference(D):
    lambdas, rho = counted_design(D)
    for t in (1, 2, 3):
        assert D.lambda_t(t) == (lambdas[t - 1] if t <= len(lambdas) else None)
    assert D.rho == rho


def test_design_profile_edge_cases():
    for D, want in (
        (IncidenceStructure(1, [(0,)]), (1, 0, 1)),
        (IncidenceStructure(1, [(0,), (0,)]), (2, 0, 2)),
        (IncidenceStructure(3, [(0,), (1,), (2,)]), (1, 0, 1)),
        (IncidenceStructure(3, [(0, 1), (0, 1), (2,)]), (None, None, None)),
        (IncidenceStructure(3, [(0, 1), (0, 2), (1, 2)]), (2, 1, 1)),
        (IncidenceStructure(4, []), (0, 0, None)),
    ):
        assert design_profile(D) == design_profile_ref(D) == want


@st.composite
def group_and_partition(draw):
    n = draw(st.integers(1, 8))
    gens = [
        Permutation(draw(st.permutations(range(n))))
        for _ in range(draw(st.integers(0, 3)))
    ]
    colour = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    blocks = [[x for x in range(n) if colour[x] == c] for c in dict.fromkeys(colour)]
    return PermutationGroup(n, gens), Partition(blocks)


@settings(max_examples=200, deadline=None)
@given(group_and_partition(), st.data())
def test_tree_walks_match_reference(case, data):
    G, P = case
    assert _two_transitive_within_block(G, P) == two_transitive_ref(G, P)
    x = data.draw(st.integers(0, G.degree - 1))
    points = data.draw(st.sets(st.integers(0, G.degree - 1)))
    assert G.translates(x, points) == translates_ref(G, x, points)
    assert G.orbit(x) == orbit_ref(G, x)


@settings(max_examples=100, deadline=None)
@given(graph_and_partition(), st.data())
def test_hit_mask_is_the_neighbourhood_of_a_set(case, data):
    g, _ = case
    S = data.draw(st.sets(st.integers(0, g.n - 1)))
    want = {y for y in range(g.n) if any(g.has_edge(y, x) for x in S)}
    assert hit_mask(g, S) == sum(1 << y for y in want)


# ---------------------------------------------------------------------------
# Every census(9, 3) triple and both big lift kinds.

BIG_LIFT_TAGS = ["cr:q=49:d=16:s=1", "tcr:q=49:d=7:s=2"]


@pytest.mark.parametrize("tag", [t for t, _ in _census_instances(9, 3)] + BIG_LIFT_TAGS)
def test_helpers_match_reference_on_built_triples(tag):
    T = build_triple(parse_tag(tag))
    assert_helpers_match(T)
    L = T.group
    if tag.startswith("pair:"):
        m = L.point_group.degree
        for g in L.point_group.generators:
            assert L.lift(g.images) == pair_lift_ref(m, g.images)


@pytest.mark.parametrize(
    "design,group",
    [
        (lambda: ag_design(3), lambda: agl(3)),
        (design_3_12_6_2, lambda: mathieu("M11on12")),
        (steiner_3_22_6, lambda: mathieu("M22")),
    ],
    ids=["ag_d3", "h12", "s22"],
)
def test_flag_lift_matches_reference(design, group):
    D, G = design(), group()
    L = flag_graph(D, G, SAME_BLOCK).group
    assert [g.images for g in L.generators] == [
        flag_lift_ref(D, g.images) for g in G.generators
    ]
    for p in range(D.v):
        for h in G.stabilizer([p]).generators:
            assert L.lift(h.images) == flag_lift_ref(D, h.images)


def test_pair_lift_matches_reference():
    for G in (sym_alt(4, False), sym_alt(6, True), agl(3)):
        L = pair_action(G)
        m = G.degree
        assert [g.images for g in L.generators] == [
            pair_lift_ref(m, g.images) for g in G.generators
        ]
