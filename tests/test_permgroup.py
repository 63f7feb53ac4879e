import math

import pytest
from hypothesis import given, settings, strategies as st

from symquot import permgroup
from symquot.errors import GroupError
from symquot.permgroup import Permutation, PermutationGroup

from _reference import elements

P = Permutation.from_cycles


def closure(gens):
    """Brute-force group closure as a set of image tuples."""
    if not gens:
        return set()
    n = gens[0].degree
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = tuple(g.images[x] for x in a)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


class TestPermutation:
    def test_composition_is_left_to_right(self):
        a = P(3, [(0, 1)])
        b = P(3, [(1, 2)])
        # 0 -> 1 under a, then 1 -> 2 under b
        assert (a * b)(0) == 2
        assert (b * a)(0) == 1

    def test_inverse_and_pow(self):
        g = P(5, [(0, 1, 2, 3, 4)])
        assert (g * g.inverse()).is_identity()
        assert g.inverse() == P(5, [(4, 3, 2, 1, 0)])
        assert (g * g * g * g * g).is_identity()
        assert (g * g).inverse() == g * g * g

    def test_sign(self):
        g = P(6, [(0, 1, 2), (3, 4)])
        assert g.sign() == -1
        assert P(6, [(0, 1, 2)]).sign() == 1

    def test_cycles_roundtrip(self):
        g = P(7, [(0, 3), (1, 4, 5)])
        assert g.cycles() == [(0, 3), (1, 4, 5)]
        assert P(7, g.cycles()) == g

    def test_rejects_non_bijection(self):
        with pytest.raises(GroupError):
            Permutation([0, 0, 1])
        with pytest.raises(GroupError):
            Permutation([0, 3])


class TestChainOrders:
    """Chain order against brute-force closure enumeration."""

    CASES = [
        ("trivial", 4, [], 1),
        ("c4", 4, [[(0, 1, 2, 3)]], 4),
        ("d4", 4, [[(0, 1, 2, 3)], [(1, 3)]], 8),
        ("a4", 4, [[(0, 1, 2)], [(1, 2, 3)]], 12),
        ("s4", 4, [[(0, 1)], [(0, 1, 2, 3)]], 24),
        ("s5", 5, [[(0, 1)], [(0, 1, 2, 3, 4)]], 120),
        ("a5", 5, [[(0, 1, 2, 3, 4)], [(2, 3, 4)]], 60),
        ("c2xc3", 5, [[(0, 1)], [(2, 3, 4)]], 6),
    ]

    @pytest.mark.parametrize("name,n,cycs,expected", CASES, ids=[c[0] for c in CASES])
    def test_order_matches_closure(self, name, n, cycs, expected):
        gens = [P(n, c) for c in cycs]
        G = PermutationGroup(n, gens)
        assert G.order() == expected
        if gens:
            assert len(closure(gens)) == expected

    def test_larger_symmetric_orders(self):
        for n in (6, 7, 8):
            G = PermutationGroup(n, [P(n, [(0, 1)]), P(n, [tuple(range(n))])])
            assert G.order() == math.factorial(n)

    def test_elements_enumeration_is_exact(self):
        G = PermutationGroup(4, [P(4, [(0, 1)]), P(4, [(0, 1, 2, 3)])])
        els = list(elements(G))
        assert len(els) == 24
        assert {e.images for e in els} == closure(G.generators)

    def test_elements_order_is_deterministic(self):
        mk = lambda: PermutationGroup(5, [P(5, [(0, 1, 2, 3, 4)]), P(5, [(2, 3, 4)])])
        a = [e.images for e in elements(mk())]
        b = [e.images for e in elements(mk())]
        assert a == b

    def test_membership(self):
        A = PermutationGroup(4, [P(4, [(0, 1, 2)]), P(4, [(1, 2, 3)])])
        assert P(4, [(0, 1), (2, 3)]) in A
        assert P(4, [(0, 1)]) not in A
        assert Permutation(range(3)) not in A  # degree mismatch

    def test_degree_cap(self):
        with pytest.raises(GroupError):
            PermutationGroup(10 ** 4 + 1, [])


class TestOrbitsAndStabilizers:
    def test_orbit_partition(self):
        G = PermutationGroup(6, [P(6, [(0, 1, 2)]), P(6, [(3, 4)])])
        assert [G.orbit(x) for x in (0, 3, 5)] == [[0, 1, 2], [3, 4], [5]]
        assert not G.is_transitive()

    def test_orbit_stabilizer_theorem(self):
        G = PermutationGroup(4, [P(4, [(0, 1, 2, 3)]), P(4, [(1, 3)])])
        for x in range(4):
            assert len(G.orbit(x)) * G.stabilizer([x]).order() == G.order()

    def test_stabilizer_fixes_points(self):
        G = PermutationGroup(5, [P(5, [(0, 1)], ), P(5, [(0, 1, 2, 3, 4)])])
        H = G.stabilizer([1, 3])
        assert H.order() == 6
        for e in elements(H):
            assert e(1) == 1 and e(3) == 3

    def test_pointwise_not_setwise(self):
        G = PermutationGroup(4, [P(4, [(0, 1)]), P(4, [(0, 1, 2, 3)])])
        # Setwise stabilizer of {0, 1} has order 4; pointwise only 2.
        assert G.stabilizer([0, 1]).order() == 2

    def test_transitivity_degrees(self):
        cases = [
            (PermutationGroup(4, [P(4, [(0, 1, 2, 3)])]), 1),
            (PermutationGroup(4, [P(4, [(0, 1, 2, 3)]), P(4, [(1, 3)])]), 1),
            (PermutationGroup(4, [P(4, [(0, 1, 2)], ), P(4, [(1, 2, 3)])]), 2),
            (PermutationGroup(4, [P(4, [(0, 1)]), P(4, [(0, 1, 2, 3)])]), 4),
            (PermutationGroup(5, [P(5, [(0, 1, 2, 3, 4)]), P(5, [(2, 3, 4)])]), 3),
            (PermutationGroup(3, []), 0),
        ]
        for G, k in cases:
            assert G.transitivity_degree() == k


class TestBlocksAndInducedAction:
    def test_block_system_detection(self):
        D4 = PermutationGroup(4, [P(4, [(0, 1, 2, 3)]), P(4, [(1, 3)])])
        assert D4.is_block_system([[0, 2], [1, 3]])
        assert not D4.is_block_system([[0, 1], [2, 3]])
        with pytest.raises(GroupError):
            D4.is_block_system([[0, 1], [1, 2, 3]])
        with pytest.raises(GroupError):
            D4.is_block_system([[0, 1], [2]])

    def test_induced_with_kernel(self):
        C4 = PermutationGroup(4, [P(4, [(0, 1, 2, 3)])])
        img, faithful = C4.induced_action([[0, 2], [1, 3]])
        assert img.order() == 2
        assert not faithful  # (0 2)(1 3) acts trivially on the blocks

    def test_induced_faithful(self):
        # S3 acting the same way on two copies of {0,1,2}; diagonal blocks.
        a = Permutation([1, 0, 2, 4, 3, 5])
        b = Permutation([1, 2, 0, 4, 5, 3])
        G = PermutationGroup(6, [a, b])
        img, faithful = G.induced_action([[0, 3], [1, 4], [2, 5]])
        assert img.order() == 6
        assert faithful

    def test_induced_rejects_non_blocks(self):
        S4 = PermutationGroup(4, [P(4, [(0, 1)]), P(4, [(0, 1, 2, 3)])])
        with pytest.raises(GroupError):
            S4.induced_action([[0, 1], [2, 3]])


class TestSuborbits:
    def test_d4_suborbits(self):
        D4 = PermutationGroup(4, [P(4, [(0, 1, 2, 3)]), P(4, [(1, 3)])])
        assert D4.suborbits(0) == [[0], [1, 3], [2]]

    def test_lengths_sum_to_degree(self):
        G = PermutationGroup(7, [P(7, [(0, 1)]), P(7, [tuple(range(7))])])
        subs = G.stabilizer([]).suborbits(0)  # S7 itself
        assert sorted(len(s) for s in subs) == [1, 6]
        C7 = PermutationGroup(7, [P(7, [tuple(range(7))])])
        assert [len(s) for s in C7.suborbits(0)] == [1] * 7

    def test_suborbits_require_transitive(self):
        G = PermutationGroup(4, [P(4, [(0, 1)])])
        with pytest.raises(GroupError):
            G.suborbits(0)

    def test_self_paired(self):
        C3 = PermutationGroup(3, [P(3, [(0, 1, 2)])])
        assert not C3.is_self_paired(0, 1)
        D4 = PermutationGroup(4, [P(4, [(0, 1, 2, 3)]), P(4, [(1, 3)])])
        assert D4.is_self_paired(0, 1)
        with pytest.raises(GroupError):
            D4.is_self_paired(2, 2)
        G = PermutationGroup(4, [P(4, [(0, 1)])])
        with pytest.raises(GroupError):
            G.is_self_paired(0, 2)


@st.composite
def small_generating_sets(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    k = draw(st.integers(min_value=1, max_value=3))
    gens = []
    for _ in range(k):
        images = draw(st.permutations(list(range(n))))
        gens.append(Permutation(images))
    return n, gens


@settings(max_examples=60, deadline=None)
@given(small_generating_sets())
def test_chain_order_equals_closure(case):
    n, gens = case
    G = PermutationGroup(n, gens)
    cl = closure(gens) if any(not g.is_identity() for g in gens) else {tuple(range(n))}
    assert G.order() == len(cl)
    for images in sorted(cl)[:12]:
        assert Permutation(images) in G


@settings(max_examples=40, deadline=None)
@given(small_generating_sets(), st.data())
def test_membership_agrees_with_closure(case, data):
    n, gens = case
    G = PermutationGroup(n, gens)
    cl = closure(gens) if any(not g.is_identity() for g in gens) else {tuple(range(n))}
    probe = tuple(data.draw(st.permutations(list(range(n)))))
    assert (Permutation(probe) in G) == (probe in cl)


@settings(max_examples=60, deadline=None)
@given(small_generating_sets())
def test_self_paired_agrees_with_closure(case):
    n, gens = case
    G = PermutationGroup(n, gens)
    cl = closure(gens) if any(not g.is_identity() for g in gens) else {tuple(range(n))}
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            if not any(g[x] == y for g in cl):
                with pytest.raises(GroupError):
                    G.is_self_paired(x, y)
                continue
            swapped = any(g[x] == y and g[y] == x for g in cl)
            assert G.is_self_paired(x, y) == swapped


@settings(max_examples=60, deadline=None)
@given(small_generating_sets())
def test_suborbit_and_translates_agree_with_closure(case):
    n, gens = case
    G = PermutationGroup(n, gens)
    cl = closure(gens) if any(not g.is_identity() for g in gens) else {tuple(range(n))}
    for x in range(n):
        for y in range(n):
            want = sorted({g[y] for g in cl if g[x] == x})
            assert G.suborbit(x, y) == want
            # (u, v) lies in the orbit of (x, y) exactly when v is in N(u)
            N = G.translates(x, want)
            orbit = {(g[x], g[y]) for g in cl}
            assert {(u, v) for u, nb in enumerate(N) for v in nb or ()} == orbit
            assert all((nb is None) == (not any(g[x] == u for g in cl)) for u, nb in enumerate(N))


def transitivity_by_prefixes(G):
    """The per-prefix definition: fix 0, 1, ... one at a time, with a fresh
    stabilizer chain each, while the stabilizer is transitive on the rest."""
    fixed = []
    H = G
    while len(fixed) < G.degree:
        rest = [x for x in range(G.degree) if x not in fixed]
        if len(H.orbit(rest[0])) != len(rest):
            break
        fixed.append(rest[0])
        if len(fixed) == G.degree:
            break
        H = G.stabilizer(fixed)
    return len(fixed)


@st.composite
def groups_of_small_degree(draw):
    """Degree 1..8: trivial, symmetric, alternating, random generators on
    the whole domain, or random generators on a proper part of it."""
    n = draw(st.integers(min_value=1, max_value=8))
    kind = draw(st.sampled_from(["trivial", "sym", "alt", "random", "intransitive"]))
    if kind == "trivial":
        gens = []
    elif kind == "sym":
        gens = [P(n, [(0, 1)]), P(n, [tuple(range(n))])] if n > 1 else []
    elif kind == "alt":
        gens = [P(n, [(0, 1, i)]) for i in range(2, n)]
    else:
        size = n if kind == "random" else draw(st.integers(min_value=0, max_value=n - 1))
        gens = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            images = draw(st.permutations(list(range(size)))) + list(range(size, n))
            gens.append(Permutation(images))
    return PermutationGroup(n, gens)


@settings(max_examples=200, deadline=None)
@given(groups_of_small_degree())
def test_transitivity_degree_matches_prefix_stabilizers(G):
    assert G.transitivity_degree() == transitivity_by_prefixes(G)


def test_transitivity_degree_reads_the_cached_chain(monkeypatch):
    G = PermutationGroup(6, [P(6, [(0, 1)]), P(6, [tuple(range(6))])])
    G.order()
    built = []

    class Spy(permgroup._Chain):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(permgroup, "_Chain", Spy)
    assert G.transitivity_degree() == 6
    assert built == []


def test_suborbit_rejects_points_out_of_range():
    C3 = PermutationGroup(3, [P(3, [(0, 1, 2)])])
    for x, y in ((3, 0), (0, 3), (-1, 0)):
        with pytest.raises(GroupError):
            C3.suborbit(x, y)
    with pytest.raises(GroupError):
        C3.suborbits(3)


def test_suborbit_search_is_capped(monkeypatch):
    S4 = PermutationGroup(4, [P(4, [(0, 1)]), P(4, [(0, 1, 2, 3)])])
    assert S4.suborbit(0, 1) == [1, 2, 3]  # all 12 ordered pairs
    monkeypatch.setattr(permgroup, "PAIR_BFS_CAP", 11)
    with pytest.raises(GroupError, match="state cap"):
        S4.suborbit(0, 1)
    monkeypatch.setattr(permgroup, "PAIR_BFS_CAP", 12)
    assert S4.suborbit(0, 1) == [1, 2, 3]


def test_self_paired_on_a_pair_lift():
    from symquot.constructions import pair_action
    from symquot.graphs import pair_index
    from symquot.groups_catalog import m_group, pgammal_subgroup

    # ordered pairs of the projective line over GF(9): is some element of
    # the point group swapping (0, 1) and (k, l)?
    answers = set()
    for point in (pgammal_subgroup(9, 1), m_group(1, 9)):
        big = pair_action(point)
        m = point.degree
        images = [g.images for g in elements(point)]
        for k in range(m):
            for l in range(m):
                if k == l or (k, l) == (0, 1):
                    continue
                want = any(
                    g[0] == k and g[1] == l and g[k] == 0 and g[l] == 1
                    for g in images
                )
                answers.add(want)
                assert big.is_self_paired(0, pair_index(m, k, l)) == want
    assert answers == {True, False}
