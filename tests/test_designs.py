"""Incidence structure counting against small hand-checkable cases."""

from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symquot.designs import (
    IncidenceStructure,
    ag_design,
    design_3_12_6_2,
    design_from_partition,
    steiner_3_22_6,
)
from symquot.errors import DesignError
from symquot.permgroup import Permutation


FANO = IncidenceStructure(7, [tuple((i + d) % 7 for d in (0, 1, 3)) for i in range(7)])


def _k(D):
    """The common block size, None if blocks differ in size."""
    sizes = {len(blk) for blk in D.blocks}
    return sizes.pop() if len(sizes) == 1 else None


def _vbrk(D):
    """(v, b, r, k), with r and k None where they vary."""
    return D.v, D.b, D.lambda_t(1), _k(D)


class TestParams:
    def test_point_masks_built_once_per_structure(self, monkeypatch):
        built = []
        real = IncidenceStructure.point_masks.func
        counting = cached_property(lambda D: built.append(D) or real(D))
        counting.__set_name__(IncidenceStructure, "point_masks")
        monkeypatch.setattr(IncidenceStructure, "point_masks", counting)
        D = IncidenceStructure(7, FANO.blocks)
        assert [D.lambda_t(t) for t in (3, 1, 2)] == [None, 3, 1]
        assert D.rho == 1
        assert built == [D]
        E = IncidenceStructure(7, FANO.blocks)
        assert E.lambda_t(2) == 1
        assert built == [D, E]

    def test_fano(self):
        assert _vbrk(FANO) == (7, 7, 3, 3)
        assert [FANO.lambda_t(t) for t in (1, 2, 3)] == [3, 1, None]
        assert FANO.rho == 1

    def test_lambda_t_bounds(self):
        # the empty subset lies in every block; no count is constant at t = 3
        assert FANO.lambda_t(0) == FANO.b
        assert FANO.lambda_t(2) == 1
        assert FANO.lambda_t(3) is None

    def test_nonuniform_block_size(self):
        D = IncidenceStructure(4, [(0, 1), (1, 2, 3)])
        assert _k(D) is None
        # every point and pair evenly covered, with blocks of sizes 3 and 1
        D = IncidenceStructure(3, [(0, 1, 2), (0,), (1,), (2,)])
        assert [D.lambda_t(t) for t in (1, 2, 3, 4)] == [2, 1, 1, 0]

    def test_uneven_smaller_count_hides_larger(self):
        # each pair lies in one block, but point 0 lies in two
        D = IncidenceStructure(3, [(0, 1, 2), (0,)])
        assert [D.lambda_t(t) for t in (1, 2, 3)] == [None, None, None]

    def test_nonuniform_replication(self):
        D = IncidenceStructure(3, [(0, 1), (0, 2)])
        assert D.lambda_t(1) is None
        assert D.lambda_t(2) is None

    def test_single_edge_has_zero_high_lambdas(self):
        # no block carries 3 points, so every higher coverage count is 0
        D = IncidenceStructure(2, [(0, 1)])
        assert [D.lambda_t(t) for t in range(1, 6)] == [1, 1, 0, 0, 0]

    def test_point_in_no_block(self):
        D = IncidenceStructure(4, [(0, 1, 2)])
        assert [D.lambda_t(t) for t in (1, 2, 3)] == [None, None, None]
        # fewer points than t: no t-subset, so 0 blocks through each
        D = IncidenceStructure(1, [(0,), (0,)])
        assert [D.lambda_t(t) for t in (1, 2, 3)] == [2, 0, 0]

    def test_repeated_blocks_counted(self):
        D = IncidenceStructure(3, [(0, 1), (0, 1)])
        assert D.b == 2
        assert D.rho == 2

    def test_uneven_multiplicity(self):
        D = IncidenceStructure(3, [(0, 1), (0, 1), (1, 2)])
        assert D.rho is None

    def test_no_blocks(self):
        D = IncidenceStructure(3, [])
        assert [D.lambda_t(t) for t in (1, 2, 3)] == [0, 0, 0]
        assert D.rho is None

    def test_binary_affine_hyperplanes_of_dimension_six(self):
        assert IncidenceStructure(64, ag_design(6, 5).blocks).lambda_t(3) == 15


class TestConstruction:
    def test_blocks_sorted_and_deduped(self):
        D = IncidenceStructure(5, [[3, 1, 1, 0]])
        assert D.blocks == ((0, 1, 3),)

    def test_out_of_range_point(self):
        with pytest.raises(DesignError):
            IncidenceStructure(3, [(0, 3)])

    def test_empty_block(self):
        with pytest.raises(DesignError):
            IncidenceStructure(3, [()])

    def test_json_roundtrip(self):
        assert IncidenceStructure(FANO.v, FANO.blocks) == FANO


def _through(D, x):
    """The blocks through x, with x deleted and the points above it shifted down."""
    return [[y - (y > x) for y in blk if y != x] for blk in D.blocks if x in blk]


def _transposed(D):
    """One block per point: the indices of the blocks through it."""
    return [[j for j, blk in enumerate(D.blocks) if x in blk] for x in range(D.v)]


def _complements(D):
    return [sorted(set(range(D.v)) - set(blk)) for blk in D.blocks]


class TestDerived:
    def test_fano_point(self):
        assert _vbrk(IncidenceStructure(6, _through(FANO, 0))) == (6, 3, 1, 2)

    def test_relabeling_stays_zero_based(self):
        kept = [[y for y in blk if y != 3] for blk in FANO.blocks if 3 in blk]
        with pytest.raises(DesignError, match="not within"):
            IncidenceStructure(6, kept)
        sub = IncidenceStructure(6, _through(FANO, 3))
        assert all(0 <= x < 6 for blk in sub.blocks for x in blk)

    def test_isolated_point(self):
        D = IncidenceStructure(3, [(0, 1)])
        S = IncidenceStructure(2, _through(D, 2))
        assert (S.b, S.lambda_t(1), S.rho) == (0, 0, None)

    def test_singleton_block(self):
        D = IncidenceStructure(2, [(0,), (0, 1)])
        with pytest.raises(DesignError, match="empty block"):
            IncidenceStructure(1, _through(D, 0))


class TestDual:
    def test_fano_self_dual_parameters(self):
        D = IncidenceStructure(FANO.b, _transposed(FANO))
        assert _vbrk(D) == (7, 7, 3, 3)
        assert D.lambda_t(2) == 1

    def test_double_dual_is_identity(self):
        dual = IncidenceStructure(FANO.b, _transposed(FANO))
        assert IncidenceStructure(FANO.v, _transposed(dual)) == FANO

    def test_uncovered_point_rejected(self):
        D = IncidenceStructure(3, [(0, 1)])
        with pytest.raises(DesignError, match="empty block"):
            IncidenceStructure(D.b, _transposed(D))


class TestComplement:
    def test_fano_complement(self):
        D = IncidenceStructure(7, _complements(FANO))
        assert (D.v, D.b, _k(D)) == (7, 7, 4)
        assert D.lambda_t(2) == 2

    def test_involution(self):
        once = IncidenceStructure(7, _complements(FANO))
        assert once != FANO
        assert IncidenceStructure(7, _complements(once)) == FANO

    def test_full_block_rejected(self):
        D = IncidenceStructure(3, [(0, 1, 2)])
        with pytest.raises(DesignError, match="empty block"):
            IncidenceStructure(3, _complements(D))


class TestFlags:
    def test_count_is_point_degree_sum(self):
        assert sum(len(blk) for blk in FANO.blocks) == FANO.v * FANO.lambda_t(1) == 21


class TestPreserves:
    def test_cyclic_shift_fixes_fano(self):
        shift = Permutation([(i + 1) % 7 for i in range(7)])
        assert FANO.preserves(shift)

    def test_transposition_breaks_fano(self):
        swap = Permutation([1, 0, 2, 3, 4, 5, 6])
        assert not FANO.preserves(swap)

    def test_degree_mismatch(self):
        with pytest.raises(DesignError):
            FANO.preserves(Permutation([0, 1, 2]))


class _FakeGraph:
    def __init__(self, adj):
        self.adj = adj


class _FakePartition:
    def __init__(self, blocks):
        self.blocks = blocks

    def block_mask(self, j):
        m = 0
        for x in self.blocks[j]:
            m |= 1 << x
        return m


class TestDesignFromPartition:
    def test_star_between_two_blocks(self):
        # vertices 0,1 in the home block; 0-2 and 1-3 edges into block {2,3}
        adj = [1 << 2, 1 << 3, 1 << 0, 1 << 1]
        g = _FakeGraph(adj)
        part = _FakePartition([(0, 1), (2, 3)])
        D = design_from_partition(g, part, 0)
        assert D.v == 2
        assert D.blocks == ((0, 1),)

    def test_unconnected_home_block(self):
        g = _FakeGraph([0, 0, 0, 0])
        part = _FakePartition([(0, 1), (2, 3)])
        with pytest.raises(DesignError):
            design_from_partition(g, part, 0)

    def test_index_out_of_range(self):
        g = _FakeGraph([0, 0])
        part = _FakePartition([(0, 1)])
        with pytest.raises(DesignError):
            design_from_partition(g, part, 1)


class TestAffineDesign:
    def test_planes_of_dimension_three(self):
        D = ag_design(3, 2)
        assert _vbrk(D) == (8, 14, 7, 4)
        assert [D.lambda_t(t) for t in (1, 2, 3, 4)] == [7, 3, 1, None]

    def test_hyperplanes_of_dimension_four(self):
        D = ag_design(4, 3)
        assert _vbrk(D) == (16, 30, 15, 8)
        assert [D.lambda_t(t) for t in (1, 2, 3)] == [15, 7, 3]

    def test_translation_invariance(self):
        D = ag_design(3, 2)
        for t in range(1, 8):
            assert D.preserves(Permutation([x ^ t for x in range(8)]))

    @pytest.mark.parametrize("d,e", [(3, 1), (2, 1), (7, 3), (4, 4)])
    def test_rejects_out_of_range(self, d, e):
        with pytest.raises(DesignError):
            ag_design(d, e)

    def test_blocks_are_cosets(self):
        D = ag_design(4, 2)
        for blk in D.blocks:
            base = blk[0]
            span = {x ^ base for x in blk}
            assert 0 in span
            for a in span:
                for b in span:
                    assert (a ^ b) in span


class TestBundledDesigns:
    def test_triple_system_parameters(self):
        D = steiner_3_22_6()
        assert _vbrk(D) == (22, 77, 21, 6)
        assert [D.lambda_t(t) for t in (1, 2, 3, 4)] == [21, 5, 1, None]
        assert D.rho == 1

    def test_triple_system_block_intersections(self):
        D = steiner_3_22_6()
        first = set(D.blocks[0])
        profile = {}
        for other in D.blocks[1:]:
            n = len(first & set(other))
            profile[n] = profile.get(n, 0) + 1
        assert profile == {0: 16, 2: 60}

    def test_twelve_point_parameters(self):
        D = design_3_12_6_2()
        assert _vbrk(D) == (12, 22, 11, 6)
        assert [D.lambda_t(t) for t in (1, 2, 3, 4)] == [11, 5, 2, None]

    def test_twelve_point_complement_closed(self):
        blocks = design_3_12_6_2().blocks
        assert sorted(tuple(sorted(set(range(12)) - set(b))) for b in blocks) == sorted(blocks)

    def test_twelve_point_derived_is_biplane(self):
        # the blocks through point 0, with it deleted and the rest shifted down
        blocks = design_3_12_6_2().blocks
        D = IncidenceStructure(11, [[x - 1 for x in b if x] for b in blocks if 0 in b])
        assert _vbrk(D) == (11, 11, 5, 5)
        assert D.lambda_t(2) == 2


def _structures():
    blocks = st.lists(
        st.sets(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
        min_size=1,
        max_size=8,
    )
    return blocks.map(lambda bs: IncidenceStructure(6, [tuple(b) for b in bs]))


@settings(max_examples=60, deadline=None)
@given(_structures())
def test_flag_count_matches_block_sizes(D):
    degrees = [sum(x in blk for blk in D.blocks) for x in range(D.v)]
    assert sum(degrees) == sum(len(blk) for blk in D.blocks)
    r, k = D.lambda_t(1), _k(D)
    if r is not None:
        assert degrees == [r] * D.v
    if k is not None:
        assert D.b * k == sum(degrees)


@settings(max_examples=60, deadline=None)
@given(_structures())
def test_complement_is_involution(D):
    if any(len(b) == D.v for b in D.blocks):
        return
    C = IncidenceStructure(D.v, _complements(D))
    assert IncidenceStructure(D.v, _complements(C)) == D
    assert (C.v, C.b, C.rho) == (D.v, D.b, D.rho)
    assert _k(C) == (None if _k(D) is None else D.v - _k(D))
    r = D.lambda_t(1)
    assert C.lambda_t(1) == (None if r is None else D.b - r)


@settings(max_examples=60, deadline=None)
@given(_structures())
def test_double_dual_restores(D):
    covered = {x for b in D.blocks for x in b}
    if covered != set(range(D.v)):
        return
    dual = IncidenceStructure(D.b, _transposed(D))
    assert IncidenceStructure(D.v, _transposed(dual)) == D
    v, b, r, k = _vbrk(D)
    assert _vbrk(dual) == (b, v, k, r)


@settings(max_examples=60, deadline=None)
@given(_structures())
def test_replication_identity(D):
    r, k, lam = D.lambda_t(1), _k(D), D.lambda_t(2)
    if r is not None and k is not None:
        assert D.v * r == D.b * k
        if lam is not None:
            assert lam * (D.v - 1) == r * (k - 1)
    if lam is not None:
        assert r is not None
