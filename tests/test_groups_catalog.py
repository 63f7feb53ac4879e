"""Catalog constructors against their declared orders and actions."""

import hashlib

import pytest

from symquot.errors import CatalogError, FieldError
from symquot.ffield import field
from symquot.groups_catalog import (
    _field_for,
    _moebius,
    agl,
    m_group,
    mathieu,
    pgammal_subgroup,
    pgl2,
    psl2,
    sym_alt,
    three_transitive_pgammal_list,
    z24_a7,
)
from symquot.constructions import _group_spec
from symquot.designs import design_3_12_6_2, steiner_3_22_6


class TestMoebius:
    def test_swaps_documented_pairs(self):
        # (z - d) / (z - 1) exchanges infinity with 1 and 0 with d
        F = field(2, 2)
        one = F.element(1)
        d = F.element(2)
        t = _moebius(one, F.element(0) - d, one, F.element(0) - one)
        assert (t(0), t(2), t(1), t(3)) == (2, 0, 3, 1)

    def test_degenerate_rejected(self):
        F = field(5, 1)
        one = F.element(1)
        with pytest.raises(CatalogError):
            _moebius(one, one, one, one)

    def test_mixed_fields_rejected(self):
        a = field(3, 1).element(1)
        b = field(5, 1).element(1)
        with pytest.raises(FieldError):
            _moebius(a, a, a, b)

    def test_pole_goes_to_infinity(self):
        F = field(7, 1)
        one, zero = F.element(1), F.element(0)
        t = _moebius(zero, one, one, zero)  # 1/z
        assert t(1) == 0 and t(0) == 1

    def test_frobenius_applied_before_fraction(self):
        F = field(3, 2)
        one, zero = F.element(1), F.element(0)
        t = _moebius(one, zero, zero, one, 1)
        z = F.element(2)
        assert t(1 + z.index) == 1 + z.frobenius(1).index
        assert t(0) == 0

    def test_permutation_degree(self):
        F = field(3, 2)
        one, zero = F.element(1), F.element(0)
        assert _moebius(one, one, zero, one).degree == 10


# sha256 of every generator of pgl2(q), psl2(q) and each group of
# three_transitive_pgammal_list(q), over the prime powers 3 <= q <= 99: one
# line "q name images" per generator.  Regenerate only on purpose.
GENERATORS_SHA256 = "89931670c75698ca2d91e5097464fa3716889eb462dd56286f8551fd6762fbe0"


def test_projective_generators_are_pinned():
    digest = hashlib.sha256()
    for q in range(3, 100):
        try:
            _field_for(q)
        except CatalogError:
            continue
        groups = [("pgl2", pgl2(q)), ("psl2", psl2(q))] + three_transitive_pgammal_list(q)
        for name, G in groups:
            for g in G.generators:
                digest.update(f"{q} {name} {' '.join(map(str, g.images))}\n".encode())
    assert digest.hexdigest() == GENERATORS_SHA256


PGL_ORDERS = [(3, 24), (4, 60), (5, 120), (7, 336), (8, 504), (9, 720),
              (11, 1320), (13, 2184), (16, 4080)]


class TestProjectiveFamilies:
    @pytest.mark.parametrize("q,order", PGL_ORDERS)
    def test_pgl_orders(self, q, order):
        assert pgl2(q).order() == order

    def test_pgl_small_transitivity(self):
        assert pgl2(3).transitivity_degree() == 4
        assert pgl2(5).transitivity_degree() == 3

    def test_pgl_rejects_tiny_and_junk(self):
        with pytest.raises(CatalogError):
            pgl2(2)
        with pytest.raises(CatalogError):
            pgl2(6)
        with pytest.raises(CatalogError):
            pgl2(1)

    @pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
    def test_psl_is_index_two_in_odd_characteristic(self, q):
        assert psl2(q).order() * 2 == pgl2(q).order()

    def test_psl_inside_pgl(self):
        small, big = psl2(9), pgl2(9)
        assert all(g in big for g in small.generators)

    def test_psl_even_characteristic_collapses(self):
        assert psl2(4) is pgl2(4)
        assert psl2(8) is pgl2(8)

    @pytest.mark.parametrize("q,s,order", [
        (9, 1, 1440), (9, 2, 720), (8, 1, 1512), (8, 3, 504),
        (16, 1, 16320), (16, 2, 8160), (16, 4, 4080), (4, 1, 120),
    ])
    def test_semilinear_orders(self, q, s, order):
        assert pgammal_subgroup(q, s).order() == order

    def test_degree_five_special_case(self):
        assert pgammal_subgroup(4, 1).transitivity_degree() == 5

    def test_semilinear_rejects_bad_power(self):
        with pytest.raises(CatalogError):
            pgammal_subgroup(9, 3)

    def test_full_frobenius_power_recovers_linear_group(self):
        assert pgammal_subgroup(9, 2).order() == pgl2(9).order()


class TestTwistedFamily:
    def test_order_and_transitivity(self):
        G = m_group(1, 9)
        assert G.order() == 720
        assert G.transitivity_degree() == 3

    def test_not_the_linear_group(self):
        # same order as the untwisted degree-10 group, different point action
        G = m_group(1, 9)
        lin = pgl2(9)
        assert any(g not in lin for g in G.generators)

    def test_degree_82_instance(self):
        G = m_group(1, 81)
        assert G.order() == 1062720
        assert G.degree == 82

    @pytest.mark.parametrize("s,q", [(1, 8), (1, 3), (2, 9), (1, 27)])
    def test_preconditions(self, s, q):
        with pytest.raises(CatalogError):
            m_group(s, q)


class TestThreeTransitiveList:
    def test_prime_field_has_single_entry(self):
        out = three_transitive_pgammal_list(5)
        assert [token for token, _ in out] == ["pgammal_q5_s1"]

    def test_q9_includes_twist(self):
        tokens = [token for token, _ in three_transitive_pgammal_list(9)]
        assert tokens == ["pgammal_q9_s1", "pgammal_q9_s2", "m_s1_q9"]

    def test_q8_no_twist_in_odd_degree(self):
        tokens = [token for token, _ in three_transitive_pgammal_list(8)]
        assert tokens == ["pgammal_q8_s1", "pgammal_q8_s3"]

    def test_q16_even_characteristic_has_no_twists(self):
        tokens = [token for token, _ in three_transitive_pgammal_list(16)]
        assert tokens == ["pgammal_q16_s1", "pgammal_q16_s2", "pgammal_q16_s4"]

    def test_every_member_is_three_transitive(self):
        for _, G in three_transitive_pgammal_list(9):
            assert G.transitivity_degree() >= 3

    def test_tokens_build_through_the_registry(self):
        for token, G in three_transitive_pgammal_list(9):
            H = _group_spec(token)[1]()
            assert (H.degree, H.order()) == (G.degree, G.order())


AGL_ORDERS = [(2, 24), (3, 1344), (4, 322560), (5, 319979520)]


class TestAffineGroups:
    @pytest.mark.parametrize("d,order", AGL_ORDERS)
    def test_orders(self, d, order):
        assert agl(d).order() == order

    def test_two_dimensional_is_fully_symmetric(self):
        assert agl(2).transitivity_degree() == 4

    def test_three_transitive_beyond(self):
        assert agl(3).transitivity_degree() == 3

    def test_out_of_range(self):
        with pytest.raises(CatalogError):
            agl(1)
        with pytest.raises(CatalogError):
            agl(7)


class TestSymAlt:
    def test_symmetric(self):
        assert sym_alt(5, False).order() == 120
        assert sym_alt(5, False).transitivity_degree() == 5

    def test_alternating(self):
        assert sym_alt(5, True).order() == 60
        assert sym_alt(6, True).transitivity_degree() == 4

    def test_degenerate_degrees(self):
        assert sym_alt(1, False).order() == 1
        assert sym_alt(2, True).order() == 1
        with pytest.raises(CatalogError):
            sym_alt(0, False)


class TestSearchedGroups:
    def test_affine_overgroup(self):
        G = z24_a7()
        assert G.order() == 40320
        parent = agl(4)
        assert all(g in parent for g in G.generators)

    def test_three_point_stabilizer_footprint(self):
        G = z24_a7()
        stab = G.stabilizer([0, 1, 2])
        fixed = [x for x in range(16) if all(p(x) == x for p in stab.generators)]
        assert len(fixed) == 4

    @pytest.mark.parametrize("tag,degree,order,trans", [
        ("M11on12", 12, 7920, 3),
        ("M12", 12, 95040, 5),
        ("M11on11", 11, 7920, 4),
        ("M22", 22, 443520, 3),
        ("AutM22", 22, 887040, 3),
        ("M23", 23, 10200960, 4),
        ("M24", 24, 244823040, 5),
    ])
    def test_mathieu_catalog(self, tag, degree, order, trans):
        G = mathieu(tag)
        assert G.degree == degree
        assert G.order() == order
        assert G.transitivity_degree() == trans

    def test_unknown_tag(self):
        with pytest.raises(CatalogError):
            mathieu("M25")

    def test_m22_inside_its_extension(self):
        big = mathieu("AutM22")
        assert all(g in big for g in mathieu("M22").generators)

    def test_m22_preserves_triple_system(self):
        D = steiner_3_22_6()
        assert all(D.preserves(g) for g in mathieu("M22").generators)

    def test_m11_preserves_twelve_point_design(self):
        D = design_3_12_6_2()
        assert all(D.preserves(g) for g in mathieu("M11on12").generators)
