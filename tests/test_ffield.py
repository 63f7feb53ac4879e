import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symquot import FieldError, field
from symquot.ffield import _is_irreducible


def test_prime_field_is_plain_modular_arithmetic():
    F = field(5)
    a, b = F.element(2), F.element(4)
    assert (a + b).index == 1
    assert (a * b).index == 3
    assert (a - b).index == 3
    assert (b / a).index == 2


def test_gf4_generator_squares_to_g_plus_one():
    F = field(2, 2)
    g = F.element(F.p)
    assert (g * g).coeffs == (1, 1)
    assert F.modulus == (1, 1, 1)


def test_gf4_multiplication_table_against_log_oracle():
    # Independent oracle: nonzero elements must form a cyclic group of
    # order 3 generated by g; build the table from discrete logs and
    # compare every product.
    F = field(2, 2)
    g = F.element(F.p)
    powers = [F.one, g, g * g]
    log = {x.index: i for i, x in enumerate(powers)}
    for a in F:
        for b in F:
            prod = a * b
            if a.is_zero() or b.is_zero():
                assert prod.is_zero()
            else:
                assert log[prod.index] == (log[a.index] + log[b.index]) % 3


def test_gf81_modulus_is_irreducible_by_trial_division():
    F = field(3, 4)
    assert len(F.modulus) == 5 and F.modulus[-1] == 1
    assert _is_irreducible(F.modulus, 3)


@pytest.mark.parametrize(
    "p,n,modulus",
    [
        (2, 2, (1, 1, 1)),
        (2, 3, (1, 1, 0, 1)),
        (2, 4, (1, 1, 0, 0, 1)),
        (2, 5, (1, 0, 1, 0, 0, 1)),
        (2, 6, (1, 1, 0, 0, 0, 0, 1)),
        (2, 7, (1, 1, 0, 0, 0, 0, 0, 1)),
        (3, 2, (1, 0, 1)),
        (3, 3, (1, 2, 0, 1)),
        (3, 4, (2, 1, 0, 0, 1)),
        (5, 2, (2, 0, 1)),
        (7, 2, (1, 0, 1)),
    ],
)
def test_modulus_is_the_least_irreducible(p, n, modulus):
    # ascending coefficients; these fix every element's index, so every
    # point label and printed graph over the field
    assert field(p, n).modulus == modulus


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_nonzero_elements_have_order_dividing_q_minus_1(p, n):
    F = field(p, n)
    for x in F:
        if not x.is_zero():
            assert x ** (F.order - 1) == F.one


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 4)])
def test_frobenius_is_an_automorphism(p, n):
    F = field(p, n)
    elems = list(F)
    for a in elems:
        for b in elems:
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()
            assert (a * b).frobenius() == a.frobenius() * b.frobenius()
    for a in elems:
        assert a.frobenius(n) == a


def test_subfield_degrees_in_gf16():
    F = field(2, 4)
    degs = sorted(F.subfield_degree(d) for d in F)
    # 2 elements of GF(2), 2 more in GF(4), 12 generating the whole field
    assert degs.count(1) == 2 and degs.count(2) == 2 and degs.count(4) == 12
    for d in F:
        assert F.n % F.subfield_degree(d) == 0
    g = F.primitive_element()
    assert F.subfield_degree(g) == 4
    cube = g ** 5  # order 3, lies in GF(4)
    assert cube.multiplicative_order() == 3
    assert F.subfield_degree(cube) == 2


def test_square_classes():
    F3 = field(3)
    assert not F3.is_square(F3.element(2))
    assert F3.is_square(F3.one)
    assert F3.is_square(F3.zero)  # by convention
    with pytest.raises(FieldError):
        F3.is_square(field(5).one)
    F9 = field(3, 2)
    squares = [x for x in F9 if not x.is_zero() and F9.is_square(x)]
    assert len(squares) == (F9.order - 1) // 2 == 4
    brute = {(x * x).index for x in F9 if not x.is_zero()}
    assert {x.index for x in squares} == brute
    F4 = field(2, 2)
    assert all(F4.is_square(x) for x in F4)


def test_primitive_elements_are_the_documented_ones():
    assert field(3).primitive_element().index == 2
    assert field(5).primitive_element().index == 2
    assert field(2, 2).primitive_element() == field(2, 2).element(2)


def test_primitive_element_has_full_order():
    for p, n in [(2, 3), (3, 2), (2, 4), (5, 1), (7, 1), (3, 4)]:
        F = field(p, n)
        assert F.primitive_element().multiplicative_order() == F.order - 1


def test_field_construction_rejects_bad_input():
    with pytest.raises(FieldError):
        field(4)
    with pytest.raises(FieldError):
        field(2, 0)
    with pytest.raises(FieldError):
        field(2, 21)  # 2^21 over the cap
    with pytest.raises(FieldError):
        field(3).element(1) / field(3).zero
    with pytest.raises(FieldError):
        field(3).element(1) + field(5).element(1)


def test_identical_parameters_share_one_field_object():
    assert field(3, 2) is field(3, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
def test_gf81_ring_axioms(i, j, k):
    F = field(3, 4)
    a, b, c = F.element(i), F.element(j), F.element(k)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a - b == a + (-b)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 80), st.integers(0, 3))
def test_gf81_frobenius_power_is_p_power(i, e):
    F = field(3, 4)
    x = F.element(i)
    assert x.frobenius(e) == x ** (3 ** e)
