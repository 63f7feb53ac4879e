"""Finite fields GF(p^n) in polynomial basis, and the projective line over them.

Elements are coefficient vectors over GF(p) reduced modulo a fixed monic
irreducible polynomial.  Element enumeration order is fixed once and for all
(see FiniteField.element): it drives primitive-element choice, serialization
and the point labels used everywhere else in the package, so nothing here may
depend on hash order or randomness.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .errors import FieldError

# Fixed moduli, ascending coefficients, leading coefficient included.
# Each entry is the lexicographically least monic irreducible of its degree
# under the package-wide enumeration order (constant term varies fastest);
# frozen here so every run and every host agrees on the representation.
_MODULUS_TABLE: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (5, 2): (2, 0, 1),
}

_ORDER_CAP = 2 ** 20


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _poly_mod(a: list[int], m: tuple[int, ...], p: int) -> list[int]:
    """Remainder of a by the monic polynomial m, coefficients mod p."""
    a = list(a)
    dm = len(m) - 1
    for sh in range(len(a) - 1 - dm, -1, -1):
        c = a[sh + dm] % p
        if c:
            for i, x in enumerate(m):
                a[sh + i] = (a[sh + i] - c * x) % p
    del a[dm:]
    while len(a) < dm:
        a.append(0)
    return a


def _index_to_coeffs(idx: int, p: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(idx % p)
        idx //= p
    return tuple(out)


def _is_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree up to deg(m)/2."""
    deg = len(m) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for idx in range(p ** d):
            div = _index_to_coeffs(idx, p, d) + (1,)
            rem = _poly_mod(list(m), div, p)
            if not any(rem):
                return False
    return True


def _search_modulus(p: int, n: int) -> tuple[int, ...]:
    for idx in range(p ** n):
        cand = _index_to_coeffs(idx, p, n) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise FieldError(f"no irreducible polynomial of degree {n} over GF({p})")


class FieldElement:
    """An element of a FiniteField, stored as its coefficient tuple."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "FiniteField", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    @property
    def index(self) -> int:
        """Position in the field's fixed enumeration (0 is the zero element)."""
        p = self.field.p
        idx = 0
        for c in reversed(self.coeffs):
            idx = idx * p + c
        return idx

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check_same(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement) or other.field is not self.field:
            raise FieldError("operands belong to different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        p = self.field.p
        return FieldElement(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        p = self.field.p
        return FieldElement(
            self.field,
            tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "FieldElement":
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        F = self.field
        p = F.p
        a, b = self.coeffs, other.coeffs
        prod = [0] * (2 * F.n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return FieldElement(F, tuple(_poly_mod([c % p for c in prod], F.modulus, p)))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        return self * other.inverse()

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise FieldError("division by zero")
        return self ** (self.field.order - 2)

    def __pow__(self, e: int) -> "FieldElement":
        F = self.field
        if e < 0:
            return self.inverse() ** (-e)
        result = F.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def frobenius(self, i: int = 1) -> "FieldElement":
        """x -> x^(p^i); i = 0 is the identity and exponents wrap mod n."""
        if i < 0:
            raise FieldError("frobenius power must be nonnegative")
        out = self
        for _ in range(i % self.field.n):
            out = out ** self.field.p
        return out

    def multiplicative_order(self) -> int:
        if self.is_zero():
            raise FieldError("zero has no multiplicative order")
        acc = self
        k = 1
        one = self.field.one
        while acc != one:
            acc = acc * self
            k += 1
        return k

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldElement)
            and other.field is self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.coeffs))

    def __repr__(self) -> str:
        return f"GF({self.field.order})#{self.index}"


class FiniteField:
    """GF(p^n) with a fixed modulus and a fixed element enumeration."""

    def __init__(self, p: int, n: int = 1):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        if n < 1:
            raise FieldError("exponent must be at least 1")
        order = p ** n
        if order > _ORDER_CAP:
            raise FieldError(f"field order {order} exceeds cap {_ORDER_CAP}")
        self.p = p
        self.n = n
        self.order = order
        if n == 1:
            self.modulus: tuple[int, ...] = (0, 1)  # the polynomial x
        else:
            self.modulus = _MODULUS_TABLE.get((p, n)) or _search_modulus(p, n)
            if not _is_irreducible(self.modulus, p):
                raise FieldError("modulus failed irreducibility check")
        self.zero = FieldElement(self, (0,) * n)
        one = [0] * n
        one[0] = 1
        self.one = FieldElement(self, tuple(one))

    def element(self, index: int) -> FieldElement:
        """The index-th element: base-p digits of index are the coefficients,
        constant term least significant."""
        if not 0 <= index < self.order:
            raise FieldError(f"element index {index} out of range for GF({self.order})")
        return FieldElement(self, _index_to_coeffs(index, self.p, self.n))

    def __iter__(self) -> Iterator[FieldElement]:
        for i in range(self.order):
            yield self.element(i)

    def __len__(self) -> int:
        return self.order

    def subfield_degree(self, d: FieldElement) -> int:
        """Least s >= 1 dividing n with d^(p^s) = d, i.e. d generates GF(p^s)."""
        if d.field is not self:
            raise FieldError("element from a different field")
        for s in range(1, self.n + 1):
            if self.n % s == 0 and d.frobenius(s) == d:
                return s
        raise FieldError("unreachable: n itself always qualifies")

    def square_class(self, a: FieldElement) -> str:
        """'zero', 'square' or 'nonsquare'.  In even characteristic every
        element is a square."""
        if a.field is not self:
            raise FieldError("element from a different field")
        if a.is_zero():
            return "zero"
        if self.p == 2:
            return "square"
        return "square" if a ** ((self.order - 1) // 2) == self.one else "nonsquare"

    def is_square(self, a: FieldElement) -> bool:
        """True unless a is a nonzero non-square (zero counts as a square;
        use square_class to see the zero case distinctly)."""
        return self.square_class(a) != "nonsquare"

    def primitive_element(self) -> FieldElement:
        """Least element in enumeration order of multiplicative order q-1."""
        if self.order < 3:
            raise FieldError("GF(2) has no primitive element of order > 1")
        target = self.order - 1
        for x in self:
            if not x.is_zero() and x.multiplicative_order() == target:
                return x
        raise FieldError("unreachable: the multiplicative group is cyclic")

    def __repr__(self) -> str:
        return f"FiniteField({self.p}, {self.n})"


@lru_cache(maxsize=None)
def field(p: int, n: int = 1) -> FiniteField:
    """Shared constructor: identical (p, n) returns the identical object, so
    element identity checks across the package are safe."""
    return FiniteField(p, n)


class ProjPoint:
    """A point of PG(1,q): either a field element or the point at infinity."""

    __slots__ = ("value",)

    def __init__(self, value: FieldElement | None):
        self.value = value

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def label(self, F: FiniteField) -> int:
        """Canonical point label: 0 for infinity, 1 + element index otherwise.

        These labels are the vertex/point numbering used by every group and
        graph built over PG(1,q)."""
        if self.value is None:
            return 0
        if self.value.field is not F:
            raise FieldError("point belongs to a different field")
        return 1 + self.value.index

    def as_json(self) -> int | str:
        return "inf" if self.value is None else self.value.index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProjPoint) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("inf",)) if self.value is None else hash(self.value)

    def __repr__(self) -> str:
        return "Proj(inf)" if self.value is None else f"Proj({self.value!r})"


INFINITY = ProjPoint(None)
