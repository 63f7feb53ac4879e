"""Validated constructors for the permutation groups the classifier meets.

Every constructor checks its output against the declared (degree, order,
transitivity) triple before returning, so a group object in circulation is
always what its tag claims.  The two families that come from one-off
searches (an alternating group of degree 7 inside the binary linear group
of rank 4, and the Mathieu groups as design automorphisms) load their
generators from bundled fixture data and revalidate from scratch at load
time; the data is treated as untrusted input, never as an authority.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from importlib import resources

from .designs import design_3_12_6_2, set_orbit, steiner_3_22_6
from .errors import CatalogError
from .ffield import INFINITY, FiniteField, ProjPoint, field
from .permgroup import Permutation, PermutationGroup


class MoebiusTransformation:
    """z maps to (a f(z) + b) / (c f(z) + d), where f is the e-th power of
    the Frobenius automorphism applied first.  Coefficients are scaled so
    the first nonzero one is 1."""

    __slots__ = ("field", "a", "b", "c", "d", "e")

    def __init__(self, a, b, c, d, e: int = 0):
        F = a.field
        if any(x.field is not F for x in (b, c, d)):
            raise CatalogError("coefficients from different fields")
        if (a * d - b * c).index == 0:
            raise CatalogError("degenerate transformation: ad - bc = 0")
        for lead in (a, b, c, d):
            if lead.index != 0:
                inv = lead.inverse()
                a, b, c, d = inv * a, inv * b, inv * c, inv * d
                break
        self.field: FiniteField = F
        self.a, self.b, self.c, self.d = a, b, c, d
        self.e = e % F.n

    def apply(self, z: ProjPoint) -> ProjPoint:
        if z.is_infinity:
            if self.c.index == 0:
                return INFINITY
            return ProjPoint(self.a / self.c)
        w = z.value.frobenius(self.e)
        denom = self.c * w + self.d
        if denom.index == 0:
            return INFINITY
        return ProjPoint((self.a * w + self.b) / denom)

    def permutation(self) -> Permutation:
        """Action on projective-line labels (0 is the point at infinity,
        1 + i the field element of enumeration index i)."""
        F = self.field
        images = [self.apply(INFINITY).label(F)]
        for i in range(F.order):
            images.append(self.apply(ProjPoint(F.element(i))).label(F))
        return Permutation(images)

    def __repr__(self) -> str:
        core = f"({self.a})z+({self.b}) / ({self.c})z+({self.d})"
        if self.e:
            return f"Moebius[{core} after frob^{self.e}]"
        return f"Moebius[{core}]"


def _field_for(q: int) -> FiniteField:
    if q < 2:
        raise CatalogError(f"not a prime power: {q}")
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q
    n = 0
    m = q
    while m % p == 0:
        m //= p
        n += 1
    if m != 1:
        raise CatalogError(f"not a prime power: {q}")
    return field(p, n)


def _frobenius_perm(F: FiniteField, s: int) -> Permutation:
    images = [0] + [1 + F.element(i).frobenius(s).index for i in range(F.order)]
    return Permutation(images)


def _validated(
    G: PermutationGroup, degree: int, order: int, trans: int, what: str
) -> PermutationGroup:
    if G.degree != degree:
        raise CatalogError(f"{what}: degree {G.degree}, expected {degree}")
    got = G.order()
    if got != order:
        raise CatalogError(f"{what}: order {got}, expected {order}")
    td = G.transitivity_degree()
    if td != trans:
        raise CatalogError(f"{what}: transitivity degree {td}, expected {trans}")
    return G


def _pgl_like_trans(q: int, with_sigma: bool, s: int = 1) -> int:
    # The degree-4 and degree-5 projective actions collapse onto symmetric
    # groups, which are more transitive than the generic count of 3.
    if q == 3:
        return 4
    if q == 4 and with_sigma and s == 1:
        return 5
    return 3


@lru_cache(maxsize=None)
def pgl2(q: int) -> PermutationGroup:
    F = _field_for(q)
    if q < 3:
        raise CatalogError("projective group needs at least 4 points")
    zero, one = F.element(0), F.element(1)
    a = F.primitive_element()
    gens = [
        MoebiusTransformation(one, one, zero, one),  # z + 1
        MoebiusTransformation(a, zero, zero, one),  # a z
        MoebiusTransformation(zero, one, one, zero),  # 1 / z
    ]
    G = PermutationGroup(q + 1, [m.permutation() for m in gens])
    _validated(G, q + 1, (q + 1) * q * (q - 1), _pgl_like_trans(q, False), f"pgl2({q})")
    # 3-transitive: every three-point stabilizer is conjugate to the base's
    if G.order() != math.prod(len(lvl.orbit) for lvl in G.chain.levels[:3]):
        raise CatalogError(f"pgl2({q}): three-point stabilizer is not trivial")
    return G


@lru_cache(maxsize=None)
def psl2(q: int) -> PermutationGroup:
    F = _field_for(q)
    if q < 3:
        raise CatalogError("projective group needs at least 4 points")
    if F.p == 2:
        return pgl2(q)
    zero, one = F.element(0), F.element(1)
    a = F.primitive_element()
    minus = zero - one
    gens = [
        MoebiusTransformation(one, one, zero, one),  # z + 1
        MoebiusTransformation(a * a, zero, zero, one),  # a^2 z
        MoebiusTransformation(zero, minus, one, zero),  # -1 / z
    ]
    G = PermutationGroup(q + 1, [m.permutation() for m in gens])
    order = (q + 1) * q * (q - 1) // 2
    got = G.order()
    if got != order:
        raise CatalogError(f"psl2({q}): order {got}, expected {order}")
    big = pgl2(q)
    if any(g not in big for g in G.generators):
        raise CatalogError(f"psl2({q}) escaped its parent group")
    return G


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def pgammal_subgroup(q: int, s: int) -> PermutationGroup:
    F = _field_for(q)
    if s < 1 or F.n % s:
        raise CatalogError(f"s={s} must divide the field degree {F.n}")
    gens = list(pgl2(q).generators)
    sigma = _frobenius_perm(F, s)
    if not sigma.is_identity():
        gens.append(sigma)
    G = PermutationGroup(q + 1, gens)
    order = (q + 1) * q * (q - 1) * (F.n // s)
    return _validated(
        G, q + 1, order, _pgl_like_trans(q, True, s), f"pgammal_subgroup({q},{s})"
    )


@lru_cache(maxsize=None)
def m_group(s: int, q: int) -> PermutationGroup:
    F = _field_for(q)
    if F.p == 2:
        raise CatalogError("twisted groups need odd characteristic")
    if F.n % 2:
        raise CatalogError("twisted groups need even field degree")
    if s < 1 or (F.n // 2) % s:
        raise CatalogError(f"s={s} must divide {F.n // 2}")
    zero, one = F.element(0), F.element(1)
    a = F.primitive_element()
    twist = MoebiusTransformation(a, zero, zero, one, e=s)  # a * frob^s(z)
    gens = list(psl2(q).generators) + [twist.permutation()]
    G = PermutationGroup(q + 1, gens)
    order = (q + 1) * q * (q - 1) * F.n // (2 * s)
    _validated(G, q + 1, order, 3, f"m_group({s},{q})")
    if _frobenius_perm(F, s) in G:
        raise CatalogError(
            f"m_group({s},{q}) contains the plain field automorphism; "
            "it would coincide with an untwisted group"
        )
    return G


def three_transitive_pgammal_list(q: int) -> list[tuple[str, PermutationGroup]]:
    """Every 3-transitive group between the projective linear group and its
    semilinear closure on q + 1 points, twisted families included, each
    with its group tag (``pgammal_q9_s1``, ``m_s1_q9``)."""
    F = _field_for(q)
    out = [(f"pgammal_q{q}_s{s}", pgammal_subgroup(q, s)) for s in _divisors(F.n)]
    if F.p != 2 and F.n % 2 == 0:
        out += [(f"m_s{s}_q{q}", m_group(s, q)) for s in _divisors(F.n // 2)]
    return out


def _gl_perm(d: int, images_of_basis: list[int]) -> Permutation:
    """Permutation of GF(2)^d (vectors as bitmask integers) induced by the
    linear map sending basis vector i to images_of_basis[i]."""
    n = 1 << d
    images = []
    for x in range(n):
        y = 0
        for i in range(d):
            if x >> i & 1:
                y ^= images_of_basis[i]
        images.append(y)
    return Permutation(images)


def _gl_order(d: int) -> int:
    out = 1
    for i in range(d):
        out *= (1 << d) - (1 << i)
    return out


@lru_cache(maxsize=None)
def agl(d: int, two: int = 2) -> PermutationGroup:
    if two != 2:
        raise CatalogError("only the binary affine groups are cataloged")
    if not 2 <= d <= 6:
        raise CatalogError(f"d={d} out of range 2..6")
    n = 1 << d
    translation = Permutation([x ^ 1 for x in range(n)])
    shift = _gl_perm(d, [1 << ((i + 1) % d) for i in range(d)])
    transvection = _gl_perm(d, [3 if i == 0 else 1 << i for i in range(d)])
    G = PermutationGroup(n, [translation, shift, transvection])
    order = n * _gl_order(d)
    return _validated(G, n, order, 4 if d == 2 else 3, f"agl({d},2)")


@lru_cache(maxsize=None)
def sym_alt(n: int, alternating: bool) -> PermutationGroup:
    if n < 1:
        raise CatalogError("degree must be positive")
    if not alternating:
        if n == 1:
            G = PermutationGroup(1, [])
        else:
            gens = [Permutation.from_cycles(n, [(0, 1)])]
            if n > 2:
                gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
            G = PermutationGroup(n, gens)
        expected = math.factorial(n)
    else:
        if n < 3:
            G = PermutationGroup(n, [])
        else:
            gens = [Permutation.from_cycles(n, [(0, 1, 2)])]
            if n > 3:
                cyc = tuple(range(n)) if n % 2 else tuple(range(1, n))
                gens.append(Permutation.from_cycles(n, [cyc]))
            G = PermutationGroup(n, gens)
        expected = max(1, math.factorial(n) // 2)
    got = G.order()
    if got != expected:
        raise CatalogError(f"sym_alt({n},{alternating}): order {got} != {expected}")
    return G


# ---------------------------------------------------------------------------
# Fixture-backed groups: searched once, bundled, revalidated on every load.

_FIXTURE_PACKAGE = "symquot.data"
_FIXTURE_NAME = "searched_groups.json"
_FIXTURE_SCHEMA = "symquot/1"


@lru_cache(maxsize=1)
def _fixture_data() -> dict:
    try:
        raw = resources.files(_FIXTURE_PACKAGE).joinpath(_FIXTURE_NAME).read_text()
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise CatalogError(f"missing fixture data {_FIXTURE_NAME}") from exc
    data = json.loads(raw)
    if data.get("schema") != _FIXTURE_SCHEMA:
        raise CatalogError("fixture schema mismatch")
    return data


@lru_cache(maxsize=1)
def z24_a7() -> PermutationGroup:
    """Translations of the rank-4 binary vector space extended by a searched
    alternating group of degree 7 inside its linear group."""
    mats = _fixture_data()["a7_gl42"]
    lin = [_gl_perm(4, rows) for rows in mats]
    parent = agl(4, 2)
    translation = Permutation([x ^ 1 for x in range(16)])
    G = PermutationGroup(16, [translation] + lin)
    _validated(G, 16, 40320, 3, "z24_a7")
    if any(g not in parent for g in G.generators):
        raise CatalogError("z24_a7 escaped the affine group")
    if parent.order() == G.order():
        raise CatalogError("z24_a7 must be a proper subgroup")
    stab = G.stabilizer([0, 1, 2])
    fixed = [
        x
        for x in range(16)
        if all(p(x) == x for p in stab.generators)
    ]
    if len(fixed) != 4:
        raise CatalogError(
            f"z24_a7: three-point stabilizer fixes {len(fixed)} points, expected 4"
        )
    return G


_MATHIEU_EXPECT = {
    # tag: (degree, order, transitivity degree)
    "M11on12": (12, 7920, 3),
    "M12": (12, 95040, 5),
    "M11on11": (11, 7920, 4),
    "M22": (22, 443520, 3),
    "AutM22": (22, 887040, 3),
    "M23": (23, 10200960, 4),
    "M24": (24, 244823040, 5),
}


@lru_cache(maxsize=None)
def mathieu(tag: str) -> PermutationGroup:
    if tag not in _MATHIEU_EXPECT:
        raise CatalogError(f"unknown group tag {tag!r}")
    degree, order, trans = _MATHIEU_EXPECT[tag]
    rows = _fixture_data()["mathieu"].get(tag)
    if rows is None:
        raise CatalogError(f"fixture data missing group {tag}")
    gens = [Permutation(r) for r in rows]
    G = PermutationGroup(degree, gens)
    _validated(G, degree, order, trans, tag)
    if tag in ("M22", "AutM22"):
        D = steiner_3_22_6()
        if not all(D.preserves(g) for g in G.generators):
            raise CatalogError(f"{tag} does not preserve its triple system")
    if tag == "M11on12":
        D = design_3_12_6_2()
        if not all(D.preserves(g) for g in G.generators):
            raise CatalogError(f"{tag} does not preserve its 12-point design")
        orbit = set_orbit(D.blocks[0], [g.images for g in G.generators])
        if len(orbit) != 22 or orbit != {frozenset(b) for b in D.blocks}:
            raise CatalogError("M11on12 block orbit does not recover the design")
    return G
