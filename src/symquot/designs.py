"""Incidence structures and the concrete designs the classifier needs.

Blocks are stored as sorted point tuples; repeated blocks are allowed and
meaningful (the repetition multiplicity rho is a classification parameter).
The named constructors (the hyperplanes of AG(d, 2), the Steiner triple
extension of PG(2,4), the Hadamard 3-design on 12 points) validate
themselves by counting: a constructor that cannot prove its own
parameters raises instead of returning a wrong object.  Like the group
catalog, they cache what they build, so callers share one object per
design.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

from .errors import DesignError
from .ffield import field
from .permgroup import Permutation


class IncidenceStructure:
    """Points 0..v-1 with an ordered sequence of blocks (repeats allowed)."""

    def __init__(self, v: int, blocks: Sequence[Sequence[int]]):
        if v <= 0:
            raise DesignError("need at least one point")
        frozen = []
        for blk in blocks:
            t = tuple(sorted(set(blk)))
            if not t:
                raise DesignError("empty block")
            if t[0] < 0 or t[-1] >= v:
                raise DesignError(f"block {t} not within 0..{v - 1}")
            frozen.append(t)
        self.v = v
        self.blocks: tuple[tuple[int, ...], ...] = tuple(frozen)

    @property
    def b(self) -> int:
        return len(self.blocks)

    @cached_property
    def point_masks(self) -> tuple[int, ...]:
        """Per point, the mask of the blocks through it (bit i = block i)."""
        masks = [0] * self.v
        for bi, blk in enumerate(self.blocks):
            for p in blk:
                masks[p] |= 1 << bi
        return tuple(masks)

    def lambda_t(self, t: int) -> Optional[int]:
        """The number of blocks through every t-subset of points: the
        popcount of the AND of their point masks, so lambda_1 = r.  None
        when that count, or the count for any smaller subset size, varies;
        0 when there are fewer than t points."""
        masks = self.point_masks
        level = [((1 << self.b) - 1, -1)]  # the empty subset: every block
        counts = {self.b}
        for _ in range(t):
            level = [(m & masks[q], q) for m, p in level for q in range(p + 1, self.v)]
            counts = {m.bit_count() for m, _ in level}
            if len(counts) > 1:
                return None
        return counts.pop() if counts else 0

    @property
    def rho(self) -> Optional[int]:
        """The common multiplicity of the blocks; None if they repeat unevenly."""
        mult = set(Counter(self.blocks).values())
        return mult.pop() if len(mult) == 1 else None

    def preserves(self, g: Permutation) -> bool:
        if g.degree != self.v:
            raise DesignError("permutation degree != point count")
        mapped = Counter(tuple(sorted(g(x) for x in blk)) for blk in self.blocks)
        return mapped == Counter(self.blocks)

    def __eq__(self, other):
        return (
            isinstance(other, IncidenceStructure)
            and other.v == self.v
            and Counter(other.blocks) == Counter(self.blocks)
        )

    def __repr__(self):
        return f"IncidenceStructure(v={self.v}, b={self.b})"


def set_orbit(points: Iterable[int], gens: Sequence[Sequence[int]]) -> set[frozenset]:
    """The orbit of a point set under generators given as image tuples."""
    orbit = {frozenset(points)}
    queue = list(orbit)
    while queue:
        cur = queue.pop()
        for g in gens:
            img = frozenset(g[x] for x in cur)
            if img not in orbit:
                orbit.add(img)
                queue.append(img)
    return orbit


def design_from_partition(graph, partition, block_index: int) -> IncidenceStructure:
    """The structure induced on one block: its points are the block's
    vertices, and each neighbouring block contributes the set of vertices
    with at least one edge into it."""
    blocks = partition.blocks
    if not 0 <= block_index < len(blocks):
        raise DesignError("block index out of range")
    home = blocks[block_index]
    local = {x: i for i, x in enumerate(home)}
    structure_blocks = []
    for j, other in enumerate(blocks):
        if j == block_index:
            continue
        incident = tuple(
            local[x] for x in home if graph.adj[x] & partition.block_mask(j)
        )
        if incident:
            structure_blocks.append(incident)
    if not structure_blocks:
        raise DesignError("block has no neighbouring blocks")
    return IncidenceStructure(len(home), structure_blocks)


@lru_cache(maxsize=None)
def ag_design(d: int) -> IncidenceStructure:
    """Points and hyperplanes of AG(d, 2), the binary affine space of
    dimension d: each nonzero linear form x -> popcount(x & f) mod 2 splits
    it into two parallel hyperplanes.  Vectors are encoded as integers with
    bit i = coordinate i."""
    if not 3 <= d <= 6:
        raise DesignError(f"need 3 <= d <= 6, got d={d}")
    n = 1 << d
    blocks = []
    for f in range(1, n):
        for side in (0, 1):
            blocks.append(tuple(x for x in range(n) if (x & f).bit_count() % 2 == side))
    blocks.sort()
    D = IncidenceStructure(n, blocks)
    if D.b != 2 * (n - 1) or any(len(blk) != n // 2 for blk in D.blocks):
        raise DesignError("hyperplane count validation failed")
    return D


def _pg2_4_points():
    """The 21 points of the projective plane over the 4-element field, as
    normalized coordinate triples in a fixed enumeration order."""
    F = field(2, 2)
    els = [F.element(i) for i in range(4)]
    zero, one = els[0], els[1]
    pts = []
    for y in els:
        for z in els:
            pts.append((one, y, z))
    for z in els:
        pts.append((zero, one, z))
    pts.append((zero, zero, one))
    return F, pts


def _pg2_4_normalize(vec):
    for lead in vec:
        if lead.index != 0:
            inv = lead.inverse()
            return tuple(inv * c for c in vec)
    raise DesignError("zero vector has no projective point")


@lru_cache(maxsize=None)
def steiner_3_22_6() -> IncidenceStructure:
    """The 3-design on 22 points with blocks of size 6 and every triple in
    exactly one block: the 21 lines of the projective plane of order 4, each
    extended by the extra point 21, plus one 56-orbit of hyperovals."""
    F, pts = _pg2_4_points()
    pt_index = {p: i for i, p in enumerate(pts)}
    extra = 21

    lines = []
    for a, b, c in pts:  # dual coordinates range over the same triples
        line = tuple(
            sorted(
                pt_index[p]
                for p in pts
                if (a * p[0] + b * p[1] + c * p[2]).index == 0
            )
        )
        lines.append(line + (extra,))

    zero, one = F.element(0), F.element(1)
    conic = [(one, t, t * t) for t in (F.element(i) for i in range(4))]
    oval = frozenset(
        pt_index[_pg2_4_normalize(p)] for p in conic + [(zero, one, zero), (zero, zero, one)]
    )

    orbit = set_orbit(oval, _psl3_4_point_perms(F, pts, pt_index))
    if len(orbit) != 56:
        raise DesignError(f"hyperoval orbit has length {len(orbit)}, expected 56")

    blocks = sorted([tuple(sorted(o)) for o in orbit] + lines)
    D = IncidenceStructure(22, blocks)
    if D.b != 77 or D.lambda_t(3) != 1:
        raise DesignError("triple-coverage validation failed for the 22-point design")
    return D


def _psl3_4_point_perms(F, pts, pt_index):
    """Point permutations of a generating set of the special linear group of
    3x3 matrices over F, acting on the 21 projective points."""
    zero, one = F.element(0), F.element(1)
    w = F.element(2)  # a generator of the multiplicative group
    ident = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]

    def transvection(i, j, scale):
        m = [row[:] for row in ident]
        m[i][j] = scale
        return m

    cycle = [[zero, one, zero], [zero, zero, one], [one, zero, zero]]
    mats = [
        transvection(0, 1, one),
        transvection(0, 1, w),
        transvection(1, 0, one),
        transvection(1, 0, w),
        cycle,
    ]

    perms = []
    for m in mats:
        images = []
        for p in pts:
            img = tuple(
                m[0][c] * p[0] + m[1][c] * p[1] + m[2][c] * p[2] for c in range(3)
            )
            images.append(pt_index[_pg2_4_normalize(img)])
        perms.append(tuple(images))
    return perms


@lru_cache(maxsize=None)
def design_3_12_6_2() -> IncidenceStructure:
    """The Hadamard 3-design on 12 points with every triple in 2 blocks,
    from quadratic residues modulo 11.  Point 0 is the extra point; point
    1 + x stands for the residue x, matching the projective-line labels of
    the degree-12 groups."""
    q = 11
    residues = sorted({x * x % q for x in range(1, q)})
    non = sorted(set(range(1, q)) - set(residues))
    blocks = []
    for i in range(q):
        blocks.append(tuple(sorted([0] + [1 + (x + i) % q for x in residues])))
        blocks.append(tuple(sorted([1 + i] + [1 + (x + i) % q for x in non])))
    blocks.sort()
    D = IncidenceStructure(12, blocks)
    if D.b != 22 or D.lambda_t(3) != 2:
        raise DesignError("triple-coverage validation failed for the 12-point design")
    block_set = set(D.blocks)
    full = set(range(12))
    if any(tuple(sorted(full - set(blk))) not in block_set for blk in D.blocks):
        raise DesignError("12-point design should be closed under complements")
    return D
