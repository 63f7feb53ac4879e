"""Permutation groups with deterministic stabilizer chains.

Everything is exact and deterministic: no randomized sifting, no hash-order
dependence.  Base points are chosen as least moved points (or prescribed by
the caller for stabilizer computations), so identical input
always produces the identical chain.  Its basic orbits answer
k-transitivity for any base: no chain per point prefix.

Internally a chain element is a pair (main, aux) of image tuples.  The aux
coordinate is empty for ordinary groups; induced_action uses it to drag
preimage permutations through the sifting of the block-action chain, which
yields an exact kernel-triviality certificate without a stabilizer chain on
the (possibly much larger) original domain.

suborbit(x, y) is the orbit of y under the stabilizer G_x, and
translates() carries it along a Schreier tree of x's orbit.  Self-pairing,
orbital graphs and the arc and block checks are read from the two, and a
group keeps its last walk, as it keeps its chain, for the orbital graph and
the arc check to reuse.  A LiftedGroup is the faithful lift of a small
point group (ordered pairs or flags over its points), given by the point
group and one lift map.  It answers order(), the action on its fibres and
suborbit() from the point group, with no chain and no pair BFS on the
lifted domain; other questions, and every plain PermutationGroup (foreign
triples included), keep Schreier-Sims, the kernel certificate above and a
pair BFS over the whole domain for suborbits.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .errors import GroupError

DEGREE_CAP = 10 ** 4
PAIR_BFS_CAP = 10 ** 7


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Compose image tuples: apply a first, then b."""
    return tuple(b[x] for x in a)


def _inv(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def _pair_suborbit(gens: Sequence[tuple[int, ...]], n: int, x: int, y: int) -> list[int]:
    """BFS of the ordered pair (x, y) under gens; the second coordinates of
    the states whose first is x, sorted."""
    if not (0 <= x < n and 0 <= y < n):
        raise GroupError("point out of range")
    start = x * n + y
    seen = {start}
    queue = [start]
    for code in queue:
        a, b = divmod(code, n)
        for im in gens:
            nxt = im[a] * n + im[b]
            if nxt not in seen:
                if len(seen) >= PAIR_BFS_CAP:
                    raise GroupError("pair-orbit search exceeded state cap")
                seen.add(nxt)
                queue.append(nxt)
    lo = x * n
    return sorted(code - lo for code in seen if lo <= code < lo + n)


class Permutation:
    """A permutation of {0, ..., n-1}, stored as its image sequence."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for x in images:
            if not 0 <= x < n or seen[x]:
                raise GroupError(f"not a bijection on 0..{n - 1}: {images}")
            seen[x] = True
        self.images = images

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(n))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                images[x] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self then other."""
        if other.degree != self.degree:
            raise GroupError("degree mismatch")
        return Permutation(_mul(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(_inv(self.images))

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def sign(self) -> int:
        """+1 for even, -1 for odd."""
        return -1 if sum(len(c) - 1 for c in self.cycles()) % 2 else 1

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, least element first, sorted by least element."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and other.images == self.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return f"Perm(id/{self.degree})"
        return "Perm(" + "".join("(" + " ".join(map(str, c)) + ")" for c in cycs) + ")"


_Elem = tuple[tuple[int, ...], tuple[int, ...]]  # (main images, aux images)


def _emul(a: _Elem, b: _Elem) -> _Elem:
    return (_mul(a[0], b[0]), _mul(a[1], b[1]) if a[1] else ())


def _einv(a: _Elem) -> _Elem:
    return (_inv(a[0]), _inv(a[1]) if a[1] else ())


class _Level:
    __slots__ = ("point", "gens", "transversal", "orbit", "done")

    def __init__(self, point: int, ident: _Elem):
        self.point = point
        self.gens: list[_Elem] = []  # strong generators fixing all earlier base points
        self.transversal: dict[int, _Elem] = {point: ident}
        self.orbit: list[int] = [point]
        # done[gi] = how many orbit positions have had their Schreier product
        # with gens[gi] verified.  Orbit and gens only ever append, so the
        # counters survive growth of either list.
        self.done: dict[int, int] = {}


class _Chain:
    """Deterministic incremental Schreier-Sims over paired elements.

    Levels are verified bottom-up in the classic way: when a Schreier
    residue survives sifting it becomes a strong generator of every level
    whose base prefix it fixes, and verification restarts at the deepest
    level it joined.
    """

    def __init__(
        self,
        degree: int,
        gens: Sequence[_Elem],
        base_prefix: Sequence[int] = (),
        aux_degree: int = 0,
    ):
        self.degree = degree
        ident_aux = tuple(range(aux_degree)) if aux_degree else ()
        self.ident: _Elem = (tuple(range(degree)), ident_aux)
        self.levels: list[_Level] = [_Level(b, self.ident) for b in base_prefix]
        self.kernel_witness: tuple[int, ...] | None = None
        for g in gens:
            self._add_elem(g)

    def _is_ident_main(self, e: _Elem) -> bool:
        return all(i == x for i, x in enumerate(e[0]))

    def sift(self, e: _Elem, start: int = 0) -> tuple[_Elem, int]:
        for i in range(start, len(self.levels)):
            lvl = self.levels[i]
            img = e[0][lvl.point]
            rep = lvl.transversal.get(img)
            if rep is None:
                return e, i
            e = _emul(e, _einv(rep))
        return e, len(self.levels)

    def _note_kernel(self, e: _Elem) -> None:
        if e[1] and self.kernel_witness is None and any(i != x for i, x in enumerate(e[1])):
            self.kernel_witness = e[1]

    def _place(self, e: _Elem, floor: int) -> int:
        """Install a genuinely new strong generator at levels floor..f, where
        f is the length of the base prefix e fixes.  A residue produced while
        verifying level i already lies in the group generated at every level
        <= i, so its floor is i + 1; input generators get floor 0."""
        f = 0
        while f < len(self.levels) and e[0][self.levels[f].point] == self.levels[f].point:
            f += 1
        if f == len(self.levels):
            moved = min(x for x in range(self.degree) if e[0][x] != x)
            self.levels.append(_Level(moved, self.ident))
        for lvl in self.levels[floor : f + 1]:
            lvl.gens.append(e)
        return f

    def _extend_orbit(self, i: int) -> None:
        lvl = self.levels[i]
        qi = 0
        while qi < len(lvl.orbit):
            pt = lvl.orbit[qi]
            qi += 1
            rep = lvl.transversal[pt]
            for g in lvl.gens:
                img = g[0][pt]
                if img not in lvl.transversal:
                    lvl.transversal[img] = _emul(rep, g)
                    lvl.orbit.append(img)

    def _verify_level(self, i: int) -> int | None:
        """Process outstanding Schreier pairs at level i.  Returns None when
        the level is complete, else the deepest level that gained a strong
        generator (verification must resume there)."""
        lvl = self.levels[i]
        self._extend_orbit(i)
        for gi, g in enumerate(lvl.gens):
            pos = lvl.done.get(gi, 0)
            while pos < len(lvl.orbit):
                pt = lvl.orbit[pos]
                pos += 1
                lvl.done[gi] = pos
                rep = lvl.transversal[pt]
                target = lvl.transversal[g[0][pt]]
                schreier = _emul(_emul(rep, g), _einv(target))
                res, _ = self.sift(schreier, i + 1)
                if self._is_ident_main(res):
                    self._note_kernel(res)
                    continue
                return self._place(res, i + 1)
        return None

    def _run(self, start: int) -> None:
        i = start
        while i >= 0:
            nxt = self._verify_level(i)
            if nxt is None:
                i -= 1
            else:
                i = nxt

    def _add_elem(self, e: _Elem) -> None:
        res, _ = self.sift(e)
        if self._is_ident_main(res):
            self._note_kernel(res)
            return
        self._run(self._place(res, 0))

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n

    def contains(self, images: tuple[int, ...]) -> bool:
        res, _ = self.sift((images, ()))
        return self._is_ident_main(res)


class PermutationGroup:
    """A permutation group given by generators, with a stabilizer chain."""

    def __init__(self, degree: int, generators: Sequence[Permutation]):
        if degree > DEGREE_CAP:
            raise GroupError(f"degree {degree} exceeds cap {DEGREE_CAP}")
        for g in generators:
            if g.degree != degree:
                raise GroupError("generator degree mismatch")
        self.degree = degree
        self.generators = [g for g in generators if not g.is_identity()]
        self._chain: _Chain | None = None
        self._translated: tuple = (None, None)  # (key, result) of translates()
        self._gen_images = [g.images for g in self.generators]

    @property
    def chain(self) -> _Chain:
        if self._chain is None:
            self._chain = _Chain(self.degree, [(im, ()) for im in self._gen_images])
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def __contains__(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        return self.chain.contains(g.images)

    def orbit(self, x: int) -> list[int]:
        """Orbit of x in breadth-first discovery order."""
        return list(self.schreier_tree(x))

    def schreier_tree(self, x: int) -> dict[int, tuple[int, tuple[int, ...]] | None]:
        """x's orbit in breadth-first discovery order, each point mapped to
        its parent and the images of the generator taking the parent to
        it; x maps to None."""
        if not 0 <= x < self.degree:
            raise GroupError("point out of range")
        tree: dict = {x: None}
        queue = [x]
        for u in queue:
            for im in self._gen_images:
                w = im[u]
                if w not in tree:
                    tree[w] = (u, im)
                    queue.append(w)
        return tree

    def is_transitive(self) -> bool:
        return self.degree == 0 or len(self.orbit(0)) == self.degree

    def stabilizer(self, points: Sequence[int]) -> "PermutationGroup":
        """Pointwise stabilizer of the given distinct points."""
        points = tuple(points)
        if len(set(points)) != len(points):
            raise GroupError("stabilizer points must be distinct")
        ch = _Chain(self.degree, [(im, ()) for im in self._gen_images], base_prefix=points)
        k = len(points)
        gens = []
        seen = set()
        for lvl in ch.levels[k:]:
            for e in lvl.gens:
                if e[0] not in seen:
                    seen.add(e[0])
                    gens.append(Permutation(e[0]))
        return PermutationGroup(self.degree, gens)

    def transitivity_degree(self) -> int:
        """Largest k such that G is k-transitive (0 for an intransitive
        group), read off the cached chain: for any base, the stabilizer of
        the first i base points is transitive on the other m - i points
        exactly when the basic orbit at level i has m - i points.  Past the
        last level the stabilizer is trivial, transitive on one point."""
        levels = self.chain.levels
        k = 0
        while k < len(levels) and len(levels[k].orbit) == self.degree - k:
            k += 1
        return k + 1 if k == len(levels) and self.degree - k == 1 else k

    def _check_blocks(self, blocks: Sequence[Sequence[int]]) -> list[list[int]]:
        cover = [-1] * self.degree
        out = []
        for bi, blk in enumerate(blocks):
            blk = sorted(blk)
            if not blk:
                raise GroupError("empty block")
            for x in blk:
                if not 0 <= x < self.degree or cover[x] != -1:
                    raise GroupError("not a partition of the domain")
                cover[x] = bi
            out.append(blk)
        if any(c == -1 for c in cover):
            raise GroupError("partition misses points")
        return out

    def is_block_system(self, blocks: Sequence[Sequence[int]]) -> bool:
        blks = self._check_blocks(blocks)
        block_of = [0] * self.degree
        for bi, blk in enumerate(blks):
            for x in blk:
                block_of[x] = bi
        for im in self._gen_images:
            for blk in blks:
                target = block_of[im[blk[0]]]
                if any(block_of[im[x]] != target for x in blk):
                    return False
        return True

    def induced_action(
        self, blocks: Sequence[Sequence[int]]
    ) -> tuple["PermutationGroup", bool]:
        """Action on block indices, plus True iff its kernel is trivial.

        The kernel certificate comes from sifting shadow copies of the
        original permutations through the block-action chain: a relation
        that is trivial on blocks but not on points is a kernel witness.
        """
        blks = self._check_blocks(blocks)
        if not self.is_block_system(blks):
            raise GroupError("partition is not a block system for this group")
        block_of = [0] * self.degree
        for bi, blk in enumerate(blks):
            for x in blk:
                block_of[x] = bi
        img_gens = []
        for im in self._gen_images:
            img_gens.append(tuple(block_of[im[blk[0]]] for blk in blks))
        paired = [(img, im) for img, im in zip(img_gens, self._gen_images)]
        ch = _Chain(len(blks), paired, aux_degree=self.degree)
        distinct = list(dict.fromkeys(img_gens))
        image = PermutationGroup(len(blks), [Permutation(t) for t in distinct])
        return image, ch.kernel_witness is None

    def suborbit(self, x: int, y: int) -> list[int]:
        """The orbit of y under the stabilizer of x, sorted."""
        return _pair_suborbit(self._gen_images, self.degree, x, y)

    def suborbits(self, x: int) -> list[list[int]]:
        """Orbits of the stabilizer of x on all points, each sorted; {x}
        first, the rest by increasing least point."""
        if not self.is_transitive():
            raise GroupError("suborbits require a transitive group")
        seen = [False] * self.degree
        out = [[x]]
        for start in range(self.degree):
            if not seen[start] and start != x:
                orb = self.suborbit(x, start)
                for y in orb:
                    seen[y] = True
                out.append(orb)
        return out

    def translates(self, x: int, points: Iterable[int]) -> list[tuple[int, ...] | None]:
        """Entry u: the sorted image of ``points`` under the Schreier-tree element
        taking x to u, None off x's orbit; for ``points`` fixed by G_x setwise (a
        suborbit) it does not depend on the tree.  Kept by the group: never change it."""
        tree = self.schreier_tree(x)
        out: list[tuple[int, ...] | None] = [None] * self.degree
        out[x] = tuple(sorted(points))
        for w, (u, im) in list(tree.items())[1:]:
            out[w] = tuple(sorted(map(im.__getitem__, out[u])))
        self._translated = ((x, out[x]), out)
        return out

    def is_self_paired(self, x: int, y: int) -> bool:
        """True iff the ordered pairs (x, y) and (y, x) share an orbit: iff x
        lies in N(y) = {v : (y, v) in the orbit of (x, y)}, read off the
        translates of G_x.y, which the group keeps."""
        if x == y:
            raise GroupError("points must differ")
        at_y = self.translates(x, self.suborbit(x, y))[y]
        if at_y is None:
            raise GroupError("points lie in different orbits")
        return x in at_y

    def __repr__(self) -> str:
        return f"PermutationGroup(degree={self.degree}, gens={len(self.generators)})"


class LiftedGroup(PermutationGroup):
    """A faithful lift of a point group onto a larger domain.

    ``lift(point_images)`` is the image tuple of a point permutation on
    the lifted domain; ``generators[i]`` is ``lift`` of
    ``point_group.generators[i]``.  ``fibres[p]`` lists the lifted points
    over point p (ordered pairs with first coordinate p, or flags through
    p) and covers the domain.  The builder guarantees faithfulness, so the
    order, the action on the fibres and suborbits come from the point
    group; everything else takes the generic path.
    """

    def __init__(
        self,
        point_group: PermutationGroup,
        lift: Callable[[tuple[int, ...]], tuple[int, ...]],
        fibres: Sequence[Sequence[int]],
    ):
        self.point_group = point_group
        self.lift = lift
        self.fibres = tuple(tuple(f) for f in fibres)
        self._fibre_of = {z: p for p, fibre in enumerate(self.fibres) for z in fibre}
        self._fibre_stabilizers: dict[int, list[tuple[int, ...]]] = {}
        lifts = [Permutation(lift(g.images)) for g in point_group.generators]
        super().__init__(len(self._fibre_of), lifts)

    def order(self) -> int:
        return self.point_group.order()

    def induced_action(
        self, blocks: Sequence[Sequence[int]]
    ) -> tuple[PermutationGroup, bool]:
        if tuple(tuple(sorted(b)) for b in blocks) != self.fibres:
            return super().induced_action(blocks)
        P = self.point_group
        distinct = list(dict.fromkeys(g.images for g in P.generators))
        if len(distinct) == len(P.generators):
            return P, True
        return PermutationGroup(P.degree, [Permutation(t) for t in distinct]), True

    def suborbit(self, x: int, y: int) -> list[int]:
        """The stabilizer of x lies in that of its fibre's point p, so the
        pair BFS runs under the lift of G_p: at most |fibre| times the
        suborbit's length in states."""
        p = self._fibre_of.get(x)
        gens = self._fibre_stabilizer(p) if p is not None else ()
        return _pair_suborbit(gens, self.degree, x, y)

    def _fibre_stabilizer(self, p: int) -> list[tuple[int, ...]]:
        """Lifted generators of G_p: the point chain's level-1 strong
        generators (which generate the stabilizer of its base point b),
        conjugated by the transversal element taking b to p, or a fresh
        stabilizer for p outside the first basic orbit."""
        gens = self._fibre_stabilizers.get(p)
        if gens is None:
            levels = self.point_group.chain.levels
            if levels and p in levels[0].transversal:
                t = levels[0].transversal[p][0]
                strong = levels[1].gens if len(levels) > 1 else []
                point_gens = [_mul(_mul(_inv(t), h[0]), t) for h in strong]
            else:
                point_gens = [g.images for g in self.point_group.stabilizer([p]).generators]
            gens = [self.lift(h) for h in dict.fromkeys(point_gens)]
            self._fibre_stabilizers[p] = gens
        return gens
