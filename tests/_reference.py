"""Test-only helpers: graphs of known shape, pair decoding and group
enumeration, used as fixtures and brute-force references, a design
counter that walks every t-subset of every block, and a parameter
measure that reads every quotient edge."""

import itertools
import math
from collections import Counter
from typing import Iterator, Optional, Sequence

from symquot.classify import TripleParams
from symquot.designs import design_from_partition
from symquot.errors import ClassificationError, GraphError, SymquotError
from symquot.graphs import Graph, StructureTag, cross_counts
from symquot.permgroup import Permutation, PermutationGroup, _mul


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << u) for u in range(n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycles need at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite_graph(parts: Sequence[int]) -> Graph:
    """Parts laid out consecutively from vertex 0."""
    if not parts or any(p < 1 for p in parts):
        raise GraphError("part sizes must be positive")
    full = (1 << sum(parts)) - 1
    rows, start = [], 0
    for size in parts:
        rows.extend([full ^ ((1 << size) - 1) << start] * size)
        start += size
    return Graph(sum(parts), rows)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    rows, shift = [], 0
    for g in graphs:
        rows.extend(r << shift for r in g.adj)
        shift += g.n
    return Graph(shift, rows)


def _tag(kind: str):
    return lambda *params: StructureTag(kind, params)


disjoint_complete = _tag("DisjointComplete")
disjoint_complete_bipartite = _tag("DisjointCompleteBipartite")
disjoint_complete_multipartite = _tag("DisjointCompleteMultipartite")
disjoint_cycles = _tag("DisjointCycles")


def structure_graph(tag: StructureTag) -> Graph:
    """A concrete graph with the tagged shape (Other has none)."""
    c, *rest = tag.params or (0,)
    part = {
        "DisjointComplete": lambda m: complete_graph(m),
        "DisjointCompleteBipartite": lambda m: complete_multipartite_graph([m, m]),
        "DisjointCompleteMultipartite": lambda a, b: complete_multipartite_graph([b] * a),
        "DisjointCycles": lambda m: cycle_graph(m),
    }.get(tag.kind)
    if part is None:
        raise GraphError(f"no concrete graph for tag {tag}")
    return disjoint_union([part(*rest)] * c)


def pair_from_index(m: int, idx: int) -> tuple[int, int]:
    """The ordered pair that graphs.pair_index numbers idx."""
    if not 0 <= idx < m * (m - 1):
        raise GraphError(f"pair index {idx} out of range")
    i, r = divmod(idx, m - 1)
    return i, r + 1 if r >= i else r


def elements(G: PermutationGroup) -> Iterator[Permutation]:
    """Every element of G, in an order fixed by its stabilizer chain."""
    levels = G.chain.levels

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == len(levels):
            yield tuple(range(G.degree))
            return
        for pt in sorted(levels[i].transversal):
            rep = levels[i].transversal[pt][0]
            for tail in rec(i + 1):
                yield _mul(tail, rep)

    return map(Permutation, rec(0))


def counted_design(D) -> tuple[tuple[int, ...], Optional[int]]:
    """(lambdas, rho) by counting every t-subset of every block.

    lambdas[t - 1] is the number of blocks through a t-subset of points,
    listed for t = 1..5 while that count is the same for every t-subset;
    rho is the common block multiplicity, None if blocks repeat unevenly.
    """
    lambdas = []
    for t in range(1, 6):
        cnt = Counter(sub for blk in D.blocks for sub in itertools.combinations(blk, t))
        if not cnt:  # no block has t points: every t-subset lies in none
            lambdas.append(0)
            continue
        values = set(cnt.values())
        if len(cnt) == math.comb(D.v, t) and len(values) == 1:
            lambdas.append(values.pop())
        else:
            break
    mult = set(Counter(D.blocks).values())
    return tuple(lambdas), mult.pop() if len(mult) == 1 else None


def all_pairs_params(T) -> TripleParams:
    """compute_params read off every quotient edge, whatever the triple's
    hypotheses: the counts of each block pair must agree with the first."""
    g, P = T.graph, T.partition
    try:
        s = g.valency()
    except SymquotError as exc:
        raise ClassificationError(f"valency is not constant: {exc}") from exc
    v = P.uniform_block_size()
    if v is None:
        raise ClassificationError("blocks differ in size")
    quot = T.quotient
    try:
        b = quot.valency()
    except SymquotError as exc:
        raise ClassificationError(f"quotient is not regular: {exc}") from exc
    t = m = k = None
    for i, j in quot.edges():
        cross, mij, kij = cross_counts(g, P, i, j)
        if len(cross) != 1:
            raise ClassificationError(
                f"cross valency between blocks {i} and {j} is uneven: "
                f"{sorted(cross)}"
            )
        tij = next(iter(cross))
        if t is None:
            t, m, k = tij, mij, kij
        elif (tij, mij, kij) != (t, m, k):
            raise ClassificationError(
                f"cross parameters vary: blocks {i},{j} give "
                f"(t, m, k) = ({tij}, {mij}, {kij}), not ({t}, {m}, {k})"
            )
    if t is None:
        raise ClassificationError("the quotient has no edges")
    if m != t * k or s % t:
        raise ClassificationError("cross counts break the divisibility laws")
    r = s // t
    if v * s != b * m or v * r != b * k:
        raise ClassificationError("counting identities vs = bm, vr = bk fail")
    D = design_from_partition(g, P, 0)
    return TripleParams(v=v, b=b, s=s, t=t, m=m, r=r, k=k, lam=D.lambda_t(2), rho=D.rho)
