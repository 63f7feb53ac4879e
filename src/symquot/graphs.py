"""Bitset graphs, quotients by vertex partitions, and shape recognition.

A graph stores one integer per vertex whose set bits are the neighbour set,
so adjacency tests, cross-valency counts, and complement tricks are single
mask operations.  Beside the rows it keeps one sorted neighbour tuple per
vertex, which edge walks, the symmetry check and the writers read.  The
recognizers decompose a graph into connected components and name the
shape when every component is the same complete, complete bipartite,
complete multipartite, or cycle graph; everything else is tagged Other
rather than guessed at.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import GraphError, NotSelfPairedError
from .permgroup import PermutationGroup


class Graph:
    """Undirected loop-free graph on vertices 0..n-1: bitset rows for mask
    arithmetic, and one sorted neighbour tuple per vertex for walking."""

    __slots__ = ("n", "adj", "nbrs")

    def __init__(
        self, n: int, adj: Sequence[int] | None = None, *, nbrs: Sequence[tuple] | None = None
    ):
        """Bitset rows ``adj``, or else the rows of ``nbrs``, each vertex's
        neighbours 0..n-1 as a strictly ascending tuple."""
        if (adj is None) == (nbrs is None):
            raise TypeError("Graph takes either adjacency rows or neighbour tuples")
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        given = nbrs is not None
        listed = tuple(nbrs if given else map(int, adj))
        if len(listed) != n:
            raise GraphError(f"adjacency has {len(listed)} rows for {n} vertices")
        if given:
            nbrs = listed
        else:
            rows = listed
            full = (1 << n) - 1
            for u, row in enumerate(rows):
                if row < 0 or row & ~full:
                    raise GraphError(f"row {u} has bits outside 0..{n - 1}")
            nbrs = tuple(tuple(_bits(r)) for r in rows)
        # walking u upward meets the vertices that list v in ascending
        # order, so each must be the next entry of v's tuple; a walk that
        # passes has met every entry as some u, so in range and in order
        its = [iter(nb) for nb in nbrs]
        try:
            walked = all(next(its[v], None) == u for u, nb in enumerate(nbrs) for v in nb)
        except IndexError:
            walked = False
        if given:
            if not walked:  # _rows would wrap a neighbour outside 0..n-1
                for u, nb in enumerate(nbrs):
                    if any(not 0 <= v < n for v in nb):
                        raise GraphError(f"row {u} has bits outside 0..{n - 1}")
            rows = tuple(_rows(n, nbrs))
        for u, row in enumerate(rows):
            if row >> u & 1:
                raise GraphError(f"loop at vertex {u}")
        # repeats pass the walk, and make the tuples outnumber the bits
        if not walked or (given and sum(map(len, nbrs)) != sum(r.bit_count() for r in rows)):
            for u, row in enumerate(rows):
                for v in _bits(row):
                    if not rows[v] >> u & 1:
                        raise GraphError(f"edge {u}-{v} missing its reverse")
            u = next(u for u, nb in enumerate(nbrs) if nb != tuple(_bits(rows[u])))
            raise GraphError(f"neighbours of vertex {u} are unsorted or repeat a vertex")
        self.n = n
        self.adj = rows
        self.nbrs: tuple[tuple[int, ...], ...] = nbrs

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        ids = list(range(n))  # one int object per vertex, shared by all lists
        nbrs: list = [[] for _ in ids]
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {u}-{v} out of range")
            nbrs[u].append(ids[v])
            nbrs[v].append(ids[u])
        return cls(n, nbrs=[tuple(sorted(set(nb))) for nb in nbrs])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.nbrs)) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, nb in enumerate(self.nbrs) for v in nb if v > u]

    def valency(self) -> int:
        """Common vertex degree; raises when the graph is not regular."""
        degrees = set(map(len, self.nbrs))
        if len(degrees) != 1:
            raise GraphError("graph is not regular")
        return degrees.pop()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and other.n == self.n and other.adj == self.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _rows(n: int, nbrs: Iterable[Iterable[int]]) -> list[int]:
    """Bitset rows from neighbour lists, set byte by byte: adding 1 << v to
    a growing row would cost the row's length for every neighbour."""
    out = []
    for nb in nbrs:
        row = bytearray((n + 7) // 8)
        for v in nb:
            row[v >> 3] |= 1 << (v & 7)
        out.append(int.from_bytes(row, "little"))
    return out


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


class Partition:
    """Disjoint nonempty vertex blocks covering 0..n-1."""

    __slots__ = ("n", "blocks", "block_of", "_masks")

    def __init__(self, blocks: Sequence[Sequence[int]]):
        frozen = []
        seen: set[int] = set()
        for blk in blocks:
            t = tuple(sorted(blk))
            if not t:
                raise GraphError("empty block")
            if len(set(t)) != len(t) or seen & set(t):
                raise GraphError("blocks overlap")
            seen |= set(t)
            frozen.append(t)
        if not frozen:
            raise GraphError("partition needs at least one block")
        n = max(seen) + 1
        if seen != set(range(n)):
            raise GraphError("blocks do not cover the vertex set")
        self.n = n
        self.blocks: tuple[tuple[int, ...], ...] = tuple(frozen)
        block_of = [0] * n
        for bi, blk in enumerate(frozen):
            for x in blk:
                block_of[x] = bi
        self.block_of: tuple[int, ...] = tuple(block_of)
        masks = []
        for blk in frozen:
            m = 0
            for x in blk:
                m |= 1 << x
            masks.append(m)
        self._masks: tuple[int, ...] = tuple(masks)

    def block_mask(self, j: int) -> int:
        return self._masks[j]

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def uniform_block_size(self) -> int | None:
        sizes = {len(b) for b in self.blocks}
        return sizes.pop() if len(sizes) == 1 else None

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, blocks={len(self.blocks)})"


class StructureTag(NamedTuple):
    """Recognition result: a shape name plus its multiplicities."""

    kind: str
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        return f"{self.kind}{self.params!r}".replace(" ", "")


OTHER = StructureTag("Other")


# ---------------------------------------------------------------------------
# Pair-domain vertex numbering: ordered pairs (i, j), i != j, of an m-point
# domain in lexicographic order with the diagonal compressed out.

def pair_index(m: int, i: int, j: int) -> int:
    if i == j or not (0 <= i < m and 0 <= j < m):
        raise GraphError(f"({i},{j}) is not an ordered pair of distinct points")
    return i * (m - 1) + j - (1 if j > i else 0)


# ---------------------------------------------------------------------------
# Group-derived graphs.

def orbital_graph(G: PermutationGroup, x: int, y: int) -> Graph:
    """Graph whose edge set is the orbit of {x, y} under the group; the
    orbital of (x, y) must be self-paired."""
    if not G.is_self_paired(x, y):
        raise NotSelfPairedError(
            f"the orbital of ({x},{y}) is not self-paired; "
            "its orbital graph would be directed"
        )
    # self-paired, so N(u) = {v : (u, v) in the orbit of (x, y)}: the walk
    # that check kept, G_x.y carried along x's orbit, and empty off it
    nbrs = [nb or () for nb in G._translated[1]]
    return Graph(G.degree, nbrs=nbrs)


def quotient_graph(g: Graph, P: Partition, hits: Sequence[int] = ()) -> Graph:
    """Blocks as vertices, adjacent when any cross edge exists.  Intra-block
    edges never become loops; has_intra_block_edges reports them.  ``hits``
    are the blocks' hit masks, when the caller already has them."""
    if P.n != g.n:
        raise GraphError("partition does not match the graph")
    nb = len(P.blocks)
    rows = [0] * nb
    for i, hit in enumerate(hits or [hit_mask(g, blk) for blk in P.blocks]):
        for j in range(nb):
            if j != i and hit & P.block_mask(j):
                rows[i] |= 1 << j
    return Graph(nb, rows)


def hit_mask(g: Graph, vertices: Iterable[int]) -> int:
    """The vertices with a neighbour among ``vertices``: the OR of their
    rows, since rows are symmetric."""
    hit = 0
    for x in vertices:
        hit |= g.adj[x]
    return hit


def has_intra_block_edges(g: Graph, P: Partition, hits: Sequence[int] = ()) -> bool:
    if P.n != g.n:
        raise GraphError("partition does not match the graph")
    hits = hits or [hit_mask(g, blk) for blk in P.blocks]
    return any(hit & P.block_mask(j) for j, hit in enumerate(hits))


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Components as sorted vertex tuples, ordered by least vertex."""
    unvisited = (1 << g.n) - 1
    out = []
    while unvisited:
        start = (unvisited & -unvisited).bit_length() - 1
        comp = 1 << start
        frontier = comp
        while frontier:
            grown = comp
            rest = frontier
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                grown |= g.adj[v]
            frontier = grown & ~comp
            comp = grown
        out.append(tuple(_bits(comp)))
        unvisited &= ~comp
    return out


def cross_counts(g: Graph, P: Partition, i: int, j: int) -> tuple[set[int], int, int]:
    """The bipartite graph between blocks i and j: its distinct nonzero
    valencies on either side, its edge count, and its support in block i
    (the vertices of block i with a neighbour in block j)."""
    if P.n != g.n:
        raise GraphError("partition does not match the graph")
    if i == j:
        raise GraphError(f"block {i} is paired with itself")
    mask_i, mask_j = P.block_mask(i), P.block_mask(j)
    out = [(g.adj[x] & mask_j).bit_count() for x in P.blocks[i]]
    back = [(g.adj[x] & mask_i).bit_count() for x in P.blocks[j]]
    valencies = set(out).union(back)
    valencies.discard(0)
    return valencies, sum(out), len(out) - out.count(0)


# ---------------------------------------------------------------------------
# Shape recognition.

def _component_shape(g: Graph, comp: tuple[int, ...]) -> tuple | None:
    m = len(comp)
    mask = 0
    for v in comp:
        mask |= 1 << v
    if all(g.adj[v] & mask == mask ^ (1 << v) for v in comp):
        return ("DisjointComplete", m)
    if m >= 4 and all((g.adj[v] & mask).bit_count() == 2 for v in comp):
        return ("DisjointCycles", m)

    # 2-color from the least vertex; bipartite followed by biclique check
    color = {comp[0]: 0}
    queue = [comp[0]]
    ok = True
    while queue and ok:
        u = queue.pop()
        for v in _bits(g.adj[u] & mask):
            if v not in color:
                color[v] = 1 - color[u]
                queue.append(v)
            elif color[v] == color[u]:
                ok = False
                break
    if ok:
        side = [v for v in comp if color[v] == 1]
        half = 0
        for v in side:
            half |= 1 << v
        if len(side) * 2 == m and all(
            g.adj[v] & mask == (half if color[v] == 0 else mask ^ half)
            for v in comp
        ):
            return ("DisjointCompleteBipartite", m // 2)

    # complete multipartite iff the complement is a union of equal cliques
    parts = {}
    for v in comp:
        cell = (mask & ~g.adj[v]) | (1 << v)
        parts[v] = cell
    cells = set(parts.values())
    covered = 0
    for cell in cells:
        if any(parts[v] != cell for v in _bits(cell)):
            return None
        covered |= cell
    sizes = {cell.bit_count() for cell in cells}
    if covered == mask and len(sizes) == 1:
        b = sizes.pop()
        a = len(cells)
        if a >= 2 and b >= 1:
            return ("DisjointCompleteMultipartite", a, b)
    return None


def recognize_structure(g: Graph) -> StructureTag:
    comps = connected_components(g)
    shapes = {_component_shape(g, comp) for comp in comps}
    if len(shapes) != 1:
        return OTHER
    shape = shapes.pop()
    if shape is None:
        return OTHER
    return StructureTag(shape[0], (len(comps),) + shape[1:])


def is_g_symmetric(g: Graph, G: PermutationGroup) -> bool:
    """True when the group preserves adjacency and is transitive on both
    vertices and ordered adjacent pairs.  For transitive G that holds
    exactly when each N(u) is the image of N(u0) along a Schreier tree and
    N(u0) is one G_u0-orbit (Biggs): then g maps N(u) = t_u N(u0) onto
    N(g u), as t_(g u)^-1 g t_u fixes u0.  Orbital graphs reuse G's kept walk."""
    if G.degree != g.n:
        raise GraphError("group degree does not match the graph")
    if not G.is_transitive():
        return False
    nbrs = g.nbrs
    u0 = next((u for u, nb in enumerate(nbrs) if nb), None)
    if u0 is None:
        return True
    if G._translated[0] != (u0, nbrs[u0]):
        # one sort per vertex; exits before the suborbit search (a pair BFS)
        for w, (u, im) in list(G.schreier_tree(u0).items())[1:]:
            if nbrs[w] != tuple(sorted(map(im.__getitem__, nbrs[u]))):
                return False
    elif list(nbrs) != G._translated[1]:  # every t_u N(u0), sorted once
        return False
    return tuple(G.suborbit(u0, nbrs[u0][0])) == nbrs[u0]


# ---------------------------------------------------------------------------
# Serialization.

def graph_to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(
            chr(63 + (n >> shift & 63)) for shift in (12, 6, 0)
        )
    else:
        raise GraphError("graph too large for this graph6 writer")
    # column j lists whether i ~ j for i = 0..j-1: row j's low bits, lowest first
    bits = "".join(
        format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n)
    )
    bits += "0" * (-len(bits) % 6)
    # below a leading 1 bit, each 6-bit group is two octal digits hi, lo
    # (ASCII 48 + digit); its byte 8 hi + lo + 63 <= 126 never carries
    octal = format(1 << len(bits) | int(bits or "0", 2), "o")[1:].encode()
    size = len(octal) // 2
    body = 8 * int.from_bytes(octal[::2], "big") + int.from_bytes(octal[1::2], "big")
    body -= (9 * ord("0") - 63) * int.from_bytes(b"\1" * size, "big")
    return head + body.to_bytes(size, "big").decode("ascii")


def graph_from_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise GraphError("empty graph6 text")
    if any(not 63 <= ord(ch) <= 126 for ch in s):
        raise GraphError("graph6 text has characters outside the printable range")
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise GraphError("unsupported graph6 length header")
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n < 1:
        raise GraphError("graph6 vertex count must be positive")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphError(f"graph6 body has {len(body)} chars, expected {need}")
    bits = "".join(format(ord(ch) - 63, "06b") for ch in body)
    # column j holds i ~ j for i = 0..j-1 and starts at bit j(j-1)/2
    return Graph.from_edges(
        n, [(i, j) for j in range(1, n) for i in range(j) if bits[j * (j - 1) // 2 + i] == "1"]
    )


def graph_to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _dimacs_ints(fields: list[str], line: str) -> list[int]:
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise GraphError(f"bad number in line: {line!r}") from None


def graph_from_dimacs(text: str) -> Graph:
    n = None
    declared = None
    edges = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise GraphError("duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise GraphError(f"bad problem line: {line!r}")
            n, declared = _dimacs_ints(fields[2:], line)
        elif fields[0] == "e":
            if n is None:
                raise GraphError("edge before problem line")
            if len(fields) != 3:
                raise GraphError(f"bad edge line: {line!r}")
            u, v = _dimacs_ints(fields[1:], line)
            edges.append((u - 1, v - 1))
        else:
            raise GraphError(f"unrecognized line: {line!r}")
    if n is None:
        raise GraphError("missing problem line")
    if declared != len(edges):
        raise GraphError(f"problem line declares {declared} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "adj": [list(nb) for nb in g.nbrs]}


def graph_from_json(data: dict) -> Graph:
    try:
        n, adj = data["n"], data["adj"]
    except (KeyError, TypeError):
        raise GraphError('graph JSON needs "n" and "adj"') from None
    if type(n) is not int or not isinstance(adj, list) or len(adj) != n:
        raise GraphError('graph JSON needs an integer "n" and a list "adj" of n rows')
    for u, nbrs in enumerate(adj):
        if not isinstance(nbrs, list) or any(
            type(v) is not int or not 0 <= v < n for v in nbrs
        ):
            raise GraphError(f"row {u} is not a list of vertices 0..{n - 1}")
    return Graph(n, _rows(n, adj))
