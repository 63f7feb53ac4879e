"""Builders for the symmetric-graph families the classifier recognizes.

Each builder returns a Triple: the graph, a permutation group acting on its
vertices, and the vertex partition the quotient collapses.  Vertices of the
pair families are ordered distinct pairs of an underlying point set, in the
lexicographic numbering of graphs.pair_index; flag families number the
flags (p, B) point-major, each point's blocks in block order.  The rule
alone fixes such a graph, so the pair, flag and matching builders share
the last one they listed with the next triple that differs by group
alone, and check its group and rule anew.  Builders verify the
parameters they advertise (cross valency t and cross support k) on a
sample block pair before returning.

Constructions are named by tags such as ``cr:q=5:d=4:s=1``: a kind word,
then ``key=value`` fields, with ``star:`` wrapping any other tag.  This
module holds the one registry of that grammar: ``parse_tag`` reads a tag
into a ``Provenance``, and ``build_triple`` builds the triple it names,
refusing a tag whose vertex count exceeds the degree cap before anything
is built.  Every built triple carries its ``Provenance``, whose ``tag``
parses back to the same triple.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, Optional

from .designs import (
    IncidenceStructure,
    ag_design,
    design_3_12_6_2,
    steiner_3_22_6,
)
from .errors import CatalogError, ConstructionError, DesignError
from .ffield import FieldElement, FiniteField
from .graphs import (
    Graph,
    Partition,
    StructureTag,
    _bits,
    cross_counts,
    hit_mask,
    orbital_graph,
    pair_index,
    quotient_graph,
    recognize_structure,
)
from .groups_catalog import (
    _field_for,
    agl,
    m_group,
    mathieu,
    pgammal_subgroup,
    pgl2,
    psl2,
    sym_alt,
    z24_a7,
)
from .permgroup import DEGREE_CAP, LiftedGroup, PermutationGroup


class TagError(Exception):
    """A construction tag, or a number given on the command line, that
    does not fit the grammar."""


class Provenance(NamedTuple):
    """A construction tag: kind, fields in canonical order, and for
    ``star`` the tag it wraps."""

    kind: str
    params: tuple[tuple[str, str], ...] = ()
    inner: Optional["Provenance"] = None

    @property
    def tag(self) -> str:
        if self.inner is not None:
            return f"{self.kind}:{self.inner.tag}"
        if not self.params:
            return self.kind
        joined = ":".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}:{joined}"


class Triple:
    """A graph with the group and block partition it is symmetric over.
    Read-only; its blocks' hit masks, its quotient, its shape and the
    classifier's hypothesis report and parameters are kept once used."""

    __slots__ = (
        "graph", "group", "partition", "provenance",
        "_hits", "_quotient", "_structure", "_report", "_params",
    )

    def __init__(
        self,
        graph: Graph,
        group: PermutationGroup,
        partition: Partition,
        provenance: Provenance,
    ):
        if group.degree != graph.n:
            raise ConstructionError("group degree does not match the graph")
        if partition.n != graph.n:
            raise ConstructionError("partition does not match the graph")
        self.graph = graph
        self.group = group
        self.partition = partition
        self.provenance = provenance
        self._hits = self._quotient = self._structure = self._report = self._params = None

    @property
    def hits(self) -> list[int]:
        if self._hits is None:
            self._hits = [hit_mask(self.graph, blk) for blk in self.partition.blocks]
        return self._hits

    @property
    def quotient(self) -> Graph:
        if self._quotient is None:
            self._quotient = quotient_graph(self.graph, self.partition, self.hits)
        return self._quotient

    @property
    def structure(self) -> StructureTag:
        if self._structure is None:
            self._structure = recognize_structure(self.graph)
        return self._structure

    def __repr__(self) -> str:
        return f"Triple({self.provenance.tag}, n={self.graph.n})"


class PairRule(NamedTuple):
    tag: str
    design: IncidenceStructure | None = None


SAME_SECOND = PairRule("same_second")
ALL_DISTINCT = PairRule("all_distinct")
AFFINE_PLANE = PairRule("affine_plane")
AFFINE_NON_PLANE = PairRule("affine_non_plane")


class FlagRule(NamedTuple):
    tag: str


SAME_BLOCK = FlagRule("same_block")
DISJOINT_BLOCKS = FlagRule("disjoint_blocks")
COMMON_TWO_POINTS = FlagRule("common_two_points")
OPPOSITE_NON_COMPLEMENT = FlagRule("opposite_non_complement")
M22_DISJOINT = FlagRule("m22_disjoint")
M22_MEET_TWO = FlagRule("m22_meet_two")


# ---------------------------------------------------------------------------
# Shared plumbing.

def pair_action(G: PermutationGroup) -> LiftedGroup:
    """The coordinate-wise action on ordered distinct pairs of the domain,
    fibred by first coordinate; faithful because the domain has at least
    three points."""
    m = G.degree
    if m < 3:
        raise ConstructionError("pair domain needs at least three points")
    w = m - 1

    def lift(im: tuple[int, ...]) -> tuple[int, ...]:
        # pair_index of the image of every pair (i, j), in pair_index order
        out: list[int] = []
        for i, a in enumerate(im):
            out.extend(a * w + b - (b > a) for b in im[:i] + im[i + 1:])
        return tuple(out)

    return LiftedGroup(G, lift, pair_partition(m))


def pair_partition(m: int) -> Partition:
    """Pairs grouped by first coordinate; pair_index keeps each group
    contiguous."""
    width = m - 1
    return Partition(
        [tuple(range(i * width, (i + 1) * width)) for i in range(m)]
    )


# The last rule graph listed, under what defines it: kind, point count,
# rule tag and the design, held so its id names no other object.
_rule_graphs: dict[tuple, tuple[Optional[IncidenceStructure], Graph]] = {}


def _rule_graph(what: tuple, design: Optional[IncidenceStructure], listed: Callable) -> Graph:
    """The graph of a rule, its neighbours listed only when the slot holds
    another; read-only, so the groups acting on it share it."""
    key = (*what, id(design))
    if key not in _rule_graphs:
        _rule_graphs.clear()
        _rule_graphs[key] = (design, Graph(len(nbrs := listed()), nbrs=nbrs))
    return _rule_graphs[key][1]


def _assert_pair_params(
    triple: Triple, k: int, t: int, what: str
) -> None:
    """Measure cross support and cross valency on one adjacent block pair."""
    pair = next(iter(triple.quotient.edges()), None)
    if pair is None:
        raise ConstructionError(f"{what}: no adjacent blocks to verify against")
    tvals, _, support = cross_counts(triple.graph, triple.partition, *pair)
    if tvals != {t}:
        raise ConstructionError(f"{what}: cross valencies {tvals}, expected {{{t}}}")
    if support != k:
        raise ConstructionError(f"{what}: cross support {support}, expected {k}")


# ---------------------------------------------------------------------------
# Cross-ratio families.

def _check_d(F: FiniteField, d: FieldElement | int) -> FieldElement:
    el = F.element(d) if isinstance(d, int) else d
    if el.field is not F:
        raise ConstructionError("d must come from the field of order q")
    if el.index in (0, 1):
        raise ConstructionError("d must avoid 0 and 1")
    return el


def cross_ratio_graph(q: int, d: FieldElement | int, s: int) -> Triple:
    """Orbital graph on ordered pairs of the projective line over GF(q),
    for the semilinear subgroup indexed by s and base pair (inf 0, 1 d)."""
    if q < 3:
        raise ConstructionError("need q >= 3")
    F = _field_for(q)
    el = _check_d(F, d)
    sd = F.subfield_degree(el)
    if s < 1 or sd % s:
        raise ConstructionError(
            f"s={s} must divide s(d)={sd} for d of index {el.index}"
        )
    return _cross_ratio_triple("cr", pgammal_subgroup(q, s), el, s, sd)


def twisted_cross_ratio_graph(q: int, d: FieldElement | int, s: int) -> Triple:
    """The twisted variant: same pair domain and base pair, but the group is
    the half-semilinear subgroup twisted by the s/2 power of Frobenius.  When
    d - 1 is a non-square the base orbital is not self-paired and that error
    is allowed to surface."""
    F = _field_for(q)
    if F.p == 2:
        raise ConstructionError("twisted graphs need odd characteristic")
    if F.n % 2:
        raise ConstructionError("twisted graphs need even field degree")
    if q < 9:
        raise ConstructionError("need q >= 9")
    el = _check_d(F, d)
    sd = F.subfield_degree(el)
    if s % 2 or sd % 2:
        raise ConstructionError("both s and s(d) must be even")
    if s < 2 or sd % s:
        raise ConstructionError(f"s={s} must divide s(d)={sd}")
    return _cross_ratio_triple("tcr", m_group(s // 2, q), el, s, sd)


def _cross_ratio_triple(
    kind: str, G: PermutationGroup, el: FieldElement, s: int, sd: int
) -> Triple:
    """The orbital graph of the base pair (inf 0, 1 d) under G acting on
    the pairs of the projective line, checked for k = q - 1, t = s(d)/s."""
    q = el.field.order
    big = pair_action(G)
    m = q + 1
    x = pair_index(m, 0, 1)  # (inf, 0)
    y = pair_index(m, 2, 1 + el.index)  # (1, d)
    graph = orbital_graph(big, x, y)
    prov = Provenance(kind, (("q", str(q)), ("d", str(el.index)), ("s", str(s))))
    triple = Triple(graph, big, big.fibres, prov)
    _assert_pair_params(triple, q - 1, sd // s, prov.tag)
    return triple


# ---------------------------------------------------------------------------
# Pair-labeled graphs.

def pair_graph(
    G: PermutationGroup,
    rule: PairRule,
    group_label: str | None = None,
    design_label: str | None = None,
) -> Triple:
    """Ordered pairs of G's points, adjacent by the rule.  A design rule
    is tagged with ``design_label`` when given, else with the design's
    counted shape ``v<points>b<blocks>``."""
    m = G.degree
    if m < 3:
        raise ConstructionError("need at least three points")
    if not G.is_transitive():
        raise ConstructionError("group must be transitive")

    if rule.tag in ("affine_plane", "affine_non_plane"):
        if m < 4 or m & (m - 1):
            raise ConstructionError(
                f"{rule.tag} needs a power-of-two point count, got {m}"
            )
    elif rule.tag in ("design_in", "design_out"):
        D = rule.design
        if D is None:
            raise ConstructionError(f"pair rule {rule.tag} needs a design")
        if D.v != m:
            raise ConstructionError(
                f"design has {D.v} points but the group moves {m}"
            )
        if not D.lambda_t(3):
            raise ConstructionError("design must cover every point triple")
    elif rule.tag not in ("same_second", "all_distinct"):
        raise ConstructionError(f"unknown pair rule {rule.tag!r}")
    elif rule.design is not None:
        raise ConstructionError(f"pair rule {rule.tag} takes no design")

    def listed() -> list[tuple[int, ...]]:
        # each vertex's neighbours straight from the rule, in pair_index order,
        # as entries of ``at``: one int object per vertex, shared by every tuple
        at = [[pair_index(m, i, j) if j != i else None for j in range(m)] for i in range(m)]
        if rule.design is not None:
            through = [[blk for blk in rule.design.blocks if p in blk] for p in range(m)]
        nbrs = []
        for i in range(m):
            for j in range(m):
                if j == i:
                    continue
                others = [a for a in range(m) if a != i and a != j]
                if rule.design is not None:
                    # the pairs of other points on the blocks through i and j;
                    # a set, since two blocks may share four points
                    inside = {
                        at[a][b] for blk in through[i] if j in blk
                        for a in blk if a != i and a != j
                        for b in blk if b != a and b != i and b != j
                    }
                if rule.tag == "same_second":
                    nb = [at[a][j] for a in others]
                elif rule.tag == "affine_plane":
                    nb = [at[a][i ^ j ^ a] for a in others]
                elif rule.tag == "design_in":
                    nb = sorted(inside)
                else:  # pairs avoiding i and j, less affine_plane's or design_in's
                    if rule.tag == "affine_non_plane":
                        drop = {at[a][i ^ j ^ a] for a in others}
                    else:
                        drop = inside if rule.tag == "design_out" else set()
                    nb = [
                        at[a][b] for a in others for b in others
                        if b != a and at[a][b] not in drop
                    ]
                nbrs.append(tuple(nb))
        return nbrs

    graph = _rule_graph(("pair", m, rule.tag), rule.design, listed)
    params = []
    if group_label:
        params.append(("group", group_label))
    if rule.design is not None:
        D = rule.design
        params.append(("design", design_label or f"v{D.v}b{D.b}"))
    params.append(("rule", rule.tag))
    prov = Provenance("pair", tuple(params))
    big = pair_action(G)
    return Triple(graph, big, big.fibres, prov)


# ---------------------------------------------------------------------------
# Flag graphs.

def flag_graph(
    D: IncidenceStructure,
    G: PermutationGroup,
    rule: FlagRule,
    design_label: str | None = None,
    group_label: str | None = None,
) -> Triple:
    if G.degree != D.v:
        raise ConstructionError("group degree does not match the design")
    if len(set(D.blocks)) != len(D.blocks):
        raise ConstructionError("flag graphs need distinct blocks")
    if not all(D.preserves(g) for g in G.generators):
        raise ConstructionError("group does not preserve the design")

    block_sets = [frozenset(b) for b in D.blocks]
    # per block B, the blocks B2 whose flags (p2, B2) with p not on B2 and
    # p2 off B are the neighbours of a flag (p, B), for every rule but
    # same_block and common_two_points
    partners: list[list[int]] = []
    if rule.tag == "opposite_non_complement":
        full = frozenset(range(D.v))
        lookup = {fs: i for i, fs in enumerate(block_sets)}
        for fs in block_sets:
            other = lookup.get(full - fs)
            if other is None:
                raise ConstructionError(
                    "rule needs a complement-closed block set"
                )
            partners.append([c for c in range(D.b) if c != other])
    elif rule.tag in ("m22_disjoint", "m22_meet_two"):
        sizes = {len(blk) for blk in D.blocks}
        if (D.v, D.b, sizes) != (22, 77, {6}) or D.lambda_t(3) != 1:
            raise ConstructionError(
                f"{rule.tag} is specific to the 22-point triple system"
            )
    elif rule.tag not in (
        "same_block", "disjoint_blocks", "common_two_points"
    ):
        raise ConstructionError(f"unknown flag rule {rule.tag!r}")
    if rule.tag in ("disjoint_blocks", "m22_disjoint", "m22_meet_two"):
        meet = 2 if rule.tag == "m22_meet_two" else 0
        partners = [
            [c for c, fs2 in enumerate(block_sets) if len(fs & fs2) == meet]
            for fs in block_sets
        ]

    flag_list = [
        (p, bi)
        for p in range(D.v)
        for bi in range(D.b)
        if p in block_sets[bi]
    ]
    flag_of = {f: i for i, f in enumerate(flag_list)}

    def listed() -> list[tuple[int, ...]]:
        # each flag's neighbours straight from the rule, as values of
        # ``flag_of``: one int object per vertex, shared by every tuple
        on_block = [[(p, flag_of[p, c]) for p in blk] for c, blk in enumerate(D.blocks)]
        through = [[c for c, fs in enumerate(block_sets) if p in fs] for p in range(D.v)]
        nbrs = []
        for p, bi in flag_list:
            B = block_sets[bi]
            if rule.tag == "same_block":
                nb = [f for p2, f in on_block[bi] if p2 != p]
            elif rule.tag == "common_two_points":
                nb = sorted(
                    f for c in through[p] if c != bi
                    for p2, f in on_block[c] if p2 != p and p2 in B
                )
            else:
                nb = sorted(
                    f for c in partners[bi] if p not in block_sets[c]
                    for p2, f in on_block[c] if p2 not in B
                )
            nbrs.append(tuple(nb))
        return nbrs

    graph = _rule_graph(("flag", D.v, rule.tag), D, listed)

    block_index = {blk: i for i, blk in enumerate(D.blocks)}

    def lift(im: tuple[int, ...]) -> tuple[int, ...]:
        # each block's image once, then the image of every flag
        moved = [block_index[tuple(sorted(im[x] for x in blk))] for blk in D.blocks]
        return tuple(flag_of[im[p], moved[bi]] for p, bi in flag_list)

    blocks = []
    start = 0
    for p in range(D.v):
        count = sum(1 for f in flag_list if f[0] == p)
        blocks.append(tuple(range(start, start + count)))
        start += count
    # Partition refuses an empty block, so every point lies on a flag and
    # the lift is faithful.
    flag_group = LiftedGroup(G, lift, Partition(blocks))

    params = []
    if design_label:
        params.append(("design", design_label))
    if group_label:
        params.append(("group", group_label))
    params.append(("rule", rule.tag))
    prov = Provenance("flag", tuple(params))
    return Triple(graph, flag_group, flag_group.fibres, prov)


# ---------------------------------------------------------------------------
# The *-transform.

def star_transform(T: Triple) -> Triple:
    """Complement the cross edges inside each adjacent block pair's support
    rectangle, keeping group and partition."""
    g, P, hit = T.graph, T.partition, T.hits
    qedges = T.quotient.edges()
    if not qedges:
        raise ConstructionError("no adjacent blocks to transform")
    # a block's support towards block j is its part of j's hit mask
    i, j = qedges[0]
    x_ij = _bits(P.block_mask(i) & hit[j])
    x_ji = _bits(P.block_mask(j) & hit[i])
    k = len(x_ij)
    if k < 2 or len(x_ji) != k:
        raise ConstructionError(
            f"cross support must be >= 2 on both sides, got {k}/{len(x_ji)}"
        )
    non_edges = [
        (x, y) for x in x_ij for y in x_ji if not g.has_edge(x, y)
    ]
    if not non_edges:
        raise ConstructionError("support rectangle is complete; nothing to swap")

    # one group orbit must cover the rectangle's non-edges (pairs that leave
    # the rectangle land in other block pairs and do not matter here).
    # {x, y} lies in the orbit of {x0, y0} when y is in N(x) or x in N(y),
    # where N carries the suborbit of (x0, y0) along the orbit of x0.
    x0, y0 = non_edges[0]
    N = T.group.translates(x0, T.group.suborbit(x0, y0))
    if any(y not in (N[x] or ()) and x not in (N[y] or ()) for x, y in non_edges):
        raise ConstructionError(
            "non-edges of the support rectangle split into several orbits"
        )

    # each quotient edge flips only its own rectangle, so when its turn
    # comes the rectangle still reads as in g.adj and complementing it
    # is one XOR per row
    rows = list(g.adj)
    for bi, bj in qedges:
        sup_i = P.block_mask(bi) & hit[bj]
        sup_j = P.block_mask(bj) & hit[bi]
        for x in _bits(sup_i):
            rows[x] ^= sup_j
        for y in _bits(sup_j):
            rows[y] ^= sup_i
    star = Graph(g.n, rows)

    prov = Provenance("star", (), T.provenance)
    out = Triple(star, T.group, P, prov)
    tvals = cross_counts(g, P, i, j)[0]
    if len(tvals) == 1:
        t = tvals.pop()
        _assert_pair_params(out, k, k - t, prov.tag)
    return out


# ---------------------------------------------------------------------------
# Matchings on pair labels.

def matching_graph(
    G: PermutationGroup, group_label: str | None = None
) -> Triple:
    m = G.degree
    if G.transitivity_degree() < 3:
        raise ConstructionError("matching construction needs 3-transitivity")
    # each pair (i, j) is adjacent to (j, i) alone
    graph = _rule_graph(("match", m, ""), None, lambda: [
        (pair_index(m, j, i),) for i in range(m) for j in range(m) if j != i
    ])
    params = []
    if group_label:
        params.append(("group", group_label))
    prov = Provenance("match", tuple(params))
    big = pair_action(G)
    return Triple(graph, big, big.fibres, prov)


# ---------------------------------------------------------------------------
# The tag registry.

_TAG_FIELDS = {
    "cr": ("q", "d", "s"),
    "tcr": ("q", "d", "s"),
    "pair": ("group", "design", "rule"),
    "flag": ("design", "group", "rule"),
    "match": ("group",),
}
_TAG_REQUIRED = {
    "cr": ("q", "d", "s"),
    "tcr": ("q", "d", "s"),
    "pair": ("group", "rule"),
    "flag": ("design", "group", "rule"),
    "match": ("group",),
}
_INT_KEYS = ("q", "d", "s")


def parse_decimal(text: str, what: str) -> int:
    """ASCII decimal digits as an integer; int() would also take a sign,
    spaces, "_" and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise TagError(f"{what} wants an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise TagError(f"{what} has {len(text)} digits, too many") from None


def parse_tag(text: str) -> Provenance:
    """Parse a tag into canonical field order with integers normalized,
    raising TagError with the failing offset."""
    if not text:
        raise TagError("empty construction tag")
    head, sep, rest = text.partition(":")
    if head == "star":
        if not rest:
            raise TagError("star needs an inner tag after 'star:'")
        return Provenance("star", (), parse_tag(rest))
    if head not in _TAG_FIELDS:
        raise TagError(f"unknown construction kind {head!r} at offset 0")
    allowed = _TAG_FIELDS[head]
    got: dict[str, str] = {}
    pos = len(head) + len(sep)
    for part in rest.split(":") if rest else []:
        key, eq, val = part.partition("=")
        if not eq or not key or not val:
            raise TagError(f"expected key=value at offset {pos}, got {part!r}")
        if key not in allowed:
            raise TagError(f"key {key!r} does not belong to {head} (offset {pos})")
        if key in got:
            raise TagError(f"duplicate key {key!r} at offset {pos}")
        if key in _INT_KEYS:
            val = str(parse_decimal(val, f"key {key!r} at offset {pos}"))
        got[key] = val
        pos += len(part) + 1
    missing = [k for k in _TAG_REQUIRED[head] if k not in got]
    if missing:
        raise TagError(f"{head} tag is missing {', '.join(missing)}")
    return Provenance(head, tuple((k, got[k]) for k in allowed if k in got))


# Group tags: (pattern, degree, builder).  The degree is read off the tag
# alone, so an oversize request is refused before any group is built;
# None leaves the refusal to the builder (the catalog has binary affine
# groups up to 64 points only).  Builders look the catalog functions up
# when called, not when this table is built, and the catalog caches what
# they build.
_GROUPS = (
    (r"s(\d+)", lambda n: n, lambda n: sym_alt(n, False)),
    (r"a(\d+)", lambda n: n, lambda n: sym_alt(n, True)),
    (r"agl_d(\d+)", lambda d: 2 ** d if d <= 6 else None, lambda d: agl(d, 2)),
    (r"pgl2_q(\d+)", lambda q: q + 1, lambda q: pgl2(q)),
    (r"psl2_q(\d+)", lambda q: q + 1, lambda q: psl2(q)),
    (r"pgammal_q(\d+)_s(\d+)", lambda q, s: q + 1, lambda q, s: pgammal_subgroup(q, s)),
    (r"m_s(\d+)_q(\d+)", lambda s, q: q + 1, lambda s, q: m_group(s, q)),
    ("z24_a7", lambda: 16, lambda: z24_a7()),
    ("m11", lambda: 11, lambda: mathieu("M11on11")),
    ("m11_12", lambda: 12, lambda: mathieu("M11on12")),
    ("m12", lambda: 12, lambda: mathieu("M12")),
    ("m22", lambda: 22, lambda: mathieu("M22")),
    ("aut_m22", lambda: 22, lambda: mathieu("AutM22")),
    ("m23", lambda: 23, lambda: mathieu("M23")),
    ("m24", lambda: 24, lambda: mathieu("M24")),
)

# Design tags: (pattern, flag count, builder), read like the group table.
# ag_d<d> is the binary affine space of dimension d with its hyperplanes
# as blocks: 2(2^d - 1) blocks of 2^(d-1) points; ag_design refuses a
# dimension past 6 itself.
_DESIGNS = (
    (r"s22|steiner_22", lambda: 77 * 6, lambda: steiner_3_22_6()),
    (r"h12|hadamard_12", lambda: 22 * 6, lambda: design_3_12_6_2()),
    (
        r"ag_d(\d+)",
        lambda d: 2 ** d * (2 ** d - 1) if d <= 6 else None,
        lambda d: ag_design(d, d - 1),
    ),
)


def _token_spec(
    table: tuple, token: str, what: str, error: type
) -> tuple[Optional[int], Callable]:
    """(count, builder) from the first row of ``table`` matching ``token``."""
    for pattern, count, build in table:
        m = re.fullmatch(pattern, token, re.ASCII)
        if m:
            try:
                args = [int(x) for x in m.groups()]
            except ValueError:  # past the interpreter's digit limit
                raise error(f"{what} tag {token!r} has too many digits") from None
            return count(*args), lambda: build(*args)
    raise error(f"unknown {what} tag {token!r}")


def _group_spec(token: str) -> tuple[Optional[int], Callable[[], PermutationGroup]]:
    """The degree a group tag names, and a builder for the group."""
    return _token_spec(_GROUPS, token, "group", CatalogError)


def _design_spec(token: str) -> tuple[Optional[int], Callable[[], IncidenceStructure]]:
    """The flag count a design tag names, and a builder for the design."""
    return _token_spec(_DESIGNS, token, "design", DesignError)


def _vertex_count(tag: Provenance) -> Optional[int]:
    """The vertex count a tag names, read off the tag without building
    anything; None when the catalog refuses the tag's token itself."""
    if tag.kind == "star":
        assert tag.inner is not None
        return _vertex_count(tag.inner)
    f = dict(tag.params)
    if tag.kind in ("cr", "tcr"):
        q = int(f["q"])
        return q * (q + 1)
    if tag.kind == "flag":
        return _design_spec(f["design"])[0]
    m = _group_spec(f["group"])[0]
    return None if m is None else m * (m - 1)


# The last tag built and its triple: one entry, none after a failure.
_kept: dict[Provenance, Triple] = {}


def build_triple(tag: Provenance) -> Triple:
    """Build the triple a parsed tag names.  A tag naming more than
    DEGREE_CAP vertices is refused before any group or field is built.
    An equal tag returns the last triple built, the same object, so
    triples are read-only; the old one is dropped before a build starts."""
    T = _kept.get(tag)
    if T is None:
        _kept.clear()
        try:
            T = _build(tag)
        finally:
            _kept.clear()  # what a star tag's inner build kept
        _kept[tag] = T
    return T


def _build(tag: Provenance) -> Triple:
    n = _vertex_count(tag)
    if n is not None and n > DEGREE_CAP:
        raise ConstructionError(
            f"{tag.tag} has {n} vertices, over the degree cap {DEGREE_CAP}"
        )
    f = dict(tag.params)
    if tag.kind == "star":
        assert tag.inner is not None
        return star_transform(build_triple(tag.inner))
    if tag.kind in ("cr", "tcr"):
        build = cross_ratio_graph if tag.kind == "cr" else twisted_cross_ratio_graph
        return build(int(f["q"]), int(f["d"]), int(f["s"]))
    if tag.kind == "flag":
        design = _design_spec(f["design"])[1]()
        degree, build_group = _group_spec(f["group"])
        if degree is not None and degree != design.v:
            raise ConstructionError("group degree does not match the design")
        return flag_graph(
            design, build_group(), FlagRule(f["rule"]),
            design_label=f["design"], group_label=f["group"],
        )
    group = _group_spec(f["group"])[1]()
    if tag.kind == "match":
        return matching_graph(group, group_label=f["group"])
    design = _design_spec(f["design"])[1]() if "design" in f else None
    return pair_graph(
        group,
        PairRule(f["rule"], design),
        group_label=f["group"],
        design_label=f.get("design"),
    )
