"""Hypothesis checks and case placement for quotient-complete triples.

``classify_triple`` is the entry point.  It runs five independent
hypothesis checks, measures the numeric parameters straight off the
graph, applies the coarse four-way case split, and in the main case
takes the first matching row of ``_SIGNATURES``, the paper's closed
list of family signatures; row order is its precedence.  Pair labels,
edge kinds and the block design are read from block masks (a block's
rows ORed, one mask per label value, one per point), not one vertex or
arc at a time.
Verdict labels use a two-branch numbering: labels beginning ``1.1``
cover cross valency t = 1, labels beginning ``1.2`` cover t >= 2.  A
triple that passes every hypothesis but matches no signature gets the
literal verdict ``"Unmatched"``; that is a supported outcome for
exploratory inputs, not an error.

``census`` builds every family instance within given size caps from
its tag and feeds each back through the classifier, asserting that
nothing escapes the lists.  ``orbit_length_check`` measures point
stabilizer orbits on a neighbouring block against the tabulated
patterns of the flag geometries that ``_geometry`` names.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple, Optional

from .constructions import Triple, _vertex_count, build_triple, parse_tag
from .designs import design_from_partition
from .errors import ClassificationError, SymquotError
from .graphs import (
    Graph,
    Partition,
    StructureTag,
    _rows,
    cross_counts,
    has_intra_block_edges,
    is_g_symmetric,
)
from .groups_catalog import _field_for, three_transitive_pgammal_list
from .permgroup import PermutationGroup

M22_ORDERS = frozenset({443520, 887040})
M11_ORDER = 7920

HYPOTHESIS_NAMES = (
    "arc_transitive",
    "invariant_partition",
    "no_internal_edges",
    "complete_quotient",
    "two_transitive_blocks",
)


class TripleParams(NamedTuple):
    """Measured counts of a quotient-complete triple.

    ``v`` is the block size, ``b`` the quotient valency, ``s`` the graph
    valency, ``t`` the cross valency between adjacent blocks, ``m`` the
    edge count between adjacent blocks, ``r = s / t``, ``k = m / t``.
    ``lam`` and ``rho`` describe the incidence structure a block carries:
    the common pair count (None when pairs are uneven) and the repeat
    multiplicity (None when repeats are uneven).
    """

    v: int
    b: int
    s: int
    t: int
    m: int
    r: int
    k: int
    lam: Optional[int]
    rho: Optional[int]

    def as_json(self) -> dict:
        return {
            "v": self.v,
            "b": self.b,
            "s": self.s,
            "t": self.t,
            "m": self.m,
            "r": self.r,
            "k": self.k,
            "lambda": self.lam,
            "rho": self.rho,
        }


class ClassificationVerdict(NamedTuple):
    """Everything the classifier can say about one triple.

    Later fields are None when an earlier stage already failed: no
    params without all five hypotheses, no case without params, and a
    branch label only in the symmetric main case.
    """

    hypotheses: dict
    params: Optional[TripleParams]
    corollary_case: Optional[str]
    theorem_case: Optional[str]
    structure: StructureTag

    def as_json(self) -> dict:
        return {
            "hypotheses": dict(self.hypotheses),
            "params": self.params.as_json() if self.params is not None else None,
            "corollary_case": self.corollary_case,
            "theorem_case": self.theorem_case,
            "structure": {
                "kind": self.structure.kind,
                "params": list(self.structure.params),
            },
        }


def _two_transitive_within_block(group: PermutationGroup, partition: Partition) -> bool:
    # Blocks move whole, so the orbit of an ordered pair inside one block
    # meets that block's square in a single block-stabilizer orbit.  Double
    # transitivity of the stabilizer on its block is then one orbit count;
    # the orbit holds (a, b) when b is in the suborbit G_x.y carried to a
    # along x's Schreier tree, which only the home block's points need.
    home = partition.blocks[0]
    v = len(home)
    if v == 1:
        return True
    x = home[0]
    tree = group.schreier_tree(x)
    need = set()
    for a in home:
        while a not in need and tree.get(a):
            need.add(a)
            a = tree[a][0]
    carried = {x: group.suborbit(x, home[1])}
    for w in filter(need.__contains__, tree):  # parents first
        u, im = tree[w]
        carried[w] = [im[b] for b in carried[u]]
    inside = set(home)
    hits = sum(len(inside.intersection(carried[a])) for a in home if a in carried)
    return hits == v * (v - 1)


def verify_hypotheses(T: Triple) -> dict:
    """Run the five entry checks once per triple and report each; never raises."""
    if T._report is None:
        g, G, P = T.graph, T.group, T.partition
        c = P.block_count
        T._report = {
            "arc_transitive": is_g_symmetric(g, G),
            "invariant_partition": (
                P.uniform_block_size() is not None and G.is_block_system(P.blocks)
            ),
            "no_internal_edges": not has_intra_block_edges(g, P, T.hits),
            "complete_quotient": T.quotient.edge_count == c * (c - 1) // 2,
            "two_transitive_blocks": _two_transitive_within_block(G, P),
        }
    return dict(T._report)


def compute_params(T: Triple) -> TripleParams:
    """Measure (v, b, s, t, m, r, k, lambda, rho) directly off the triple.

    Raises ClassificationError when the counts are not well defined: a
    non-regular graph or quotient, uneven cross valencies, parameters
    that vary between block pairs, or an edgeless quotient; the triple keeps
    the result.  Once its kept hypothesis report holds in full, G permutes
    the arcs of the quotient transitively, so one block pair is measured.
    """
    if T._params is not None:
        return T._params
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
    for i, j in quot.edges()[: 1 if T._report and all(T._report.values()) else None]:
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
    T._params = TripleParams(v=v, b=b, s=s, t=t, m=m, r=r, k=k, lam=D.lambda_t(2), rho=D.rho)
    return T._params


def corollary_case(P: TripleParams) -> str:
    """Place measured parameters into the four-way case split.

    Precedence when descriptions overlap: the degenerate shapes win
    (k = 1 with a square quotient, then full support v = k), then
    v < b, then the symmetric main case v = b with a proper design:
    one without repeated blocks (rho = 1) whose points and pairs are
    evenly covered (lambda measured).
    """
    if P.k == 1 and P.v == P.b:
        if (P.t, P.m, P.r) != (1, 1, 1) or P.lam != 0:
            raise ClassificationError(
                "k = 1 should force t = m = r = 1 and an empty pair count"
            )
        return "b"
    if P.v == P.k:
        if P.rho != P.b:
            raise ClassificationError(
                "full support should repeat the whole block b times"
            )
        return "c"
    if P.v < P.b:
        return "a"
    if P.v == P.b and 2 <= P.k < P.v and P.rho == 1 and P.lam is not None:
        return "d"
    raise ClassificationError(
        f"no case fits v={P.v} b={P.b} k={P.k}; "
        "the entry hypotheses should have excluded this"
    )


def _pair_labels(T: Triple) -> Optional[list[tuple[int, int]]]:
    # With k = v - 1 every vertex sees all neighbouring blocks but one,
    # so (own block, missed block) is a candidate labelling by ordered
    # block pairs.  Rows are symmetric, so the vertices of block i that
    # miss block j are those outside block j's hit mask.  None when any
    # vertex misses no block or two, or labels collide.
    g, P = T.graph, T.partition
    labels: list = [None] * g.n
    for i in range(P.block_count):
        mask = unlabelled = P.block_mask(i)
        for j, hit in enumerate(T.hits):
            if j != i and (miss := mask & ~hit):
                if miss & (miss - 1) or not miss & unlabelled:
                    return None
                unlabelled ^= miss
                labels[miss.bit_length() - 1] = (i, j)
        if unlabelled:
            return None
    return labels


def _edge_label_kind(g: Graph, labels: list[tuple[int, int]]) -> str:
    # An edge between labels (i, j) and (i2, j2) is same_second when
    # j2 = j and i2 != i, four_distinct when {i2, j2} misses {i, j}.  Both
    # tests are symmetric in the two ends, so each vertex tests its whole
    # row against masks A[i] (first label i) and Z[j] (second label j).
    firsts: dict = {}
    seconds: dict = {}
    for x, (i, j) in enumerate(labels[: g.n]):
        firsts.setdefault(i, []).append(x)
        seconds.setdefault(j, []).append(x)
    A = dict(zip(firsts, _rows(g.n, firsts.values())))
    Z = dict(zip(seconds, _rows(g.n, seconds.values())))
    same = distinct = 0
    for row, (i, j) in zip(g.adj, labels):
        ss = row & Z[j] & ~A[i]
        fd = row & ~(A[i] | A.get(j, 0) | Z.get(i, 0) | Z[j])
        if ss | fd != row:
            return "mixed"
        same, distinct = same or ss, distinct or fd
        if same and distinct:
            return "mixed"
    return "same_second" if same else "four_distinct" if distinct else "empty"


def _prime_power(q: int) -> Optional[tuple[int, int]]:
    try:
        field = _field_for(q)
    except SymquotError:
        return None
    return field.p, field.n


def _fits_projective_line(H: PermutationGroup, q: int) -> bool:
    """Whether H could act 3-transitively between the special projective
    and the full semilinear group of the line over GF(q).

    Order arithmetic plus a 3-transitivity check decides this exactly for
    the degrees involved; no conjugation search is needed.
    """
    pp = _prime_power(q)
    if q < 3 or pp is None or H.degree != q + 1:
        return False
    p, n = pp
    base = q * (q * q - 1)
    special = base // (2 if p != 2 else 1)
    full = base * n
    o = H.order()
    if o % special or full % o:
        return False
    return H.transitivity_degree() >= 3


def _binary_dim(x: int) -> Optional[int]:
    d = x.bit_length() - 1
    return d if d >= 0 and 1 << d == x else None


def _geometry(v: int, order: int) -> Optional[str]:
    """The flag geometry that blocks of size v under a group of this order
    carry: ``"affine"`` (the hyperplanes of AG(d, 2), v = 2^d - 1, half
    the points in each), ``"steiner_22"``, ``"hadamard_12"``, or None."""
    d = _binary_dim(v + 1)
    if d is not None and d >= 2:
        agl = 1 << d
        for i in range(d):
            agl *= (1 << d) - (1 << i)
        # dimension 4 admits one proper subgroup with the same block action
        if order == agl or (d == 4 and order == 40320):
            return "affine"
    if v == 21 and order in M22_ORDERS:
        return "steiner_22"
    if v == 11 and order == M11_ORDER:
        return "hadamard_12"
    return None


_FD = "four_distinct"
# branches (t == 1, k == v - 1): with k = v - 1 the vertices can carry
# pair labels (the pair families), otherwise the flag families apply
_T1_PAIR, _T1_FLAG = (True, True), (True, False)
_T2_PAIR, _T2_FLAG = (False, True), (False, False)

# The paper's closed list for the main case, one (label, branch, test)
# row per signature.  The matcher returns the first row of the triple's
# branch whose test holds, so row order is the precedence; a triple that
# no row takes is "Unmatched".
_SIGNATURES = (
    ("1.1(b)(ii)", _T1_PAIR, lambda f: f.kind == "same_second"
        and f.structure == StructureTag("DisjointComplete", (f.v + 1, f.v))),
    # on 4 blocks the affine and projective families coincide; the
    # projective label is the canonical verdict there, so it comes first
    ("1.1(b)(iii)", _T1_PAIR, lambda f: f.kind == _FD
        and _fits_projective_line(f.H, f.v)),
    ("1.1(b)(iv)", _T1_PAIR, lambda f: f.kind == _FD and f.geo == "affine"
        and f.structure == (
            StructureTag("DisjointCycles", (3, 4)) if f.v == 3
            else StructureTag("DisjointCompleteMultipartite", (f.v, f.half, 2)))),
    ("1.1(c)(i)", _T1_FLAG, lambda f: f.geo == "affine" and f.k == f.half - 1
        and f.structure == StructureTag("DisjointComplete", (2 * f.v, f.half))),
    ("1.1(c)(ii)", _T1_FLAG, lambda f: f.geo == "steiner_22" and f.k == 5
        and f.structure == StructureTag("DisjointComplete", (77, 6))),
    ("1.1(c)(iii)", _T1_FLAG, lambda f: f.geo == "hadamard_12" and f.k == 5
        and f.structure == StructureTag("DisjointComplete", (22, 6))),
    ("1.1(d)", _T1_FLAG, lambda f: f.geo in ("affine", "hadamard_12") and f.v >= 7
        and f.structure == StructureTag("DisjointCompleteBipartite", (f.v, f.half))),
    # the t = v - 2 family exists exactly for 4-transitive block actions,
    # and must win over the projective test: degree 5 fits both
    ("1.2(b)(i)", _T2_PAIR, lambda f: f.kind == _FD and f.t == f.v - 2
        and f.H.transitivity_degree() >= 4),
    # t must divide the degree of GF(v) over its prime field
    ("1.2(b)(ii)", _T2_PAIR, lambda f: f.kind == _FD
        and _fits_projective_line(f.H, f.v) and _prime_power(f.v)[1] % f.t == 0),
    # any other t on a projective block action is outside the list,
    # whatever geometry the order names (PGL(2, 7) beside AGL(3, 2)'s 1344)
    ("Unmatched", _T2_PAIR, lambda f: f.kind == _FD
        and _fits_projective_line(f.H, f.v)),
    ("1.2(b)(iii.1)", _T2_PAIR, lambda f: f.kind == _FD and (f.geo, f.t) in (
        ("affine", f.v - 3), ("steiner_22", 16), ("hadamard_12", 3))),
    ("1.2(b)(iii.2)", _T2_PAIR, lambda f: f.kind == _FD
        and (f.geo, f.t) in (("steiner_22", 3), ("hadamard_12", 6))),
    ("1.2(c)(i)", _T2_FLAG, lambda f: (f.geo, f.k, f.t) in (
        ("affine", f.half - 1, f.half - 2), ("steiner_22", 5, 4),
        ("hadamard_12", 5, 4))),
    ("1.2(c)(ii)", _T2_FLAG, lambda f: (f.geo, f.k, f.t) in (
        ("affine", f.half, f.half - 1), ("hadamard_12", 6, 5))),
    ("1.2(c)(iii)", _T2_FLAG, lambda f: f.geo == "steiner_22"
        and f.k == 16 and f.t in (6, 10)),
)


def _match(
    T: Triple,
    P: TripleParams,
    structure: StructureTag,
    order: int,
    blocks_action: PermutationGroup,
) -> str:
    # t >= 1 as compute_params measures it, so t != 1 is the t >= 2 branch
    pair = P.k == P.v - 1
    kind = None
    if pair and (labels := _pair_labels(T)) is not None:
        kind = _edge_label_kind(T.graph, labels)
    # what the rows read; kind is None off k = v - 1 or without labels
    fit = SimpleNamespace(
        v=P.v, k=P.k, t=P.t, half=(P.v + 1) // 2, H=blocks_action,
        structure=structure, kind=kind, geo=_geometry(P.v, order),
    )
    for label, branch, test in _SIGNATURES:
        if branch == (P.t == 1, pair) and test(fit):
            return label
    return "Unmatched"


def classify_triple(T: Triple) -> ClassificationVerdict:
    """Produce the full verdict for one triple.

    Degrades instead of raising: failed hypotheses stop at the report,
    unmeasurable parameters stop at the params field, and a main-case
    triple outside every family signature is labelled ``"Unmatched"``.
    """
    report = verify_hypotheses(T)
    structure = T.structure
    if not all(report.values()):
        return ClassificationVerdict(report, None, None, None, structure)
    try:
        P = compute_params(T)
    except ClassificationError:
        return ClassificationVerdict(report, None, None, None, structure)
    try:
        case = corollary_case(P)
    except ClassificationError:
        return ClassificationVerdict(report, P, None, None, structure)
    label = None
    if case in ("b", "d"):
        blocks_action, kernel_trivial = T.group.induced_action(T.partition.blocks)
        if case == "b":
            label = (
                "1.1(b)(i)"
                if blocks_action.transitivity_degree() >= 3
                else "Unmatched"
            )
        else:
            # A faithful block action gives the order on the small
            # domain; a chain on the vertex domain can be several
            # thousand points wide.
            order = blocks_action.order() if kernel_trivial else T.group.order()
            label = _match(T, P, structure, order, blocks_action)
    return ClassificationVerdict(report, P, case, label, structure)


def orbit_length_check(T: Triple) -> dict:
    """Measure point stabilizer orbit lengths on a neighbouring block.

    Only the three flag geometries carry tables: the binary affine
    hyperplane designs, the 3-(22, 6, 1) design, and the 3-(12, 6, 2)
    design.  The two block classes around a fixed point split by size;
    the incident class is always the smaller one.  Raises for any other
    triple.
    """
    G, P = T.group, T.partition
    v = P.uniform_block_size()
    # AG(2, 2) is a flag geometry too small to carry a table
    design = _geometry(v, G.order()) if v is not None and v > 3 else None
    if design is None:
        raise ClassificationError(
            "orbit length tables exist only for the three flag geometries"
        )
    # the 3-(12, 6, 2) table, (1, 4, 6) and (1, 5, 5), is the affine
    # pattern at half = 6
    half = (v + 1) // 2
    expect = (
        {"incident": (1, 4, 16), "non_incident": (5, 6, 10)}
        if design == "steiner_22"
        else {"incident": (1, half - 2, half), "non_incident": (1, half - 1, half - 1)}
    )
    x = P.blocks[0][0]
    home = frozenset({P.block_of[x]})
    suborbits = G.suborbits(x)
    # G_x moves blocks as it moves points, so the blocks one suborbit meets
    # are one G_x-orbit of blocks; those off x's own block are the classes
    classes = sorted(
        {frozenset(P.block_of[y] for y in sub) for sub in suborbits} - {home},
        key=len,
    )
    if len(classes) != 2 or len(classes[0]) == len(classes[1]):
        raise ClassificationError(
            f"expected two block classes of distinct sizes around a flag, "
            f"found sizes {sorted(len(c) for c in classes)}"
        )
    report: dict = {"design": design}
    ok = True
    for name, blocks in (("incident", classes[0]), ("non_incident", classes[1])):
        members = set(P.blocks[min(blocks)])
        lengths = sorted(
            n for sub in suborbits if (n := len(members.intersection(sub)))
        )
        want = sorted(expect[name])
        match = lengths == want
        ok = ok and match
        report[name] = {
            "block_class_size": len(blocks),
            "orbit_lengths": lengths,
            "expected": want,
            "match": match,
        }
    report["match"] = ok
    return report


class CensusRow(NamedTuple):
    tag: str
    expected: tuple[str, ...]
    verdict: ClassificationVerdict


def _census_point_groups(m: int) -> list[tuple[str, bool]]:
    # (group tag, is 4-transitive) for every catalogued 3-transitive
    # action on m points, deduplicated by order against the symmetric and
    # alternating rows.
    out = [(f"s{m}", True)]
    if m >= 5:
        out.append((f"a{m}", m >= 6))
    if m == 11:
        out.append(("m11", True))
    if m == 12:
        out.append(("m11_12", False))
        out.append(("m12", True))
    d = _binary_dim(m)
    if d is not None and 3 <= d <= 6:
        out.append((f"agl_d{d}", False))
        if d == 4:
            out.append(("z24_a7", False))
    q = m - 1
    if q >= 3 and _prime_power(q) is not None:
        fact = math.factorial(m)
        for token, H in three_transitive_pgammal_list(q):
            if H.order() not in (fact, fact // 2):
                out.append((token, False))
    return out


def _cr_expected(q: int, t: int) -> tuple[str, ...]:
    if t == 1:
        if q == 3:
            return ("1.1(b)(iii)", "1.1(b)(iv)")
        return ("1.1(b)(iii)",)
    if q == 4 and t == 2:
        return ("1.2(b)(ii)", "1.2(b)(i)")
    return ("1.2(b)(ii)",)


def _census_instances(max_q: int, max_d: int) -> list[tuple[str, tuple[str, ...]]]:
    """(tag, declared verdicts) of every family instance inside the caps."""
    rows: list[tuple[str, tuple[str, ...]]] = []
    for q in range(3, max_q + 1):
        pp = _prime_power(q)
        if pp is None:
            continue
        field = _field_for(q)
        one = field.element(1)
        p, n = pp
        for idx in range(2, q):
            el = field.element(idx)
            sd = field.subfield_degree(el)
            for s in range(1, sd + 1):
                if sd % s:
                    continue
                rows.append((f"cr:q={q}:d={idx}:s={s}", _cr_expected(q, sd // s)))
            # the twisted base orbital is self-paired only when d - 1 is
            # a square; otherwise the builder raises NotSelfPairedError
            if p != 2 and n % 2 == 0 and sd % 2 == 0 and field.is_square(el - one):
                for s in range(2, sd + 1, 2):
                    if sd % s:
                        continue
                    rows.append((f"tcr:q={q}:d={idx}:s={s}", _cr_expected(q, sd // s)))
    for m in range(4, max_q + 2):
        for group, four_transitive in _census_point_groups(m):
            rows.append((f"match:group={group}", ("1.1(b)(i)",)))
            rows.append((f"pair:group={group}:rule=same_second", ("1.1(b)(ii)",)))
            if four_transitive:
                # on 4 points the all-distinct graph is the smallest
                # cross ratio graph, so the projective label applies
                exp = (
                    ("1.1(b)(iii)", "1.1(b)(iv)")
                    if m == 4
                    else ("1.2(b)(i)",)
                )
                rows.append((f"pair:group={group}:rule=all_distinct", exp))
    for d in range(2, max_d + 1):
        affine_groups = [f"agl_d{d}"] + (["z24_a7"] if d == 4 else [])
        plane_exp = ("1.1(b)(iii)", "1.1(b)(iv)") if d == 2 else ("1.1(b)(iv)",)
        for group in affine_groups:
            rows.append((f"pair:group={group}:rule=affine_plane", plane_exp))
            if d >= 3:
                rows.append(
                    (f"pair:group={group}:rule=affine_non_plane", ("1.2(b)(iii.1)",))
                )
        if d >= 3:
            for group in affine_groups:
                for rule, exp in (
                    ("same_block", "1.1(c)(i)"),
                    ("disjoint_blocks", "1.1(d)"),
                    ("common_two_points", "1.2(c)(i)"),
                    ("opposite_non_complement", "1.2(c)(ii)"),
                ):
                    rows.append(
                        (f"flag:design=ag_d{d}:group={group}:rule={rule}", (exp,))
                    )
    # the sporadic designs sit outside the field-size dial; they join
    # once max_q reaches the scale where the twisted families start
    if max_q >= 9:
        for group in ("m22", "aut_m22"):
            rows.append(
                (f"pair:group={group}:design=s22:rule=design_out", ("1.2(b)(iii.1)",))
            )
            rows.append(
                (f"pair:group={group}:design=s22:rule=design_in", ("1.2(b)(iii.2)",))
            )
            for rule, exp in (
                ("same_block", "1.1(c)(ii)"),
                ("common_two_points", "1.2(c)(i)"),
                ("disjoint_blocks", "1.2(c)(iii)"),
                ("m22_disjoint", "1.2(c)(iii)"),
                ("m22_meet_two", "1.2(c)(iii)"),
            ):
                rows.append(
                    (f"flag:design=steiner_22:group={group}:rule={rule}", (exp,))
                )
        rows.append(
            ("pair:group=m11_12:design=h12:rule=design_out", ("1.2(b)(iii.1)",))
        )
        rows.append(
            ("pair:group=m11_12:design=h12:rule=design_in", ("1.2(b)(iii.2)",))
        )
        for rule, exp in (
            ("same_block", "1.1(c)(iii)"),
            ("disjoint_blocks", "1.1(d)"),
            ("common_two_points", "1.2(c)(i)"),
            ("opposite_non_complement", "1.2(c)(ii)"),
        ):
            rows.append(
                (f"flag:design=hadamard_12:group=m11_12:rule={rule}", (exp,))
            )
    return rows


def census(max_q: int, max_d: int) -> list[CensusRow]:
    """Build and classify every family instance within the size caps.

    ``max_q`` caps the field size for the cross ratio families and the
    point count for the label families; ``max_d`` caps the binary affine
    dimension.  Raises when the caps exceed the supported resource
    budget, and when any built instance fails to receive a branch label;
    a clean run is itself the check that the family lists are closed.
    """
    if max_q > 16 or max_d > 4:
        raise ClassificationError(
            "census caps are max_q = 16, max_d = 4; larger sweeps do not "
            "fit the resource budget"
        )
    rows = _census_instances(max_q, max_d)
    tags = [parse_tag(tag) for tag, _ in rows]
    # the rows on one rule graph side by side, so it is listed once
    verdicts = {
        t: classify_triple(build_triple(t))
        for t in sorted(tags, key=lambda t: (
            t.kind, [kv for kv in t.params if kv[0] != "group"], _vertex_count(t)
        ))
    }
    out = [CensusRow(tag, exp, verdicts[t]) for (tag, exp), t in zip(rows, tags)]
    escaped = [
        row.tag
        for row in out
        if row.verdict.theorem_case is None or row.verdict.theorem_case == "Unmatched"
    ]
    if escaped:
        raise ClassificationError(
            "census instances escaped the family lists: " + ", ".join(escaped)
        )
    return out
