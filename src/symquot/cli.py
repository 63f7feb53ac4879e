"""Command line front end.

Six verbs: ``construct`` summarizes a built triple, ``params`` prints
its measured parameters, ``classify`` runs the full verdict, ``census``
replays the family census inside caps, ``export`` writes the graph in
graph6, DIMACS, or JSON form, and ``selftest`` drives the acceptance
checklist.

Construction tags are colon-joined ``key=value`` fields behind a kind
word, for example ``cr:q=5:d=4:s=1`` or
``pair:group=m22:design=s22:rule=design_out``; ``star:`` wraps any
other tag.  Parsing normalizes field order, so feeding a reported tag
back in reproduces the same request byte for byte.

Exit status: 0 success, 1 domain error (a tag that parses but names an
impossible object), 2 usage error, 3 selftest failure.  Diagnostics go
to stderr; results go to stdout, as aligned tables or, under
``--json``, as documents stamped ``"schema": "symquot/1"``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import IO, Callable, NamedTuple, Optional

from .classify import (
    HYPOTHESIS_NAMES,
    census,
    classify_triple,
    compute_params,
)
from .constructions import (
    AFFINE_NON_PLANE,
    AFFINE_PLANE,
    ALL_DISTINCT,
    COMMON_TWO_POINTS,
    DISJOINT_BLOCKS,
    M22_DISJOINT,
    M22_MEET_TWO,
    OPPOSITE_NON_COMPLEMENT,
    SAME_BLOCK,
    SAME_SECOND,
    Triple,
    cross_ratio_graph,
    design_in,
    design_out,
    flag_graph,
    matching_graph,
    pair_graph,
    star_transform,
    twisted_cross_ratio_graph,
)
from .designs import ag_design, design_3_12_6_2, steiner_3_22_6
from .errors import CatalogError, ConstructionError, DesignError, SymquotError
from .graphs import (
    graph_to_dimacs,
    graph_to_graph6,
    graph_to_json,
    quotient_graph,
    recognize_structure,
)
from .groups_catalog import (
    _MATHIEU_EXPECT,
    agl,
    m_group,
    mathieu,
    pgammal_subgroup,
    pgl2,
    psl2,
    sym_alt,
    z24_a7,
)
from .permgroup import DEGREE_CAP, PermutationGroup

SCHEMA = "symquot/1"

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

_PAIR_RULES = {
    "same_second": SAME_SECOND,
    "all_distinct": ALL_DISTINCT,
    "affine_plane": AFFINE_PLANE,
    "affine_non_plane": AFFINE_NON_PLANE,
}
_DESIGN_PAIR_RULES = ("design_in", "design_out")
_FLAG_RULES = {
    "same_block": SAME_BLOCK,
    "disjoint_blocks": DISJOINT_BLOCKS,
    "common_two_points": COMMON_TWO_POINTS,
    "opposite_non_complement": OPPOSITE_NON_COMPLEMENT,
    "m22_disjoint": M22_DISJOINT,
    "m22_meet_two": M22_MEET_TWO,
}
_MATHIEU_TAGS = {
    "m11": "M11on11",
    "m11_12": "M11on12",
    "m12": "M12",
    "m22": "M22",
    "aut_m22": "AutM22",
    "m23": "M23",
    "m24": "M24",
}


class TagError(Exception):
    """A construction tag that does not fit the grammar."""


class Request(NamedTuple):
    """Parsed construction tag with fields in canonical order."""

    kind: str
    fields: tuple[tuple[str, str], ...] = ()
    inner: Optional["Request"] = None

    @property
    def tag(self) -> str:
        if self.kind == "star":
            assert self.inner is not None
            return "star:" + self.inner.tag
        return ":".join([self.kind] + [f"{k}={v}" for k, v in self.fields])


def parse_tag(text: str) -> Request:
    """Parse a tag, raising TagError with the failing offset."""
    if not text:
        raise TagError("empty construction tag")
    head, sep, rest = text.partition(":")
    if head == "star":
        if not rest:
            raise TagError("star needs an inner tag after 'star:'")
        return Request("star", (), parse_tag(rest))
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
            try:
                val = str(int(val))
            except ValueError:
                raise TagError(
                    f"key {key!r} wants an integer, got {val!r} (offset {pos})"
                ) from None
        got[key] = val
        pos += len(part) + 1
    missing = [k for k in _TAG_REQUIRED[head] if k not in got]
    if missing:
        raise TagError(f"{head} tag is missing {', '.join(missing)}")
    return Request(head, tuple((k, got[k]) for k in allowed if k in got))


# Group tags with integer parameters: (pattern, degree, builder).  The
# degree is read off the tag alone, so an oversize request is refused
# before any group is built; None leaves the refusal to the builder (the
# catalog has binary affine groups up to 64 points only).  Builders look
# the catalog functions up when called, not when this table is built.
_NUMBERED_GROUPS = (
    (r"s(\d+)", lambda n: n, lambda n: sym_alt(n, False)),
    (r"a(\d+)", lambda n: n, lambda n: sym_alt(n, True)),
    (r"agl_d(\d+)", lambda d: 2 ** d if d <= 6 else None, lambda d: agl(d, 2)),
    (r"pgl2_q(\d+)", lambda q: q + 1, lambda q: pgl2(q)),
    (r"psl2_q(\d+)", lambda q: q + 1, lambda q: psl2(q)),
    (r"pgammal_q(\d+)_s(\d+)", lambda q, s: q + 1, lambda q, s: pgammal_subgroup(q, s)),
    (r"m_s(\d+)_q(\d+)", lambda s, q: q + 1, lambda s, q: m_group(s, q)),
)


def _group_spec(token: str) -> tuple[Optional[int], Callable[[], PermutationGroup]]:
    """The degree a group tag names, and a builder for the group."""
    if token in _MATHIEU_TAGS:
        name = _MATHIEU_TAGS[token]
        return _MATHIEU_EXPECT[name][0], lambda: mathieu(name)
    if token == "z24_a7":
        return 16, z24_a7
    for pattern, degree, build in _NUMBERED_GROUPS:
        m = re.fullmatch(pattern, token)
        if m:
            try:
                args = [int(x) for x in m.groups()]
            except ValueError:  # past the interpreter's digit limit
                raise CatalogError(f"group tag {token!r} has too many digits") from None
            return degree(*args), lambda: build(*args)
    raise CatalogError(f"unknown group tag {token!r}")


def _resolve_group(token: str) -> PermutationGroup:
    return _group_spec(token)[1]()


def _resolve_pair_group(token: str) -> PermutationGroup:
    """The group of a pair or match tag, refused before it is built when
    its ordered pairs would exceed DEGREE_CAP."""
    m, build = _group_spec(token)
    if m is not None and m * (m - 1) > DEGREE_CAP:
        raise ConstructionError(
            f"group {token} moves {m} points: {m * (m - 1)} ordered pairs "
            f"exceed the degree cap {DEGREE_CAP}"
        )
    return build()


def _resolve_design(token: str):
    if token in ("s22", "steiner_22"):
        return steiner_3_22_6()
    if token in ("h12", "hadamard_12"):
        return design_3_12_6_2()
    m = re.fullmatch(r"ag_d(\d+)", token)
    if m:
        d = int(m.group(1))
        return ag_design(d, d - 1)
    raise DesignError(f"unknown design tag {token!r}")


def build_triple(req: Request) -> Triple:
    """Construct the triple a parsed request names."""
    if req.kind == "star":
        assert req.inner is not None
        return star_transform(build_triple(req.inner))
    f = dict(req.fields)
    if req.kind in ("cr", "tcr"):
        build = cross_ratio_graph if req.kind == "cr" else twisted_cross_ratio_graph
        return build(int(f["q"]), int(f["d"]), int(f["s"]))
    if req.kind == "match":
        return matching_graph(_resolve_pair_group(f["group"]), group_label=f["group"])
    if req.kind == "pair":
        group = _resolve_pair_group(f["group"])
        name = f["rule"]
        if name in _DESIGN_PAIR_RULES:
            if "design" not in f:
                raise ConstructionError(f"pair rule {name} needs design=")
            design = _resolve_design(f["design"])
            rule = design_in(design) if name == "design_in" else design_out(design)
        elif name in _PAIR_RULES:
            if "design" in f:
                raise ConstructionError(f"pair rule {name} takes no design")
            rule = _PAIR_RULES[name]
        else:
            raise ConstructionError(f"unknown pair rule {name!r}")
        return pair_graph(
            group, rule, group_label=f["group"], design_label=f.get("design")
        )
    assert req.kind == "flag"
    rule = _FLAG_RULES.get(f["rule"])
    if rule is None:
        raise ConstructionError(f"unknown flag rule {f['rule']!r}")
    return flag_graph(
        _resolve_design(f["design"]),
        _resolve_group(f["group"]),
        rule,
        design_label=f["design"],
        group_label=f["group"],
    )


def _emit_json(doc: dict, out: IO[str]) -> None:
    out.write(json.dumps(doc, indent=2) + "\n")


def _emit_table(rows: list[tuple[str, str]], out: IO[str]) -> None:
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        out.write(f"{key:<{width}}  {value}\n")


def _cmd_construct(req: Request, as_json: bool, out: IO[str]) -> int:
    T = build_triple(req)
    g = T.graph
    quot = quotient_graph(g, T.partition)
    doc = {
        "schema": SCHEMA,
        "tag": req.tag,
        "provenance": T.provenance.tag,
        "vertices": g.n,
        "edges": g.edge_count,
        "valency": g.valency(),
        "blocks": T.partition.block_count,
        "block_size": T.partition.uniform_block_size(),
        "quotient_edges": quot.edge_count,
        "structure": str(recognize_structure(g)),
        "group_order": T.group.order(),
    }
    if as_json:
        _emit_json(doc, out)
    else:
        _emit_table([(k, str(v)) for k, v in doc.items() if k != "schema"], out)
    return 0


_PARAM_ORDER = ("v", "b", "s", "t", "m", "r", "k", "lambda", "rho")


def _cmd_params(req: Request, as_json: bool, out: IO[str]) -> int:
    P = compute_params(build_triple(req))
    if as_json:
        _emit_json({"schema": SCHEMA, "tag": req.tag, "params": P.as_json()}, out)
    else:
        vals = P.as_json()
        rows = [("tag", req.tag)]
        rows += [(k, "-" if vals[k] is None else str(vals[k])) for k in _PARAM_ORDER]
        _emit_table(rows, out)
    return 0


def _cmd_classify(req: Request, as_json: bool, out: IO[str]) -> int:
    verdict = classify_triple(build_triple(req))
    doc = {"schema": SCHEMA, "tag": req.tag}
    doc.update(verdict.as_json())
    if as_json:
        _emit_json(doc, out)
        return 0
    rows = [("tag", req.tag)]
    for name in HYPOTHESIS_NAMES:
        rows.append((name, "pass" if verdict.hypotheses[name] else "fail"))
    if verdict.params is None:
        rows.append(("params", "-"))
    else:
        vals = verdict.params.as_json()
        rows.append(
            (
                "params",
                " ".join(
                    f"{k}={'-' if vals[k] is None else vals[k]}"
                    for k in _PARAM_ORDER
                ),
            )
        )
    rows.append(("corollary_case", verdict.corollary_case or "-"))
    rows.append(("theorem_case", verdict.theorem_case or "-"))
    rows.append(("structure", str(verdict.structure)))
    _emit_table(rows, out)
    return 0


def _cmd_census(max_q: int, max_d: int, as_json: bool, out: IO[str]) -> int:
    rows = sorted(census(max_q, max_d), key=lambda r: r.tag)
    if as_json:
        doc = {
            "schema": SCHEMA,
            "max_q": max_q,
            "max_d": max_d,
            "rows": [
                {
                    "tag": r.tag,
                    "expected": list(r.expected),
                    "corollary_case": r.verdict.corollary_case,
                    "theorem_case": r.verdict.theorem_case,
                }
                for r in rows
            ],
        }
        _emit_json(doc, out)
        return 0
    if not rows:
        out.write("census is empty inside these caps\n")
        return 0
    tag_w = max(len(r.tag) for r in rows)
    case_w = max(len(r.verdict.theorem_case or "-") for r in rows)
    for r in rows:
        expected = ",".join(r.expected)
        out.write(
            f"{r.tag:<{tag_w}}  {r.verdict.theorem_case or '-':<{case_w}}"
            f"  {expected}\n"
        )
    return 0


def _cmd_export(req: Request, fmt: str, path: Optional[str], out: IO[str]) -> int:
    T = build_triple(req)
    if fmt == "graph6":
        text = graph_to_graph6(T.graph) + "\n"
    elif fmt == "dimacs":
        text = graph_to_dimacs(T.graph)
    else:
        doc = {
            "schema": SCHEMA,
            "tag": req.tag,
            "graph": graph_to_json(T.graph),
            "blocks": [list(block) for block in T.partition.blocks],
            "generators": [list(p.images) for p in T.group.generators],
        }
        text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        out.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    return 0


def _cmd_selftest(out: IO[str], err: IO[str]) -> int:
    from .acceptance import TITLES, run_all

    results = run_all()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        out.write(f"criterion {r.number} ({TITLES[r.number]}): {status}\n")
        if not r.passed:
            err.write(f"symquot: criterion {r.number}: {r.detail}\n")
    return 0 if all(r.passed for r in results) else 3


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="symquot",
        description="build, measure, and classify block quotient graphs",
    )
    sub = top.add_subparsers(dest="verb", required=True)
    for verb, blurb in (
        ("construct", "build a triple and summarize it"),
        ("params", "measure (v, b, s, t, m, r, k, lambda, rho)"),
        ("classify", "run hypothesis checks and case placement"),
    ):
        sp = sub.add_parser(verb, help=blurb)
        sp.add_argument("tag", help="construction tag, e.g. cr:q=5:d=4:s=1")
        sp.add_argument("--json", action="store_true", help="emit JSON")
    sp = sub.add_parser("census", help="replay every family inside caps")
    sp.add_argument("--max-q", type=int, required=True)
    sp.add_argument("--max-d", type=int, required=True)
    sp.add_argument("--json", action="store_true", help="emit JSON")
    sp = sub.add_parser("export", help="write the graph itself")
    sp.add_argument("tag")
    sp.add_argument(
        "--format", required=True, choices=("graph6", "dimacs", "json")
    )
    sp.add_argument("--output", help="file path; stdout when absent")
    sub.add_parser("selftest", help="run the acceptance checklist")
    return top


def run(
    argv: Optional[list[str]] = None,
    out: IO[str] = sys.stdout,
    err: IO[str] = sys.stderr,
) -> int:
    """Dispatch one invocation; returns the exit status."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.verb == "selftest":
            return _cmd_selftest(out, err)
        if args.verb == "census":
            return _cmd_census(args.max_q, args.max_d, args.json, out)
        req = parse_tag(args.tag)
        if args.verb == "construct":
            return _cmd_construct(req, args.json, out)
        if args.verb == "params":
            return _cmd_params(req, args.json, out)
        if args.verb == "classify":
            return _cmd_classify(req, args.json, out)
        return _cmd_export(req, args.format, args.output, out)
    except TagError as exc:
        err.write(f"symquot: {exc}\n")
        return 2
    except SymquotError as exc:
        err.write(f"symquot: {exc}\n")
        return 1
    except OSError as exc:
        err.write(f"symquot: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
