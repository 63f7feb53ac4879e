"""Command line front end.

Six verbs: ``construct`` summarizes a built triple, ``params`` prints
its measured parameters, ``classify`` runs the full verdict, ``census``
replays the family census inside caps, ``export`` writes the graph in
graph6, DIMACS, or JSON form, and ``selftest`` drives the acceptance
checklist.

Construction tags are colon-joined ``key=value`` fields behind a kind
word, for example ``cr:q=5:d=4:s=1`` or
``pair:group=m22:design=s22:rule=design_out``; ``star:`` wraps any
other tag.  ``symquot.constructions`` parses and builds them; this
module handles arguments and output only.  Parsing normalizes field
order, so feeding a reported tag back in reproduces the same request
byte for byte.

Exit status: 0 success, 1 domain error (a tag that parses but names an
impossible object), 2 usage error, 3 selftest failure.  Diagnostics go
to stderr; results go to stdout, as aligned tables or, under
``--json``, as documents stamped ``"schema": "symquot/1"``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import IO, Optional

from .classify import (
    HYPOTHESIS_NAMES,
    census,
    classify_triple,
    compute_params,
)
from .constructions import (
    Provenance,
    TagError,
    build_triple,
    parse_decimal,
    parse_tag,
)
from .errors import SymquotError
from .graphs import (
    graph_to_dimacs,
    graph_to_graph6,
    graph_to_json,
)

SCHEMA = "symquot/1"


def _write(text: str, out: IO[str]) -> None:
    """In pieces: one large write into a closed pipe can succeed and lose the rest."""
    for i in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
        out.write(text[i:i + io.DEFAULT_BUFFER_SIZE])


def _emit_json(doc: dict, out: IO[str]) -> None:
    _write(json.dumps(doc, indent=2) + "\n", out)


def _emit_table(rows: list[tuple[str, str]], out: IO[str]) -> None:
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        out.write(f"{key:<{width}}  {value}\n")


def _cmd_construct(tag: Provenance, as_json: bool, out: IO[str]) -> int:
    T = build_triple(tag)
    g = T.graph
    doc = {
        "schema": SCHEMA,
        "tag": tag.tag,
        "provenance": T.provenance.tag,
        "vertices": g.n,
        "edges": g.edge_count,
        "valency": g.valency(),
        "blocks": T.partition.block_count,
        "block_size": T.partition.uniform_block_size(),
        "quotient_edges": T.quotient.edge_count,
        "structure": str(T.structure),
        "group_order": T.group.order(),
    }
    if as_json:
        _emit_json(doc, out)
    else:
        _emit_table([(k, str(v)) for k, v in doc.items() if k != "schema"], out)
    return 0


_PARAM_ORDER = ("v", "b", "s", "t", "m", "r", "k", "lambda", "rho")


def _cmd_params(tag: Provenance, as_json: bool, out: IO[str]) -> int:
    P = compute_params(build_triple(tag))
    if as_json:
        _emit_json({"schema": SCHEMA, "tag": tag.tag, "params": P.as_json()}, out)
    else:
        vals = P.as_json()
        rows = [("tag", tag.tag)]
        rows += [(k, "-" if vals[k] is None else str(vals[k])) for k in _PARAM_ORDER]
        _emit_table(rows, out)
    return 0


def _cmd_classify(tag: Provenance, as_json: bool, out: IO[str]) -> int:
    verdict = classify_triple(build_triple(tag))
    doc = {"schema": SCHEMA, "tag": tag.tag}
    doc.update(verdict.as_json())
    if as_json:
        _emit_json(doc, out)
        return 0
    rows = [("tag", tag.tag)]
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


def _cmd_export(tag: Provenance, fmt: str, path: Optional[str], out: IO[str]) -> int:
    T = build_triple(tag)
    if fmt == "graph6":
        text = graph_to_graph6(T.graph) + "\n"
    elif fmt == "dimacs":
        text = graph_to_dimacs(T.graph)
    else:
        doc = {
            "schema": SCHEMA,
            "tag": tag.tag,
            "graph": graph_to_json(T.graph),
            "blocks": [list(block) for block in T.partition.blocks],
            "generators": [list(p.images) for p in T.group.generators],
        }
        text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        _write(text, out)
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
    sp.add_argument("--max-q", required=True)
    sp.add_argument("--max-d", required=True)
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
            code = _cmd_selftest(out, err)
        elif args.verb == "census":
            max_q = parse_decimal(args.max_q, "--max-q")
            max_d = parse_decimal(args.max_d, "--max-d")
            code = _cmd_census(max_q, max_d, args.json, out)
        elif args.verb == "export":
            code = _cmd_export(parse_tag(args.tag), args.format, args.output, out)
        else:
            cmd = {
                "construct": _cmd_construct,
                "params": _cmd_params,
                "classify": _cmd_classify,
            }[args.verb]
            code = cmd(parse_tag(args.tag), args.json, out)
        out.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: exit silently with 128 + SIGPIPE, as a
        # writer the signal killed would.  Stdout now points at devnull, so
        # the flush at exit has somewhere to put what is still buffered.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return 141
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
