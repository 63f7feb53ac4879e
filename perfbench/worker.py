"""One fresh benchmark process.  Each starts with a cold group catalog,
as every user's process does.

    worker.py census [--spans FILE]
        one census(9, 3) call
    worker.py lift TAG [--spans FILE]
        cli.run in-process: construct --json, classify --json, then
        export --format graph6, all on TAG
    worker.py cli-child FILE ARGS...
        the traced stand-in for ``python -m symquot.cli ARGS``: installs
        the span wrappers, runs symquot.cli.run(ARGS) on the real stdout
        and stderr, writes its spans to FILE and exits with the status

``census`` and ``lift`` print one JSON document on stdout: each
operation's wall time and the mathematical content of its result (see
checks.py).  With ``--spans`` the work runs traced, and the spans,
counters and catalog cache totals go to FILE.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import checks
import spans

CENSUS_CAPS = (9, 3)
LIFT_VERBS = (
    ("construct", "json", ["--json"]),
    ("classify", "json", ["--json"]),
    ("export", "graph6", ["--format", "graph6"]),
)


def _census() -> list[dict]:
    from symquot import census

    t0 = time.perf_counter_ns()
    try:
        rows = census(*CENSUS_CAPS)
    except Exception as exc:  # any raise fails every row, and still reports
        return [{"verb": "census", "wall_ns": time.perf_counter_ns() - t0,
                 "error": f"{type(exc).__name__}: {exc}", "rows": []}]
    wall = time.perf_counter_ns() - t0
    out = [
        dict(tag=r.tag, expected=list(r.expected), **r.verdict.as_json())
        for r in rows
    ]
    return [{"verb": "census", "wall_ns": wall, "error": None, "rows": out}]


def _lift(tag: str) -> list[dict]:
    from symquot import cli

    ops = []
    for verb, fmt, extra in LIFT_VERBS:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter_ns()
        try:
            rc = cli.run([verb, tag] + extra, out, err)
        except Exception as exc:  # a bug, not a refusal: the verb fails
            rc = None
            err.write(f"{type(exc).__name__}: {exc}\n")
        wall = time.perf_counter_ns() - t0
        text = out.getvalue()
        ops.append({
            "verb": verb,
            "tag": tag,
            "wall_ns": wall,
            "rc": rc,
            "error": err.getvalue() or None,
            "content": checks.content(verb, fmt, text) if rc == 0 else None,
        })
    return ops


@contextlib.contextmanager
def _tracing(spans_path: str | None):
    """Install the wrappers when a spans file is given; on the way out the
    originals are put back and the spans, counters and catalog cache
    totals are written to the file."""
    if spans_path is None:
        yield
        return
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        yield
    finally:
        spans.uninstall(undo)
        doc = rec.dump()
        doc["cache"] = spans.catalog_cache_totals()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main(argv: list[str]) -> int:
    import symquot  # noqa: F401  (import cost stays outside every timed call)

    mode = argv[0]
    if mode == "cli-child":
        from symquot import cli

        with _tracing(argv[1]):
            return cli.run(argv[2:])
    spans_path = None
    if "--spans" in argv:
        i = argv.index("--spans")
        spans_path = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    if mode not in ("census", "lift"):
        sys.stderr.write(f"worker: unknown mode {mode!r}\n")
        return 2
    with _tracing(spans_path):
        ops = _census() if mode == "census" else _lift(argv[1])
    json.dump({"ops": ops}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
