"""Reduce program outputs to their mathematical content and compare it
with the values recorded in ``reference.json``.

Only mathematical content is compared.  Tag and provenance text is
dropped everywhere, because a tag-grammar change may rename a design
(``design=v22b77``) without changing any graph, group or verdict.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# provenance fields, never compared
_TAG_KEYS = ("schema", "tag", "provenance")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _table(text: str) -> dict:
    rows = {}
    for line in text.splitlines():
        key, _, value = line.partition("  ")
        rows[key] = value.strip()
    return rows


def content(verb: str, fmt: str, text: str):
    """Mathematical content of one CLI result.

    ``fmt`` is ``json`` or ``table`` for construct, params and classify,
    and the export format for export.  Exports reduce to a digest of
    their bytes; the JSON export is digested in canonical form without
    its tag, so neither tag text nor indentation counts.
    """
    if verb == "export":
        if fmt == "json":
            doc = json.loads(text)
            doc.pop("tag")
            return {"digest": digest(_canonical(doc))}
        return {"digest": digest(text)}
    doc = json.loads(text) if fmt == "json" else _table(text)
    return {k: v for k, v in doc.items() if k not in _TAG_KEYS}


def census_row_content(row_json: dict) -> str:
    """Canonical text of one census row without its tag."""
    return _canonical({k: v for k, v in row_json.items() if k != "tag"})


def census_failures(rows: list[dict], reference: list[str]) -> int:
    """Rows that miss the reference, compared as multisets of content so
    neither tag text nor row order matters.  A verdict outside the row's
    expected list also counts."""
    got = Counter(census_row_content(r) for r in rows)
    want = Counter(reference)
    missing = sum((want - got).values())
    extra = sum((got - want).values())
    outside = sum(1 for r in rows if r["theorem_case"] not in r["expected"])
    return max(missing, extra, outside)


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)
