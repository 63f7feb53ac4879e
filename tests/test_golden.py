"""Golden outputs, compared byte for byte: the census at its maximum caps,
``construct --json`` and ``classify --json`` of a fixed tag list that
covers every kind, and sha256 digests of ``export`` of the same tags.

After a deliberate output change, regenerate the files and say why in
CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import io
from pathlib import Path

import pytest

from symquot.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = "export.sha256"

TAGS = (
    "cr:q=5:d=4:s=1",
    "cr:q=9:d=3:s=2",
    "tcr:q=9:d=4:s=2",
    "pair:group=s5:rule=all_distinct",
    "pair:group=s5:rule=same_second",
    "pair:group=agl_d3:rule=affine_non_plane",
    "pair:group=agl_d3:rule=affine_plane",
    "pair:group=m11_12:design=h12:rule=design_in",
    "pair:group=m11_12:design=h12:rule=design_out",
    "flag:design=ag_d3:group=agl_d3:rule=opposite_non_complement",
    "flag:design=ag_d3:group=agl_d3:rule=same_block",
    "flag:design=ag_d3:group=agl_d3:rule=disjoint_blocks",
    "flag:design=ag_d3:group=agl_d3:rule=common_two_points",
    "flag:design=s22:group=m22:rule=m22_disjoint",
    "flag:design=s22:group=m22:rule=m22_meet_two",
    "match:group=pgammal_q8_s1",
    "star:pair:group=s5:rule=all_distinct",
    "star:flag:design=ag_d3:group=agl_d3:rule=common_two_points",
)

# (golden file, argv whose stdout it holds)
DOCUMENTS = [("census_q16_d4.json", ("census", "--max-q", "16", "--max-d", "4", "--json"))]
DOCUMENTS += [
    (f"{verb}/{tag.replace(':', '_')}.json", (verb, tag, "--json"))
    for verb in ("construct", "classify")
    for tag in TAGS
]
EXPORTS = [(fmt, tag) for fmt in ("graph6", "json") for tag in TAGS]


def _stdout(*argv: str) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue().encode()


def _digest(fmt: str, tag: str) -> str:
    return hashlib.sha256(_stdout("export", tag, "--format", fmt)).hexdigest()


def _recorded_digests() -> dict:
    rows = (GOLDEN / DIGESTS).read_text().splitlines()
    return {tuple(rest.split(" ", 1)): digest for digest, rest in (r.split("  ") for r in rows)}


@pytest.mark.parametrize("name,argv", DOCUMENTS, ids=[name for name, _ in DOCUMENTS])
def test_document(name, argv):
    assert _stdout(*argv) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("fmt,tag", EXPORTS, ids=[f"{f} {t}" for f, t in EXPORTS])
def test_export_digest(fmt, tag):
    assert _digest(fmt, tag) == _recorded_digests()[(fmt, tag)]


def _regenerate() -> None:
    for name, argv in DOCUMENTS:
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(_stdout(*argv))
    lines = "".join(f"{_digest(fmt, tag)}  {fmt} {tag}\n" for fmt, tag in EXPORTS)
    (GOLDEN / DIGESTS).write_text(lines)


if __name__ == "__main__":
    _regenerate()
