"""Inputs of the three workloads, all drawn from the run's seed.

census_sweep  one census(9, 3) call per fresh worker: 121 triples, every
              family, Mathieu rows included.  Breadth; the input is fixed.
big_lift      construct, classify and export in-process on 2450-vertex
              lifted triples at q = 49.  Depth: Schreier-Sims on the
              lifted domain, the peak-memory case, a 500 kB graph6.
cli_mix       a closed loop with one client: one fresh
              ``python -m symquot.cli`` per request, drawn from small tags.
              The cold path every CLI user pays.
"""

from __future__ import annotations

import hashlib
import itertools
import random

WORKLOADS = ("census_sweep", "big_lift", "cli_mix")

# big_lift: every round runs one tag of each kind, so that every run
# holds the same mix; with one kind per run the seed would decide the
# kind, and the kinds differ by about 1.5x in construct time.
#   cr:q=49:d=<d>:s=1 with s(d) = 2: cross valency t = 2, 117600 edges
#   tcr:q=49:d=<d>:s=2 with d - 1 a square: t = 1, 58800 edges
# The seed picks d among values whose pipelines cost the same to within
# about 5 % at the commit that added the benchmark; the other admissible
# d differ by up to 20 % (cr d = 10, 45 faster; tcr d = 15, 22 slower),
# which would turn the seed into a cost.
LIFT_Q = 49
CR_DS = (16, 23, 31, 37)
TCR_DS = (7, 29, 36, 43)


def lift_tags(seed: int) -> list[str]:
    rng = random.Random(f"big_lift:{seed}")
    return [
        f"cr:q={LIFT_Q}:d={rng.choice(CR_DS)}:s=1",
        f"tcr:q={LIFT_Q}:d={rng.choice(TCR_DS)}:s=2",
    ]


# cli_mix: one pass draws one request from every slot, in shuffled
# order.  Alternatives inside a slot cost about the same, so the seed
# changes the inputs without changing the mix, and each slot cycles
# through its alternatives from a seed-drawn start.  No slot has more
# than four alternatives, so four passes run all 105 distinct requests,
# the largest CLI child (peak_rss_mb) among them.  A request is (verb,
# format, tag); the format is json or table for construct, params and
# classify, and the export format for export.  The slots
# cover all six tag kinds, the four verbs, all three export formats,
# both output styles and both error exits.
POOL: tuple[tuple[tuple[str, str, str], ...], ...] = (
    # cr
    tuple(("construct", "json", t) for t in (
        "cr:q=5:d=2:s=1", "cr:q=7:d=3:s=1", "cr:q=8:d=3:s=1", "cr:q=11:d=2:s=1")),
    tuple(("classify", "json", t) for t in (
        "cr:q=7:d=3:s=1", "cr:q=9:d=3:s=2", "cr:q=11:d=5:s=1", "cr:q=13:d=2:s=1")),
    tuple(("params", "table", t) for t in (
        "cr:q=5:d=3:s=1", "cr:q=7:d=2:s=1", "cr:q=8:d=5:s=1", "cr:q=9:d=4:s=1")),
    tuple(("export", "graph6", t) for t in (
        "cr:q=9:d=2:s=1", "cr:q=11:d=2:s=1", "cr:q=13:d=3:s=1", "cr:q=16:d=3:s=1")),
    tuple(("classify", "table", t) for t in (
        "cr:q=13:d=3:s=1", "cr:q=16:d=5:s=1", "cr:q=17:d=2:s=1", "cr:q=19:d=2:s=1")),
    tuple(("export", "dimacs", t) for t in (
        "cr:q=7:d=2:s=1", "cr:q=8:d=3:s=1", "cr:q=9:d=2:s=1")),
    tuple(("construct", "table", t) for t in (
        "cr:q=11:d=3:s=1", "cr:q=13:d=4:s=1", "cr:q=16:d=2:s=1")),
    # tcr
    tuple(("construct", "json", t) for t in ("tcr:q=9:d=4:s=2", "tcr:q=9:d=7:s=2")),
    tuple(("classify", "json", t) for t in ("tcr:q=9:d=4:s=2", "tcr:q=9:d=7:s=2")),
    tuple(("export", "json", t) for t in ("tcr:q=9:d=4:s=2", "tcr:q=9:d=7:s=2")),
    tuple(("params", "json", t) for t in ("tcr:q=9:d=4:s=2", "tcr:q=9:d=7:s=2")),
    # pair
    tuple(("classify", "json", t) for t in (
        "pair:group=s5:rule=all_distinct", "pair:group=s6:rule=all_distinct",
        "pair:group=a7:rule=all_distinct", "pair:group=pgl2_q7:rule=all_distinct")),
    tuple(("params", "json", t) for t in (
        "pair:group=a7:rule=same_second", "pair:group=pgl2_q7:rule=same_second",
        "pair:group=psl2_q11:rule=same_second", "pair:group=s6:rule=same_second")),
    tuple(("classify", "table", t) for t in (
        "pair:group=agl_d3:rule=affine_plane", "pair:group=agl_d4:rule=affine_non_plane",
        "pair:group=z24_a7:rule=affine_plane", "pair:group=agl_d3:rule=affine_non_plane")),
    tuple(("construct", "table", t) for t in (
        "pair:group=m11:rule=same_second", "pair:group=m12:rule=same_second",
        "pair:group=pgammal_q8_s1:rule=same_second", "pair:group=m11:rule=all_distinct")),
    tuple(("classify", "json", t) for t in (
        "pair:group=m11_12:design=h12:rule=design_out",
        "pair:group=m11_12:design=h12:rule=design_in")),
    tuple(("export", "json", t) for t in (
        "pair:group=s5:rule=same_second", "pair:group=agl_d3:rule=affine_non_plane",
        "pair:group=a6:rule=same_second")),
    # flag
    tuple(("classify", "json", "flag:design=ag_d3:group=agl_d3:rule=" + r) for r in (
        "same_block", "disjoint_blocks", "common_two_points", "opposite_non_complement")),
    tuple(("construct", "json", "flag:design=h12:group=m11_12:rule=" + r) for r in (
        "same_block", "disjoint_blocks")),
    tuple(("params", "table", t) for t in (
        "flag:design=ag_d4:group=z24_a7:rule=common_two_points",
        "flag:design=ag_d4:group=agl_d4:rule=same_block",
        "flag:design=ag_d3:group=agl_d3:rule=same_block")),
    tuple(("export", "graph6", t) for t in (
        "flag:design=ag_d3:group=agl_d3:rule=common_two_points",
        "flag:design=h12:group=m11_12:rule=opposite_non_complement")),
    # match
    tuple(("classify", "json", "match:group=" + g) for g in ("s5", "s6", "pgl2_q7", "m11")),
    tuple(("construct", "table", "match:group=" + g) for g in (
        "m_s1_q9", "a6", "pgl2_q8", "s6")),
    tuple(("export", "dimacs", "match:group=" + g) for g in ("m12", "agl_d4", "s5")),
    tuple(("params", "json", "match:group=" + g) for g in ("s7", "pgammal_q8_s1", "a7")),
    # star
    tuple(("classify", "json", t) for t in (
        "star:pair:group=s5:rule=all_distinct", "star:pair:group=s6:rule=all_distinct",
        "star:pair:group=a6:rule=all_distinct")),
    tuple(("construct", "json", t) for t in (
        "star:pair:group=s7:rule=all_distinct", "star:cr:q=4:d=2:s=1")),
    tuple(("export", "graph6", t) for t in (
        "star:flag:design=ag_d3:group=agl_d3:rule=common_two_points",
        "star:pair:group=m11:rule=all_distinct")),
    # the 462-vertex Mathieu triples, the slowest small tags
    tuple(("construct", "json", t) for t in (
        "pair:group=m22:design=s22:rule=design_out",
        "pair:group=m22:design=s22:rule=design_in",
        "flag:design=s22:group=m22:rule=same_block")),
    # malformed tags: exit 2
    tuple(("construct", "json", t) for t in (
        "cr:q=5:d=x:s=1", "cr:q=5:d=2:d=3:s=1", "cr:q=5:s=1")),
    tuple(("classify", "json", t) for t in ("bogus:q=1", "star:", "pair:group=s5")),
    # impossible objects: exit 1
    tuple(("construct", "json", t) for t in (
        "cr:q=6:d=2:s=1", "cr:q=5:d=1:s=1", "cr:q=5:d=2:s=3")),
    tuple(("classify", "table", t) for t in (
        "pair:group=s5:rule=nope", "match:group=q9",
        "flag:design=zz:group=s5:rule=same_block")),
    tuple(("export", "graph6", t) for t in (
        "tcr:q=9:d=3:s=2", "star:cr:q=7:d=3:s=1", "star:cr:q=5:d=2:s=1")),
)

# Rounds per run at least, whatever --seconds says.  census_sweep and
# big_lift time each request by its fastest repetition
# (run.fastest_requests), so each needs several: three census calls, and
# two big_lift rounds, each tag twice.  cli_mix: four passes, 136
# requests, so the 90th percentile has ten samples beyond it and every
# alternative of every slot runs in every run.
MIN_ROUNDS = {"census_sweep": 3, "big_lift": 2, "cli_mix": 4}

# Triples one request handles: census rows, or one tag.
TRIPLES_PER_REQUEST = {"census_sweep": 121, "big_lift": 1, "cli_mix": 1}


def argv(request: tuple[str, str, str]) -> list[str]:
    verb, fmt, tag = request
    if verb == "export":
        return [verb, tag, "--format", fmt]
    return [verb, tag] + (["--json"] if fmt == "json" else [])


def request_key(request: tuple[str, str, str]) -> str:
    return " ".join(request)


def cli_passes(seed: int):
    rng = random.Random(f"cli_mix:{seed}")
    starts = [rng.randrange(len(slot)) for slot in POOL]
    for i in itertools.count():
        batch = [slot[(start + i) % len(slot)] for slot, start in zip(POOL, starts)]
        rng.shuffle(batch)
        yield batch


def rounds(workload: str, seed: int):
    """Endless per-round inputs of a workload, drawn from the seed."""
    if workload == "census_sweep":
        return itertools.repeat(None)
    if workload == "big_lift":
        return itertools.repeat(lift_tags(seed))
    return cli_passes(seed)


def hash_seed(workload: str, seed: int) -> str:
    """PYTHONHASHSEED for every process of a run.  Output must not depend
    on it, so a change that makes output follow hash order fails the
    checks on some seed."""
    h = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return str(int.from_bytes(h[:4], "big"))
