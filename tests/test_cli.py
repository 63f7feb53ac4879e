"""Command line behaviour: tag grammar, verbs, exit codes, determinism."""

import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import symquot
from symquot import constructions
from symquot.cli import SCHEMA, TagError, build_triple, parse_tag, run
from symquot.constructions import Provenance


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestTagGrammar:
    ROUND_TRIPS = [
        ("cr:q=3:d=2:s=1", "cr:q=3:d=2:s=1"),
        ("cr:s=1:q=3:d=2", "cr:q=3:d=2:s=1"),
        ("cr:q=03:d=2:s=001", "cr:q=3:d=2:s=1"),
        ("tcr:q=9:d=4:s=2", "tcr:q=9:d=4:s=2"),
        ("pair:rule=all_distinct:group=s5", "pair:group=s5:rule=all_distinct"),
        (
            "pair:rule=design_out:design=s22:group=m22",
            "pair:group=m22:design=s22:rule=design_out",
        ),
        (
            "flag:rule=same_block:group=agl_d3:design=ag_d3",
            "flag:design=ag_d3:group=agl_d3:rule=same_block",
        ),
        ("match:group=s5", "match:group=s5"),
        (
            "star:pair:group=s5:rule=all_distinct",
            "star:pair:group=s5:rule=all_distinct",
        ),
        ("star:star:match:group=s5", "star:star:match:group=s5"),
    ]

    @pytest.mark.parametrize("text,want", ROUND_TRIPS)
    def test_round_trip(self, text, want):
        req = parse_tag(text)
        assert req.tag == want
        assert parse_tag(req.tag).tag == want

    BAD = [
        "",
        "cr",
        "cr:q=4",
        "cr:q=4:d=x:s=1",
        "cr:q=4:d=2:s=1:z=9",
        "cr:q=4:q=4:d=2:s=1",
        "bogus:x=1",
        "star:",
        "pair:group",
        "pair:group=:rule=all_distinct",
        "flag:design=ag_d3:rule=same_block",
    ]

    @pytest.mark.parametrize("text", BAD)
    def test_rejects(self, text):
        with pytest.raises(TagError):
            parse_tag(text)

    def test_missing_fields_named(self):
        with pytest.raises(TagError, match="missing d, s"):
            parse_tag("cr:q=4")

    def test_star_nests_requests(self):
        req = parse_tag("star:cr:q=5:d=4:s=1")
        assert req.kind == "star"
        assert req.inner == Provenance("cr", (("q", "5"), ("d", "4"), ("s", "1")))


class TestBuild:
    SELF_DESCRIBING = [
        "cr:q=5:d=4:s=1",
        "match:group=s4",
        "pair:group=s4:rule=same_second",
        "flag:design=ag_d3:group=agl_d3:rule=disjoint_blocks",
        "star:pair:group=s4:rule=same_second",
    ]

    @pytest.mark.parametrize("tag", SELF_DESCRIBING)
    def test_provenance_matches_request(self, tag):
        assert build_triple(parse_tag(tag)).provenance.tag == tag

    def test_design_rule_provenance_keeps_request_token(self):
        # The built triple records the design by the catalog alias the
        # request used, so its tag builds again.
        req = parse_tag("pair:group=m11_12:design=h12:rule=design_out")
        T = build_triple(req)
        assert req.tag == "pair:group=m11_12:design=h12:rule=design_out"
        assert T.provenance.tag == req.tag
        assert T.graph.n == 132

    def test_census_tags_rebuild(self):
        # every tag of the census at its maximum caps is canonical, and the
        # triple built from it reports the same tag as its provenance
        from symquot.classify import _census_instances

        tags = [tag for tag, _ in _census_instances(16, 4)]
        assert len(set(tags)) == len(tags) == 257
        for tag in tags:
            assert parse_tag(tag).tag == tag
            code, out, err = invoke("construct", tag, "--json")
            assert (code, err) == (0, "")
            doc = json.loads(out)
            assert doc["tag"] == doc["provenance"] == tag


class TestClassifyVerb:
    def test_json_document(self):
        code, out, err = invoke("classify", "cr:q=3:d=2:s=1", "--json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["schema"] == SCHEMA
        assert doc["tag"] == "cr:q=3:d=2:s=1"
        assert doc["theorem_case"] == "1.1(b)(iii)"
        assert doc["structure"] == {"kind": "DisjointCycles", "params": [3, 4]}
        assert all(doc["hypotheses"].values())

    def test_table_lists_hypotheses(self):
        code, out, _ = invoke("classify", "match:group=s5")
        assert code == 0
        assert "two_transitive_blocks  pass" in out
        assert "theorem_case" in out and "1.1(b)(i)" in out


class TestParamsVerb:
    def test_steiner_disjoint_cross_valency(self):
        code, out, _ = invoke(
            "params", "flag:design=s22:group=m22:rule=m22_disjoint", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["t"] == 6
        assert doc["params"]["v"] == doc["params"]["b"] == 21

    def test_table_shows_dash_for_missing(self):
        code, out, _ = invoke("params", "match:group=s4")
        assert code == 0
        lines = dict(line.split(None, 1) for line in out.splitlines())
        assert lines["k"] == "1"
        assert lines["lambda"] == "0"


class TestConstructVerb:
    def test_table(self):
        code, out, _ = invoke("construct", "cr:q=5:d=4:s=1")
        assert code == 0
        lines = dict(line.split(None, 1) for line in out.splitlines())
        assert lines["vertices"] == "30"
        assert lines["structure"] == "DisjointCompleteMultipartite(5,3,2)"
        assert lines["provenance"] == "cr:q=5:d=4:s=1"

    def test_json(self):
        code, out, _ = invoke("construct", "match:group=s5", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["schema"] == SCHEMA
        assert doc["vertices"] == 20 and doc["group_order"] == 120


class TestExportVerb:
    def test_graph6_matches_library(self):
        from symquot.constructions import ALL_DISTINCT, pair_graph
        from symquot.graphs import graph_to_graph6
        from symquot.groups_catalog import sym_alt

        code, out, _ = invoke(
            "export", "--format", "graph6", "pair:group=s5:rule=all_distinct"
        )
        assert code == 0
        want = graph_to_graph6(pair_graph(sym_alt(5, False), ALL_DISTINCT).graph)
        assert out == want + "\n"

    def test_dimacs_to_file(self, tmp_path):
        path = tmp_path / "out.dimacs"
        code, out, _ = invoke(
            "export", "--format", "dimacs", "cr:q=3:d=2:s=1", "--output", str(path)
        )
        assert code == 0 and out == ""
        text = path.read_text()
        assert text.startswith("p edge 12 12\n")
        assert text.endswith("\n")

    def test_unwritable_output_file_exits_one(self, tmp_path):
        code, out, err = invoke(
            "export", "--format", "dimacs", "cr:q=3:d=2:s=1", "--output", str(tmp_path)
        )
        assert code == 1 and out == ""
        assert err.startswith("symquot: ") and err.count("\n") == 1

    @staticmethod
    def _into_closed_pipe(*argv):
        """Run the CLI into a one-page pipe whose reader reads one line and
        closes it; the line, the exit status and stderr."""
        fcntl = pytest.importorskip("fcntl")
        env = dict(os.environ, PYTHONPATH=str(Path(symquot.__file__).parents[1]))
        read_end, write_end = os.pipe()
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
        proc = subprocess.Popen(
            [sys.executable, "-m", "symquot.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            line = pipe.readline()
        _, err = proc.communicate(timeout=120)
        return line, proc.returncode, err

    def test_closed_stdout_exits_quietly(self):
        # The census table is about 11 kB, written in pieces of at most
        # 8 kB.  A one-page pipe plus the one read made here hold less than
        # that, so the census still has output to write once the pipe is
        # closed, whatever the timing.
        line, code, err = self._into_closed_pipe("census", "--max-q", "9", "--max-d", "3")
        assert line.startswith(b"cr:q=3:d=2:s=1 ")
        assert code == 141
        assert err == b""

    def test_closed_stdout_exits_quietly_on_one_document(self):
        # The JSON export is one 225 kB document; a buffered stream could
        # take it in one write, report it done and drop what the closed
        # pipe refused.
        line, code, err = self._into_closed_pipe(
            "export", "--format", "json", "cr:q=16:d=3:s=1"
        )
        assert line == b"{\n"
        assert code == 141
        assert err == b""

    def test_json_carries_blocks_and_generators(self):
        code, out, _ = invoke("export", "--format", "json", "match:group=s4")
        doc = json.loads(out)
        assert code == 0
        assert doc["schema"] == SCHEMA
        assert doc["graph"]["n"] == 12
        assert [len(b) for b in doc["blocks"]] == [3] * 4
        assert all(sorted(p) == list(range(12)) for p in doc["generators"])


class TestCensusVerb:
    def test_rows_sorted_by_tag(self):
        code, out, _ = invoke("census", "--max-q", "3", "--max-d", "2")
        assert code == 0
        tags = [line.split()[0] for line in out.splitlines()]
        assert tags == sorted(tags) and len(tags) == 5

    def test_json_document(self):
        code, out, _ = invoke("census", "--max-q", "3", "--max-d", "2", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["schema"] == SCHEMA and doc["max_q"] == 3
        tags = [row["tag"] for row in doc["rows"]]
        assert tags == sorted(tags)
        for row in doc["rows"]:
            assert row["theorem_case"] in row["expected"]

    def test_empty_inside_tiny_caps(self):
        code, out, _ = invoke("census", "--max-q", "0", "--max-d", "0")
        assert code == 0
        assert "empty" in out


class TestSelftestVerb:
    def test_reports_and_fails_atomically(self, monkeypatch):
        import symquot.acceptance as acceptance

        fake = [
            acceptance.CriterionResult(1, True, 0.1, "ok"),
            acceptance.CriterionResult(2, False, 0.2, "broken sweep"),
        ]
        monkeypatch.setattr(acceptance, "run_all", lambda: fake)
        code, out, err = invoke("selftest")
        assert code == 3
        assert "criterion 1" in out and "PASS" in out and "FAIL" in out
        assert "broken sweep" in err

    def test_all_green_exits_zero(self, monkeypatch):
        import symquot.acceptance as acceptance

        fake = [acceptance.CriterionResult(1, True, 0.1, "ok")]
        monkeypatch.setattr(acceptance, "run_all", lambda: fake)
        code, out, err = invoke("selftest")
        assert code == 0 and err == ""


class TestExitCodes:
    CASES = [
        (("classify", "cr:q=4"), 2),
        (("classify", "nope:x=1"), 2),
        (("construct", "pair:group=sX:rule=all_distinct"), 1),
        (("construct", "pair:group=s5:rule=design_out"), 1),
        (("construct", "pair:group=s5:design=h12:rule=all_distinct"), 1),
        (("construct", "pair:group=s5:rule=mystery"), 1),
        (("construct", "flag:design=nope:group=s5:rule=same_block"), 1),
        (("construct", "cr:q=6:d=2:s=1"), 1),
        (("census", "--max-q", "99", "--max-d", "2"), 1),
        # tag integers are ASCII decimal digits only, unlike int()
        (("construct", "cr:q=4_9:d=16:s=1"), 2),
        (("construct", "cr:q=+4:d=2:s=1"), 2),
        (("construct", "cr:q= 4:d=2:s=1"), 2),
        (("construct", "cr:q=4:d=\uff12:s=1"), 2),
        (("construct", "cr:q=4:d=2:s=\u0661"), 2),
        # and so are the numbers inside group and design tokens
        (("construct", "pair:group=s\u0665:rule=all_distinct"), 1),
        (("construct", "match:group=pgl2_q\uff17"), 1),
        (("construct", "flag:design=ag_d\u0663:group=agl_d3:rule=same_block"), 1),
        # the census caps follow the same digit rule
        (("census", "--max-q", "\u0665", "--max-d", "2"), 2),
        (("census", "--max-q", "5", "--max-d", " 2"), 2),
        (("census", "--max-q", "+5", "--max-d", "2"), 2),
        (("census", "--max-q", "-3", "--max-d", "2"), 2),
        (("census", "--max-q", "5", "--max-d", "1_0"), 2),
        # more digits than int() takes from a string
        (("classify", f"cr:q={'9' * 5000}:d=2:s=1"), 2),
        (("census", "--max-q", "9" * 5000, "--max-d", "1"), 2),
    ]
    IDS = [re.sub("9{100,}", lambda m: f"<{len(m[0])} nines>", " ".join(c[0])) for c in CASES]

    @pytest.mark.parametrize("argv,want", CASES, ids=IDS)
    def test_codes(self, argv, want):
        code, out, err = invoke(*argv)
        assert code == want
        assert out == ""
        assert err.startswith("symquot: ") and err.count("\n") == 1

    OVERSIZE = [
        "match:group=s200",
        "pair:group=a101:rule=all_distinct",
        "pair:group=pgl2_q101:rule=same_second",
        "match:group=m_s1_q121",
        "star:pair:group=s1000000:rule=all_distinct",
    ]

    @pytest.mark.parametrize("tag", OVERSIZE)
    def test_oversize_pair_domain_refused_up_front(self, tag):
        t0 = time.perf_counter()
        code, out, err = invoke("construct", tag)
        assert time.perf_counter() - t0 < 5
        assert code == 1 and out == ""
        assert err.startswith("symquot: ") and err.count("\n") == 1
        assert "degree cap" in err

    def test_pair_search_cap_exits_one(self, monkeypatch):
        # a pair tag builds no orbital graph, so the first pair search is a
        # suborbit in the arc-transitivity check
        from symquot import permgroup

        # a kept triple would have run its searches already
        constructions._kept.clear()
        monkeypatch.setattr(permgroup, "PAIR_BFS_CAP", 2)
        code, out, err = invoke("classify", "pair:group=s5:rule=same_second")
        assert code == 1 and out == ""
        assert err.startswith("symquot: ") and err.count("\n") == 1
        assert "state cap" in err

    # one tag per remaining kind: refused on the vertex count the tag
    # names, or on a design the catalog does not have, before any group
    # or field is built
    REFUSED_UNBUILT = [
        "cr:q=1009:d=2:s=1",
        "tcr:q=2401:d=3:s=2",
        "flag:design=ag_d7:group=s9999:rule=same_block",
        "star:cr:q=1009:d=2:s=1",
    ]

    @pytest.mark.parametrize("tag", REFUSED_UNBUILT)
    def test_refused_before_building(self, tag):
        t0 = time.perf_counter()
        code, out, err = invoke("construct", tag)
        assert time.perf_counter() - t0 < 1
        assert code == 1 and out == ""
        assert err.startswith("symquot: ") and err.count("\n") == 1

    # the group token names a degree other than the design's point count
    FLAG_DEGREE_MISMATCH = [
        "flag:design=s22:group=s400:rule=same_block",
        "flag:design=h12:group=pgl2_q9973:rule=same_block",
        "flag:design=ag_d6:group=a65:rule=disjoint_blocks",
    ]

    @pytest.mark.parametrize("tag", FLAG_DEGREE_MISMATCH)
    def test_flag_group_degree_refused_before_building(self, tag):
        t0 = time.perf_counter()
        code, out, err = invoke("construct", tag)
        assert time.perf_counter() - t0 < 1
        assert code == 1 and out == ""
        assert err == "symquot: group degree does not match the design\n"

    def test_affine_design_dimension_refused(self):
        code, out, err = invoke("construct", "flag:design=ag_d2:group=agl_d2:rule=same_block")
        assert code == 1 and out == ""
        assert err == "symquot: need 3 <= d <= 6, got d=2\n"

    GROUP_TOKENS = [
        "s5", "a7", "agl_d3", "m11", "m11_12", "m12", "m22", "aut_m22",
        "m23", "m24", "z24_a7", "pgl2_q7", "psl2_q11", "pgammal_q8_s1",
        "m_s1_q9",
    ]

    @pytest.mark.parametrize("token", GROUP_TOKENS)
    def test_predicted_degree_matches_group(self, token):
        from symquot.constructions import _group_spec

        degree, build = _group_spec(token)
        assert degree == build().degree

    DESIGN_TOKENS = [
        "s22", "steiner_22", "h12", "hadamard_12", "ag_d3", "ag_d4", "ag_d5", "ag_d6",
    ]

    @pytest.mark.parametrize("token", DESIGN_TOKENS)
    def test_predicted_flag_count_matches_design(self, token):
        from symquot.constructions import _design_spec

        flags, build = _design_spec(token)
        assert flags == sum(len(b) for b in build().blocks)

    def test_overlong_group_number_is_a_domain_error(self):
        code, out, err = invoke("construct", "match:group=s" + "9" * 5000)
        assert code == 1 and out == ""
        assert err.startswith("symquot: ") and "too many digits" in err

    def test_overlong_design_number_is_a_domain_error(self):
        tag = "flag:design=ag_d" + "9" * 5000 + ":group=agl_d3:rule=same_block"
        code, out, err = invoke("construct", tag)
        assert code == 1 and out == ""
        assert err.startswith("symquot: ") and "too many digits" in err

    def test_usage_errors_from_argparse(self):
        assert invoke()[0] == 2
        assert invoke("nonsense")[0] == 2
        assert invoke("export", "cr:q=3:d=2:s=1")[0] == 2


class TestDeterminism:
    def test_byte_identical_runs(self):
        first = invoke("classify", "cr:q=5:d=2:s=1", "--json")
        second = invoke("classify", "cr:q=5:d=2:s=1", "--json")
        assert first == second

    def test_census_byte_identical(self):
        assert invoke("census", "--max-q", "4", "--max-d", "2") == invoke(
            "census", "--max-q", "4", "--max-d", "2"
        )


# Every verb that takes a tag, each format of export included.
TAG_VERBS = [
    ("construct", "--json"),
    ("params", "--json"),
    ("classify", "--json"),
    ("export", "--format", "graph6"),
    ("export", "--format", "dimacs"),
    ("export", "--format", "json"),
]


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize(
    "tag",
    [
        "cr:q=9:d=3:s=2",
        "tcr:q=9:d=4:s=2",
        "flag:design=ag_d3:group=agl_d3:rule=common_two_points",
        "star:pair:group=s5:rule=all_distinct",
    ],
)
def test_shared_triple_prints_what_fresh_builds_print(tag, reverse):
    """The verbs of one process share one kept triple, with whatever its
    group, partition and quotient filled in for the verbs before; each
    prints what it prints on a triple built for it alone."""
    verbs = TAG_VERBS[::-1] if reverse else TAG_VERBS
    fresh = []
    for verb, *flags in verbs:
        constructions._kept.clear()
        fresh.append(invoke(verb, tag, *flags))
    assert all(code == 0 and err == "" for code, _, err in fresh)
    constructions._kept.clear()
    shared = [invoke(verbs[0][0], tag, *verbs[0][1:])]
    kept = build_triple(parse_tag(tag))
    shared += [invoke(verb, tag, *flags) for verb, *flags in verbs[1:]]
    assert build_triple(parse_tag(tag)) is kept
    assert shared == fresh


def _forget_builds():
    constructions._kept.clear()
    constructions._rule_graphs.clear()


@pytest.mark.parametrize(
    "first,second",
    [
        (
            "pair:group=m22:design=s22:rule=design_out",
            "pair:group=aut_m22:design=s22:rule=design_out",
        ),
        (
            "flag:design=s22:group=aut_m22:rule=same_block",
            "flag:design=s22:group=m22:rule=same_block",
        ),
        ("match:group=s6", "match:group=a6"),
        ("pair:group=a6:rule=same_second", "pair:group=s6:rule=same_second"),
    ],
)
def test_shared_rule_graph_prints_what_fresh_builds_print(first, second):
    """A triple on the rule graph another group's triple listed prints,
    under every verb, what a triple listed for it alone prints."""
    for verb, *flags in TAG_VERBS:
        _forget_builds()
        fresh = invoke(verb, second, *flags)
        assert fresh[0] == 0 and fresh[2] == ""
        _forget_builds()
        graph = build_triple(parse_tag(first)).graph
        assert invoke(verb, second, *flags) == fresh
        assert build_triple(parse_tag(second)).graph is graph


def test_structure_recognized_once_per_triple(monkeypatch):
    """construct and classify of one tag read the kept triple's shape."""
    from symquot.graphs import recognize_structure

    calls = []
    monkeypatch.setattr(
        constructions, "recognize_structure", lambda g: calls.append(g) or recognize_structure(g)
    )
    constructions._kept.clear()
    for verb in ("construct", "classify", "construct"):
        assert invoke(verb, "cr:q=5:d=4:s=1", "--json")[0] == 0
    T = build_triple(parse_tag("cr:q=5:d=4:s=1"))
    assert calls == [T.graph]
    assert T.structure is T.structure == recognize_structure(T.graph)


def test_classify_measures_two_block_pairs(monkeypatch):
    """The cr builder checks one block pair and compute_params reads one
    more; classify again on the kept triple reads none."""
    from symquot import classify
    from symquot.graphs import cross_counts

    pairs = []

    def spy(g, P, i, j):
        pairs.append((i, j))
        return cross_counts(g, P, i, j)

    monkeypatch.setattr(constructions, "cross_counts", spy)
    monkeypatch.setattr(classify, "cross_counts", spy)
    constructions._kept.clear()
    for _ in range(2):
        assert invoke("classify", "cr:q=16:d=3:s=1")[0] == 0
    assert len(pairs) == 2


def test_params_verb_on_a_ragged_forged_triple(monkeypatch):
    """Block pairs that count differently fail the hypotheses, so every
    pair is read: the params verb names the pair that differs, before and
    after classify has kept the triple's report."""
    from symquot import cli
    from symquot.graphs import Graph, Partition
    from symquot.permgroup import Permutation, PermutationGroup

    # blocks 0 and 1 are joined by a 4-cycle, blocks 0 and 2 by a matching
    g = Graph.from_edges(
        6, [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 5), (2, 4), (3, 5), (4, 5)]
    )
    G = PermutationGroup(6, [Permutation(range(6))])
    P = Partition([(0, 1), (2, 3), (4, 5)])
    T = constructions.Triple(g, G, P, Provenance("ragged"))
    monkeypatch.setattr(cli, "build_triple", lambda tag: T)
    want = (
        1,
        "",
        "symquot: cross parameters vary: blocks 0,2 give "
        "(t, m, k) = (1, 2, 2), not (2, 4, 2)\n",
    )
    assert invoke("params", "cr:q=3:d=2:s=1") == want
    code, out, _ = invoke("classify", "cr:q=3:d=2:s=1", "--json")
    assert code == 0 and json.loads(out)["params"] is None
    assert invoke("params", "cr:q=3:d=2:s=1") == want
