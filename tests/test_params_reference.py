"""The one-pair parameter measure against the measure over every pair.

Once a triple's hypothesis report holds in full, its group permutes the
arcs of the quotient transitively, and compute_params reads (t, m, k)
off one block pair.  The reference reads every quotient edge.  Every
census(16, 4) triple and every golden tag passes its hypotheses, reads
one pair, and gets the reference's parameters.
"""

import pytest

from symquot import classify, constructions
from symquot.classify import _census_instances, compute_params, verify_hypotheses
from symquot.constructions import build_triple, parse_tag
from symquot.graphs import cross_counts

from _reference import all_pairs_params
from test_golden import TAGS as GOLDEN_TAGS

CENSUS_TAGS = [tag for tag, _ in _census_instances(16, 4)]


@pytest.mark.parametrize("tag", CENSUS_TAGS + [t for t in GOLDEN_TAGS if t not in CENSUS_TAGS])
def test_one_pair_params_match_all_pairs(tag, monkeypatch):
    constructions._kept.clear()  # a kept triple may hold params already
    T = build_triple(parse_tag(tag))
    want = all_pairs_params(T)
    assert all(verify_hypotheses(T).values())
    pairs = []
    monkeypatch.setattr(
        classify, "cross_counts", lambda g, P, i, j: pairs.append((i, j)) or cross_counts(g, P, i, j)
    )
    assert compute_params(T) == want
    assert pairs == T.quotient.edges()[:1]
