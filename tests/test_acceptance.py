"""Acceptance gate: every numbered criterion must pass inside its budget.

Each test prints one live pass/fail line so a full run reads as a
checklist; the assertion carries the failure detail.
"""

import pytest

from symquot import acceptance
from symquot.acceptance import BUDGET_SECONDS, TITLES, run_criterion
from symquot.errors import ClassificationError


@pytest.mark.parametrize("number", sorted(BUDGET_SECONDS))
def test_criterion(number, capsys):
    result = run_criterion(number)
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(
            f"\ncriterion {number} ({TITLES[number]}): {status} "
            f"in {result.elapsed:.1f}s of {BUDGET_SECONDS[number]:.0f}s"
        )
    assert result.passed, f"criterion {number}: {result.detail}"


def test_unknown_criterion_rejected():
    with pytest.raises(ValueError, match="1..9"):
        run_criterion(0)


def test_raising_criterion_fails(monkeypatch):
    def uneven():
        raise ClassificationError("cross valency between blocks 0 and 1 is uneven")

    monkeypatch.setitem(acceptance._CRITERIA, 7, uneven)
    result = run_criterion(7)
    assert not result.passed
    assert result.detail == (
        "raised ClassificationError: cross valency between blocks 0 and 1 is uneven"
    )


def test_uneven_triple_count_is_a_failure_line(monkeypatch):
    # one block of the 22-point design doubled in place of another: b is
    # still 77, but some triples now lie in two blocks and some in none
    from symquot.designs import IncidenceStructure, steiner_3_22_6

    blocks = steiner_3_22_6().blocks
    uneven = IncidenceStructure(22, blocks[:1] + blocks[:-1])
    monkeypatch.setattr(acceptance, "steiner_3_22_6", lambda: uneven)
    result = run_criterion(9)
    assert not result.passed
    assert "22-point design has b=77, lambda_3=None" in result.detail
    assert not result.detail.startswith("raised")


def test_missing_star_is_a_failure_line(monkeypatch):
    # a fixture on the involution list whose star cannot be built fails
    # criterion 9; it is not skipped
    from symquot.errors import ConstructionError

    def no_star(T):
        raise ConstructionError("no star")

    monkeypatch.setattr(acceptance, "star_transform", no_star)
    result = run_criterion(9)
    assert not result.passed
    assert result.detail.startswith("cr3 has no star transform: no star; ")


def test_selftest_measures_each_triple_once(monkeypatch):
    """Every triple keeps its hypothesis report and parameters, so over a
    whole selftest no graph is checked for arc-transitivity twice under
    one group and no triple's parameters are measured twice; and each
    triple runs its hypotheses before anything measures it, so a
    measurement reads one block pair.  A rule graph is shared by the
    groups acting on it, so a triple is its graph with its group or
    partition."""
    from symquot import classify, constructions

    for cached in (acceptance._triple, acceptance._cr_sweep, acceptance._tcr9_cases):
        cached.cache_clear()
    constructions._kept.clear()
    checked, measured, pairs, built = [], [], [], []
    real_check, real_design = classify.is_g_symmetric, classify.design_from_partition
    real_pair, real_build = classify.cross_counts, constructions._build
    monkeypatch.setattr(
        classify, "is_g_symmetric", lambda g, G: checked.append((g, G)) or real_check(g, G)
    )
    # a measurement reads block 0's design once, after every count holds
    monkeypatch.setattr(
        classify,
        "design_from_partition",
        lambda g, P, i: measured.append((g, P)) or real_design(g, P, i),
    )
    monkeypatch.setattr(
        classify, "cross_counts", lambda g, P, i, j: pairs.append(g) or real_pair(g, P, i, j)
    )
    monkeypatch.setattr(constructions, "_build", lambda tag: built.append(tag) or real_build(tag))
    assert all(r.passed for r in acceptance.run_all())
    for triples in (checked, measured):
        assert len(triples) > 100
        assert len({(id(g), id(X)) for g, X in triples}) == len(triples)
    assert len(built) > 100
    assert len(pairs) <= len(built)


# one expected fact per table-driven criterion, each on a different fixture
BROKEN_FACTS = [
    (1, "cr5", "structure"),
    (4, "pair_distinct_s5", "star"),
    (5, "flag_disjoint_12", "structure"),
    (6, "flag_same_22", "orbits"),
    (7, "flag_meet_two_22", "t"),
]


@pytest.mark.parametrize("number,name,fact", BROKEN_FACTS)
def test_one_broken_fact_fails_one_criterion(monkeypatch, number, name, fact):
    monkeypatch.setitem(acceptance._FIXTURES[name][2][number], fact, "broken")
    results = acceptance.run_all()
    assert [r.number for r in results if not r.passed] == [number]
    detail = results[number - 1].detail
    assert detail.startswith(f"{name} {fact} is ")
    assert detail.endswith(", wanted broken")
