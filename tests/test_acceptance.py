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
