"""Acceptance gate: every criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion with the measured numbers.
"""

import pytest

from ygraph import acceptance
from ygraph.acceptance import ALL_CRITERIA
from ygraph.cli import main


@pytest.mark.parametrize("name,criterion", ALL_CRITERIA,
                         ids=[name for name, _ in ALL_CRITERIA])
def test_criterion(name, criterion):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name}: {result.detail} ({result.seconds:.1f}s)")
    assert result.passed, f"{result.name}: {result.detail}"


def _stub(name, passed, seconds):
    return name, lambda: acceptance.CriterionResult(
        name=name, passed=passed, detail=f"measured {name[0]}", seconds=seconds)


# one criterion --quick skips between a passing and a failing one
STUBS = [_stub("1 kernel anchor values", True, 0.04),
         _stub("6 construction meets vertex conditions", False, 9.0),
         _stub("9 scaling symmetry", False, 1.26)]


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_run_all_skips_only_in_quick_mode(monkeypatch, quick):
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", STUBS)
    results = acceptance.run_all(quick=quick)
    assert [r.name for r in results] == [name for name, _ in STUBS]
    skipped = results[1]
    assert skipped.skipped == quick
    assert (skipped.passed, skipped.detail) == ((True, "skipped (--quick)") if quick
                                                else (False, "measured 6"))


@pytest.mark.parametrize("last_passes", [True, False], ids=["pass", "fail"])
def test_accept_command_prints_one_line_per_criterion(monkeypatch, capsys,
                                                      last_passes):
    stubs = STUBS[:2] + [_stub("9 scaling symmetry", last_passes, 1.26)]
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stubs)
    assert main(["accept", "--quick"]) == (0 if last_passes else 1)
    w = len("6 construction meets vertex conditions")
    assert capsys.readouterr().out.splitlines() == [
        f"[PASS] {'1 kernel anchor values':<{w}}  measured 1  (0.0s)",
        f"[PASS] {'6 construction meets vertex conditions':<{w}}  "
        f"skipped (--quick)  (0.0s)",
        f"[{'PASS' if last_passes else 'FAIL'}] {'9 scaling symmetry':<{w}}  "
        f"measured 9  (1.3s)",
        f"{3 if last_passes else 2}/3 criteria passed"]
