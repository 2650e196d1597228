"""Acceptance suite: one test per paper criterion of photonprep.selftest
(the CZ anchor, the C^{n-1}Z family, both rank rules and heralding's
permanent identity), with runtime budgets.

Each test prints its own pass/fail line so a `pytest -s tests/test_acceptance.py`
run reads as a scoreboard.
"""

import time

import pytest

from photonprep import selftest

BUDGETS = {
    "cz-recovery": 1.0,
    "cnz-family": 10.0,
    "theorem1-iff": 60.0,
    "theorem2-iff": 60.0,
    "proof-identity": 60.0,
}


@pytest.mark.parametrize("name,func", selftest.CRITERIA, ids=[n for n, _ in selftest.CRITERIA])
def test_criterion(name, func):
    start = time.monotonic()
    passed, detail = func(selftest.DEFAULT_SEED)
    elapsed = time.monotonic() - start
    print(f"[{'PASS' if passed else 'FAIL'}] {name} ({elapsed:.2f}s): {detail}")
    assert passed, detail
    assert elapsed < BUDGETS[name], f"{name} exceeded its {BUDGETS[name]}s budget"
