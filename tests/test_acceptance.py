"""Acceptance suite: one test per headline criterion, with runtime budgets.

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
    "linalg-suite": 60.0,
    "fock-oracle": 30.0,
    "invariance-suite": 30.0,
}


@pytest.mark.parametrize("name,func", selftest.CRITERIA, ids=[n for n, _ in selftest.CRITERIA])
def test_criterion(name, func):
    start = time.monotonic()
    passed, detail = func(selftest.DEFAULT_SEED)
    elapsed = time.monotonic() - start
    print(f"[{'PASS' if passed else 'FAIL'}] {name} ({elapsed:.2f}s): {detail}")
    assert passed, detail
    assert elapsed < BUDGETS[name], f"{name} exceeded its {BUDGETS[name]}s budget"
