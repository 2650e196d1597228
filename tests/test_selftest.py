"""The acceptance suite's failure paths: every outcome that contradicts a
claim is a failed row that names its case and reason, the other rows are
still scored, and the CLI exits 3.

Each test wraps a real synthesizer or oracle so that one kind of outcome
goes wrong, then runs `photonprep selftest` in-process.
"""

import dataclasses
import json

import numpy as np
import pytest

from photonprep import QuditTarget, from_qudit_target, gates, herald, postselect, selftest
from photonprep.cli import main
from photonprep.exceptions import ConvergenceFailure, InfeasibleRank, VerificationFailure
from photonprep.verify import HeraldPattern

NAMES = [name for name, _ in selftest.CRITERIA]
SYNTHESIZERS = {
    "theorem1-iff": (postselect, "synthesize_postselect"),
    "theorem2-iff": (herald, "synthesize_herald"),
}
BELL = from_qudit_target(QuditTarget(np.eye(2) / np.sqrt(2)))


def _run(capsys) -> tuple[int, dict]:
    """Exit code and rows of `photonprep selftest`, its stderr table checked
    to hold the same five rows."""
    code = main(["selftest"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    rows = {c["name"]: c for c in doc["criteria"]}
    assert list(rows) == NAMES
    assert doc["passed"] is all(c["passed"] for c in rows.values())
    table = captured.err.splitlines()
    assert [line.split()[:2] for line in table] == [
        [name, "PASS" if rows[name]["passed"] else "FAIL"] for name in NAMES
    ]
    return code, rows


def _wrap(monkeypatch, criterion, on_circuit=None, on_infeasible=None):
    """Patch the criterion's synthesizer: a circuit it returns goes through
    on_circuit(args, circuit), an InfeasibleRank it raises through
    on_infeasible(); either may return a circuit or raise. The patch holds
    for every caller, proof-identity included."""
    module, name = SYNTHESIZERS[criterion]
    real = getattr(module, name)

    def patched(*args):
        try:
            circuit = real(*args)
        except InfeasibleRank:
            if on_infeasible is None:
                raise
            return on_infeasible()
        return circuit if on_circuit is None else on_circuit(args, circuit)

    monkeypatch.setattr(module, name, patched)


def _raise(exc):
    def raiser(*args):
        raise exc

    return raiser


def _failed(rows, expected: dict[str, str]) -> None:
    """The failed rows are exactly `expected`'s, in order, and the detail of
    each starts with the given case and reason."""
    assert [n for n in NAMES if not rows[n]["passed"]] == list(expected)
    for name, start in expected.items():
        assert rows[name]["detail"].startswith(start), rows[name]["detail"]


def _expected(criterion, row, raised=None) -> dict[str, str]:
    """The criterion's failed row; a heralded synthesis that raises also
    fails proof-identity, which calls it outside any verdict, as `raised`."""
    expected = {criterion: row}
    if criterion == "theorem2-iff" and raised:
        expected["proof-identity"] = raised
    return expected


def test_passing_suite_exits_0(capsys):
    code, rows = _run(capsys)
    assert code == 0 and all(row["passed"] for row in rows.values())


@pytest.mark.parametrize(
    "criterion, case", [("theorem1-iff", "trial 1"), ("theorem2-iff", "case 0")], ids=["theorem1", "theorem2"]
)
def test_feasible_case_rejected(capsys, monkeypatch, criterion, case):
    _wrap(monkeypatch, criterion, on_circuit=_raise(InfeasibleRank("no room")))
    code, rows = _run(capsys)
    assert code == 3
    _failed(rows, _expected(criterion, f"{case}: feasible case rejected: no room", "InfeasibleRank: no room"))


@pytest.mark.parametrize(
    "criterion, feasible, case",
    [
        # trial 0 asks for rank(C) > rank(S_in), trial 1 does not
        ("theorem1-iff", True, "trial 1"),
        ("theorem1-iff", False, "trial 0"),
        ("theorem2-iff", True, "case 0"),
        # cases 0-7 have rank 2, whose n = rank - 1 is not tried
        ("theorem2-iff", False, "case 8 at n = rank - 1"),
    ],
    ids=["theorem1-feasible", "theorem1-infeasible", "theorem2-feasible", "theorem2-infeasible"],
)
def test_verification_failure_on_either_side(capsys, monkeypatch, criterion, feasible, case):
    reason = "VerificationFailure: fidelity 0.5 below 1 - 1e-09"
    fail = _raise(VerificationFailure("fidelity 0.5 below 1 - 1e-09"))
    if feasible:
        _wrap(monkeypatch, criterion, on_circuit=fail)
    else:
        _wrap(monkeypatch, criterion, on_infeasible=fail)
    code, rows = _run(capsys)
    assert code == 3
    _failed(rows, _expected(criterion, f"{case}: {reason}", reason if feasible else None))


@pytest.mark.parametrize(
    "criterion, case",
    [("theorem1-iff", "trial 0"), ("theorem2-iff", "case 8 at n = rank - 1")],
    ids=["theorem1", "theorem2"],
)
def test_infeasible_case_accepted(capsys, monkeypatch, criterion, case):
    _wrap(monkeypatch, criterion, on_infeasible=lambda: object())
    code, rows = _run(capsys)
    assert code == 3
    _failed(rows, _expected(criterion, f"{case}: infeasible case accepted"))


def test_wrong_bell_signal(capsys, monkeypatch):
    """The Bell pair, case 24, heralded by two photons in two herald modes
    instead of both in one."""

    def misread(args, circuit):
        if np.array_equal(args[0].S, BELL.S):
            return dataclasses.replace(circuit, herald=HeraldPattern(signal=(1, 1)))
        return circuit

    _wrap(monkeypatch, "theorem2-iff", on_circuit=misread)
    code, rows = _run(capsys)
    assert code == 3
    _failed(rows, {"theorem2-iff": "case 24: unexpected signal (1, 1)"})


def test_cnz_gate_its_oracle_refuses(capsys, monkeypatch):
    monkeypatch.setattr(gates, "verify_cnz", lambda result, n, phi: False)
    code, rows = _run(capsys)
    assert code == 3
    _failed(rows, {
        "cz-recovery": "p_s=0.111111111111, amplitudes 1/3 verified=False",
        "cnz-family": "verify n=3 phi=0.785; verify n=3 phi=1.571; ",
    })


@pytest.mark.parametrize("error", [ConvergenceFailure, InfeasibleRank])
def test_criterion_that_raises_is_a_failed_row(capsys, monkeypatch, error):
    """theorem2-iff makes 42 heralded syntheses, 25 feasible and 17 at
    n = rank - 1; the 45th call is proof-identity's third, outside any
    verdict, so the criterion itself raises."""
    real, calls = herald.synthesize_herald, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 45:
            raise error("the 45th synthesis failed")
        return real(*args)

    monkeypatch.setattr(herald, "synthesize_herald", failing)
    code, rows = _run(capsys)
    assert code == 3
    _failed(rows, {"proof-identity": f"{error.__name__}: the 45th synthesis failed"})


def test_every_criterion_that_raises_is_scored(capsys, monkeypatch):
    """A construction that always fails takes down the rows that read it;
    the rest are scored as usual."""
    monkeypatch.setattr(gates, "build_cnz", _raise(ConvergenceFailure("no dilation")))
    code, rows = _run(capsys)
    assert code == 3
    raised = "ConvergenceFailure: no dilation"
    _failed(rows, {"cz-recovery": raised, "cnz-family": raised})


def test_other_exceptions_are_bugs_that_propagate(monkeypatch):
    monkeypatch.setattr(herald, "synthesize_herald", _raise(TypeError("a bug in the suite")))
    with pytest.raises(TypeError, match="a bug in the suite"):
        selftest.run_all()
