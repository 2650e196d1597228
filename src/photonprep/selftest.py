"""Acceptance suite: the paper's claims, each as one reproducible check.

The five criteria score the C^{n-1}Z construction (the CZ anchor at p = 1/9
and the family for n = 3, 4), both rank rules, each in both directions, and
heralding's permanent identity. Every gate is read from
:mod:`photonprep.tolerances`, and each criterion that reads one reports its
margin. Each criterion returns (passed, detail); ``run_all`` drives them in
order. The CLI ``selftest`` subcommand and the pytest acceptance module both
call into here, so there is a single source of truth.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import fock, gates, herald, postselect
from .exceptions import InfeasibleRank, VerificationFailure
from .random_states import random_state_of_rank, random_target_of_rank
from .states import normalize
from .tolerances import IDENTITY_TOL, VERIFY_TOL
from .verify import SynthesisResult

DEFAULT_SEED = 20240901
# random (input, target) pairs criterion_theorem1_iff tries
THEOREM1_TRIALS = 200


def _within(label: str, worst: float, tol: float) -> str:
    """``worst`` against its gate ``tol``, with the margin tol / worst."""
    margin = f"{tol / worst:.1e}x" if worst > 0 else "exact"
    return f"{label} {worst:.3e} <= {tol:.0e} (margin {margin})"


def criterion_cz_recovery(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """n = 2, phi = pi recovers the known post-selected CZ at p_s = 1/9: the
    circuit's truth table is the CZ with every diagonal amplitude 1/3, to
    CNZ_AMPLITUDE_TOL.

    Deterministic; ``seed`` is accepted so every criterion shares one signature.
    """
    result, spec = gates.build_cnz(2, np.pi)
    anchor = dataclasses.replace(result, success_probability=1.0 / 9.0)
    ok = gates.verify_cnz(anchor, 2, np.pi) and gates.verify_cnz(result, 2, np.pi)
    return ok, f"p_s={spec.p_s:.12f}, amplitudes 1/3 verified={ok}"


def criterion_cnz_family(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """n in {3, 4} at three phases: the oracle checks every gate.

    Deterministic; ``seed`` is accepted so every criterion shares one signature.
    """
    failures = []
    for n in (3, 4):
        for phi in (np.pi / 4, np.pi / 2, np.pi):
            result, _ = gates.build_cnz(n, phi)
            if not gates.verify_cnz(result, n, phi):
                failures.append(f"verify n={n} phi={phi:.3f}")
    return not failures, "; ".join(failures) or "6 gates verified"


def criterion_theorem1_iff(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Post-selected synthesis succeeds exactly when rank(C) <= rank(S_in).

    Every circuit returned passed the synthesizers' verdict (fidelity above
    1 - VERIFY_TOL, p > 0); VerificationFailure otherwise.
    """
    rng = np.random.default_rng(seed)
    failures = []
    worst = 0.0
    for trial in range(THEOREM1_TRIALS):
        d1 = int(rng.integers(1, 5))
        d2 = int(rng.integers(1, 5))
        m = int(rng.integers(2, 7))
        rank_in = int(rng.integers(1, min(m, 4) + 1))
        rank_c = int(rng.integers(1, min(d1, d2) + 1))
        state_in = random_state_of_rank(rng, m, rank_in)
        target = random_target_of_rank(rng, d1, d2, rank_c)
        feasible = rank_c <= rank_in
        try:
            result = postselect.synthesize_postselect(state_in, target)
        except InfeasibleRank:
            if feasible:
                failures.append(f"trial {trial}: feasible case rejected")
            continue
        except VerificationFailure as exc:
            failures.append(f"trial {trial}: {exc}")
            continue
        if not feasible:
            failures.append(f"trial {trial}: infeasible case accepted")
            continue
        worst = max(worst, 1.0 - result.report.fidelity_vs_target)
    detail = "; ".join(failures[:5]) or f"{THEOREM1_TRIALS} trials consistent"
    return not failures, f"{detail}; {_within('worst 1 - F', worst, VERIFY_TOL)}"


def criterion_theorem2_iff(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Heralded synthesis succeeds at n = rank and fails at n = rank - 1,
    with the same verdict as criterion_theorem1_iff."""
    rng = np.random.default_rng(seed + 1)
    failures = []
    cases = []
    for rank in (2, 3, 4):
        for _ in range(8):
            m = int(rng.integers(rank, 7))
            cases.append((random_state_of_rank(rng, m, rank), rank))
    # the qubit Bell pair: rank 4, herald signal (2)
    bell = normalize(np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex
    ))
    cases.append((bell, 4))

    worst = 0.0
    for idx, (state, rank) in enumerate(cases):
        try:
            result = herald.synthesize_herald(state, rank)
        except InfeasibleRank:
            failures.append(f"case {idx}: feasible case rejected")
            continue
        except VerificationFailure as exc:
            failures.append(f"case {idx}: {exc}")
            continue
        worst = max(worst, 1.0 - result.report.fidelity_vs_target)
        if rank == 4 and result.herald.signal != (2,):
            failures.append(f"case {idx}: unexpected signal {result.herald.signal}")
        if rank > 2:
            try:
                herald.synthesize_herald(state, rank - 1)
            except InfeasibleRank:
                continue
            except VerificationFailure:
                pass
            failures.append(f"case {idx}: n = rank - 1 not refused as infeasible")
    detail = "; ".join(failures[:5]) or f"{len(cases)} cases consistent"
    return not failures, f"{detail}; {_within('worst 1 - F', worst, VERIFY_TOL)}"


def _circuit_identity_error(result: SynthesisResult, S: np.ndarray) -> float:
    """Largest error of Per(A_a, A_b, H) = sqrt(2 s!) S_ab over payload pairs
    a <= b, relative to sqrt(2 s!) d_0 (d_0 the largest singular value of S),
    read off the returned circuit alone: A = U[:m + h, :n] / scale_alpha holds
    the m payload and h herald rows, and H repeats each herald row by its
    signal entry. The payload rows are a Takagi rotation of rows obeying
    Per(row_i, row_j, H) = sqrt(2 s!) d_i delta_ij, hence the identity for S.
    """
    signal = result.herald.signal
    m, n = S.shape[0], sum(signal) + 2
    A = result.unitary[: m + len(signal), :n] / result.scale_alpha
    H = np.repeat(A[m:], signal, axis=0)
    a, b = np.triu_indices(m)
    pairs = np.concatenate([A[a, None], A[b, None], np.broadcast_to(H, (len(a), n - 2, n))], axis=1)
    scale = math.sqrt(2.0 * math.prod(math.factorial(s) for s in signal))
    error = np.max(np.abs(fock.permanent(pairs) - scale * S[a, b]))
    return float(error / (scale * np.linalg.norm(S, 2)))


def criterion_proof_identity(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """The returned circuits obey Per(A_a, A_b, H) = sqrt(2 s!) S_ab, to
    IDENTITY_TOL relative to sqrt(2 s!) d_0; see _circuit_identity_error."""
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for rank in (2, 3, 4):
        for _ in range(6):
            m = int(rng.integers(rank, 7))
            state = random_state_of_rank(rng, m, rank)
            result = herald.synthesize_herald(state, rank)
            worst = max(worst, _circuit_identity_error(result, state.S))
    return worst <= IDENTITY_TOL, _within("max relative identity error", worst, IDENTITY_TOL)


CRITERIA = [
    ("cz-recovery", criterion_cz_recovery),
    ("cnz-family", criterion_cnz_family),
    ("theorem1-iff", criterion_theorem1_iff),
    ("theorem2-iff", criterion_theorem2_iff),
    ("proof-identity", criterion_proof_identity),
]


def run_all(seed: int = DEFAULT_SEED) -> list[tuple[str, bool, str]]:
    return [(name, *func(seed)) for name, func in CRITERIA]
