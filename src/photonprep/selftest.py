"""Acceptance suite: every headline claim as one reproducible check.

Each criterion returns (name, passed, detail). ``run_all`` drives them in
order; the CLI ``selftest`` subcommand and the pytest acceptance module
both call into here so there is a single source of truth.
"""

from __future__ import annotations

import math

import numpy as np

from . import fock, gates, herald, linalg, postselect
from .exceptions import InfeasibleRank
from .random_states import (
    random_complex_symmetric,
    random_state_of_rank,
    random_target_of_rank,
    random_unitary,
)
from .states import TwoPhotonState, normalize, state_rank
from .tolerances import IDENTITY_TOL
from .verify import SynthesisResult

DEFAULT_SEED = 20240901


def criterion_cz_recovery(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """n = 2, phi = pi recovers the known post-selected CZ at p_s = 1/9.

    Deterministic; ``seed`` is accepted so every criterion shares one signature.
    """
    result, spec = gates.build_cnz(2, np.pi)
    ok_p = abs(spec.p_s - 1.0 / 9.0) < 1e-9
    ok_v = gates.verify_cnz(result, 2, np.pi)
    return ok_p and ok_v, f"p_s={spec.p_s:.12f} verified={ok_v}"


def criterion_cnz_family(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """n in {3,4}, several phases: oracle check, p_s formula, root invariance.

    Deterministic; ``seed`` is accepted so every criterion shares one signature.
    """
    failures = []
    for n in (3, 4):
        for phi in (np.pi / 4, np.pi / 2, np.pi):
            result, spec = gates.build_cnz(n, phi)
            if not gates.verify_cnz(result, n, phi):
                failures.append(f"verify n={n} phi={phi:.3f}")
            if abs(spec.p_s - gates.cnz_success_probability(n, phi)) > 1e-10:
                failures.append(f"p_s n={n} phi={phi:.3f}")
            # p_s must not depend on which n-th root is chosen
            base = gates.cnz_alpha(n, phi)
            probs = []
            for k in range(n):
                alpha_k = base * np.exp(2j * np.pi * k / n)
                probs.append(gates._sigma_max(n, alpha_k) ** (-2 * n))
            if max(probs) - min(probs) > 1e-12:
                failures.append(f"roots n={n} phi={phi:.3f}")
    return not failures, "; ".join(failures) or "all gates verified"


def criterion_theorem1_iff(seed: int = DEFAULT_SEED, trials: int = 200) -> tuple[bool, str]:
    """Post-selected synthesis succeeds exactly when rank(C) <= rank(S_in)."""
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(trials):
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
        if not feasible:
            failures.append(f"trial {trial}: infeasible case accepted")
            continue
        if not result.report.verified:
            failures.append(f"trial {trial}: fidelity {result.report.fidelity_vs_target}")
        if not result.success_probability > 0.0:
            failures.append(f"trial {trial}: p_s = 0")
    return not failures, "; ".join(failures[:5]) or f"{trials} trials consistent"


def criterion_theorem2_iff(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Heralded synthesis succeeds at n = rank and fails at n = rank - 1."""
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

    for idx, (state, rank) in enumerate(cases):
        try:
            result = herald.synthesize_herald(state, rank)
        except InfeasibleRank:
            failures.append(f"case {idx}: feasible case rejected")
            continue
        if not result.report.verified:
            failures.append(f"case {idx}: fidelity {result.report.fidelity_vs_target}")
        if rank == 4 and result.herald.signal != (2,):
            failures.append(f"case {idx}: unexpected signal {result.herald.signal}")
        if rank > 2:
            try:
                herald.synthesize_herald(state, rank - 1)
                failures.append(f"case {idx}: n = rank - 1 accepted")
            except InfeasibleRank:
                pass
    return not failures, "; ".join(failures[:5]) or f"{len(cases)} cases consistent"


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
    tol = IDENTITY_TOL
    margin = f"{tol / worst:.1e}x" if worst > 0 else "exact"
    return worst <= tol, f"max relative identity error {worst:.3e} <= {tol:.0e} (margin {margin})"


def criterion_linalg(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Takagi reconstruction and unitary-extension contracts at scale."""
    rng = np.random.default_rng(seed + 3)
    failures = []
    for trial in range(500):
        m = int(rng.integers(1, 9))
        S = random_complex_symmetric(rng, m)
        fac = linalg.takagi(S)
        if np.linalg.norm(fac.V.T @ (S + S.T) / 2.0 @ fac.V - fac.D) > 1e-9:
            failures.append(f"takagi reconstruction, trial {trial}")
        if np.linalg.norm(fac.V.conj().T @ fac.V - np.eye(m)) > 1e-10:
            failures.append(f"takagi unitarity, trial {trial}")
        if np.any(fac.diagonal < -1e-12):
            failures.append(f"takagi negativity, trial {trial}")
    for trial in range(200):
        m1 = int(rng.integers(1, 7))
        m2 = int(rng.integers(1, 7))
        A = rng.standard_normal((m1, m2)) + 1j * rng.standard_normal((m1, m2))
        v1, s, v2h = np.linalg.svd(A)
        U = linalg.unitary_extension(v1, s / s[0], v2h)
        if np.linalg.norm(U.conj().T @ U - np.eye(len(U))) > 1e-10:
            failures.append(f"extension unitarity, trial {trial}")
        if np.linalg.norm(U[:m1, :m2] - A / s[0]) > 1e-10:
            failures.append(f"extension block, trial {trial}")
        if len(U) > m1 + m2:
            failures.append(f"extension size, trial {trial}")
    return not failures, "; ".join(failures[:5]) or "700 factorizations clean"


def criterion_fock_oracle(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Fast permanent vs naive oracle, HOM suppression, probability sums."""
    rng = np.random.default_rng(seed + 4)
    failures = []
    for trial in range(100):
        n = int(rng.integers(1, 7))
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        fast = fock.permanent(M)
        slow = fock.permanent_naive(M)
        if abs(fast - slow) > 1e-9 * max(1.0, abs(slow)):
            failures.append(f"permanent mismatch, trial {trial}")
    splitter = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    hom = fock.amplitude(splitter, (1, 1), (1, 1))
    if abs(hom) > 1e-12:
        failures.append(f"HOM amplitude {abs(hom):.3e}")
    for m in (2, 3, 4):
        U = random_unitary(rng, m)
        ell = tuple([1, 1] + [0] * (m - 2))
        total = sum(
            abs(fock.amplitude(U, k, ell)) ** 2 for k in fock.occupation_basis(m, 2)
        )
        if abs(total - 1.0) > 1e-9:
            failures.append(f"probability sum m={m}: {total}")
    return not failures, "; ".join(failures[:5]) or "oracle consistent"


def criterion_invariance(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Rank and normalization survive random unitary conjugation."""
    rng = np.random.default_rng(seed + 5)
    failures = []
    states = [
        random_state_of_rank(rng, 4, 2),
        random_state_of_rank(rng, 5, 3),
        random_state_of_rank(rng, 6, 4),
    ]
    for s_idx, state in enumerate(states):
        rank = state_rank(state)
        for trial in range(100):
            U = random_unitary(rng, state.modes)
            evolved = fock.evolve_two_photon(U, state.S)
            weight = 2.0 * np.trace(evolved.conj().T @ evolved).real
            if abs(weight - 1.0) > 1e-9:
                failures.append(f"state {s_idx} trial {trial}: norm {weight}")
            elif state_rank(TwoPhotonState(evolved)) != rank:
                failures.append(f"state {s_idx} trial {trial}: rank drift")
    return not failures, "; ".join(failures[:5]) or "300 conjugations invariant"


CRITERIA = [
    ("cz-recovery", criterion_cz_recovery),
    ("cnz-family", criterion_cnz_family),
    ("theorem1-iff", criterion_theorem1_iff),
    ("theorem2-iff", criterion_theorem2_iff),
    ("proof-identity", criterion_proof_identity),
    ("linalg-suite", criterion_linalg),
    ("fock-oracle", criterion_fock_oracle),
    ("invariance-suite", criterion_invariance),
]


def run_all(seed: int = DEFAULT_SEED) -> list[tuple[str, bool, str]]:
    rows = []
    for name, func in CRITERIA:
        passed, detail = func(seed)
        rows.append((name, passed, detail))
    return rows
