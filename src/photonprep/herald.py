"""Heralded two-photon state preparation from n single photons.

Feasibility: a target state S can be heralded from n single photons exactly
when n >= rank(S). The construction works on the Takagi diagonal of the
target, diagonalizes the permanent bilinear form fixed by the herald rows,
scales its basis vectors by the target weights, conjugates back, and embeds
the scaled rows in a unitary. The key permanent identity is asserted
pre-embedding and the final circuit is checked by the Fock oracle.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import fock, verify
from .exceptions import (
    InfeasibleRank,
    MultiplicityMismatch,
    VerificationFailure,
)
from .linalg import RANK_TOL, numerical_rank, takagi, unitary_extension
from .result import HeraldPattern, SynthesisResult
from .states import TwoPhotonState, state_rank

IDENTITY_TOL = 1e-9

# herald rows are (vector in C^n, photon multiplicity) pairs, one per herald mode
HeraldRows = list[tuple[np.ndarray, int]]


def feasible_herald(state_out: TwoPhotonState, n: int, tol: float = RANK_TOL) -> bool:
    """Rank rule: n single photons suffice iff n >= rank(S_out)."""
    if n < 2:
        raise ValueError("at least two photons are required")
    return n >= state_rank(state_out, tol)


def default_herald_rows(n: int) -> HeraldRows:
    """Minimal witness: no heralds for n = 2, else one mode absorbing n - 2
    photons through the flat row (1,...,1)/sqrt(n-2)."""
    if n == 2:
        return []
    return [(np.full(n, 1.0 / math.sqrt(n - 2), dtype=complex), n - 2)]


def _expanded_herald_rows(herald_rows: HeraldRows, n: int) -> np.ndarray:
    """The (n - 2) x n herald matrix H: each row repeated by its multiplicity."""
    rows = []
    for vec, mult in herald_rows:
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (n,):
            raise MultiplicityMismatch(f"herald row has shape {vec.shape}, expected ({n},)")
        if mult < 0:
            raise MultiplicityMismatch(f"herald multiplicity {mult} is negative")
        rows.extend([vec] * int(mult))
    if len(rows) != n - 2:
        raise MultiplicityMismatch(
            f"herald multiplicities sum to {len(rows)}, expected {n - 2}"
        )
    return np.array(rows, dtype=complex).reshape(n - 2, n)


def herald_bilinear_matrix(herald_rows: HeraldRows, n: int) -> np.ndarray:
    """Matrix F of the bilinear form (x, y) -> Per(x, y, herald rows).

    Laplace expansion along the two unit-vector rows e_a, e_b gives
    F_ab = Per(H without columns a and b) for a != b, and F_aa = 0 since no
    permutation picks column a twice; H is the (n - 2) x n herald matrix.
    That is n(n-1)/2 permanents of size n - 2.
    """
    H = _expanded_herald_rows(herald_rows, n)
    F = np.zeros((n, n), dtype=complex)
    for a, b in itertools.combinations(range(n), 2):
        F[a, b] = F[b, a] = fock.permanent(np.delete(H, (a, b), axis=1))
    return F


def synthesize_herald(
    state_out: TwoPhotonState,
    n: int,
    herald_rows: HeraldRows | None = None,
    tol: float = RANK_TOL,
) -> SynthesisResult:
    """Construct a heralded circuit preparing the target from n single photons.

    The returned unitary acts on m payload + h herald + n auxiliary modes,
    with the photons entering the first n modes. Raises InfeasibleRank when
    n < rank(S_out).
    """
    if n < 2:
        raise ValueError("at least two photons are required")
    rank = state_rank(state_out, tol)
    if n < rank:
        raise InfeasibleRank(f"{n} photons cannot prepare a rank-{rank} state")

    user_rows = herald_rows is not None
    if user_rows:
        herald_rows = [(np.asarray(v, dtype=complex), int(s)) for v, s in herald_rows]
    else:
        herald_rows = default_herald_rows(n)
    F = herald_bilinear_matrix(herald_rows, n)
    if user_rows and numerical_rank(F, tol) < n:
        # the theorem guarantees the flat witness works; degenerate user
        # choices fall back to it
        herald_rows = default_herald_rows(n)
        F = herald_bilinear_matrix(herald_rows, n)
    herald = _expanded_herald_rows(herald_rows, n)
    signal = tuple(int(s) for _, s in herald_rows)
    h = len(signal)
    m = state_out.modes

    fac_f = takagi(F)
    if numerical_rank(np.diag(fac_f.diagonal), tol) < n:
        raise VerificationFailure("herald bilinear form lost rank unexpectedly")

    fac_out = takagi(state_out.S)
    d = fac_out.diagonal
    signal_fact = math.prod(math.factorial(s) for s in signal)

    # rows diagonalizing the permanent form, scaled to the target weights:
    # Per(row_i, row_j, herald) = sqrt(2 * s!) * d_i * delta_ij
    diag_rows = np.zeros((m, n), dtype=complex)
    for i in range(rank):
        diag_rows[i] = (
            np.sqrt(np.sqrt(2.0 * signal_fact) * d[i] / fac_f.diagonal[i])
            * fac_f.V[:, i]
        )

    # rows at and above the rank are zero, so only pairs below it are checked
    identity_error = 0.0
    for i in range(rank):
        for j in range(i, rank):
            per = fock.permanent(np.vstack([diag_rows[i], diag_rows[j], herald]))
            expect = np.sqrt(2.0 * signal_fact) * d[i] if i == j else 0.0
            identity_error = max(identity_error, abs(per - expect))
    if identity_error > IDENTITY_TOL:
        raise VerificationFailure(
            f"permanent identity violated pre-embedding by {identity_error:.3e}"
        )

    # conjugate back from the diagonal state to S_out, then stack herald rows
    payload_rows = fac_out.V.conj() @ diag_rows
    A = np.vstack([payload_rows] + [vec for vec, _ in herald_rows]) if h else payload_rows
    ext = unitary_extension(A)
    U = ext.U
    pattern = HeraldPattern(signal=signal)

    report = verify.extract_heralded(U, n, pattern, m, target=state_out.S)
    if not report.fidelity_vs_target > 1.0 - verify.VERIFY_TOL:
        raise VerificationFailure(
            f"oracle fidelity {report.fidelity_vs_target} below tolerance"
        )
    if not report.probability > 0.0:
        raise VerificationFailure("vanishing herald probability on a feasible target")

    return SynthesisResult(
        unitary=U,
        aux_modes=ext.N - m - h,
        scale_alpha=1.0 / ext.sigma1,
        success_probability=report.probability,
        herald=pattern,
        details={
            "diagonal_rows": diag_rows,
            "herald_rows": herald_rows,
            "payload_rows": payload_rows,
            "takagi_diagonal": d,
            "bilinear_matrix": F,
            "identity_error": identity_error,
            "payload_modes": m,
            "photons": n,
            "oracle_report": report,
        },
    )
