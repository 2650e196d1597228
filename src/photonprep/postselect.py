"""Post-selected two-qudit state preparation.

Feasibility: a two-qudit target C is reachable from an input two-photon
state exactly when rank(C) <= rank(S_in). The constructive route builds a
rank-matched intermediate state S_ps carrying C as its off-diagonal block,
connects the Takagi diagonals of input and intermediate by an entrywise
rescaling, and embeds the resulting (generally non-unitary) mode map in a
larger unitary. Every construction is checked by the Fock oracle before it
is returned.
"""

from __future__ import annotations

import numpy as np

from . import verify
from .exceptions import InfeasibleRank, SupportMismatch, VerificationFailure
from .linalg import RANK_TOL, numerical_rank, takagi, unitary_extension
from .result import SynthesisResult
from .states import QuditTarget, TwoPhotonState, normalize, state_rank


def feasible_postselect(
    state_in: TwoPhotonState, target: QuditTarget, tol: float = RANK_TOL
) -> bool:
    """Rank rule: the target is reachable iff rank(C) <= rank(S_in)."""
    return numerical_rank(target.C, tol) <= state_rank(state_in, tol)


def build_sps(target: QuditTarget) -> TwoPhotonState:
    """Intermediate state with C off-diagonal and rank equal to rank(C).

    With the SVD C = V1 Sigma V2^†, the diagonal blocks
    A = V1 Sigma_sq V1^T and B = conj(V2) Sigma_sq V2^† make the full block
    matrix [[A, C], [C^T, B]] symmetric with no rank beyond C's.
    """
    d1, d2 = target.d1, target.d2
    v1, sigma, v2 = np.linalg.svd(target.C)
    v2 = v2.conj().T
    r = len(sigma)
    sq1 = np.zeros((d1, d1))
    sq2 = np.zeros((d2, d2))
    sq1[:r, :r] = np.diag(sigma)
    sq2[:r, :r] = np.diag(sigma)
    A = v1 @ sq1 @ v1.T
    B = v2.conj() @ sq2 @ v2.conj().T
    S = np.block([[A, target.C], [target.C.T, B]])
    return normalize(S)


def rescaling_lambda(
    d_in: np.ndarray, d_ps: np.ndarray, tol: float = RANK_TOL
) -> np.ndarray:
    """Entrywise diagonal rescaling lam with d_ps = lam * d_in * lam.

    Both diagonals must be sorted descending; the target support must sit
    inside the source support, otherwise no rescaling exists.
    """
    d_in = np.asarray(d_in, dtype=float)
    d_ps = np.asarray(d_ps, dtype=float)
    if d_in.shape != d_ps.shape:
        raise ValueError("diagonals must have equal length")
    scale_in = d_in[0] if d_in.size and d_in[0] > 0 else 1.0
    scale_ps = d_ps[0] if d_ps.size and d_ps[0] > 0 else 1.0
    lam = np.zeros_like(d_in)
    for i in range(len(d_in)):
        if d_in[i] > tol * scale_in:
            lam[i] = np.sqrt(d_ps[i] / d_in[i])
        elif d_ps[i] > tol * scale_ps:
            raise SupportMismatch(
                f"target diagonal entry {i} has weight but the source does not"
            )
    return lam


def synthesize_postselect(
    state_in: TwoPhotonState, target: QuditTarget, tol: float = RANK_TOL
) -> SynthesisResult:
    """Construct a unitary preparing the target C from the input state.

    Returns a circuit over 2 * max(m, d1 + d2) modes whose post-selected
    computational block is proportional to C, verified through the
    independent oracle. Raises InfeasibleRank when the rank rule forbids
    the preparation.
    """
    if not feasible_postselect(state_in, target, tol):
        raise InfeasibleRank(
            f"rank(C) = {numerical_rank(target.C, tol)} exceeds "
            f"rank(S_in) = {state_rank(state_in, tol)}"
        )
    d1, d2 = target.d1, target.d2
    s_ps = build_sps(target)
    dim = max(state_in.modes, s_ps.modes)
    s_in_p = state_in.padded(dim)
    s_ps_p = s_ps.padded(dim)

    fac_in = takagi(s_in_p.S)
    fac_ps = takagi(s_ps_p.S)
    lam = rescaling_lambda(fac_in.diagonal, fac_ps.diagonal, tol)

    # M S_in M^T = S_ps with M = conj(V_ps) diag(lam) V_in^T, matching the
    # evolution convention S -> U S U^T
    M = fac_ps.V.conj() @ np.diag(lam) @ fac_in.V.T
    residual = np.linalg.norm(M @ s_in_p.S @ M.T - s_ps_p.S)
    if residual > 1e-8:
        raise VerificationFailure(
            f"rescaled mode map misses the intermediate state by {residual:.3e}"
        )

    ext = unitary_extension(M)
    U = ext.U

    report = verify.extract_postselected(U, s_in_p, d1, d2, target=target.C)
    if not report.fidelity_vs_target > 1.0 - verify.VERIFY_TOL:
        raise VerificationFailure(
            f"oracle fidelity {report.fidelity_vs_target} below tolerance"
        )
    if not report.probability > 0.0:
        raise VerificationFailure("vanishing success probability on a feasible target")

    # off-diagonal block of U^T S~_in U equals alpha * C
    alpha = float(np.linalg.norm(report.extracted) / 2.0)
    return SynthesisResult(
        unitary=U,
        aux_modes=ext.N - (d1 + d2),
        scale_alpha=alpha,
        success_probability=report.probability,
        herald=None,
        details={
            "intermediate_state": s_ps_p.S,
            "rescaling": lam,
            "mode_map": M,
            "sigma1": ext.sigma1,
            "input_modes": state_in.modes,
            "oracle_report": report,
        },
    )
