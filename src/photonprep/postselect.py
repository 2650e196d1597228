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
from .linalg import TakagiFactorization, _above_rank_tol, numerical_rank, takagi, unitary_extension
from .states import QuditTarget, TwoPhotonState, normalize, state_rank
from .tolerances import MODE_MAP_TOL
from .verify import SynthesisResult


def feasible_postselect(state_in: TwoPhotonState, target: QuditTarget) -> bool:
    """Rank rule: the target is reachable iff rank(C) <= rank(S_in)."""
    return numerical_rank(target.C) <= state_rank(state_in)


def build_sps(target: QuditTarget) -> tuple[TwoPhotonState, TakagiFactorization]:
    """Intermediate state with C off-diagonal and rank equal to rank(C),
    together with its Takagi factorization.

    With the SVD C = V1 Sigma V2^† over the first p = min(d1, d2) columns,
    W = [V1; conj(V2)] / sqrt(2) has orthonormal columns, and

        S = W diag(2 sigma) W^T = [[V1 Sigma V1^T, C], [C^T, conj(V2) Sigma V2^†]]

    is symmetric with no rank beyond C's. Its Takagi vectors are conj(W),
    completed to a unitary by conj of [V1; -conj(V2)] / sqrt(2) and of the
    remaining columns of V1 and of conj(V2), each padded with zeros; the
    completion columns get diagonal 0. No second factorization is needed.
    """
    d1, d2 = target.d1, target.d2
    v1, sigma, v2h = np.linalg.svd(target.C)
    v2c = v2h.T  # conj(V2)
    p = len(sigma)
    Q = np.zeros((d1 + d2, d1 + d2), dtype=complex)
    Q[:d1, :p] = Q[:d1, p : 2 * p] = v1[:, :p] / np.sqrt(2.0)
    Q[d1:, :p] = v2c[:, :p] / np.sqrt(2.0)
    Q[d1:, p : 2 * p] = -Q[d1:, :p]
    Q[:d1, 2 * p : d1 + p] = v1[:, p:]
    Q[d1:, d1 + p :] = v2c[:, p:]
    W = Q[:, :p]
    state = normalize((W * (2.0 * sigma)) @ W.T)
    # normalize divides by sqrt(2 ||S||_F^2) = sqrt(8 sum sigma^2)
    diagonal = np.zeros(d1 + d2)
    diagonal[:p] = sigma / np.sqrt(2.0 * np.sum(sigma**2))
    return state, TakagiFactorization(V=Q.conj(), diagonal=diagonal)


def _padded(factor: TakagiFactorization, modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Takagi vectors and diagonal of the same matrix zero-padded to `modes`."""
    m = len(factor.diagonal)
    V = np.eye(modes, dtype=complex)
    V[:m, :m] = factor.V
    diagonal = np.zeros(modes)
    diagonal[:m] = factor.diagonal
    return V, diagonal


def rescaling_lambda(d_in: np.ndarray, d_ps: np.ndarray) -> np.ndarray:
    """Entrywise diagonal rescaling lam with d_ps = lam * d_in * lam.

    Both diagonals must be sorted descending; the target support must sit
    inside the source support, otherwise no rescaling exists.
    """
    d_in = np.asarray(d_in, dtype=float)
    d_ps = np.asarray(d_ps, dtype=float)
    if d_in.shape != d_ps.shape:
        raise ValueError("diagonals must have equal length")
    kept = _above_rank_tol(d_in)
    lost = _above_rank_tol(d_ps) & ~kept
    if lost.any():
        raise SupportMismatch(
            f"target diagonal entry {np.argmax(lost)} has weight but the source does not"
        )
    lam = np.zeros_like(d_in)
    lam[kept] = np.sqrt(d_ps[kept] / d_in[kept])
    return lam


def synthesize_postselect(state_in: TwoPhotonState, target: QuditTarget) -> SynthesisResult:
    """Construct a unitary preparing the target C from the input state.

    Returns a circuit over 2 * max(m, d1 + d2) modes whose post-selected
    computational block is proportional to C, verified through the
    independent oracle. Raises InfeasibleRank when the rank rule forbids
    the preparation.
    """
    # one Takagi factorization of S_in gives both its rank and the rescaling
    fac_in = takagi(state_in.S)
    rank_in = int(np.count_nonzero(_above_rank_tol(fac_in.diagonal)))
    rank_c = numerical_rank(target.C)
    if rank_c > rank_in:
        raise InfeasibleRank(f"rank(C) = {rank_c} exceeds rank(S_in) = {rank_in}")
    d1, d2 = target.d1, target.d2
    s_ps, fac_ps = build_sps(target)
    m_in, m_ps = state_in.modes, s_ps.modes
    dim = max(m_in, m_ps)
    v_in, d_in = _padded(fac_in, dim)
    v_ps, d_ps = _padded(fac_ps, dim)
    lam = rescaling_lambda(d_in, d_ps)

    # M S_in M^T = S_ps with M = conj(V_ps) diag(lam) V_in^T, matching the
    # evolution convention S -> U S U^T
    M = (v_ps.conj() * lam) @ v_in.T
    s_ps_p = np.zeros((dim, dim), dtype=complex)
    s_ps_p[:m_ps, :m_ps] = s_ps.S
    # the padded input modes carry no amplitude, so only M's first m_in columns act
    residual = np.linalg.norm(M[:, :m_in] @ state_in.S @ M[:, :m_in].T - s_ps_p)
    if residual > MODE_MAP_TOL:
        raise VerificationFailure(
            f"rescaled mode map misses the intermediate state by {residual:.3e}"
        )

    # M is already factored: V_ps and V_in are unitary, lam its singular values
    ext = unitary_extension(v_ps.conj(), lam, v_in.T)
    U = ext.U

    report = verify.extract_postselected(U, state_in, d1, d2, target=target.C)
    if not report.verified:
        raise VerificationFailure(f"oracle fidelity {report.fidelity_vs_target} below tolerance")
    if not report.probability > 0.0:
        raise VerificationFailure("vanishing success probability on a feasible target")

    return SynthesisResult(
        unitary=U,
        aux_modes=ext.N - (d1 + d2),
        scale_alpha=1.0 / ext.sigma1,
        success_probability=report.probability,
        herald=None,
        report=report,
    )
