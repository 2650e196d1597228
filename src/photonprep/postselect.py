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
from .exceptions import InfeasibleRank, VerificationFailure
from .linalg import TakagiFactorization, checked_svd, takagi, unitary_extension
from .states import QuditTarget, TwoPhotonState, normalize, state_rank
from .tolerances import MODE_MAP_TOL, TAKAGI_CUT


def feasible_postselect(state_in: TwoPhotonState, target: QuditTarget) -> bool:
    """Rank rule: the target is reachable iff rank(C) <= rank(S_in), each
    read off the Takagi factors that synthesize_postselect starts from."""
    return build_sps(target)[1].rank <= state_rank(state_in)


def build_sps(target: QuditTarget) -> tuple[TwoPhotonState, TakagiFactorization]:
    """Intermediate state with C off-diagonal and rank equal to rank(C),
    together with its Takagi factorization.

    With the SVD C = V1 Sigma V2^† over the first p = min(d1, d2) columns,
    W = [V1; conj(V2)] / sqrt(2) has orthonormal columns, and

        S = W diag(2 sigma) W^T = [[V1 Sigma V1^T, C], [C^T, conj(V2) Sigma V2^†]]

    is symmetric with no rank beyond C's. Its Takagi vectors are conj(W),
    completed to a unitary by conj of [V1; -conj(V2)] / sqrt(2) and of the
    remaining columns of V1 and of conj(V2), each padded with zeros; the
    completion columns get diagonal 0. No second factorization is needed,
    and the diagonal, sigma / sqrt(2 sum sigma^2), has the rank of C.
    Singular values at or below takagi's rounding cut TAKAGI_CUT (d1 + d2)
    sigma_1 are set to 0, as takagi sets them, so the diagonal is exactly 0
    beyond the directions C carries.
    """
    d1, d2 = target.d1, target.d2
    v1, sigma, v2h = checked_svd(target.C)
    sigma = np.where(sigma > TAKAGI_CUT * (d1 + d2) * sigma[0], sigma, 0.0)
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


def _mode_map_residual(
    a: np.ndarray, lam: np.ndarray, bh: np.ndarray, state_in: TwoPhotonState, s_ps: TwoPhotonState
) -> float:
    """||M S_in M^T - S_ps||_F for the mode map M = (a * lam) @ bh, a (m_ps x k),
    lam (k) and bh (k x m_in), without forming M: with Y = a diag(lam),
    M S_in M^T = Y Z Y^T for the k x k matrix Z = bh S_in bh^T."""
    Y = a * lam
    Z = bh @ state_in.S @ bh.T
    return float(np.linalg.norm(Y @ Z @ Y.T - s_ps.S))


def synthesize_postselect(state_in: TwoPhotonState, target: QuditTarget) -> verify.SynthesisResult:
    """Construct a unitary preparing the target C from the input state.

    Returns a circuit over m_in + d1 + d2 modes whose post-selected
    computational block is proportional to C, verified through the
    independent oracle. Raises InfeasibleRank when the rank rule forbids
    the preparation.
    """
    # the Takagi factors of S_in and S_ps give both ranks and the rescaling
    fac_in = takagi(state_in.S)
    s_ps, fac_ps = build_sps(target)
    rank_in, rank_c = fac_in.rank, fac_ps.rank
    if rank_c > rank_in:
        raise InfeasibleRank(f"rank(C) = {rank_c} exceeds rank(S_in) = {rank_in}")
    d1, d2 = target.d1, target.d2

    # both diagonals descend and rank(C) <= rank_in, so the first k values
    # pair every nonzero weight of S_ps with one of S_in: d_ps = lam * d_in * lam
    k = min(rank_in, int(np.count_nonzero(fac_ps.diagonal)))
    lam = np.sqrt(fac_ps.diagonal[:k] / fac_in.diagonal[:k])

    # the m_ps x m_in mode map M = conj(V_ps) diag(lam) V_in^T gives
    # M S_in M^T = S_ps in the evolution convention S -> U S U^T; its reduced
    # SVD is lam, its k nonzero singular values, and k columns of V_ps and V_in
    a, bh = fac_ps.V[:, :k].conj(), fac_in.V[:, :k].T
    residual = _mode_map_residual(a, lam, bh, state_in, s_ps)
    if not residual <= MODE_MAP_TOL:
        raise VerificationFailure(
            f"rescaled mode map misses the intermediate state by {residual:.3e}"
        )
    sigma1 = lam.max()
    U = unitary_extension(a, lam / sigma1, bh)
    report = verify.extract_postselected(U, state_in, d1, d2, target=target.C)
    return verify._verified_result(U, 1.0 / sigma1, report, d1 + d2, None)
