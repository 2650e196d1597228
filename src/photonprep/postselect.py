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
from .exceptions import InfeasibleRank
from .linalg import TakagiFactorization, _bipartite_takagi, takagi, unitary_extension
from .states import QuditTarget, TwoPhotonState, normalize, state_rank


def feasible_postselect(state_in: TwoPhotonState, target: QuditTarget) -> bool:
    """Rank rule: the target is reachable iff rank(C) <= rank(S_in), each
    read off the Takagi factors that synthesize_postselect starts from."""
    return build_sps(target)[1].rank <= state_rank(state_in)


def build_sps(target: QuditTarget) -> tuple[TwoPhotonState, TakagiFactorization]:
    """Intermediate state with C off-diagonal and rank equal to rank(C),
    together with its Takagi factorization.

    The closed-form Takagi factors of [[0, C], [C^T, 0]] (see
    linalg._bipartite_takagi) give each singular value sigma_i of
    C = V1 Sigma V2^† twice, with vectors conj(w_i) and conj(w'_i), where
    w_i = [V1 e_i; conj(V2) e_i] / sqrt(2) and
    w'_i = i [V1 e_i; -conj(V2) e_i] / sqrt(2). Over the first
    p = min(d1, d2) columns, W = [V1; conj(V2)] / sqrt(2) has orthonormal
    columns, and

        S = W diag(2 sigma) W^T = [[V1 Sigma V1^T, C], [C^T, conj(V2) Sigma V2^†]]

    is symmetric with no rank beyond C's. Its Takagi vectors are conj(W),
    completed to a unitary by the other vectors of those factors, each with
    diagonal 0. No second factorization is needed, and the diagonal,
    sigma / sqrt(2 sum sigma^2), has the rank of C. Singular values at or
    below takagi's rounding cut TAKAGI_CUT (d1 + d2) sigma_1 are 0 there, as
    takagi sets them, so the diagonal is exactly 0 beyond the directions C
    carries.
    """
    d1, d2 = target.d1, target.d2
    pairs = _bipartite_takagi(target.C)
    p = min(d1, d2)
    # the w_i first, then the w'_i and the completion
    V = np.concatenate([pairs.V[:, : 2 * p : 2], pairs.V[:, 1 : 2 * p : 2], pairs.V[:, 2 * p :]], axis=1)
    sigma = pairs.diagonal[: 2 * p : 2]
    W = V[:, :p].conj()
    state = normalize((W * (2.0 * sigma)) @ W.T)
    # normalize divides by sqrt(2 ||S||_F^2) = sqrt(8 sum sigma^2)
    diagonal = np.zeros(d1 + d2)
    diagonal[:p] = sigma / np.sqrt(2.0 * np.sum(sigma**2))
    return state, TakagiFactorization(V=V, diagonal=diagonal)


def synthesize_postselect(state_in: TwoPhotonState, target: QuditTarget) -> verify.SynthesisResult:
    """Construct a unitary preparing the target C from the input state.

    Returns a circuit over m_in + d1 + d2 modes whose post-selected
    computational block is proportional to C. Raises InfeasibleRank when
    the rank rule forbids the preparation, stating the fidelity ceiling
    sqrt(sum_{i<=r} sigma_i^2 / sum sigma_i^2) of a rank-r block with C,
    r = rank(S_in), read off build_sps's diagonal. The rescaled mode map is
    not gated on its own: the verdict is the independent oracle's,
    extract_postselected on U, through verify._verified_result
    (VerificationFailure unless it verifies with p > 0).
    """
    # the Takagi factors of S_in and S_ps give both ranks and the rescaling
    fac_in = takagi(state_in.S)
    _, fac_ps = build_sps(target)
    rank_in, rank_c = fac_in.rank, fac_ps.rank
    if rank_c > rank_in:
        d = fac_ps.diagonal
        ceiling = np.sqrt(np.sum(d[:rank_in] ** 2) / np.sum(d**2))
        raise InfeasibleRank(
            f"rank(C) = {rank_c} exceeds rank(S_in) = {rank_in}; "
            f"the fidelity ceiling at rank {rank_in} is {ceiling:.15g}"
        )
    d1, d2 = target.d1, target.d2

    # both diagonals descend and rank(C) <= rank_in, so the first k values
    # pair every nonzero weight of S_ps with one of S_in: d_ps = lam * d_in * lam
    k = min(rank_in, int(np.count_nonzero(fac_ps.diagonal)))
    lam = np.sqrt(fac_ps.diagonal[:k] / fac_in.diagonal[:k])

    # the m_ps x m_in mode map M = conj(V_ps) diag(lam) V_in^T gives
    # M S_in M^T = S_ps in the evolution convention S -> U S U^T; its reduced
    # SVD is lam, its k nonzero singular values, and k columns of V_ps and V_in
    a, bh = fac_ps.V[:, :k].conj(), fac_in.V[:, :k].T
    sigma1 = lam.max()
    U = unitary_extension(a, lam / sigma1, bh)
    report = verify.extract_postselected(U, state_in, d1, d2, target=target.C)
    return verify._verified_result(U, 1.0 / sigma1, report, d1 + d2, None)
