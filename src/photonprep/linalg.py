"""Dense complex linear algebra: Takagi factorization and rank, a checked SVD,
a unitary dilation that gates its own output.

All routines work on plain ``numpy`` arrays of dtype complex128. Diagonal
factors are always returned sorted in descending order so downstream
rescaling can align supports deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceFailure, NotSymmetric, VerificationFailure
from .tolerances import (
    DOCUMENT_UNITARITY_TOL, RANK_TOL, SYMMETRY_TOL, TAKAGI_CUT, TAKAGI_RECONSTRUCTION_TOL
)


@dataclass(frozen=True)
class TakagiFactorization:
    """Factorization ``V.T @ S @ V = diag(diagonal)`` of a complex symmetric S."""

    V: np.ndarray
    diagonal: np.ndarray  # real, nonnegative, descending

    @property
    def D(self) -> np.ndarray:
        return np.diag(self.diagonal).astype(complex)

    @property
    def rank(self) -> int:
        """The rank rule: diagonal entries (singular values of S) above
        ``RANK_TOL`` times the largest; 0 when none is positive."""
        largest = np.max(self.diagonal, initial=0.0)
        return int(np.count_nonzero(self.diagonal > RANK_TOL * largest))


def takagi(S: np.ndarray) -> TakagiFactorization:
    """Takagi (Autonne) factorization of a complex symmetric matrix.

    Every cut and gate reads one copy, S / peak symmetrized (see _peak_scaled).
    A copy that is bipartite, [[0, B], [B^T, 0]] for the first d1 that fits
    (see _bipartition), as every from_qudit_target state is, is factorized in
    closed form from the SVD of B (see _bipartite_takagi); any other copy
    from one SVD of the whole (see _svd_takagi). Both routes take every size,
    and both fall back to the whole real embedding (see _embedded_takagi), one
    eigh of size 2m, when checked_svd raises ConvergenceFailure. Values at or
    below the cut TAKAGI_CUT m sigma_1 are set to 0 and the diagonal is
    sorted descending; ||V^T S V - D||_F of the copy must lie within
    TAKAGI_RECONSTRUCTION_TOL sigma_1 on every route. The diagonal is
    multiplied by peak on return, and a sigma_1 that then overflows raises
    ConvergenceFailure. S and 2^k S share V.
    """
    S = np.asarray(S, dtype=complex)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    if S.size == 0:
        raise ValueError("empty matrix")
    scaled, peak = _peak_scaled(S)
    if not math.isfinite(peak):
        raise ValueError("matrix contains non-finite entries")
    skew = scaled - scaled.T
    norm, asymmetry = _frobenius(scaled), _frobenius(skew)
    if asymmetry > SYMMETRY_TOL * norm:
        raise NotSymmetric(f"||S - S^T||_F/||S||_F = {asymmetry / norm:.3e} exceeds {SYMMETRY_TOL}")
    scaled = np.add(scaled, scaled.T, out=skew)  # the symmetric part, in the skew part's buffer
    scaled *= 0.5

    d1 = _bipartition(scaled)
    try:
        factor = _bipartite_takagi(scaled[:d1, d1:]) if d1 else _svd_takagi(scaled)
    except ConvergenceFailure:
        factor = _embedded_takagi(scaled)
    residual = factor.V.T @ scaled @ factor.V
    residual.reshape(-1)[:: len(residual) + 1] -= factor.diagonal
    if not _frobenius(residual) <= TAKAGI_RECONSTRUCTION_TOL * factor.diagonal[0]:
        raise ConvergenceFailure("Takagi factorization failed to reconstruct")
    if not float(factor.diagonal[0]) * peak < math.inf:  # Python floats overflow with no warning
        raise ConvergenceFailure(f"Takagi value {factor.diagonal[0]:.3e} x {peak:.3e} overflows")
    return TakagiFactorization(V=factor.V, diagonal=factor.diagonal * peak)


def _bipartition(S: np.ndarray) -> int:
    """The first d1 with S[:d1, :d1] = 0 and S[d1:, d1:] = 0 for an m x m S
    with m >= 2, or 0 when there is none. A nonzero diagonal entry, as a
    generic S has, rules every d1 out before S is scanned. Otherwise a
    nonzero S_ij lies in S[d1:, d1:] exactly when d1 <= min(i, j), and in
    S[:d1, :d1] exactly when d1 > max(i, j), so the first d1 clearing the
    one block is the only candidate for the other. The zero S gives 1."""
    if len(S) < 2 or S.diagonal().any():
        return 0
    i, j = np.nonzero(S)
    if not len(i):
        return 1
    d1 = int(np.minimum(i, j).max()) + 1
    return d1 if np.maximum(i, j).min() >= d1 else 0


def _bipartite_takagi(B: np.ndarray) -> TakagiFactorization:
    """Takagi factors of S = [[0, B], [B^T, 0]] for a d1 x d2 B, in closed
    form from its checked SVD B = U Sigma W^†, as takagi and build_sps read
    them.

    With p = min(d1, d2), q_i = [u_i; conj(w_i)] / sqrt(2) and
    q'_i = i [u_i; -conj(w_i)] / sqrt(2) satisfy S conj(q) = sigma_i q, so
    each sigma_i comes twice, with Takagi vectors conj(q_i) and conj(q'_i);
    the remaining columns of U and of conj(W), each padded with zeros,
    complete them with value 0. The pairs are interleaved, so the diagonal
    descends. Values at or below the cut TAKAGI_CUT (d1 + d2) sigma_1 are set
    to 0. checked_svd's ConvergenceFailure propagates.
    """
    (d1, d2), m = B.shape, sum(B.shape)
    u, sigma, wh = checked_svd(B)
    sigma = np.where(sigma > TAKAGI_CUT * m * sigma[0], sigma, 0.0)
    wc = wh.T  # conj(W)
    p = len(sigma)
    q = np.concatenate([u[:, :p], wc[:, :p]]) / np.sqrt(2.0)
    Q = np.zeros((m, m), dtype=complex)
    Q[:, : 2 * p : 2] = q
    Q[:d1, 1 : 2 * p : 2] = 1j * q[:d1]
    Q[d1:, 1 : 2 * p : 2] = -1j * q[d1:]
    Q[:d1, 2 * p : d1 + p] = u[:, p:]
    Q[d1:, d1 + p :] = wc[:, p:]
    diagonal = np.zeros(m)
    diagonal[: 2 * p : 2] = diagonal[1 : 2 * p : 2] = sigma
    return TakagiFactorization(V=Q.conj(), diagonal=diagonal)


def _svd_takagi(S: np.ndarray) -> TakagiFactorization:
    """Takagi factors of a complex symmetric S from its checked SVD, takagi's
    route for an S that is not bipartite, at any size.

    With S = U Sigma W^†, symmetry makes P = U^† S conj(U) = Sigma W^† conj(U)
    symmetric and block diagonal across distinct singular values. An index
    whose row and column of P have no off-diagonal entry above the cut
    TAKAGI_CUT m sigma_1 is isolated: its Takagi vector is conj(U) e_i times
    exp(-i arg(P_ii) / 2), with value sigma_i (0 at or below the cut). Indices
    that couple (degenerate or near-degenerate values) are factorized together
    as one block, however many there are, by the real embedding of P on them,
    and their vectors are conj(U) on them times that factor. One stable sort
    restores the descending order.

    checked_svd's ConvergenceFailure (no convergence, or U or W^† off
    unitarity, which V and P would inherit) propagates.
    """
    u, sigma, wh = checked_svd(S)
    cut = TAKAGI_CUT * len(S) * sigma[0]
    uc = u.conj()
    P = (sigma[:, None] * wh) @ uc
    off = np.abs(P) > cut
    np.fill_diagonal(off, False)
    coupled = np.flatnonzero(off.any(axis=0) | off.any(axis=1))

    V = uc * np.exp(-0.5j * np.angle(P.diagonal()))
    diagonal = np.where(sigma > cut, sigma, 0.0)
    if len(coupled):
        block = P[coupled[:, None], coupled]
        inner = _embedded_takagi((block + block.T) / 2.0)
        V[:, coupled] = uc[:, coupled] @ inner.V
        diagonal[coupled] = inner.diagonal
        order = np.argsort(-diagonal, kind="stable")
        V, diagonal = V[:, order], diagonal[order]
    return TakagiFactorization(V=V, diagonal=diagonal)


def _embedded_takagi(S: np.ndarray) -> TakagiFactorization:
    """Takagi factors of a complex symmetric S from its real symmetric
    embedding, the definition-level reference. It has three readers:
    _svd_takagi, for its coupled block; takagi, for a whole S whose SVD
    checked_svd refuses; and the tests, as the reference they compare against.

    With S = A + iB, E = [[A, B], [B, -A]] has eigenvalues +-sigma_i, the
    singular values of S. An eigenvector [x; y] of E for +sigma gives
    u = x + iy with S conj(u) = sigma u, and the +sigma and -sigma eigenspaces
    are orthogonal, so the top half of E's spectrum yields orthonormal Takagi
    vectors even inside degenerate clusters. Near sigma = 0 the two halves
    mix: vectors whose sigma is at or below the cut TAKAGI_CUT k sigma_1 of
    the k x k S are dropped (their diagonal entry set to 0), and a QR
    completion of the kept ones, which also reorthonormalizes them, gives V.
    A coupled block of a larger matrix is cut the same way: an entry |P_ij|
    above the larger matrix's cut bounds sigma_i and, to rounding, sigma_j
    from below, so the block's values lie above that cut. The diagonal is
    sorted descending. No gate is applied here.
    """
    k = S.shape[0]
    E = np.empty((2 * k, 2 * k))
    E[:k, :k] = S.real
    E[:k, k:] = E[k:, :k] = S.imag
    E[k:, k:] = -S.real
    try:
        eigenvalues, vectors = np.linalg.eigh(E)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    sigma = eigenvalues[::-1][:k]  # the +sigma half, descending
    top = vectors[:, ::-1][:, :k]
    u = top[:k] + 1j * top[k:]
    cut = TAKAGI_CUT * k * sigma[0]
    kept = int(np.count_nonzero(sigma > cut))
    q, r = np.linalg.qr(u[:, :kept], mode="complete")
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    q[:, :kept] *= phases
    diagonal = np.zeros(k)
    diagonal[:kept] = sigma[:kept]
    return TakagiFactorization(V=q.conj(), diagonal=diagonal)


def checked_svd(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD A = u diag(s) vh of an m1 x m2 matrix, with u and vh unitary
    to rounding level, as takagi and build_sps read them.

    Divide and conquer can fail to converge, or lose orthogonality inside
    large singular-value clusters. Either raises ConvergenceFailure: a
    LinAlgError, or ||X^† X - I||_F of a k x k factor (u: k = m1, vh: k = m2)
    above TAKAGI_CUT k, the rounding level of its own size.
    """
    try:
        u, s, vh = np.linalg.svd(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD of a {A.shape} matrix failed: {exc}") from exc
    for x in (u, vh.conj().T):
        defect = _gram_defect(x)
        if not defect <= TAKAGI_CUT * len(x):
            raise ConvergenceFailure(f"singular vectors off unitarity by {defect:.3e}")
    return u, s, vh


def _gram_defect(X: np.ndarray) -> float:
    """||X^† X - I||_F; NaN when X holds non-finite entries or its Gram
    overflows, so every gate reading it is written `not defect <= tol`."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = X.conj().T @ X
        gram.reshape(-1)[:: len(gram) + 1] -= 1.0
        return _frobenius(gram)


def _frobenius(X: np.ndarray) -> float:
    """||X||_F from one complex dot (np.linalg.norm takes two strided ones)."""
    return math.sqrt(np.vdot(X, X).real)


def _peak_scaled(M: np.ndarray) -> tuple[np.ndarray, float]:
    """(M / peak, peak), peak the largest modulus in M or, where that overflows, the
    largest |re| or |im|; (M, 0) for zero M and (M, inf or NaN) for non-finite M.
    The real view is divided: complex division forms 1 / peak, inf for a subnormal peak."""
    M = np.ascontiguousarray(M, dtype=complex)
    with np.errstate(over="ignore"):
        peak = float(np.max(np.abs(M), initial=0.0))
    if peak == math.inf:  # an infinite entry, or finite ones whose modulus overflows
        peak = float(np.max(np.abs(M.view(float))))
    if not 0.0 < peak < math.inf:
        return M, peak
    return (M.view(float) / peak).view(complex), peak


def unitary_extension(a: np.ndarray, s: np.ndarray, bh: np.ndarray) -> np.ndarray:
    """The (N = m1 + m2)-mode Halmos dilation U = [[B, sqrt(I - B B^†)],
    [sqrt(I - B^† B), -B^†]] of the contraction B = (a * s) @ b^†, exactly as
    given, from its reduced SVD: a (m1 x r), s (r real values in [0, 1], any
    order) and bh = b^† (r x m2), with r <= min(m1, m2), as
    np.linalg.svd(B, full_matrices=False) returns them. Any other shape, or
    an s complex or outside [0, 1], raises ValueError. A caller holding a
    map A of largest singular value sigma_1 passes the factors of A / sigma_1.
    With g = 1 - sqrt(1 - s^2), taken as s^2 / (1 + sqrt(1 - s^2)) without
    the cancellation, the defect blocks are I - a diag(g) a^† and
    I - b diag(g) b^†: three products of width r in all. s = 0 gives the swap.

    The output is gated at factor width. With E_a = a^† a - I, E_b = b^† b - I,
    S = diag(s), G = diag(g) and g^2 - 2g + s^2 = 0, the blocks of U^† U - I
    are b (S E_a S + G E_b G) b^†, b (G E_b S - S E_a G) a^†, its adjoint and
    a (G E_a G + S E_b S) a^†. As s and g lie in [0, 1] and
    ||a||_2^2 <= 1 + ||E_a||_F, each is at most e (1 + e) in Frobenius norm,
    e = ||E_a||_F + ||E_b||_F, so ||U^† U - I||_F <= 2 e (1 + e). Rounding
    (u = eps / 2, gamma_k = k u / (1 - k u)) adds 3u sqrt(2r) (1 + e), since
    g misses g^2 - 2g + s^2 = 0 by up to 3u; (2 + c) d + d^2, c the bound so
    far, since U's entries, complex inner products of length r scaled by s or
    g plus 1 on the defect diagonals, lie within d = 2 gamma_{r+3} (5r +
    sqrt(N)) (1 + e) of exact in Frobenius norm; and twice the understatement
    of e by the floating-point Grams, (2 gamma_{N+2} r + u sqrt(r)) (1 + e)
    per factor plus the norm's rounding. For e within DOCUMENT_UNITARITY_TOL
    these sum to less than rho = 32 gamma_{N+3} (r + sqrt(N)), and a bound
    2 e (1 + e) + rho above DOCUMENT_UNITARITY_TOL, or NaN, raises
    VerificationFailure.
    """
    a = np.asarray(a, dtype=complex)
    bh = np.asarray(bh, dtype=complex)
    if np.iscomplexobj(s):
        raise ValueError("singular values of a contraction must be real")
    s = np.asarray(s, dtype=float)
    shapes = f"{a.shape}, {s.shape} and {bh.shape}"
    if a.ndim != 2 or bh.ndim != 2 or s.shape != (a.shape[1],) or len(bh) != len(s):
        raise ValueError(f"expected shapes (m1, r), (r,) and (r, m2), got {shapes}")
    (m1, r), m2 = a.shape, bh.shape[1]
    if r > min(m1, m2):
        raise ValueError(f"expected r <= min(m1, m2), got shapes {shapes}")
    if not np.all((s >= 0.0) & (s <= 1.0)):
        raise ValueError("singular values of a contraction must lie in [0, 1]")
    N = m1 + m2
    e = _gram_defect(a) + _gram_defect(bh.conj().T)
    u, k = 2.0**-53, N + 3  # u = eps / 2
    bound = 2.0 * e * (1.0 + e) + 32 * k * u / (1.0 - k * u) * (r + math.sqrt(N))
    if not bound <= DOCUMENT_UNITARITY_TOL:
        message = f"factors off orthonormality by {e:.3e} allow a unitarity defect of {bound:.3e}"
        raise VerificationFailure(f"{message} (tolerance {DOCUMENT_UNITARITY_TOL:.0e})")
    g = s**2 / (1.0 + np.sqrt(1.0 - s**2))

    U = np.empty((N, N), dtype=complex)
    B = U[:m1, :m2]
    np.matmul(a * s, bh, out=B)
    np.matmul(a * -g, a.conj().T, out=U[:m1, m2:])
    np.matmul(bh.conj().T * -g, bh, out=U[m1:, :m2])
    np.negative(np.conjugate(B.T, out=U[m1:, m2:]), out=U[m1:, m2:])
    # add the identity of both defect blocks, entries (i, m2 + i) and (m1 + j, j)
    U.reshape(-1)[m2 : m1 * N : N + 1] += 1.0
    U.reshape(-1)[m1 * N :: N + 1] += 1.0
    return U
