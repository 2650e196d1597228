"""Dense complex linear algebra: Takagi factorization and rank, a checked SVD,
a unitary dilation that gates its own output.

All routines work on plain ``numpy`` arrays of dtype complex128. Diagonal
factors are always returned sorted in descending order so downstream
rescaling can align supports deterministically.
"""

from __future__ import annotations

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

    Taken from one SVD where it can be (see _svd_takagi), else from the real
    symmetric embedding of S (see _embedded_takagi). Values at or below the
    rounding-level cut TAKAGI_CUT m sigma_1 are set to 0, and the diagonal is
    sorted descending.
    """
    S = np.asarray(S, dtype=complex)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    if S.size == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(S)):
        raise ValueError("matrix contains non-finite entries")
    asymmetry = np.linalg.norm(S - S.T)
    if asymmetry >= SYMMETRY_TOL * max(1.0, np.linalg.norm(S)):
        raise NotSymmetric(f"asymmetry {asymmetry:.3e} exceeds {SYMMETRY_TOL} x max(1, ||S||)")
    S = (S + S.T) / 2.0

    factor = _svd_takagi(S)
    if factor is None:
        factor = _embedded_takagi(S)
    scale = max(1.0, factor.diagonal[0])
    if not np.linalg.norm(factor.V.T @ S @ factor.V - factor.D) <= TAKAGI_RECONSTRUCTION_TOL * scale:
        raise ConvergenceFailure("Takagi factorization failed to reconstruct")
    return factor


def _svd_takagi(S: np.ndarray) -> TakagiFactorization | None:
    """Takagi factors of a complex symmetric S from its checked SVD, or None
    where the real embedding of S whole should be taken instead.

    With S = U Sigma W^†, symmetry makes P = U^† S conj(U) = Sigma W^† conj(U)
    symmetric and block diagonal across distinct singular values. An index
    whose row and column of P have no off-diagonal entry above the cut
    TAKAGI_CUT m sigma_1 is isolated: its Takagi vector is conj(U) e_i times
    exp(-i arg(P_ii) / 2), with value sigma_i (0 at or below the cut). Indices
    that couple (degenerate or near-degenerate values) are factorized together
    by the real embedding of P on them, and their vectors are conj(U) on them
    times that factor. One stable sort restores the descending order.

    Returns None when checked_svd raises ConvergenceFailure (no convergence,
    or U or W^† off unitarity, which V and P would inherit), or when most
    indices couple (embedding S whole is then cheaper than gathering P).
    """
    m = S.shape[0]
    try:
        u, sigma, wh = checked_svd(S)
    except ConvergenceFailure:
        return None
    cut = TAKAGI_CUT * m * sigma[0]
    uc = u.conj()
    P = (sigma[:, None] * wh) @ uc
    off = np.abs(P) > cut
    np.fill_diagonal(off, False)
    coupled = np.flatnonzero(off.any(axis=0) | off.any(axis=1))
    if 2 * len(coupled) > m:
        return None

    V = uc * np.exp(-0.5j * np.angle(P.diagonal()))
    diagonal = np.where(sigma > cut, sigma, 0.0)
    if len(coupled):
        block = P[coupled][:, coupled]
        inner = _embedded_takagi((block + block.T) / 2.0)
        V[:, coupled] = uc[:, coupled] @ inner.V
        diagonal[coupled] = inner.diagonal
        order = np.argsort(-diagonal, kind="stable")
        V, diagonal = V[:, order], diagonal[order]
    return TakagiFactorization(V=V, diagonal=diagonal)


def _embedded_takagi(S: np.ndarray) -> TakagiFactorization:
    """Takagi factors of a complex symmetric S from its real symmetric
    embedding, the definition-level reference.

    With S = A + iB, E = [[A, B], [B, -A]] has eigenvalues +-sigma_i, the
    singular values of S. An eigenvector [x; y] of E for +sigma gives
    u = x + iy with S conj(u) = sigma u, and the +sigma and -sigma eigenspaces
    are orthogonal, so the top half of E's spectrum yields orthonormal Takagi
    vectors even inside degenerate clusters. Near sigma = 0 the two halves
    mix: vectors whose sigma is at or below the cut TAKAGI_CUT k sigma_1 of
    the k x k S are dropped (their diagonal entry set to 0) and replaced by a
    QR completion of the kept ones. A coupled block of a larger matrix is cut
    the same way: an entry |P_ij| above the larger matrix's cut bounds
    sigma_i and, to rounding, sigma_j from below, so the block's values lie
    above that cut. The diagonal is sorted descending. No gate is applied
    here.
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
    gram = X.conj().T @ X
    gram.flat[:: len(gram) + 1] -= 1.0
    return float(np.sqrt(np.vdot(gram, gram).real))


def unitary_extension(a: np.ndarray, s: np.ndarray, bh: np.ndarray) -> np.ndarray:
    """The (N = m1 + m2)-mode Halmos dilation U = [[B, sqrt(I - B B^†)],
    [sqrt(I - B^† B), -B^†]] of the contraction B = (a * s) @ b^†, exactly as
    given, from its reduced SVD: a (m1 x r), s (r values in [0, 1], any
    order) and bh = b^† (r x m2), with r <= min(m1, m2), as
    np.linalg.svd(B, full_matrices=False) returns them. Any other shape, or
    a value of s outside [0, 1], raises ValueError. A caller holding a map A
    of largest singular value sigma_1 passes the factors of A / sigma_1.
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
    u, k = np.finfo(float).eps / 2.0, N + 3
    bound = 2.0 * e * (1.0 + e) + 32 * k * u / (1.0 - k * u) * (r + np.sqrt(N))
    if not bound <= DOCUMENT_UNITARITY_TOL:
        message = f"factors off orthonormality by {e:.3e} allow a unitarity defect of {bound:.3e}"
        raise VerificationFailure(f"{message} (tolerance {DOCUMENT_UNITARITY_TOL:.0e})")
    g = s**2 / (1.0 + np.sqrt(1.0 - s**2))

    U = np.empty((N, N), dtype=complex)
    B = (a * s) @ bh
    U[:m1, :m2] = B
    U[:m1, m2:] = (a * -g) @ a.conj().T
    U[m1:, :m2] = (bh.conj().T * -g) @ bh
    U[m1:, m2:] = -B.conj().T
    # add the identity of both defect blocks, entries (i, m2 + i) and (m1 + j, j)
    U.flat[m2 : m1 * N : N + 1] += 1.0
    U.flat[m1 * N :: N + 1] += 1.0
    return U
