"""Dense complex linear algebra: Takagi factorization, unitary dilation, rank.

All routines work on plain ``numpy`` arrays of dtype complex128. Diagonal
factors are always returned sorted in descending order so downstream
rescaling can align supports deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceFailure, NotSymmetric, ZeroMatrix
from .tolerances import RANK_TOL, SYMMETRY_TOL, TAKAGI_CUT, TAKAGI_RECONSTRUCTION_TOL


@dataclass(frozen=True)
class TakagiFactorization:
    """Factorization ``V.T @ S @ V = diag(diagonal)`` of a complex symmetric S."""

    V: np.ndarray
    diagonal: np.ndarray  # real, nonnegative, descending

    @property
    def D(self) -> np.ndarray:
        return np.diag(self.diagonal).astype(complex)


def takagi(S: np.ndarray) -> TakagiFactorization:
    """Takagi (Autonne) factorization of a complex symmetric matrix.

    With S = A + iB, the real symmetric embedding E = [[A, B], [B, -A]] has
    eigenvalues +-sigma_i, the singular values of S. An eigenvector [x; y]
    of E for +sigma gives u = x + iy with S conj(u) = sigma u, and the +sigma
    and -sigma eigenspaces are orthogonal, so the top half of E's spectrum
    yields orthonormal Takagi vectors even inside degenerate clusters. Near
    sigma = 0 the two halves mix: vectors whose sigma is below a rounding-level
    cut are dropped (their diagonal entry set to 0) and replaced by a QR
    completion of the kept ones. The diagonal is sorted descending.
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
    m = S.shape[0]

    A, B = S.real, S.imag
    try:
        eigenvalues, vectors = np.linalg.eigh(np.block([[A, B], [B, -A]]))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    sigma = eigenvalues[::-1][:m]  # the +sigma half, descending
    top = vectors[:, ::-1][:, :m]
    u = top[:m] + 1j * top[m:]
    kept = int(np.count_nonzero(sigma > TAKAGI_CUT * m * sigma[0]))
    q, r = np.linalg.qr(u[:, :kept], mode="complete")
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    q[:, :kept] *= phases
    diagonal = np.zeros(m)
    diagonal[:kept] = sigma[:kept]

    factor = TakagiFactorization(V=q.conj(), diagonal=diagonal)
    scale = max(1.0, diagonal[0])
    if np.linalg.norm(factor.V.T @ S @ factor.V - factor.D) > TAKAGI_RECONSTRUCTION_TOL * scale:
        raise ConvergenceFailure("Takagi factorization failed to reconstruct")
    return factor


@dataclass(frozen=True)
class UnitaryExtension:
    """An N x N unitary whose top-left block equals ``A / sigma1``."""

    U: np.ndarray
    sigma1: float
    N: int


def unitary_extension(A: np.ndarray) -> UnitaryExtension:
    """Embed ``A / sigma1`` as the top-left block of a unitary.

    Built in the singular basis of the contraction B = A / sigma1: with
    B = V1 S V2^†, the core

        K = [[S, D1], [D2, -S^T]],  D1 = sqrt(I - S S^T),  D2 = sqrt(I - S^T S)

    is unitary entry-by-entry (all blocks diagonal), and
    U = diag(V1, V2) K diag(V2^†, V1^†) has top-left block B. U is assembled
    block by block, [[V1 S V2^†, V1 D1 V1^†], [V2 D2 V2^†, -V2 S^T V1^†]],
    with each diagonal applied by broadcasting. The size is exactly m1 + m2,
    which meets the N <= m1 + m2 bound.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    m1, m2 = A.shape
    v1, s, v2h = np.linalg.svd(A)
    sigma1 = float(s[0])
    if sigma1 <= 0.0:
        raise ZeroMatrix("cannot extend the zero matrix")
    s = s / sigma1  # s[0] becomes exactly 1
    r = len(s)
    defect = np.sqrt(np.clip(1.0 - s**2, 0.0, None))
    # rows beyond the singular support pass through: their defect entry is 1
    defect1 = np.ones(m1)
    defect1[:r] = defect
    defect2 = np.ones(m2)
    defect2[:r] = defect
    v1h, v2 = v1.conj().T, v2h.conj().T

    U = np.empty((m1 + m2, m1 + m2), dtype=complex)
    U[:m1, :m2] = (v1[:, :r] * s) @ v2h[:r]
    U[:m1, m2:] = (v1 * defect1) @ v1h
    U[m1:, :m2] = (v2 * defect2) @ v2h
    U[m1:, m2:] = -(v2[:, :r] * s) @ v1h[:r]
    return UnitaryExtension(U=U, sigma1=sigma1, N=m1 + m2)


def _above_rank_tol(values: np.ndarray) -> np.ndarray:
    """The rank rule on a list of nonnegative (singular or Takagi) values: the
    mask of those above ``RANK_TOL`` times the largest. All False when none
    is positive."""
    values = np.asarray(values, dtype=float)
    return values > RANK_TOL * np.max(values, initial=0.0)


def numerical_rank(M: np.ndarray) -> int:
    """Number of singular values above ``RANK_TOL * sigma_max``; 0 for the zero matrix."""
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return 0
    return int(np.count_nonzero(_above_rank_tol(np.linalg.svd(M, compute_uv=False))))
