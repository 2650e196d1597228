"""Two-photon state model: the symmetric matrix S and the two-qudit target C.

A two-photon state over m modes is (a^†)^T S a^† |vac>, with S complex
symmetric. Normalization is 2 Tr(S^† S) = 1, and the rank of S is invariant
under linear optics, which makes it the feasibility yardstick everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NotSymmetric, ZeroState
from .linalg import _peak_scaled, takagi
from .tolerances import NORMALIZATION_TOL, STATE_SYMMETRY_TOL, TARGET_NORM_TOL, ZERO_WEIGHT


@dataclass(frozen=True)
class TwoPhotonState:
    """Normalized two-photon state, stored as its symmetric matrix S."""

    S: np.ndarray

    def __post_init__(self):
        S = np.asarray(self.S, dtype=complex)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError(f"state matrix must be square, got {S.shape}")
        if not np.isfinite(S).all():
            raise ValueError("state matrix has non-finite entries")
        if np.linalg.norm(S - S.T) > STATE_SYMMETRY_TOL * np.linalg.norm(S):
            raise NotSymmetric("state matrix is not symmetric")
        S = (S + S.T) / 2.0  # kill roundoff drift
        if abs(2.0 * np.vdot(S, S).real - 1.0) > NORMALIZATION_TOL:
            raise ValueError("state is not normalized; use normalize()")
        S.setflags(write=False)
        object.__setattr__(self, "S", S)

    @property
    def modes(self) -> int:
        return self.S.shape[0]


@dataclass(frozen=True)
class QuditTarget:
    """Target two-qudit state in d-rail encoding, as its d1 x d2 matrix C."""

    C: np.ndarray

    def __post_init__(self):
        C = np.asarray(self.C, dtype=complex)
        if C.ndim != 2 or C.shape[0] < 1 or C.shape[1] < 1:
            raise ValueError(f"target must be a nonempty matrix, got {C.shape}")
        if not np.isfinite(C).all():
            raise ValueError("target matrix has non-finite entries")
        if abs(np.linalg.norm(C) - 1.0) > TARGET_NORM_TOL:
            raise ValueError("target state must have unit Frobenius norm")
        C.setflags(write=False)
        object.__setattr__(self, "C", C)

    @property
    def d1(self) -> int:
        return self.C.shape[0]

    @property
    def d2(self) -> int:
        return self.C.shape[1]


def normalize(S: np.ndarray) -> TwoPhotonState:
    """Scale the symmetric part of S/peak, peak its largest modulus, so that
    2 Tr(S^† S) = 1; a weight at most ZERO_WEIGHT there is a ZeroState."""
    S = np.asarray(S, dtype=complex)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"state matrix must be square, got {S.shape}")
    if not np.isfinite(S).all():
        raise ValueError("cannot normalize a matrix with non-finite entries")
    S = _peak_scaled(S)[0]
    S = (S + S.T) / 2.0
    weight = 2.0 * float(np.vdot(S, S).real)
    if weight <= ZERO_WEIGHT:
        raise ZeroState("cannot normalize a zero state matrix")
    return TwoPhotonState(S / np.sqrt(weight))


def from_qudit_target(target: QuditTarget) -> TwoPhotonState:
    """Block embedding S = (1/2) [[0, C], [C^T, 0]]; rank(S) = 2 rank(C).

    Qudit 1 occupies modes 0..d1-1, qudit 2 modes d1..d1+d2-1.
    """
    d1, d2 = target.d1, target.d2
    S = np.zeros((d1 + d2, d1 + d2), dtype=complex)
    S[:d1, d1:] = target.C / 2.0
    S[d1:, :d1] = target.C.T / 2.0
    return TwoPhotonState(S)


def single_photons_state(m: int) -> TwoPhotonState:
    """State of one photon in each of the first two of m modes; rank 2."""
    if m < 2:
        raise ValueError("need at least two modes for two single photons")
    S = np.zeros((m, m), dtype=complex)
    S[0, 1] = S[1, 0] = 0.5
    return TwoPhotonState(S)


def state_rank(state: TwoPhotonState) -> int:
    """Rank of the state matrix, read off its Takagi factors; invariant under
    linear optics."""
    return takagi(state.S).rank
