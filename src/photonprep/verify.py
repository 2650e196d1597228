"""Independent verification oracle for synthesized circuits, the result
types the synthesizers return, and the one verdict they return them by.

Everything here goes through the permanent-based Fock amplitudes or the
matrix conjugation rule, never through a synthesizer's own bookkeeping.
This module also owns the factor-of-2 conventions between S-matrix entries
and Fock coefficients: the coefficient of a_i^† a_j^† |vac> (i < j) is
S_ij + S_ji = 2 S_ij, and the coefficient of |2_i> is sqrt(2) S_ii.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import fock
from .exceptions import DimensionMismatch, SignalMismatch, VerificationFailure, ZeroState
from .states import TwoPhotonState, normalize
from .tolerances import VERIFY_TOL


@dataclass(frozen=True)
class HeraldPattern:
    """Photon-count signal on dedicated herald modes; sums to n - 2."""

    signal: tuple[int, ...]

    def __post_init__(self):
        signal = tuple(self.signal)
        if any(isinstance(s, bool) or not isinstance(s, numbers.Integral) for s in signal):
            raise ValueError("herald signal entries must be integers")
        if any(s < 1 for s in signal):
            raise ValueError("herald signal entries must be positive")
        object.__setattr__(self, "signal", tuple(int(s) for s in signal))

    @property
    def herald_modes(self) -> int:
        return len(self.signal)

    @property
    def total(self) -> int:
        return sum(self.signal)


@dataclass(frozen=True)
class ExtractionReport:
    """Outcome of projecting an evolved state back onto its encoding."""

    extracted: np.ndarray
    probability: float
    fidelity_vs_target: float

    @property
    def verified(self) -> bool:
        """The oracle verdict: fidelity above 1 - VERIFY_TOL (False for NaN,
        the fidelity of a report without a target)."""
        return bool(self.fidelity_vs_target > 1.0 - VERIFY_TOL)


@dataclass(frozen=True)
class SynthesisResult:
    """Interferometer produced by a synthesizer.

    ``unitary`` acts on all modes: payload, herald if any, then ``aux_modes``
    vacuum auxiliaries. Every construction dilates its mode map divided by its
    largest singular value sigma_1 with unitary_extension, which gates its
    unitarity, so the top-left block is ``scale_alpha`` = 1 / sigma_1 times the
    embedded rows (herald) or the mode map (postselect, ``build_cnz``).
    ``report`` is the oracle report of the synthesizers' one verdict,
    _verified_result; ``build_cnz`` (oracle: ``verify_cnz``) and decoded
    documents leave it None.
    """

    unitary: np.ndarray
    aux_modes: int
    scale_alpha: float
    success_probability: float
    herald: HeraldPattern | None = None
    report: ExtractionReport | None = None


def _aux_modes(modes: int, payload: int, herald: HeraldPattern | None) -> int:
    """The layout rule: modes beyond the payload and herald are vacuum auxiliaries."""
    return modes - payload - (herald.herald_modes if herald is not None else 0)


def _verified_result(
    U: np.ndarray, scale_alpha: float, report: ExtractionReport, payload: int,
    herald: HeraldPattern | None,
) -> SynthesisResult:
    """The one verdict of both synthesizers: U, when its oracle report
    verifies with a positive probability; else VerificationFailure."""
    if not report.verified:
        raise VerificationFailure(f"oracle fidelity {report.fidelity_vs_target} below tolerance")
    if not report.probability > 0.0:
        raise VerificationFailure("vanishing success probability on a feasible target")
    aux_modes = _aux_modes(len(U), payload, herald)
    return SynthesisResult(U, aux_modes, scale_alpha, report.probability, herald, report)


def fidelity(S1: np.ndarray, S2: np.ndarray) -> float:
    """|<S1, S2>_F| / (||S1||_F ||S2||_F); overlap of the two-photon states,
    0 when either is zero. Each is divided by its largest modulus first, as
    normalize does, so the norms neither overflow nor underflow."""
    S1 = np.asarray(S1, dtype=complex)
    S2 = np.asarray(S2, dtype=complex)
    if S1.shape != S2.shape:
        raise DimensionMismatch(f"shapes {S1.shape} vs {S2.shape}")
    peak1 = np.max(np.abs(S1), initial=0.0)
    peak2 = np.max(np.abs(S2), initial=0.0)
    if peak1 == 0.0 or peak2 == 0.0:
        return 0.0
    S1, S2 = S1 / peak1, S2 / peak2
    return float(abs(np.vdot(S1, S2)) / (np.linalg.norm(S1) * np.linalg.norm(S2)))


def extract_postselected(
    U: np.ndarray,
    state_in: TwoPhotonState,
    d1: int,
    d2: int,
    target: np.ndarray | None = None,
) -> ExtractionReport:
    """Evolve the input state and read off the post-selected two-qudit block.

    The extracted matrix is twice the off-diagonal d1 x d2 block of the
    evolved state matrix (the C block); the probability is the squared
    weight of all outcomes with one photon in each computational register.
    An input over fewer modes than U is zero-padded, and zero-padded modes
    contribute nothing, so only the first d1 + d2 rows and the first
    state_in.modes columns of U enter the evolution.
    """
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise DimensionMismatch(f"expected a square unitary, got shape {U.shape}")
    if U.shape[0] < d1 + d2:
        raise DimensionMismatch("unitary smaller than the computational registers")
    if state_in.modes > U.shape[0]:
        raise DimensionMismatch("state has more modes than the unitary")
    S_out = fock.evolve_two_photon(U[: d1 + d2, : state_in.modes], state_in.S)
    block = S_out[:d1, d1 : d1 + d2]
    extracted = 2.0 * block
    probability = float(np.sum(np.abs(extracted) ** 2))
    fid = fidelity(extracted, target) if target is not None else float("nan")
    return ExtractionReport(extracted=extracted, probability=probability, fidelity_vs_target=fid)


def extract_heralded(
    U: np.ndarray,
    n: int,
    pattern: HeraldPattern,
    m: int,
    target: np.ndarray | None = None,
) -> ExtractionReport:
    """Project the evolved n-photon input onto the herald signal.

    Input: one photon in each of the first n modes. Output projection:
    the given signal on the h herald modes (m..m+h-1), vacuum on
    auxiliaries, two photons anywhere in the first m payload modes.
    Returns the normalized payload state matrix and the herald probability.
    """
    U = np.asarray(U, dtype=complex)
    N = U.shape[0]
    h = pattern.herald_modes
    if N < m + h or N < n:
        raise DimensionMismatch("unitary too small for payload, heralds and photons")
    if pattern.total != n - 2:
        raise SignalMismatch(f"signal sums to {pattern.total}, expected {n - 2}")

    ell_in = np.zeros(N, dtype=int)
    ell_in[:n] = 1
    base_out = np.zeros(N, dtype=int)
    base_out[m : m + h] = pattern.signal

    # |1_i 1_j> carries 2 T_ij, |2_i> carries sqrt(2) T_ii
    i, j = np.triu_indices(m)
    unit = np.eye(m, N, dtype=int)
    k_out = base_out + unit[i] + unit[j]
    amps = fock.amplitude(U, k_out, ell_in) / np.where(i == j, np.sqrt(2.0), 2.0)
    T = np.zeros((m, m), dtype=complex)
    T[i, j] = T[j, i] = amps

    probability = float(2.0 * np.trace(T.conj().T @ T).real)
    fid = fidelity(T, target) if target is not None else float("nan")
    try:
        extracted = normalize(T).S
    except ZeroState:
        extracted = T
    return ExtractionReport(extracted=extracted, probability=probability, fidelity_vs_target=fid)
