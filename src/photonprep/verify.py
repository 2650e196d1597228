"""Independent verification oracle for synthesized circuits, the result
types the synthesizers return, and the one verdict they return them by.

Everything here goes through the permanent-based Fock amplitudes or the
matrix conjugation rule, never through a synthesizer's own bookkeeping.
This module also owns the factor-of-2 conventions between S-matrix entries
and Fock coefficients: the coefficient of a_i^† a_j^† |vac> (i < j) is
S_ij + S_ji = 2 S_ij, and the coefficient of |2_i> is sqrt(2) S_ii.
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import fock
from .exceptions import DimensionMismatch, SignalMismatch, TooLarge, VerificationFailure
from .linalg import _peak_scaled
from .states import TwoPhotonState
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
    """Outcome of projecting an evolved state back onto its encoding: the
    projected block, unnormalized, its weight and its fidelity to a target."""

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


def _count(value, least: int, noun: str) -> int:
    """`value` as an int, the count of `noun`s: ValueError, before anything is
    sliced, built or cached, unless it is an integer (a numpy one too) of at
    least `least`."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"the {noun} count must be an integer, got {value!r}") from None
    if count < least:
        raise ValueError(f"the {noun} count must be at least {least}, got {count}")
    return count


def _square(U) -> np.ndarray:
    """U as a complex array; DimensionMismatch unless it is a square matrix."""
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise DimensionMismatch(f"expected a square unitary, got shape {U.shape}")
    return U


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
    normalize does: the value is scale-free, and no norm over- or underflows."""
    S1 = np.asarray(S1, dtype=complex)
    S2 = np.asarray(S2, dtype=complex)
    if S1.shape != S2.shape:
        raise DimensionMismatch(f"shapes {S1.shape} vs {S2.shape}")
    (S1, peak1), (S2, peak2) = _peak_scaled(S1), _peak_scaled(S2)
    if peak1 == 0.0 or peak2 == 0.0:
        return 0.0
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
    state_in.modes columns of U enter the evolution. Each register holds at
    least one mode: d1 and d2 are integers >= 1 (ValueError otherwise).
    """
    d1, d2, U = _count(d1, 1, "d1 mode"), _count(d2, 1, "d2 mode"), _square(U)
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


@functools.lru_cache(maxsize=16)
def _heralded_outputs(
    n: int, m: int, signal: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Size-only tables of extract_heralded's projection, built once per
    layout and returned read-only: the payload pairs (i, j), i <= j, the output
    occupation of each pair, the input occupation and the divisor of each
    pair's amplitude. |1_i 1_j> carries 2 T_ij, |2_i> carries sqrt(2) T_ii.
    Occupations span the M = max(m + h, n) modes that photons enter or leave
    by, and are int8, which holds any within the permanent limit."""
    M = max(m + len(signal), n)
    ell_in = (np.arange(M) < n).astype(np.int8)
    unit = np.eye(m, M, dtype=np.int8)
    i, j = np.triu_indices(m)
    k_out = unit[i] + unit[j]
    k_out[:, m : m + len(signal)] = signal
    divisors = np.where(i == j, np.sqrt(2.0), 2.0)
    tables = (i, j, k_out, ell_in, divisors)
    for table in tables:
        table.setflags(write=False)
    return tables


def extract_heralded(
    U: np.ndarray,
    n: int,
    pattern: HeraldPattern,
    m: int,
    target: np.ndarray | None = None,
) -> ExtractionReport:
    """Project the evolved n-photon input onto the herald signal.

    Input: one photon in each of the first n modes. Output projection: the
    signal on the h herald modes (m..m+h-1), vacuum on auxiliaries, two
    photons anywhere in the m payload modes; only U[:M, :M], M = max(m + h,
    n), enters, and U's unitarity is not checked: `unitary_extension` gates
    every construction and `io` every document, so a U built by hand is
    judged on that block alone. Returns the projected payload block T,
    unnormalized, and its weight, the herald probability 2 Tr(T^† T). The
    photon count n is an integer >= 2 and the payload m one >= 1 (ValueError
    otherwise).
    """
    n, m = _count(n, 2, "photon"), _count(m, 1, "payload mode")
    U, h = _square(U), pattern.herald_modes
    if len(U) < m + h or len(U) < n:
        raise DimensionMismatch("unitary too small for payload, heralds and photons")
    if pattern.total != n - 2:
        raise SignalMismatch(f"signal sums to {pattern.total}, expected {n - 2}")
    if n > fock.PERMANENT_LIMIT:
        raise TooLarge(f"photon number {n} beyond the permanent limit")

    i, j, k_out, ell_in, divisors = _heralded_outputs(n, m, pattern.signal)
    amps = fock.amplitude(U[: len(ell_in), : len(ell_in)], k_out, ell_in) / divisors
    T = np.zeros((m, m), dtype=complex)
    T[i, j] = T[j, i] = amps

    probability = float(2.0 * np.trace(T.conj().T @ T).real)
    fid = fidelity(T, target) if target is not None else float("nan")
    return ExtractionReport(extracted=T, probability=probability, fidelity_vs_target=fid)
