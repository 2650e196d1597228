"""Post-selected generalized controlled-phase gates on n dual-rail qubits.

The gate applies phase e^{i phi} to |1...1> and identity elsewhere. The
optical construction routes the |1> rails through I + alpha * J (J a cyclic
permutation) and the |0> rails through the identity, both divided by the
largest singular value sigma_max, so the block is a contraction and embeds
in a unitary. Success probability is sigma_max^(-2n).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .exceptions import DimensionMismatch, TooLarge
from .linalg import unitary_extension
from .verify import SynthesisResult, _aux_modes, _count, _square
from .tolerances import CNZ_AMPLITUDE_TOL, CNZ_ZERO_BASE


@dataclass(frozen=True)
class CnZSpec:
    """Parameters of a controlled-phase construction."""

    n: int
    phi: float
    alpha: complex
    p_s: float


def _check_gate(n: int, phi: float) -> None:
    """Refuse, as ValueError, a qubit count n that is not an integer >= 2 or
    a phase phi that is not a finite float; an integer beyond the float
    range is not one, and its digits are not printed."""
    _count(n, 2, "qubit")
    try:
        finite = math.isfinite(phi)
    except (TypeError, ValueError, OverflowError):
        finite = False
    if not finite:
        got = repr(phi) if isinstance(phi, float) else type(phi).__name__
        raise ValueError(f"phi must be finite, got {got}")


def cnz_alpha(n: int, phi: float) -> complex:
    """The n-th root of z = e^{i phi} - 1 with argument (arg z mod 2 pi) / n,
    for any integer n >= 2 and finite phi (ValueError otherwise);
    z = 2i sin(phi / 2) e^{i phi / 2} keeps its relative accuracy near
    phi = 0 (mod 2 pi)."""
    _check_gate(n, phi)
    z = 2j * np.sin(phi / 2.0) * np.exp(0.5j * phi)
    if abs(z) < CNZ_ZERO_BASE:  # phi at (or within roundoff of) a multiple of 2*pi
        return 0.0 + 0.0j
    return complex(abs(z) ** (1.0 / n) * np.exp(1j * (np.angle(z) % (2.0 * np.pi)) / n))


def _sigma_max(n: int, alpha: complex) -> float:
    """The largest singular value of diag(I + alpha J, I): 1 or the largest
    |lambda_k|, lambda_k = 1 + alpha omega^k, omega = e^{2 pi i / n}, the
    eigenvalues of I + alpha J on the DFT columns."""
    return float(max(1.0, np.max(np.abs(1.0 + alpha * np.exp(2j * np.pi * np.arange(n) / n)))))


@functools.lru_cache(maxsize=fock.PERMANENT_LIMIT)
def _dft_factors(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What `build_cnz` reads of n alone: the DFT F[j, k] = omega^(jk) / sqrt(n),
    v2h = diag(F^†, I) on the 2n rails, and the n-th roots of unity omega^k,
    omega = e^{2 pi i / n}, as `_sigma_max` forms them. Read-only, and built
    once per n up to the permanent limit."""
    k = np.arange(n)
    dft = np.exp(2j * np.pi * (np.outer(k, k) % n) / n) / np.sqrt(n)
    v2h = np.eye(2 * n, dtype=complex)
    v2h[:n, :n] = dft.conj()
    roots = np.exp(2j * np.pi * k / n)
    for table in (dft, v2h, roots):
        table.setflags(write=False)
    return dft, v2h, roots


def _check_table_size(n: int) -> None:
    """Refuse, before anything of size 2^n is built, a truth table that fock.amplitude
    would refuse: permanents past its limit, or 4^n amplitudes times 2n modes (n > 10)."""
    if n > fock.PERMANENT_LIMIT or 4**n * 2 * n > fock.OCCUPATION_LIMIT:
        raise TooLarge(f"{n}-qubit truth table: {n}-photon permanents over {2 * n} modes, beyond fock.amplitude")


def cnz_success_probability(n: int, phi: float) -> float:
    """Maximum success probability of the post-selected phase gate."""
    return _sigma_max(n, cnz_alpha(n, phi)) ** (-2 * n)


def build_cnz(n: int, phi: float) -> tuple[SynthesisResult, CnZSpec]:
    """Interferometer for the n-qubit controlled-phase gate.

    Mode layout: modes 0..n-1 are the |1> rails, n..2n-1 the |0> rails,
    followed by 2n vacuum auxiliaries from the unitary embedding. A builder:
    unitary_extension gates the unitarity of the circuit, and its oracle is
    verify_cnz, which the CLI and selftest run on every gate they report.
    """
    alpha = cnz_alpha(n, phi)
    # the mode map diag(I + alpha J, I), J the cyclic shift i -> i+1 mod n, has
    # largest singular value sigma. With the DFT F[j, k] = omega^(jk) / sqrt(n),
    # I + alpha J = F diag(lam) F^†, so map / sigma is dilated from those factors
    # a gate too large to verify builds its factors anew, so the cache stays small
    factors = _dft_factors if n <= fock.PERMANENT_LIMIT else _dft_factors.__wrapped__
    dft, v2h, roots = factors(n)
    lam = 1.0 + alpha * roots
    modulus = np.abs(lam)
    sigma = float(max(1.0, np.max(modulus)))
    p_s = sigma ** (-2 * n)
    v1 = np.eye(2 * n, dtype=complex)
    v1[:n, :n] = dft * np.exp(1j * np.angle(lam))
    U = unitary_extension(v1, np.concatenate((modulus, np.ones(n))) / sigma, v2h)
    spec = CnZSpec(n=n, phi=float(phi), alpha=alpha, p_s=p_s)
    result = SynthesisResult(
        unitary=U, aux_modes=len(U) - 2 * n, scale_alpha=1.0 / sigma, success_probability=p_s
    )
    return result, spec


@functools.lru_cache(maxsize=fock.PERMANENT_LIMIT)
def _dual_rail_basis(n: int) -> np.ndarray:
    """(2^n, 2n) occupations of the basis |x>, x's n bits most significant
    first: qubit i's photon is on its |1> rail i or its |0> rail n + i. Built
    once per n and read-only; int8 keeps the 10-qubit basis at 20 KiB."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    occ = np.hstack((bits, 1 - bits)).astype(np.int8)
    occ.setflags(write=False)
    return occ


def _gate_phases(n: int, phi: float) -> np.ndarray:
    """The gate's 2^n phases (1, ..., 1, e^{i phi}): its truth table's diagonal."""
    return np.concatenate((np.ones(2**n - 1), [np.exp(1j * phi)]))


def _deviation(table: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """|table - diag(diagonal)|; the diagonal is subtracted from `table` in place."""
    table.flat[:: len(table) + 1] -= diagonal
    return np.abs(table)


def verify_cnz(result: SynthesisResult, n: int, phi: float) -> bool:
    """Oracle check of the gate action on the full computational basis.

    The 2^n x 2^n table of amplitudes <y| U |x>, read on U[:2n, :2n], must
    equal sqrt(p_s) times the gate's phases on the diagonal and vanish off
    it, each to CNZ_AMPLITUDE_TOL. Raises TooLarge for n > 10, whose table
    fock.amplitude refuses, and DimensionMismatch when U has fewer rows than
    the 2n dual rails, when its rows beyond them are not the circuit's
    aux_modes (both before the basis is enumerated) or when U is not square.
    An n that is not an integer >= 2, or a non-finite phi, is a ValueError
    before anything else is checked or built.
    Only U[:2n, :2n] is read, and U's unitarity is not checked:
    `unitary_extension` gates every construction and `io` every document,
    so a U built by hand is judged on that block alone.
    """
    _check_gate(n, phi)
    _check_table_size(n)
    U = result.unitary
    if 2 * n > len(U):
        raise DimensionMismatch(
            f"n = {n} needs 2n = {2 * n} dual-rail modes, but the unitary has {len(U)} rows"
        )
    if result.aux_modes != _aux_modes(len(U), 2 * n, None):
        raise DimensionMismatch(
            f"n = {n} leaves {len(U) - 2 * n} auxiliary modes of the unitary's {len(U)} rows, "
            f"but the circuit has {result.aux_modes}"
        )
    occ = _dual_rail_basis(n)
    table = fock.amplitude(_square(U)[: 2 * n, : 2 * n], occ[:, None], occ[None])
    gate = np.sqrt(result.success_probability) * _gate_phases(n, phi)
    return bool(np.all(_deviation(table, gate) <= CNZ_AMPLITUDE_TOL))
