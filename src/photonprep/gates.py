"""Post-selected generalized controlled-phase gates on n dual-rail qubits.

The gate applies phase e^{i phi} to |1...1> and identity elsewhere. The
optical construction routes the |1> rails through I + alpha * J (J a cyclic
permutation) and the |0> rails through the identity, both damped by the
largest singular value so the block embeds in a unitary. Success
probability is sigma_max^(-2n).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import fock
from .linalg import unitary_extension
from .verify import SynthesisResult
from .tolerances import CNZ_AMPLITUDE_TOL, CNZ_ZERO_BASE


@dataclass(frozen=True)
class CnZSpec:
    """Parameters of a controlled-phase construction."""

    n: int
    phi: float
    alpha: complex
    p_s: float


def cnz_alpha(n: int, phi: float) -> complex:
    """Principal n-th root of e^{i phi} - 1."""
    if n < 2:
        raise ValueError("need at least two qubits")
    base = 2.0 * np.sin(phi / 2.0)
    if base < CNZ_ZERO_BASE:  # phi at (or within roundoff of) 0 or 2*pi
        return 0.0 + 0.0j
    return complex(base ** (1.0 / n) * np.exp(1j * (phi + np.pi) / (2.0 * n)))


def _sigma_max(n: int, alpha: complex) -> float:
    w = np.exp(2j * np.pi * np.arange(n) / n)
    return float(max(1.0, np.max(np.abs(1.0 + alpha * w))))


def cnz_success_probability(n: int, phi: float) -> float:
    """Maximum success probability of the post-selected phase gate."""
    return _sigma_max(n, cnz_alpha(n, phi)) ** (-2 * n)


def build_cnz(n: int, phi: float) -> tuple[SynthesisResult, CnZSpec]:
    """Interferometer for the n-qubit controlled-phase gate.

    Mode layout: modes 0..n-1 are the |1> rails, n..2n-1 the |0> rails,
    followed by 2n vacuum auxiliaries from the unitary embedding.
    """
    alpha = cnz_alpha(n, phi)
    sigma_max = _sigma_max(n, alpha)
    p_s = sigma_max ** (-2 * n)
    damping = p_s ** (1.0 / (2 * n))

    J = np.roll(np.eye(n, dtype=complex), -1, axis=0)  # i -> i+1 mod n
    A_block = damping * (np.eye(n, dtype=complex) + alpha * J)
    B_block = damping * np.eye(n, dtype=complex)
    M = np.block(
        [
            [A_block, np.zeros((n, n), dtype=complex)],
            [np.zeros((n, n), dtype=complex), B_block],
        ]
    )
    ext = unitary_extension(M)  # sigma1 = 1 by the damping choice
    spec = CnZSpec(n=n, phi=float(phi), alpha=alpha, p_s=p_s)
    result = SynthesisResult(
        unitary=ext.U,
        aux_modes=ext.N - 2 * n,
        scale_alpha=damping,
        success_probability=p_s,
        herald=None,
    )
    return result, spec


def logical_occupation(x, n: int, total_modes: int) -> np.ndarray:
    """Fock occupation of the dual-rail computational state |x>; x may be a
    stack (..., n) of bit strings."""
    x = np.asarray(x, dtype=int)
    occ = np.zeros(x.shape[:-1] + (total_modes,), dtype=int)
    occ[..., :n] = x
    occ[..., n : 2 * n] = 1 - x
    return occ


def verify_cnz(result: SynthesisResult, n: int, phi: float) -> bool:
    """Oracle check of the gate action on the full computational basis.

    The 2^n x 2^n table of amplitudes <y| U |x> must equal sqrt(p_s) on the
    diagonal (times e^{i phi} on |1...1>) and vanish off it, each amplitude
    to CNZ_AMPLITUDE_TOL.
    """
    U = result.unitary
    occ = logical_occupation(list(itertools.product((0, 1), repeat=n)), n, U.shape[0])
    table = fock.amplitude(U, occ[:, None, :], occ[None, :, :])
    expected = np.sqrt(result.success_probability) * np.eye(2**n, dtype=complex)
    expected[-1, -1] *= np.exp(1j * phi)
    return bool(np.all(np.abs(table - expected) <= CNZ_AMPLITUDE_TOL))
