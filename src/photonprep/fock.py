"""Permanent-based Fock amplitudes for linear-optical circuits.

The transition amplitude between Fock states under a mode unitary is the
permanent of a row/column-repeated submatrix, normalized by the square
roots of the occupation factorials. The permanent itself is Ryser's
formula evaluated for all column subsets at once, as one matrix product
with a cached subset table; an O(n!) expansion is kept as an independent
test oracle.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .exceptions import DimensionMismatch, PhotonNumberMismatch, TooLarge

PERMANENT_LIMIT = 14


@functools.lru_cache(maxsize=PERMANENT_LIMIT)
def _ryser_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(2^n x n) indicator matrix of all column subsets, and the Ryser sign
    (-1)^(n - |S|) of each subset. Built on first use of each size."""
    subsets = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    signs = 1.0 - 2.0 * ((n - subsets.sum(axis=1)) % 2)
    subsets = subsets.astype(complex)  # matches M, so no cast per call
    subsets.setflags(write=False)
    signs.setflags(write=False)
    return subsets, signs


def permanent(M: np.ndarray) -> complex:
    """Permanent of a square matrix via Ryser's formula.

    Per(M) = sum_S (-1)^(n-|S|) prod_i sum_{j in S} M_ij over column subsets
    S; the empty subset contributes a zero product.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n > PERMANENT_LIMIT:
        raise TooLarge(f"permanent limited to {PERMANENT_LIMIT}x{PERMANENT_LIMIT}")
    subsets, signs = _ryser_tables(n)
    return complex(signs @ (subsets @ M.T).prod(axis=1))


def permanent_naive(M: np.ndarray) -> complex:
    """O(n!) definition of the permanent; test oracle only."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= M[i, j]
        total += prod
    return complex(total)


def amplitude(U: np.ndarray, k, ell) -> complex:
    """Transition amplitude <k| induced-U |ell> for occupation vectors k, ell.

    Builds the submatrix by repeating row i of U k_i times and column j
    ell_j times, then divides the permanent by sqrt(prod k_i! ell_j!).
    """
    U = np.asarray(U, dtype=complex)
    k = np.asarray(k, dtype=int)
    ell = np.asarray(ell, dtype=int)
    if U.shape[0] != U.shape[1] or len(k) != U.shape[0] or len(ell) != U.shape[0]:
        raise DimensionMismatch("occupation vectors must match the unitary dimension")
    if np.any(k < 0) or np.any(ell < 0):
        raise ValueError("occupations must be nonnegative")
    n = int(k.sum())
    if n != int(ell.sum()):
        raise PhotonNumberMismatch(f"{k.sum()} output photons vs {ell.sum()} input")
    if n > PERMANENT_LIMIT:
        raise TooLarge(f"photon number {n} beyond the permanent limit")
    sub = np.repeat(np.repeat(U, k, axis=0), ell, axis=1)
    norm = math.prod(math.factorial(int(x)) for x in k)
    norm *= math.prod(math.factorial(int(x)) for x in ell)
    return permanent(sub) / math.sqrt(norm)


def evolve_two_photon(U: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Action of a mode unitary on a two-photon state matrix: S -> U @ S @ U.T.

    Convention: U maps input mode j (column j) to the output modes (rows),
    matching `amplitude`, where output occupations repeat rows. Under that
    map a_p^† a_q^† picks up u_ip u_jq, i.e. S conjugates as U S U^T.
    """
    U = np.asarray(U, dtype=complex)
    S = np.asarray(S, dtype=complex)
    if U.shape != S.shape or U.shape[0] != U.shape[1]:
        raise DimensionMismatch(f"shapes {U.shape} and {S.shape} are incompatible")
    out = U @ S @ U.T
    return (out + out.T) / 2.0


def occupation_basis(modes: int, photons: int):
    """All occupation vectors of `photons` photons over `modes` modes."""
    if modes == 1:
        yield (photons,)
        return
    for first in range(photons, -1, -1):
        for rest in occupation_basis(modes - 1, photons - first):
            yield (first,) + rest
