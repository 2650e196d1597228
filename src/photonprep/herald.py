"""Heralded two-photon state preparation from n single photons.

Feasibility: a target state S can be heralded from n single photons exactly
when n >= rank(S). The construction works on the Takagi diagonal of the
target and on one herald, the flat witness: one mode absorbing n - 2 photons
through the flat row (1, ..., 1) / sqrt(n - 2), whose permanent bilinear
form is F = c (J - I). F's Takagi factors are known in closed form, so the
target is the only matrix factorized. Its Takagi vectors are scaled by the
target weights, conjugated back, and the resulting rows are dilated from
factors already in hand: no SVD is taken.

F itself is built independently, by Glynn's permanent formula with the two
free rows kept symbolic, one contraction with the package's cached sign
table. The key permanent identity is checked pre-embedding as the matrix
identity R F R^T = sqrt(2 s!) diag(d) on the scaled rows R, relative to its
scale sqrt(2 s!) d_0. unitary_extension gates the dilation's unitarity, and
the final circuit meets the Fock oracle's verdict that post-selection shares.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import fock, verify
from .exceptions import InfeasibleRank, TooLarge, VerificationFailure
from .linalg import TakagiFactorization, takagi, unitary_extension
from .states import TwoPhotonState, state_rank
from .tolerances import IDENTITY_TOL
from .verify import HeraldPattern, SynthesisResult


def feasible_herald(state_out: TwoPhotonState, n: int) -> bool:
    """Rank rule: n single photons suffice iff n >= rank(S_out)."""
    if n < 2:
        raise ValueError("at least two photons are required")
    return n >= state_rank(state_out)


@functools.lru_cache(maxsize=fock.PERMANENT_LIMIT)
def herald_bilinear_matrix(n: int) -> np.ndarray:
    """Matrix F of the bilinear form (x, y) -> Per(x, y, H) = x^T F y of the
    flat witness, where H repeats the flat row (1, ..., 1) / sqrt(n - 2)
    n - 2 times (no row for n = 2).

    Glynn's formula with the rows x and y left free reads
    Per(x, y, H) = sum_delta w_delta (x . delta)(y . delta) prod_i (H_i . delta)
    over the sign vectors delta of the package permanent, with their weights w.
    So F = Delta diag(w * prod_i (H Delta)_i) Delta^T for the sign table
    Delta, with prod_i (H Delta)_i = (sum_k delta_k / sqrt(n - 2))^(n - 2);
    n = 2 gives F = J - I. F_aa = 0 exactly, since no permutation picks
    column a twice. Raises TooLarge beyond the permanent limit, before any
    sign table is built. F depends on n only, so it is built once per n and
    returned read-only, as _flat_takagi's factors are.
    """
    if n < 2:
        raise ValueError("at least two photons are required")
    if n > fock.PERMANENT_LIMIT:
        raise TooLarge(f"herald form limited to {fock.PERMANENT_LIMIT} photons, got {n}")
    deltas, weights = fock._glynn_tables(n)
    herald = deltas.real.sum(axis=0) ** (n - 2) * (n - 2) ** (-(n - 2) / 2)
    F = (deltas * (weights * herald)) @ deltas.T
    np.fill_diagonal(F, 0.0)
    F.setflags(write=False)
    return F


@functools.lru_cache(maxsize=fock.PERMANENT_LIMIT)
def _flat_takagi(n: int) -> TakagiFactorization:
    """Takagi factors of the flat witness's form F = c (J - I), in closed form,
    with c = (n - 2)! (n - 2)^(-(n - 2)/2).

    The flat vector 1/sqrt(n) has value c (n - 1). For a real unit vector q
    orthogonal to it, (i q)^T F (i q) = -c q^T (J - I) q = c, so i times the
    Helmert basis of its complement completes the factors with value c.
    They depend on n only, so they are built once per n and returned
    read-only.
    """
    c = math.factorial(n - 2) * (n - 2) ** (-(n - 2) / 2)
    row = np.arange(n)[:, None]
    k = np.arange(1, n)
    helmert = ((row < k) - k * (row == k)) / np.sqrt(k * (k + 1.0))
    V = np.hstack([np.full((n, 1), 1.0 / math.sqrt(n)), 1j * helmert])
    diagonal = np.full(n, c)
    diagonal[0] = c * (n - 1)
    V.setflags(write=False)
    diagonal.setflags(write=False)
    return TakagiFactorization(V=V, diagonal=diagonal)


def synthesize_herald(state_out: TwoPhotonState, n: int) -> SynthesisResult:
    """Construct a heralded circuit preparing the target from n single photons.

    The returned unitary acts on m payload + h herald + n auxiliary modes,
    with the photons entering the first n modes. The herald is the flat
    witness: h = 1 mode with signal (n - 2,), none for n = 2. Raises
    InfeasibleRank when n < rank(S_out), stating the fidelity ceiling
    sqrt(sum_{i<=n} d_i^2 / sum d_i^2) of a rank-n state with the target.
    """
    if n < 2:
        raise ValueError("at least two photons are required")
    # one Takagi factorization of the target gives its rank and its weights
    fac_out = takagi(state_out.S)
    rank = fac_out.rank
    d = fac_out.diagonal
    if n < rank:
        ceiling = np.sqrt(np.sum(d[:n] ** 2) / np.sum(d**2))
        raise InfeasibleRank(
            f"{n} photons cannot prepare a rank-{rank} state; "
            f"the fidelity ceiling at rank {n} is {ceiling:.15g}"
        )

    # F's Takagi factors are closed-form, but F itself is built by Glynn's
    # formula, so the identity gate below checks one against the other
    F = herald_bilinear_matrix(n)
    fac_f = _flat_takagi(n)
    pattern = HeraldPattern(signal=(n - 2,) if n > 2 else ())
    h = pattern.herald_modes
    m = state_out.modes
    scale = math.sqrt(2.0 * math.factorial(n - 2))

    # rows diagonalizing the permanent form, scaled to the target weights:
    # Per(row_i, row_j, herald) = sqrt(2 * s!) * d_i * delta_ij, for i, j < rank
    weights = np.sqrt(scale * d[:rank] / fac_f.diagonal[:rank])
    bh = fac_f.V[:, :rank].T
    R = weights[:, None] * bh

    # Per(x, y, H) = x^T F y, so the identity for all pairs is one matrix product
    deviation = R @ F @ R.T
    deviation.flat[:: rank + 1] -= scale * d[:rank]
    identity_error = float(np.max(np.abs(deviation)) / (scale * d[0]))
    if not identity_error <= IDENTITY_TOL:
        raise VerificationFailure(
            f"permanent identity violated pre-embedding by {identity_error:.3e} "
            f"relative to sqrt(2 s!) d_0 (tolerance {IDENTITY_TOL:.0e})"
        )

    # The dilated rows A = [conj(V_out) R; herald row] factor as A = L bh:
    # the herald row is sqrt(n / (n - 2)) times V_F[:, 0]^T, the flat vector,
    # so L = [conj(V_out) diag(w); sqrt(n / (n - 2)) e_0^T]. L's columns are
    # orthogonal, so their norms sigma are A's singular values and L / sigma
    # is a: conj(V_out)'s first rank columns, column 0 rotated into the
    # herald mode.
    sigma = weights.copy()
    a = np.zeros((m + h, rank), dtype=complex)
    a[:m] = fac_out.V[:, :rank].conj()
    if h:
        herald_norm = math.sqrt(n / (n - 2))
        sigma[0] = math.hypot(weights[0], herald_norm)
        a[:, 0] *= weights[0] / sigma[0]
        a[m, 0] = herald_norm / sigma[0]
    sigma1 = sigma.max()
    U = unitary_extension(a, sigma / sigma1, bh)
    report = verify.extract_heralded(U, n, pattern, m, target=state_out.S)
    return verify._verified_result(U, 1.0 / sigma1, report, m, pattern)
