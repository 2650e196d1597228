"""Heralded two-photon state preparation from n single photons.

Feasibility: a target state S can be heralded from n single photons exactly
when n >= rank(S). The construction works on the Takagi diagonal of the
target, diagonalizes the permanent bilinear form F fixed by the herald rows,
scales its basis vectors by the target weights, conjugates back, and embeds
the scaled rows in a unitary.

F is built one way for every herald choice: Glynn's permanent formula with
the two free rows kept symbolic, one contraction with the package's cached
sign table. The default herald is the flat witness, one mode absorbing
n - 2 photons through the flat row; its F is c (J - I), whose Takagi factors
are known in closed form, so the default path factorizes nothing but the
target. User herald rows have their F Takagi-factorized and fall back to the
flat witness when it is rank-deficient. The key permanent identity is
checked pre-embedding as the matrix identity R F R^T = sqrt(2 s!) diag(d)
on the scaled rows R, relative to its scale sqrt(2 s!) d_0, and the final
circuit is checked by the Fock oracle.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from . import fock, verify
from .exceptions import (
    InfeasibleRank,
    MultiplicityMismatch,
    TooLarge,
    VerificationFailure,
)
from .linalg import TakagiFactorization, checked_svd, takagi, unitary_extension
from .states import TwoPhotonState, state_rank
from .tolerances import IDENTITY_TOL
from .verify import HeraldPattern, SynthesisResult

# herald rows are (vector in C^n, photon multiplicity) pairs, one per herald mode
HeraldRows = list[tuple[np.ndarray, int]]


def feasible_herald(state_out: TwoPhotonState, n: int) -> bool:
    """Rank rule: n single photons suffice iff n >= rank(S_out)."""
    if n < 2:
        raise ValueError("at least two photons are required")
    return n >= state_rank(state_out)


def default_herald_rows(n: int) -> HeraldRows:
    """Minimal witness: no heralds for n = 2, else one mode absorbing n - 2
    photons through the flat row (1,...,1)/sqrt(n-2)."""
    if n == 2:
        return []
    return [(np.full(n, 1.0 / math.sqrt(n - 2), dtype=complex), n - 2)]


def _checked_rows(herald_rows: HeraldRows, n: int) -> HeraldRows:
    """Herald rows as (complex vector, int multiplicity) pairs. Rows must be
    finite vectors in C^n; multiplicities must be nonnegative integers (not
    booleans) that sum to n - 2. Rows of multiplicity 0 are dropped: a herald
    mode that expects vacuum adds nothing."""
    checked = []
    for vec, mult in herald_rows:
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (n,):
            raise MultiplicityMismatch(f"herald row has shape {vec.shape}, expected ({n},)")
        if not np.all(np.isfinite(vec)):
            raise ValueError("herald row contains non-finite entries")
        if isinstance(mult, bool) or not isinstance(mult, numbers.Integral):
            raise MultiplicityMismatch(f"herald multiplicity {mult!r} is not an integer")
        if mult < 0:
            raise MultiplicityMismatch(f"herald multiplicity {mult} is negative")
        if mult:
            checked.append((vec, int(mult)))
    total = sum(mult for _, mult in checked)
    if total != n - 2:
        raise MultiplicityMismatch(f"herald multiplicities sum to {total}, expected {n - 2}")
    return checked


def herald_bilinear_matrix(herald_rows: HeraldRows, n: int) -> np.ndarray:
    """Matrix F of the bilinear form (x, y) -> Per(x, y, H) = x^T F y, where
    H is the (n - 2) x n herald matrix (each row repeated by its
    multiplicity).

    Glynn's formula with the rows x and y left free reads
    Per(x, y, H) = sum_delta w_delta (x . delta)(y . delta) prod_i (H_i . delta)
    over the sign vectors delta of the package permanent, with their weights w.
    So F = Delta diag(w * prod_i (H Delta)_i) Delta^T for the sign table
    Delta, for any herald rows: n = 2 (no rows, F = J - I), the flat
    witness, one user row or several. F_aa = 0 exactly, since no
    permutation picks column a twice. Raises TooLarge beyond the permanent
    limit, before any sign table is built.
    """
    rows = [vec for vec, mult in _checked_rows(herald_rows, n) for _ in range(mult)]
    H = np.array(rows, dtype=complex).reshape(n - 2, n)
    if n > fock.PERMANENT_LIMIT:
        raise TooLarge(f"herald form limited to {fock.PERMANENT_LIMIT} photons, got {n}")
    deltas, weights = fock._glynn_tables(n)
    F = (deltas * (weights * (H @ deltas).prod(axis=0))) @ deltas.T
    np.fill_diagonal(F, 0.0)
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


def synthesize_herald(
    state_out: TwoPhotonState,
    n: int,
    herald_rows: HeraldRows | None = None,
) -> SynthesisResult:
    """Construct a heralded circuit preparing the target from n single photons.

    The returned unitary acts on m payload + h herald + n auxiliary modes,
    with the photons entering the first n modes. Raises InfeasibleRank when
    n < rank(S_out), MultiplicityMismatch on malformed herald multiplicities
    and ValueError on non-finite herald rows.
    """
    if n < 2:
        raise ValueError("at least two photons are required")
    # one Takagi factorization of the target gives its rank and its weights
    fac_out = takagi(state_out.S)
    rank = fac_out.rank
    if n < rank:
        raise InfeasibleRank(f"{n} photons cannot prepare a rank-{rank} state")

    fac_f = None
    if herald_rows is not None:
        herald_rows = _checked_rows(herald_rows, n)
        F = herald_bilinear_matrix(herald_rows, n)
        fac_f = takagi(F)
        if fac_f.rank < n:
            fac_f = None
    if fac_f is None:
        # the default, and the fallback for degenerate user rows: the theorem
        # guarantees the flat witness works. Its Takagi factors are closed-form,
        # but F itself comes from the herald rows, so the identity gate below
        # checks the closed form against an independent construction.
        herald_rows = default_herald_rows(n)
        F = herald_bilinear_matrix(herald_rows, n)
        fac_f = _flat_takagi(n)
    signal = tuple(s for _, s in herald_rows)
    h = len(signal)
    m = state_out.modes
    d = fac_out.diagonal
    scale = math.sqrt(2.0 * math.prod(math.factorial(s) for s in signal))

    # rows diagonalizing the permanent form, scaled to the target weights:
    # Per(row_i, row_j, herald) = sqrt(2 * s!) * d_i * delta_ij, for i, j < rank
    weights = np.sqrt(scale * d[:rank] / fac_f.diagonal[:rank])
    R = weights[:, None] * fac_f.V[:, :rank].T

    # Per(x, y, H) = x^T F y, so the identity for all pairs is one matrix product
    deviation = R @ F @ R.T - np.diag(scale * d[:rank])
    identity_error = float(np.max(np.abs(deviation)) / (scale * d[0]))
    if not identity_error <= IDENTITY_TOL:
        raise VerificationFailure(
            f"permanent identity violated pre-embedding by {identity_error:.3e} "
            f"relative to sqrt(2 s!) d_0 (tolerance {IDENTITY_TOL:.0e})"
        )

    # conjugate back from the diagonal state to S_out, then stack herald rows
    payload_rows = fac_out.V[:, :rank].conj() @ R
    A = np.vstack([payload_rows] + [vec for vec, _ in herald_rows]) if h else payload_rows
    # dilate the contraction A / sigma_1(A)
    v1, s, v2h = checked_svd(A)
    U = unitary_extension(v1, s / s[0], v2h)
    pattern = HeraldPattern(signal=signal)

    report = verify.extract_heralded(U, n, pattern, m, target=state_out.S)
    if not report.verified:
        raise VerificationFailure(f"oracle fidelity {report.fidelity_vs_target} below tolerance")
    if not report.probability > 0.0:
        raise VerificationFailure("vanishing herald probability on a feasible target")

    return SynthesisResult(
        unitary=U,
        aux_modes=len(U) - m - h,
        scale_alpha=1.0 / s[0],
        success_probability=report.probability,
        herald=pattern,
        report=report,
    )
