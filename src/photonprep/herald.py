"""Heralded two-photon state preparation from n single photons.

Feasibility: a target state S can be heralded from n single photons exactly
when n >= rank(S). The construction works on the Takagi diagonal of the
target, diagonalizes the permanent bilinear form F fixed by the herald rows,
scales its basis vectors by the target weights, conjugates back, and embeds
the scaled rows in a unitary.

The default herald is the flat witness: one mode absorbing n - 2 photons
through the flat row. Its form is F = c (J - I), built from a product
formula, and its Takagi factors are known in closed form, so the default
path evaluates no minors and factorizes nothing but the target. User herald
rows get F from the same product formula when there is one distinct row and
from one stack of minor permanents otherwise, and F is Takagi-factorized.
The key permanent identity is checked pre-embedding at definition level, as
one stack of permanents and relative to its scale sqrt(2 s!) d_0, and the
final circuit is checked by the Fock oracle.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import fock, verify
from .exceptions import (
    InfeasibleRank,
    MultiplicityMismatch,
    VerificationFailure,
)
from .linalg import TakagiFactorization, numerical_rank, takagi, unitary_extension
from .result import HeraldPattern, SynthesisResult
from .states import TwoPhotonState, state_rank
from .tolerances import IDENTITY_TOL, VERIFY_TOL

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


def _expanded_herald_rows(herald_rows: HeraldRows, n: int) -> np.ndarray:
    """The (n - 2) x n herald matrix H of checked rows: each row repeated by
    its multiplicity."""
    rows = [vec for vec, mult in herald_rows for _ in range(mult)]
    return np.array(rows, dtype=complex).reshape(n - 2, n)


def herald_bilinear_matrix(herald_rows: HeraldRows, n: int) -> np.ndarray:
    """Matrix F of the bilinear form (x, y) -> Per(x, y, herald rows).

    Laplace expansion along the two unit-vector rows e_a, e_b gives
    F_ab = Per(H without columns a and b) for a != b, and F_aa = 0 since no
    permutation picks column a twice; H is the (n - 2) x n herald matrix.
    With one distinct row h, H holds n - 2 equal rows, whose permanent is
    (n - 2)! times the product of the entries, so
    F_ab = (n - 2)! prod_{k not in {a, b}} h_k. That covers the flat witness
    and n = 2, where F = J - I. Several distinct rows evaluate the
    n(n-1)/2 minors of size n - 2 as one stack of permanents.
    """
    rows = _checked_rows(herald_rows, n)
    diag = np.arange(n)
    if len(rows) <= 1:
        h = rows[0][0] if rows else np.ones(n, dtype=complex)
        # factors[a, b] is h with entries a and b replaced by 1
        factors = np.broadcast_to(h, (n, n, n)).copy()
        factors[diag, :, diag] = 1.0
        factors[:, diag, diag] = 1.0
        F = math.factorial(n - 2) * factors.prod(axis=-1)
        F[diag, diag] = 0.0
        return F
    H = _expanded_herald_rows(rows, n)
    a, b = np.triu_indices(n, 1)
    columns = np.array([np.delete(np.arange(n), pair) for pair in zip(a, b)])
    F = np.zeros((n, n), dtype=complex)
    F[a, b] = F[b, a] = fock.permanent(np.moveaxis(H[:, columns], 0, 1))
    return F


def _flat_takagi(n: int) -> TakagiFactorization:
    """Takagi factors of the flat witness's form F = c (J - I), in closed form,
    with c = (n - 2)! (n - 2)^(-(n - 2)/2).

    The flat vector 1/sqrt(n) has value c (n - 1). For a real unit vector q
    orthogonal to it, (i q)^T F (i q) = -c q^T (J - I) q = c, so i times the
    Helmert basis of its complement completes the factors with value c.
    """
    c = math.factorial(n - 2) * (n - 2) ** (-(n - 2) / 2)
    row = np.arange(n)[:, None]
    k = np.arange(1, n)
    helmert = ((row < k) - k * (row == k)) / np.sqrt(k * (k + 1.0))
    V = np.hstack([np.full((n, 1), 1.0 / math.sqrt(n)), 1j * helmert])
    diagonal = np.full(n, c)
    diagonal[0] = c * (n - 1)
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
    rank = state_rank(state_out)
    if n < rank:
        raise InfeasibleRank(f"{n} photons cannot prepare a rank-{rank} state")

    fac_f = None
    if herald_rows is not None:
        herald_rows = _checked_rows(herald_rows, n)
        F = herald_bilinear_matrix(herald_rows, n)
        if numerical_rank(F) == n:
            fac_f = takagi(F)
            if numerical_rank(np.diag(fac_f.diagonal)) < n:
                raise VerificationFailure("herald bilinear form lost rank unexpectedly")
    if fac_f is None:
        # the default, and the fallback for degenerate user rows: the theorem
        # guarantees the flat witness works
        herald_rows = default_herald_rows(n)
        F = herald_bilinear_matrix(herald_rows, n)
        fac_f = _flat_takagi(n)
    herald = _expanded_herald_rows(herald_rows, n)
    signal = tuple(s for _, s in herald_rows)
    h = len(signal)
    m = state_out.modes

    fac_out = takagi(state_out.S)
    d = fac_out.diagonal
    scale = math.sqrt(2.0 * math.prod(math.factorial(s) for s in signal))

    # rows diagonalizing the permanent form, scaled to the target weights:
    # Per(row_i, row_j, herald) = sqrt(2 * s!) * d_i * delta_ij
    diag_rows = np.zeros((m, n), dtype=complex)
    weights = np.sqrt(scale * d[:rank] / fac_f.diagonal[:rank])
    diag_rows[:rank] = weights[:, None] * fac_f.V[:, :rank].T

    # rows at and above the rank are zero, so only pairs below it are checked
    i, j = np.triu_indices(rank)
    pairs = np.concatenate(
        [diag_rows[i, None], diag_rows[j, None], np.broadcast_to(herald, (len(i), n - 2, n))],
        axis=1,
    )
    expect = np.where(i == j, scale * d[i], 0.0)
    identity_error = float(np.max(np.abs(fock.permanent(pairs) - expect)) / (scale * d[0]))
    if not identity_error <= IDENTITY_TOL:
        raise VerificationFailure(
            f"permanent identity violated pre-embedding by {identity_error:.3e} "
            f"relative to sqrt(2 s!) d_0 (tolerance {IDENTITY_TOL:.0e})"
        )

    # conjugate back from the diagonal state to S_out, then stack herald rows
    payload_rows = fac_out.V.conj() @ diag_rows
    A = np.vstack([payload_rows] + [vec for vec, _ in herald_rows]) if h else payload_rows
    ext = unitary_extension(A)
    U = ext.U
    pattern = HeraldPattern(signal=signal)

    report = verify.extract_heralded(U, n, pattern, m, target=state_out.S)
    if not report.fidelity_vs_target > 1.0 - VERIFY_TOL:
        raise VerificationFailure(
            f"oracle fidelity {report.fidelity_vs_target} below tolerance"
        )
    if not report.probability > 0.0:
        raise VerificationFailure("vanishing herald probability on a feasible target")

    return SynthesisResult(
        unitary=U,
        aux_modes=ext.N - m - h,
        scale_alpha=1.0 / ext.sigma1,
        success_probability=report.probability,
        herald=pattern,
        details={
            "diagonal_rows": diag_rows,
            "herald_rows": herald_rows,
            "payload_rows": payload_rows,
            "takagi_diagonal": d,
            "bilinear_matrix": F,
            "identity_error": identity_error,
            "payload_modes": m,
            "photons": n,
            "oracle_report": report,
        },
    )
