"""Every numerical threshold of photonprep, defined once.

Each feasibility answer of the package is a rank rule (rank(C) <= rank(S_in)
for post-selection, n >= rank(S) for heralding), so one rank threshold,
RANK_TOL, decides them all, in the library and in the CLI alike. No function
or CLI verb takes a tolerance argument; every module reads its gate from here.

=========================  =====  =================  ===========================================
name                       value  scale              gates
=========================  =====  =================  ===========================================
RANK_TOL                   1e-10  x sigma_1          TakagiFactorization.rank: Takagi values
                                                     above RANK_TOL * sigma_1 count. Both rank
                                                     rules and state_rank read that count
SYMMETRY_TOL               1e-10  x ||S||_F          takagi: ||S - S^T||_F within it, else
                                                     NotSymmetric
TAKAGI_RECONSTRUCTION_TOL  1e-8   x sigma_1          takagi: ||V^T S V - D||_F of S / peak
                                                     within it, else ConvergenceFailure
TAKAGI_CUT                 8 eps  x m sigma_1        takagi: values at or below the cut (m the
                                                     matrix size) are rounding noise, set to 0,
                                                     on both routes and the fallback; for a
                                                     bipartite S = [[0, B], [B^T, 0]], sigma_1
                                                     and the values are those of B.
                                                     For an S that is not bipartite, also the
                                                     coupling threshold of its SVD route:
                                                     indices with an off-diagonal entry of
                                                     U^† S conj(U) (S = U Sigma W^†) above it
                                                     are embedded together.
                                                     build_sps: singular values of C at or
                                                     below the cut of S_ps (m = d1 + d2) are
                                                     set to 0, by takagi's own closed form
                                                     for bipartite S
                           8 eps  x k                checked_svd: ||X^† X - I||_F of a k x k
                                                     factor (u or vh) above it is a
                                                     ConvergenceFailure; takagi then falls
                                                     back to the whole real embedding of S
STATE_SYMMETRY_TOL         1e-8   x ||S||_F          TwoPhotonState: ||S - S^T||_F within it,
                                                     else NotSymmetric
NORMALIZATION_TOL          1e-8   absolute           TwoPhotonState: |2 Tr(S^† S) - 1| within it
TARGET_NORM_TOL            1e-6   absolute           QuditTarget: | ||C||_F - 1 | within it
ZERO_WEIGHT                1e-28  x peak^2           normalize: a symmetric part of weight
                                                     2 Tr(S^† S) at or below it is a ZeroState
IDENTITY_TOL               1e-9   x sqrt(2 s!) d_0   herald: largest error of the pre-embedding
                                                     identity Per(row_i, row_j, H) =
                                                     sqrt(2 s!) d_i delta_ij
VERIFY_TOL                 1e-9   absolute           ExtractionReport.verified: oracle fidelity
                                                     must exceed 1 - VERIFY_TOL (both
                                                     synthesizers, CLI verify, selftest)
CNZ_AMPLITUDE_TOL          1e-9   absolute           verify_cnz: every truth-table amplitude
                                                     within it of the ideal gate's
                                                     (times sqrt(p_s)); io: every entry of
                                                     the table given to encode a cnz
                                                     document within it of the gate of n, phi
CNZ_ZERO_BASE              1e-12  absolute           cnz_alpha: |e^{i phi} - 1| below it means
                                                     phi = 0 (mod 2 pi) within roundoff
DOCUMENT_UNITARITY_TOL     1e-8   absolute           unitary_extension: factor-width bound
                                                     implying ||U^† U - I||_F <= tol, every
                                                     construction; io: documents
=========================  =====  =================  ===========================================

One rule sets the scale column: a gate on a quantity the package normalized is
absolute, one on a matrix given at the caller's scale is relative to that
scale. s! is the product of the herald signal's factorials, d_0 the target's
largest Takagi value, peak the largest modulus of S, eps = 2^-52 the float64
machine epsilon. The Takagi cut sits at rounding level, far below RANK_TOL:
dropping Takagi values near RANK_TOL * sigma_1 would cost reconstruction
accuracy.
"""

RANK_TOL = 1e-10
SYMMETRY_TOL = 1e-10
TAKAGI_RECONSTRUCTION_TOL = 1e-8
TAKAGI_CUT = 8 * 2.0**-52
STATE_SYMMETRY_TOL = 1e-8
NORMALIZATION_TOL = 1e-8
TARGET_NORM_TOL = 1e-6
ZERO_WEIGHT = 1e-28
IDENTITY_TOL = 1e-9
VERIFY_TOL = 1e-9
CNZ_AMPLITUDE_TOL = 1e-9
CNZ_ZERO_BASE = 1e-12
DOCUMENT_UNITARITY_TOL = 1e-8
