"""Every numerical threshold of photonprep, defined once.

Each feasibility answer of the package is a rank rule (rank(C) <= rank(S_in)
for post-selection, n >= rank(S) for heralding), so one rank threshold,
RANK_TOL, decides them all, in the library and in the CLI alike. No function
or CLI verb takes a tolerance argument; every module reads its gate from here.

=========================  =====  =================  ===========================================
name                       value  scale              gates
=========================  =====  =================  ===========================================
RANK_TOL                   1e-10  x sigma_1          numerical rank: singular values above
                                                     RANK_TOL * sigma_1 count. Both rank rules,
                                                     the rank read off a Takagi diagonal and
                                                     the support test of the rescaling
SYMMETRY_TOL               1e-10  x max(1, ||S||_F)  takagi: ||S - S^T||_F below it, else
                                                     NotSymmetric
TAKAGI_RECONSTRUCTION_TOL  1e-8   x max(1, sigma_1)  takagi: ||V^T S V - D||_F within it, else
                                                     ConvergenceFailure
TAKAGI_CUT                 8 eps  x m sigma_1        takagi: values at or below the cut (m the
                                                     matrix size) are rounding noise, set to 0
                                                     and replaced by a QR completion
STATE_SYMMETRY_TOL         1e-8   x max(1, ||S||_F)  TwoPhotonState: ||S - S^T||_F within it,
                                                     else NotSymmetric
NORMALIZATION_TOL          1e-8   absolute           TwoPhotonState: |2 Tr(S^† S) - 1| within it
TARGET_NORM_TOL            1e-6   absolute           QuditTarget: | ||C||_F - 1 | within it
ZERO_WEIGHT                1e-28  absolute           normalize: a weight 2 Tr(S^† S) at or below
                                                     it is a ZeroState
IDENTITY_TOL               1e-9   x sqrt(2 s!) d_0   herald: largest error of the pre-embedding
                                                     identity Per(row_i, row_j, H) =
                                                     sqrt(2 s!) d_i delta_ij
MODE_MAP_TOL               1e-8   absolute           postselect: ||M S_in M^T - S_ps||_F of the
                                                     rescaled mode map within it
VERIFY_TOL                 1e-9   absolute           ExtractionReport.verified: oracle fidelity
                                                     must exceed 1 - VERIFY_TOL (both
                                                     synthesizers, CLI verify, selftest)
CNZ_AMPLITUDE_TOL          1e-9   absolute           verify_cnz: every truth-table amplitude
                                                     within it of the ideal gate's
CNZ_ZERO_BASE              1e-12  absolute           cnz_alpha: a base 2 sin(phi / 2) below it
                                                     means phi = 0 within roundoff
DOCUMENT_UNITARITY_TOL     1e-8   absolute           io: ||U^† U - I||_F of a synthesis
                                                     document's unitary within it
=========================  =====  =================  ===========================================

s! is the product of the herald signal's factorials, d_0 the target's
largest Takagi value, eps = 2^-52 the float64 machine epsilon. The Takagi cut
sits at rounding level, far below RANK_TOL: dropping Takagi values near
RANK_TOL * sigma_1 would cost reconstruction accuracy. MODE_MAP_TOL is
absolute, so a feasible target whose input needs a Takagi direction just
above RANK_TOL * sigma_1 can miss it (the rescaling then reaches ~1e10).
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
MODE_MAP_TOL = 1e-8
VERIFY_TOL = 1e-9
CNZ_AMPLITUDE_TOL = 1e-9
CNZ_ZERO_BASE = 1e-12
DOCUMENT_UNITARITY_TOL = 1e-8
