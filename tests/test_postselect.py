import numpy as np
import pytest

from photonprep import (
    InfeasibleRank,
    QuditTarget,
    SupportMismatch,
    build_sps,
    extract_postselected,
    feasible_postselect,
    from_qudit_target,
    normalize,
    numerical_rank,
    rescaling_lambda,
    single_photons_state,
    state_rank,
    synthesize_postselect,
    takagi,
)
from photonprep.verify import fidelity
from photonprep.exceptions import VerificationFailure
from photonprep.random_states import random_state_of_rank, random_target_of_rank
from photonprep.tolerances import RANK_TOL

NEAR = RANK_TOL * (1 + 1e-3)  # just above the rank threshold, relative to sigma_1
BELOW = RANK_TOL * (1 - 1e-3)  # just below it


def bell_target(d):
    return QuditTarget(np.eye(d, dtype=complex) / np.sqrt(d))


def haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def target_with_spectrum(rng, d1, d2, sigma):
    """Unit-norm d1 x d2 target whose singular values are proportional to sigma."""
    p = len(sigma)
    C = (haar_unitary(rng, d1)[:, :p] * sigma) @ haar_unitary(rng, d2)[:p]
    return QuditTarget(C / np.linalg.norm(C))


def state_with_spectrum(rng, m, sigma):
    """Normalized m-mode state whose Takagi values are proportional to sigma."""
    V = haar_unitary(rng, m)[:, : len(sigma)]
    return normalize((V * sigma) @ V.T)


class TestFeasibility:
    def test_bell_from_two_single_photons(self):
        assert feasible_postselect(single_photons_state(4), bell_target(2))

    def test_qutrit_bell_needs_rank_three(self):
        assert not feasible_postselect(single_photons_state(6), bell_target(3))

    def test_rank_one_target_always_feasible(self, rng):
        target = random_target_of_rank(rng, 3, 3, 1)
        for rank in (1, 2, 3):
            assert feasible_postselect(random_state_of_rank(rng, 4, rank), target)


class TestBuildSps:
    def test_diagonal_target(self):
        state, _ = build_sps(QuditTarget(np.eye(2, dtype=complex) / np.sqrt(2)))
        assert state_rank(state) == 2
        # all four blocks proportional to the identity
        blocks = [state.S[:2, :2], state.S[:2, 2:], state.S[2:, :2], state.S[2:, 2:]]
        for block in blocks:
            assert np.allclose(block, blocks[0])

    def test_rank_one_target(self):
        C = np.zeros((3, 2), dtype=complex)
        C[0, 0] = 1.0
        state, _ = build_sps(QuditTarget(C))
        assert state_rank(state) == 1

    @pytest.mark.parametrize("d1,d2,rank", [(2, 2, 1), (3, 2, 2), (4, 4, 3), (2, 4, 2)])
    def test_rank_matches_target(self, rng, d1, d2, rank):
        target = random_target_of_rank(rng, d1, d2, rank)
        state, _ = build_sps(target)
        assert state_rank(state) == rank
        ratio = 2 * state.S[:d1, d1:] / target.C
        assert np.allclose(ratio, ratio.flat[0])


# (d1, d2, singular values of C up to scale); fewer values than min(d1, d2)
# leave C rank-deficient
CLOSED_FORM_SPECTRA = {
    "degenerate-all": (4, 4, [1.0, 1.0, 1.0, 1.0]),
    "degenerate-pairs": (4, 4, [1.0, 1.0, 0.5, 0.5]),
    "degenerate-rank-deficient": (5, 5, [1.0, 1.0, 1.0]),
    "rank-one": (3, 3, [1.0]),
    "rank-deficient": (4, 4, [1.0, 0.3, 0.0, 0.0]),
    "near-threshold-above": (3, 3, [1.0, 0.4, NEAR]),
    "near-threshold-below": (3, 3, [1.0, 0.4, BELOW]),
    "wide": (2, 5, [1.0, 0.6]),
    "tall": (5, 2, [1.0, 0.6]),
    "one-by-four": (1, 4, [1.0]),
    "four-by-one": (4, 1, [1.0]),
    "one-by-one": (1, 1, [1.0]),
}


class TestBuildSpsFactorization:
    """build_sps returns Takagi factors in closed form; hold them to the
    factorization they claim, on targets where a numerical Takagi is hard."""

    def check(self, target):
        state, fac = build_sps(target)
        S, V = state.S, fac.V
        n = target.d1 + target.d2
        assert V.shape == (n, n) and fac.diagonal.shape == (n,)
        assert np.linalg.norm(V.conj().T @ V - np.eye(n)) <= 1e-12
        assert np.linalg.norm(V.T @ S @ V - fac.D) <= 1e-12
        assert np.all(np.diff(fac.diagonal) <= 0.0) and fac.diagonal[-1] >= 0.0
        assert np.count_nonzero(fac.diagonal) <= min(target.d1, target.d2)
        # the same spectrum as an independent numerical factorization
        assert np.allclose(fac.diagonal, takagi(S).diagonal, rtol=0.0, atol=1e-12)
        # C is the off-diagonal block, up to scale
        assert fidelity(2.0 * S[: target.d1, target.d1 :], target.C) > 1 - 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_bell(self, d):
        self.check(bell_target(d))

    @pytest.mark.parametrize("case", sorted(CLOSED_FORM_SPECTRA))
    def test_spectrum(self, rng, case):
        d1, d2, sigma = CLOSED_FORM_SPECTRA[case]
        for _ in range(5):
            self.check(target_with_spectrum(rng, d1, d2, sigma))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_shapes(self, seed):
        gen = np.random.default_rng(seed)
        d1, d2 = (int(x) for x in gen.integers(1, 7, 2))
        rank = int(gen.integers(1, min(d1, d2) + 1))
        self.check(random_target_of_rank(gen, d1, d2, rank))


class TestRescalingLambda:
    def test_identity_rescaling(self):
        d = np.array([0.5, 0.3])
        assert np.allclose(rescaling_lambda(d, d), 1.0)

    def test_support_shrink(self):
        lam = rescaling_lambda(np.array([0.5, 0.5]), np.array([0.5, 0.0]))
        assert np.allclose(lam, [1.0, 0.0])

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatch):
            rescaling_lambda(np.array([0.5, 0.0]), np.array([0.4, 0.3]))

    def test_support_mismatch_names_the_first_entry(self):
        with pytest.raises(SupportMismatch, match="target diagonal entry 1 has weight"):
            rescaling_lambda(np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.3, 0.2]))

    def test_reconstructs_target_diagonal(self, rng):
        d_in = np.sort(rng.uniform(0.1, 1.0, 5))[::-1]
        d_ps = np.sort(rng.uniform(0.1, 1.0, 5))[::-1]
        lam = rescaling_lambda(d_in, d_ps)
        assert np.allclose(lam * d_in * lam, d_ps)


class TestSynthesize:
    def test_bell_from_two_single_photons(self):
        result = synthesize_postselect(single_photons_state(4), bell_target(2))
        report = extract_postselected(
            result.unitary, single_photons_state(4), 2, 2, target=bell_target(2).C
        )
        assert report.fidelity_vs_target > 1 - 1e-9
        assert result.success_probability > 0

    def test_rank_one_target(self, rng):
        target = random_target_of_rank(rng, 2, 3, 1)
        result = synthesize_postselect(single_photons_state(2), target)
        report = result.report
        assert report.fidelity_vs_target > 1 - 1e-9

    def test_report_is_the_oracle_on_the_circuit(self, rng):
        state = random_state_of_rank(rng, 4, 3)
        target = random_target_of_rank(rng, 2, 3, 2)
        result = synthesize_postselect(state, target)
        fresh = extract_postselected(result.unitary, state, 2, 3, target=target.C)
        assert np.array_equal(result.report.extracted, fresh.extracted)
        assert result.report.probability == fresh.probability == result.success_probability
        assert result.report.fidelity_vs_target == fresh.fidelity_vs_target
        assert result.report.verified

    def test_qutrit_bell_infeasible(self):
        with pytest.raises(InfeasibleRank):
            synthesize_postselect(single_photons_state(6), bell_target(3))

    def test_unitary_and_mode_budget(self, rng):
        target = random_target_of_rank(rng, 3, 3, 2)
        state = random_state_of_rank(rng, 4, 2)
        result = synthesize_postselect(state, target)
        U = result.unitary
        N = U.shape[0]
        assert np.linalg.norm(U.conj().T @ U - np.eye(N)) < 1e-10
        assert N <= 2 * max(state.modes, 6)
        assert result.aux_modes == N - 6

    def test_success_probability_matches_alpha(self):
        result = synthesize_postselect(single_photons_state(4), bell_target(2))
        # block = alpha * C with ||C|| = 1, so p_s = 4 alpha^2
        assert result.success_probability == pytest.approx(
            4 * result.scale_alpha**2, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_iff_random(self, seed):
        gen = np.random.default_rng(1000 + seed)
        d1, d2 = int(gen.integers(1, 5)), int(gen.integers(1, 5))
        m = int(gen.integers(2, 7))
        rank_in = int(gen.integers(1, min(m, 4) + 1))
        rank_c = int(gen.integers(1, min(d1, d2) + 1))
        state = random_state_of_rank(gen, m, rank_in)
        target = random_target_of_rank(gen, d1, d2, rank_c)
        if rank_c <= rank_in:
            result = synthesize_postselect(state, target)
            assert result.report.fidelity_vs_target > 1 - 1e-9
            direct = extract_postselected(
                result.unitary, state.padded(result.unitary.shape[0]), d1, d2
            ).probability
            assert direct == pytest.approx(result.success_probability, abs=1e-12)
        else:
            with pytest.raises(InfeasibleRank):
                synthesize_postselect(state, target)


class TestInfeasibleIffRankRule:
    """synthesize_postselect raises InfeasibleRank exactly where
    feasible_postselect is false, including spectra at the rank threshold
    and inputs over fewer or more modes than d1 + d2."""

    def check(self, state, target):
        if feasible_postselect(state, target):
            result = synthesize_postselect(state, target)
            report = extract_postselected(
                result.unitary, state, target.d1, target.d2, target=target.C
            )
            assert report.fidelity_vs_target > 1 - 1e-9
            assert report.probability > 0.0
        else:
            with pytest.raises(InfeasibleRank):
                synthesize_postselect(state, target)

    # (input modes, d1, d2, k): k Takagi values in the input, k singular
    # values in the target
    SHAPES = [(2, 2, 2, 2), (3, 3, 4, 3), (5, 2, 4, 2), (9, 3, 2, 2), (8, 3, 3, 3)]

    @pytest.mark.parametrize("m, d1, d2, k", SHAPES)
    @pytest.mark.parametrize("last_in", [NEAR, BELOW])
    @pytest.mark.parametrize("last_c", [NEAR, BELOW])
    def test_last_values_at_threshold(self, rng, m, d1, d2, k, last_in, last_c):
        sigma_in = np.r_[np.linspace(1.0, 0.5, k - 1), last_in]
        sigma_c = np.r_[np.linspace(1.0, 0.3, k - 1), last_c]
        for _ in range(3):
            state = state_with_spectrum(rng, m, sigma_in)
            target = target_with_spectrum(rng, d1, d2, sigma_c)
            expected = not (last_c == NEAR and last_in == BELOW)
            assert feasible_postselect(state, target) is expected
            self.check(state, target)

    @pytest.mark.parametrize("m, d1, d2, k", SHAPES)
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_rank_margin_of_one(self, rng, m, d1, d2, k, extra):
        """rank(C) = rank(S_in) + extra, every value well above the threshold."""
        rank_in = k - 1 if extra > 0 else k
        rank_c = min(rank_in + extra, min(d1, d2))
        for _ in range(3):
            state = state_with_spectrum(rng, m, np.linspace(1.0, 0.2, rank_in))
            target = target_with_spectrum(rng, d1, d2, np.linspace(1.0, 0.2, rank_c))
            assert feasible_postselect(state, target) is (rank_c <= rank_in)
            self.check(state, target)


@pytest.mark.xfail(raises=VerificationFailure, strict=True, reason="absolute residual gate")
def test_needed_input_value_at_threshold(rng):
    """Known defect: a feasible target that needs the input's Takagi value at
    RANK_TOL * sigma_1 * (1 + 1e-3) fails the absolute 1e-8 mode-map residual,
    because the rescaling amplifies that vector's rounding by lam^2 ~ 1e10.
    Strict, so a fix shows up as a failure here and the marker goes."""
    state = state_with_spectrum(rng, 4, [1.0, NEAR])
    target = target_with_spectrum(rng, 2, 2, [1.0, 0.5])
    assert feasible_postselect(state, target)
    synthesize_postselect(state, target)


def test_identity_circuit_roundtrip():
    target = bell_target(2)
    state = from_qudit_target(target)
    report = extract_postselected(np.eye(4, dtype=complex), state, 2, 2, target=target.C)
    assert np.allclose(report.extracted, target.C)
    assert report.probability == pytest.approx(1.0)
    assert numerical_rank(report.extracted) == 2
