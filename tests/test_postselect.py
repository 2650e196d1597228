import numpy as np
import pytest

from photonprep import (
    InfeasibleRank,
    QuditTarget,
    TwoPhotonState,
    build_sps,
    extract_postselected,
    feasible_postselect,
    from_qudit_target,
    normalize,
    single_photons_state,
    state_rank,
    synthesize_postselect,
    takagi,
)
from photonprep import postselect as postselect_module
from photonprep.verify import fidelity
from photonprep.cli import main
from photonprep.exceptions import ConvergenceFailure, VerificationFailure
from photonprep.io import dump_json, matrix_to_doc
from photonprep.random_states import random_state_of_rank, random_target_of_rank
from photonprep.linalg import checked_svd
from photonprep.tolerances import RANK_TOL, TAKAGI_CUT

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

    @pytest.mark.parametrize("d1,d2,rank", [(4, 4, 1), (5, 3, 2), (8, 8, 5), (32, 32, 17)])
    def test_rounding_level_values_are_exactly_zero(self, rng, d1, d2, rank):
        """A product of Gaussian d1 x rank and rank x d2 factors has
        min(d1, d2) - rank singular values at rounding level; build_sps sets
        them to 0, as takagi would, so the diagonal beyond rank(C) is exact."""
        a, b = (rng.standard_normal((2, *shape)) for shape in [(d1, rank), (rank, d2)])
        C = (a[0] + 1j * a[1]) @ (b[0] + 1j * b[1])
        _, fac = build_sps(QuditTarget(C / np.linalg.norm(C)))
        assert np.all(fac.diagonal[:rank] > 0.0)
        assert np.all(fac.diagonal[rank:] == 0.0)
        assert fac.rank == rank


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

    @pytest.mark.parametrize("d1, d2, rank", [(1, 1, 1), (2, 5, 2), (6, 3, 2), (32, 32, 17)])
    def test_reads_the_svd_of_c_exactly(self, d1, d2, rank):
        """The state and its kept Takagi vectors are, to the bit, those of
        W = [V1; conj(V2)] / sqrt(2) over the first p = min(d1, d2) columns
        of C's checked SVD: S = W diag(2 sigma) W^T, V's first p columns
        conj(W)."""
        target = random_target_of_rank(np.random.default_rng(d1 + d2), d1, d2, rank)
        v1, sigma, v2h = checked_svd(target.C)
        sigma = np.where(sigma > TAKAGI_CUT * (d1 + d2) * sigma[0], sigma, 0.0)
        p = len(sigma)
        W = np.vstack([v1[:, :p] / np.sqrt(2.0), v2h.T[:, :p] / np.sqrt(2.0)])
        state, fac = build_sps(target)
        assert np.array_equal(state.S, normalize((W * (2.0 * sigma)) @ W.T).S)
        assert np.array_equal(fac.V[:, :p], W.conj())
        assert np.array_equal(fac.diagonal[:p], sigma / np.sqrt(2.0 * np.sum(sigma**2)))
        assert not np.any(fac.diagonal[p:])


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

    @pytest.mark.parametrize(
        "m, rank_in, d1, d2, rank_c", [(4, 1, 2, 2, 2), (6, 2, 4, 3, 3), (5, 3, 5, 5, 5)]
    )
    def test_infeasible_states_the_fidelity_ceiling(self, rng, m, rank_in, d1, d2, rank_c):
        """The refusal states sqrt(sum_{i<=r} sigma_i^2 / sum sigma_i^2) over
        C's singular values, r = rank(S_in): the best fidelity of a rank-r
        block with C."""
        state = random_state_of_rank(rng, m, rank_in)
        target = random_target_of_rank(rng, d1, d2, rank_c)
        sigma = np.linalg.svd(target.C, compute_uv=False)
        stated_at = f"fidelity ceiling at rank {rank_in} is "
        with pytest.raises(InfeasibleRank, match=stated_at) as info:
            synthesize_postselect(state, target)
        stated = float(str(info.value).rsplit(" ", 1)[1])
        formula = np.sqrt(np.sum(sigma[:rank_in] ** 2) / np.sum(sigma**2))
        assert abs(stated - formula) <= 1e-12
        assert stated < 1.0

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
        """U's top-left (d1 + d2) x m_in block is scale_alpha times the mode
        map M, and M S_in M^T is the intermediate state build_sps(target),
        unpadded, for inputs over as many, fewer and more modes than d1 + d2."""
        cases = [
            (single_photons_state(4), bell_target(2)),
            ADVERSARIAL["fewer-modes-than-d1+d2"],
            ADVERSARIAL["more-modes-than-d1+d2"],
        ]
        for state, target in cases:
            result = synthesize_postselect(state, target)
            s_ps, _ = build_sps(target)
            B = result.unitary[: s_ps.modes, : state.modes] / result.scale_alpha
            assert np.linalg.norm(B @ state.S @ B.T - s_ps.S) <= 1e-8
            # the C block of the output is alpha^2 C / sqrt(8) for ||C|| = 1
            assert result.success_probability == pytest.approx(
                result.scale_alpha**4 / 2, abs=1e-12
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
            padded = TwoPhotonState(np.pad(state.S, (0, len(result.unitary) - m)))
            direct = extract_postselected(result.unitary, padded, d1, d2).probability
            assert direct == pytest.approx(result.success_probability, abs=1e-12)
        else:
            with pytest.raises(InfeasibleRank):
                synthesize_postselect(state, target)


def flat_state(m):
    return normalize(np.eye(m, dtype=complex))


# (input state, target): Takagi spectra the dilation must survive
def _adversarial_cases():
    rng = np.random.default_rng(20240517)
    return {
        "bell-from-flat": (flat_state(4), bell_target(2)),
        "bell3-from-flat": (flat_state(8), bell_target(3)),
        "rank-one-input": (random_state_of_rank(rng, 5, 1), random_target_of_rank(rng, 2, 3, 1)),
        "rank-one-input-one-mode": (flat_state(1), random_target_of_rank(rng, 2, 2, 1)),
        "degenerate-input": (
            state_with_spectrum(rng, 6, [1.0, 1.0, 1.0, 0.5, 0.5]),
            target_with_spectrum(rng, 3, 3, [1.0, 1.0, 0.2]),
        ),
        "degenerate-target": (
            state_with_spectrum(rng, 5, [1.0, 0.7, 0.4]),
            target_with_spectrum(rng, 4, 4, [1.0, 1.0, 1.0]),
        ),
        "fewer-modes-than-d1+d2": (
            random_state_of_rank(rng, 3, 3),
            random_target_of_rank(rng, 3, 4, 3),
        ),
        "more-modes-than-d1+d2": (
            random_state_of_rank(rng, 9, 2),
            random_target_of_rank(rng, 2, 2, 2),
        ),
        # C's last value sits just below RANK_TOL * sigma_1, above the cut, and
        # rank(S_in) = rank(C) = 2: k = 2 < 3 nonzero values of S_ps, so S_ps
        # keeps a weight that no dilated direction carries
        "fewer-dilated-than-nonzero": (
            state_with_spectrum(rng, 5, [1.0, 0.7]),
            target_with_spectrum(rng, 3, 3, [1.0, 0.4, BELOW]),
        ),
    }


ADVERSARIAL = _adversarial_cases()


def test_fewer_dilated_directions_than_nonzero_values():
    """The premise of that case: rank(S_in) = 2 dilated directions for the
    3 nonzero Takagi values of S_ps."""
    state, target = ADVERSARIAL["fewer-dilated-than-nonzero"]
    assert state_rank(state) == 2
    assert np.count_nonzero(build_sps(target)[1].diagonal) == 3


def check_block_is_scale_alpha_times_the_mode_map(state, target):
    """U's top-left (d1 + d2) x m_in block is scale_alpha times
    M = conj(V_ps) diag(lam) V_in^T, formed here from both Takagi
    factorizations, and scale_alpha = 1 / sigma_1(M) = 1 / max(lam)."""
    result = synthesize_postselect(state, target)
    fac_in, (s_ps, fac_ps) = takagi(state.S), build_sps(target)
    r = min(fac_in.rank, s_ps.modes)
    lam = np.sqrt(fac_ps.diagonal[:r] / fac_in.diagonal[:r])
    M = (fac_ps.V[:, :r].conj() * lam) @ fac_in.V[:, :r].T
    block = result.unitary[: s_ps.modes, : state.modes]
    assert np.max(np.abs(block - result.scale_alpha * M)) <= 1e-12
    assert result.scale_alpha == 1.0 / lam.max()
    return result


class TestDilationFromTakagiFactors:
    """synthesize_postselect dilates M = conj(V_ps) diag(lam) V_in^T from
    those factors, taking no SVD of M."""

    @pytest.mark.parametrize("case", sorted(ADVERSARIAL))
    def test_unitary_and_verified(self, case):
        state, target = ADVERSARIAL[case]
        result = synthesize_postselect(state, target)
        U = result.unitary
        assert np.linalg.norm(U.conj().T @ U - np.eye(len(U))) <= 1e-10
        assert result.report.fidelity_vs_target >= 1 - 1e-9

    @pytest.mark.parametrize("case", sorted(ADVERSARIAL))
    def test_block_is_scale_alpha_times_the_mode_map(self, case):
        state, target = ADVERSARIAL[case]
        check_block_is_scale_alpha_times_the_mode_map(state, target)

    @pytest.mark.parametrize("case", sorted(ADVERSARIAL))
    def test_circuit_has_natural_size(self, case):
        """M is (d1 + d2) x m_in, so its dilation spans m_in + d1 + d2 modes,
        the input's m_in modes being the auxiliaries."""
        state, target = ADVERSARIAL[case]
        result = synthesize_postselect(state, target)
        assert len(result.unitary) == state.modes + target.d1 + target.d2
        assert result.aux_modes == state.modes

    @pytest.mark.parametrize("case", sorted(ADVERSARIAL))
    def test_only_svds_are_of_the_target(self, case, svds_outside_takagi):
        """Outside the one Takagi factorization of S_in, whose own SVD is of
        S_in, the only SVD is build_sps's one of C: both ranks are read off
        those factors."""
        state, target = ADVERSARIAL[case]
        shapes = svds_outside_takagi(postselect_module)
        synthesize_postselect(state, target)
        assert shapes == [target.C.shape]


def _hostile_target(i):
    """A k-fold singular-value cluster at 1 with spreads down to 1e-16,
    values in (0.1, 0.9) and values below 1e-9, between Haar factors: LAPACK's
    divide-and-conquer SVD can fail on such C, or return factors off
    unitarity."""
    rng = np.random.default_rng([0, i])
    m = int(rng.integers(20, 80))
    k = int(rng.integers(m // 4, m // 2 + 1))
    small = int(rng.integers(0, m - k))
    sig = np.r_[
        1 + rng.standard_normal(k) * 10.0 ** rng.uniform(-16, -8),
        rng.uniform(0.1, 0.9, m - k - small),
        10.0 ** rng.uniform(-16, -9, small),
    ]
    C = (haar_unitary(rng, m) * np.sort(np.abs(sig))[::-1]) @ haar_unitary(rng, m)
    return C / np.linalg.norm(C)


# gesdd of these C (OpenBLAS) returned factors off unitarity by up to 1e-5
# (7699, 84629, 224944) or did not converge (197874, 218176)
HOSTILE = [7699, 84629, 224944, 197874, 218176]


class TestHostileTargets:
    """Every circuit handed out is a unitary that verify accepts; a target
    whose SVD cannot give that is a ConvergenceFailure (exit 2 on the CLI)."""

    @pytest.mark.parametrize("i", HOSTILE)
    def test_library(self, i):
        C = _hostile_target(i)
        state = random_state_of_rank(np.random.default_rng(i), len(C), len(C))
        try:
            result = synthesize_postselect(state, QuditTarget(C))
        except ConvergenceFailure:
            return
        U = result.unitary
        assert np.linalg.norm(U.conj().T @ U - np.eye(len(U))) <= 1e-10
        assert result.report.verified

    @pytest.mark.parametrize("i", HOSTILE)
    def test_cli(self, tmp_path, capsys, i):
        C = _hostile_target(i)
        state = random_state_of_rank(np.random.default_rng(i), len(C), len(C))
        dump_json(matrix_to_doc(state.S), str(tmp_path / "in.json"))
        dump_json(matrix_to_doc(C), str(tmp_path / "target.json"))
        out = tmp_path / "ps.json"
        code = main(["synth-postselect", "--state", str(tmp_path / "in.json"),
                     "--target", str(tmp_path / "target.json"), "--output", str(out)])
        if code == 2:
            err = capsys.readouterr().err
            assert "off unitarity" in err or "did not converge" in err
            assert not out.exists()
            return
        assert code == 0
        assert main(["verify", "--input", str(out)]) == 0


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
    @pytest.mark.parametrize("j_in", [-4, -1, 1, 4])
    @pytest.mark.parametrize("j_c", [-4, -1, 1, 4])
    def test_last_values_within_rounding_of_threshold(self, rng, m, d1, d2, k, j_in, j_c):
        """Last values at RANK_TOL sigma_1 (1 + j eps): whichever side of the
        threshold rounding puts them, the predicate is the synthesizer's verdict."""
        eps = np.finfo(float).eps
        sigma_in = np.r_[np.linspace(1.0, 0.5, k - 1), RANK_TOL * (1 + j_in * eps)]
        sigma_c = np.r_[np.linspace(1.0, 0.3, k - 1), RANK_TOL * (1 + j_c * eps)]
        for _ in range(3):
            state = state_with_spectrum(rng, m, sigma_in)
            self.check(state, target_with_spectrum(rng, d1, d2, sigma_c))

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


def test_needed_input_value_at_threshold(rng):
    """A feasible target that needs the input's Takagi value at
    RANK_TOL * sigma_1 * (1 + 1e-3) synthesizes: the rescaling amplifies that
    direction by lam^2 ~ 1e10, and the oracle, not a residual of the rescaled
    mode map, is the verdict on the circuit."""
    state = state_with_spectrum(rng, 4, [1.0, NEAR])
    target = target_with_spectrum(rng, 2, 2, [1.0, 0.5])
    assert feasible_postselect(state, target)
    result = synthesize_postselect(state, target)
    assert result.report.verified
    assert result.success_probability > 0.0


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("x", [1e-9, 3e-10, 1.001e-10])
def test_input_spectrum_approaching_threshold(seed, x):
    """Input Takagi values [1, 0.7, x] on 6 modes onto a 3 x 3 target with
    values [1, 0.5, 0.2]: lam^2 = d_ps / d_in grows as x falls to RANK_TOL,
    and every circuit verifies with U's block scale_alpha times the mode map."""
    gen = np.random.default_rng([26, seed])
    state = state_with_spectrum(gen, 6, [1.0, 0.7, x])
    target = target_with_spectrum(gen, 3, 3, [1.0, 0.5, 0.2])
    assert feasible_postselect(state, target)
    result = check_block_is_scale_alpha_times_the_mode_map(state, target)
    assert result.report.verified
    assert result.success_probability > 0.0


def test_mode_map_error_is_refused_by_the_oracle(monkeypatch):
    """A dilation of singular values off by up to 1e-2 relative, renormalized
    to a contraction, is unitary but prepares the wrong block: the oracle
    refuses it, with no gate of its own in the synthesizer."""
    gen = np.random.default_rng(2601)
    extension = postselect_module.unitary_extension

    def perturbed(a, s, bh):
        s = s * (1.0 + 1e-2 * gen.uniform(-1.0, 1.0, len(s)))
        return extension(a, s / s.max(), bh)

    monkeypatch.setattr(postselect_module, "unitary_extension", perturbed)
    for _ in range(10):
        state = random_state_of_rank(gen, 5, 3)
        target = random_target_of_rank(gen, 3, 3, 3)
        with pytest.raises(VerificationFailure, match="oracle fidelity"):
            synthesize_postselect(state, target)


def test_identity_circuit_roundtrip(definition_rank):
    target = bell_target(2)
    state = from_qudit_target(target)
    report = extract_postselected(np.eye(4, dtype=complex), state, 2, 2, target=target.C)
    assert np.allclose(report.extracted, target.C)
    assert report.probability == pytest.approx(1.0)
    assert definition_rank(report.extracted) == 2
