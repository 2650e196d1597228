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
    numerical_rank,
    rescaling_lambda,
    single_photons_state,
    state_rank,
    synthesize_postselect,
)
from photonprep.random_states import random_state_of_rank, random_target_of_rank


def bell_target(d):
    return QuditTarget(np.eye(d, dtype=complex) / np.sqrt(d))


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
        state = build_sps(QuditTarget(np.eye(2, dtype=complex) / np.sqrt(2)))
        assert state_rank(state) == 2
        # all four blocks proportional to the identity
        blocks = [state.S[:2, :2], state.S[:2, 2:], state.S[2:, :2], state.S[2:, 2:]]
        for block in blocks:
            assert np.allclose(block, blocks[0])

    def test_rank_one_target(self):
        C = np.zeros((3, 2), dtype=complex)
        C[0, 0] = 1.0
        assert state_rank(build_sps(QuditTarget(C))) == 1

    @pytest.mark.parametrize("d1,d2,rank", [(2, 2, 1), (3, 2, 2), (4, 4, 3), (2, 4, 2)])
    def test_rank_matches_target(self, rng, d1, d2, rank):
        target = random_target_of_rank(rng, d1, d2, rank)
        state = build_sps(target)
        assert state_rank(state) == rank
        ratio = 2 * state.S[:d1, d1:] / target.C
        assert np.allclose(ratio, ratio.flat[0])


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
        report = result.details["oracle_report"]
        assert report.fidelity_vs_target > 1 - 1e-9

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
            assert result.details["oracle_report"].fidelity_vs_target > 1 - 1e-9
            direct = extract_postselected(
                result.unitary, state.padded(result.unitary.shape[0]), d1, d2
            ).probability
            assert direct == pytest.approx(result.success_probability, abs=1e-12)
        else:
            with pytest.raises(InfeasibleRank):
                synthesize_postselect(state, target)


def test_identity_circuit_roundtrip():
    target = bell_target(2)
    state = from_qudit_target(target)
    report = extract_postselected(np.eye(4, dtype=complex), state, 2, 2, target=target.C)
    assert np.allclose(report.extracted, target.C)
    assert report.probability == pytest.approx(1.0)
    assert numerical_rank(report.extracted) == 2
