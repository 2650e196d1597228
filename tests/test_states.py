import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonprep import (
    NotSymmetric,
    QuditTarget,
    TwoPhotonState,
    ZeroState,
    evolve_two_photon,
    from_qudit_target,
    normalize,
    single_photons_state,
    state_rank,
    takagi,
)
from photonprep.random_states import (
    random_complex_symmetric,
    random_state_of_rank,
    random_target_of_rank,
    random_unitary,
)
from photonprep.tolerances import ZERO_WEIGHT
from photonprep.verify import fidelity


def bell_target(d):
    return QuditTarget(np.eye(d, dtype=complex) / np.sqrt(d))


class TestFromQuditTarget:
    def test_qubit_bell_has_rank_4(self):
        assert state_rank(from_qudit_target(bell_target(2))) == 4

    def test_product_state_has_rank_2(self):
        C = np.zeros((2, 2), dtype=complex)
        C[0, 0] = 1.0
        assert state_rank(from_qudit_target(QuditTarget(C))) == 2

    def test_qutrit_bell_has_rank_6(self):
        assert state_rank(from_qudit_target(bell_target(3))) == 6

    def test_block_recovers_target(self, rng):
        C = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        C /= np.linalg.norm(C)
        state = from_qudit_target(QuditTarget(C))
        assert np.allclose(2 * state.S[:3, 3:], C)

    def test_normalized(self):
        state = from_qudit_target(bell_target(4))
        assert 2 * np.trace(state.S.conj().T @ state.S).real == pytest.approx(1.0)


class TestSinglePhotonsState:
    def test_two_modes(self):
        state = single_photons_state(2)
        assert np.allclose(state.S, [[0, 0.5], [0.5, 0]])
        assert 2 * np.trace(state.S.conj().T @ state.S).real == pytest.approx(1.0)

    def test_rank_two(self):
        assert state_rank(single_photons_state(2)) == 2

    def test_padding_keeps_rank(self):
        state = single_photons_state(5)
        assert state_rank(state) == 2
        assert np.count_nonzero(state.S) == 2

    def test_rejects_single_mode(self):
        with pytest.raises(ValueError):
            single_photons_state(1)


class TestNormalize:
    def test_antidiagonal(self):
        state = normalize(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(state.S, [[0, 0.5], [0.5, 0]])

    def test_diagonal(self):
        state = normalize(np.eye(2, dtype=complex) / 7.3)
        assert np.allclose(state.S, np.diag([0.5, 0.5]))

    def test_idempotent(self, rng):
        state = normalize(random_complex_symmetric(rng, 4))
        again = normalize(state.S)
        assert np.allclose(state.S, again.S)

    def test_rejects_zero(self):
        with pytest.raises(ZeroState):
            normalize(np.zeros((3, 3)))

    @pytest.mark.parametrize("size", [1e200, 1e308])
    def test_entries_whose_weight_overflows(self, size):
        """2 ||S||_F^2 overflows for entries above ~1e154 (and S + S^T above
        ~9e307), but the matrix of equal entries normalizes to 1/sqrt(8) each."""
        state = normalize(np.full((2, 2), size, dtype=complex))
        assert np.allclose(state.S, np.full((2, 2), 1 / np.sqrt(8)), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("size", [1e-310, 1e-200, 1e-150, 1e-15])
    def test_entries_whose_weight_is_tiny(self, size):
        """S and c S are one state: the all-size 2 x 2 matrix normalizes to
        1/sqrt(8) each also where its weight 8 size^2 is at or below
        ZERO_WEIGHT, underflows (8e-400) or has a subnormal largest entry."""
        assert 8 * size**2 <= ZERO_WEIGHT
        state = normalize(np.full((2, 2), size, dtype=complex))
        assert np.allclose(state.S, np.full((2, 2), 1 / np.sqrt(8)), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("c", [1e-310, 1e-200, 1e-15, 1.0, 1e200, 1e308, 1e-310j])
    def test_any_nonzero_multiple_of_the_identity(self, c):
        state = normalize(c * np.eye(2, dtype=complex))
        phase = c / abs(c)
        assert np.allclose(state.S, phase * np.eye(2) / 2, rtol=0, atol=1e-16)
        assert state_rank(state) == 2

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e10, 1e200])
    def test_antisymmetric_up_to_rounding_is_zero_at_every_scale(self, scale):
        """J + 1e-17 I, J = [[0, 1], [-1, 0]]: its symmetric part 1e-17 I has
        weight 4e-34 at the scale of its largest entry, so it is no state
        whatever the overall scale."""
        J = np.array([[0, 1], [-1, 0]], dtype=complex) + 1e-17 * np.eye(2)
        with pytest.raises(ZeroState):
            normalize(scale * J)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6))
    def test_weight_is_one(self, seed, m):
        gen = np.random.default_rng(seed)
        state = normalize(random_complex_symmetric(gen, m))
        assert 2 * np.trace(state.S.conj().T @ state.S).real == pytest.approx(1.0)


class TestPowerOfTwoScale:
    """Scaling by 2^k is exact in the normal range, so every scale-free
    answer must come back bit for bit."""

    @pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
    def test_scale_free(self, k):
        gen = np.random.default_rng(k + 2000)
        S = random_state_of_rank(gen, 5, 3).S
        A, B = random_complex_symmetric(gen, 5), random_complex_symmetric(gen, 5)
        c = 2.0**k
        assert np.array_equal(normalize(c * S).S, normalize(S).S)
        assert fidelity(c * A, B) == fidelity(A, B)
        assert state_rank(normalize(c * S)) == state_rank(normalize(S)) == 3
        with pytest.raises(NotSymmetric):
            takagi(c * np.array([[0, 1], [0, 0]], dtype=complex))


NON_FINITE = np.array([[np.nan, 0], [0, 1]], dtype=complex)


class TestNonFinite:
    def test_two_photon_state_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            TwoPhotonState(NON_FINITE)

    def test_qudit_target_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            QuditTarget(NON_FINITE)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_normalize_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            normalize(np.array([[bad, 0], [0, 1]], dtype=complex))


@pytest.mark.parametrize(
    "make, matrix, error, match",
    [
        (TwoPhotonState, np.ones((2, 3)), ValueError, "must be square"),
        (TwoPhotonState, np.ones(4) / np.sqrt(8), ValueError, "must be square"),
        (TwoPhotonState, [[0.5, 0.5], [0.0, 0.0]], NotSymmetric, "not symmetric"),
        (TwoPhotonState, np.eye(2), ValueError, "not normalized"),
        (QuditTarget, np.zeros((0, 2)), ValueError, "nonempty"),
        (QuditTarget, np.ones(2) / np.sqrt(2), ValueError, "nonempty"),
        (QuditTarget, np.eye(2), ValueError, "unit Frobenius norm"),
    ],
)
def test_constructors_refuse(make, matrix, error, match):
    with pytest.raises(error, match=match):
        make(np.asarray(matrix, dtype=complex))


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 2)])
def test_normalize_rejects_non_square(shape):
    """The shape is checked before S is symmetrized, so a 2 x 3 matrix is
    named, not met by a broadcast error of S + S^T."""
    with pytest.raises(ValueError, match=rf"must be square, got \({shape[0]},"):
        normalize(np.ones(shape, dtype=complex))


class TestStateRank:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_constructed_rank(self, rng, rank):
        assert state_rank(random_state_of_rank(rng, 5, rank)) == rank

    def test_invariant_under_evolution(self, rng):
        state = random_state_of_rank(rng, 5, 3)
        for _ in range(20):
            U = random_unitary(rng, 5)
            evolved = normalize(evolve_two_photon(U, state.S))
            assert state_rank(evolved) == 3

    @pytest.mark.parametrize("rank", [0, 6])
    def test_state_rank_outside_one_to_m_refused(self, rng, rank):
        with pytest.raises(ValueError, match=r"rank must be in 1\.\.5"):
            random_state_of_rank(rng, 5, rank)

    @pytest.mark.parametrize("rank", [0, 3])
    def test_target_rank_outside_one_to_min_d_refused(self, rng, rank):
        with pytest.raises(ValueError, match=r"rank must be in 1\.\.2"):
            random_target_of_rank(rng, 2, 4, rank)

    @pytest.mark.parametrize("d1, d2", [(2, 4), (3, 3), (4, 1)])
    def test_target_rank_at_min_d(self, rng, d1, d2):
        rank = min(d1, d2)
        C = random_target_of_rank(rng, d1, d2, rank).C
        assert C.shape == (d1, d2) and np.linalg.matrix_rank(C) == rank

    def test_padding_preserves_rank(self, rng):
        state = random_state_of_rank(rng, 4, 2)
        assert state_rank(TwoPhotonState(np.pad(state.S, (0, 3)))) == 2
