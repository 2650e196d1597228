import numpy as np
import pytest

from photonprep import (
    DimensionMismatch,
    QuditTarget,
    TwoPhotonState,
    amplitude,
    extract_heralded,
    extract_postselected,
    from_qudit_target,
    normalize,
    synthesize_herald,
    synthesize_postselect,
)
from photonprep.fock import permanent_naive
from photonprep.random_states import (
    random_complex_symmetric,
    random_state_of_rank,
    random_target_of_rank,
    random_unitary,
)
from photonprep.states import single_photons_state
from photonprep.verify import ExtractionReport, HeraldPattern, fidelity


class TestHeraldPattern:
    @pytest.mark.parametrize("signal", [(2.7,), (2.0,), (True,), (0,), (2, -1)])
    def test_rejects_non_integers_and_non_positive(self, signal):
        with pytest.raises(ValueError):
            HeraldPattern(signal=signal)

    def test_accepts_numpy_integers(self):
        pattern = HeraldPattern(signal=(np.int64(2), 1))
        assert pattern.signal == (2, 1)
        assert all(type(s) is int for s in pattern.signal)


class TestVerdict:
    @pytest.mark.parametrize(
        "fidelity, verified", [(1.0, True), (1 - 1e-10, True), (1 - 1e-8, False), (float("nan"), False)]
    )
    def test_fidelity_threshold(self, fidelity, verified):
        report = ExtractionReport(extracted=np.zeros((1, 1)), probability=1.0, fidelity_vs_target=fidelity)
        assert report.verified is verified


class TestFidelity:
    @pytest.mark.parametrize("scale", [1e-200, 3.0, 1e200])
    def test_scale_free(self, rng, scale):
        """F(S, c S) = 1 where ||c S||_F would under- or overflow."""
        S = random_complex_symmetric(rng, 4)
        assert fidelity(S, scale * S) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(scale * S, S) == pytest.approx(1.0, abs=1e-12)

    def test_zero_state(self, rng):
        S = random_complex_symmetric(rng, 3)
        assert fidelity(S, np.zeros((3, 3))) == 0.0
        assert fidelity(np.zeros((3, 3)), S) == 0.0


class TestExtractPostselected:
    def test_identity_circuit(self):
        target = QuditTarget(np.eye(2, dtype=complex) / np.sqrt(2))
        state = from_qudit_target(target)
        report = extract_postselected(np.eye(4, dtype=complex), state, 2, 2, target.C)
        assert np.allclose(report.extracted, target.C)
        assert report.probability == pytest.approx(1.0)
        assert report.fidelity_vs_target == pytest.approx(1.0)

    def test_rejects_misshaped_target(self):
        state = from_qudit_target(QuditTarget(np.eye(2, dtype=complex) / np.sqrt(2)))
        with pytest.raises(DimensionMismatch):
            extract_postselected(np.eye(4, dtype=complex), state, 2, 2, np.eye(3))

    def test_probability_bounded(self, rng):
        state = random_state_of_rank(rng, 4, 2)
        for _ in range(10):
            U = random_unitary(rng, 5)
            report = extract_postselected(U, state, 2, 2)
            assert 0.0 <= report.probability <= 1.0 + 1e-12

    def test_all_photons_to_auxiliaries(self):
        # swap the computational modes with auxiliaries: nothing stays
        U = np.eye(4, dtype=complex)[[2, 3, 0, 1]]
        state = TwoPhotonState(np.pad(single_photons_state(2).S, (0, 2)))
        assert extract_postselected(U, state, 1, 1).probability == pytest.approx(0.0)

    def test_agrees_with_amplitude_pathway(self, rng, occupation_basis):
        """Matrix conjugation vs per-outcome permanent amplitudes."""
        m = 4
        state = normalize(random_complex_symmetric(rng, m))
        U = random_unitary(rng, m)
        d1 = d2 = 2
        conjugated = extract_postselected(U, state, d1, d2).probability

        def input_coeff(occ):
            i, j = [idx for idx in range(m) for _ in range(occ[idx])]
            return np.sqrt(2) * state.S[i, i] if i == j else 2 * state.S[i, j]

        direct = 0.0
        for i in range(d1):
            for j in range(d1, d1 + d2):
                k = np.zeros(m, dtype=int)
                k[i] += 1
                k[j] += 1
                amp = sum(
                    input_coeff(ell) * amplitude(U, k, ell)
                    for ell in occupation_basis(m, 2)
                )
                direct += abs(amp) ** 2
        assert direct == pytest.approx(conjugated, abs=1e-10)


def definition_c_block(U, S, d1, d2):
    """Post-selected block from two-photon permanents, one output pair at a
    time: C_out[i, j] = sum_{p <= q} w_pq Per(U[[i, d1 + j]][:, [p, q]]) with
    w_pq = 2 S_pq off the diagonal and S_pp on it (a_p^† a_q^† is spread
    over S_pq and S_qp). Never forms U S U^T."""
    m = S.shape[0]
    C = np.zeros((d1, d2), dtype=complex)
    for i in range(d1):
        for j in range(d2):
            rows = U[[i, d1 + j]]
            for p in range(m):
                for q in range(p, m):
                    w = S[p, p] if p == q else 2.0 * S[p, q]
                    C[i, j] += w * permanent_naive(rows[:, [p, q]])
    return C


class TestExtractPostselectedDefinition:
    def test_synthesized_circuit_wider_than_input(self, rng):
        state = random_state_of_rank(rng, 3, 2)
        target = random_target_of_rank(rng, 2, 3, 2)
        result = synthesize_postselect(state, target)
        U = result.unitary
        assert U.shape[0] > state.modes
        report = extract_postselected(U, state, 2, 3, target=target.C)
        expected = definition_c_block(U, state.S, 2, 3)
        assert np.linalg.norm(report.extracted - expected) < 1e-12
        assert report.probability == pytest.approx(np.sum(np.abs(expected) ** 2), abs=1e-12)
        assert report.fidelity_vs_target > 1 - 1e-9

    def test_random_unitary_padded_or_not(self, rng):
        state = normalize(random_complex_symmetric(rng, 3))
        U = random_unitary(rng, 6)
        expected = definition_c_block(U, state.S, 2, 2)
        for k in (0, 1, 3):
            s = TwoPhotonState(np.pad(state.S, (0, k)))
            extracted = extract_postselected(U, s, 2, 2).extracted
            assert np.linalg.norm(extracted - expected) < 1e-12

    def test_rejects_state_wider_than_unitary(self, rng):
        state = normalize(random_complex_symmetric(rng, 5))
        with pytest.raises(DimensionMismatch):
            extract_postselected(random_unitary(rng, 4), state, 1, 1)

    def test_rejects_non_square_unitary(self, rng):
        state = normalize(random_complex_symmetric(rng, 3))
        with pytest.raises(DimensionMismatch):
            extract_postselected(random_unitary(rng, 6)[:4], state, 2, 2)


class TestExtractHeralded:
    @pytest.mark.parametrize("circuit", ["synthesized", "random"])
    def test_agrees_with_definition(self, rng, circuit, definition_amplitude):
        # 4 payload modes, 4 photons, 2 of them heralded in mode 4
        m, n = 4, 4
        target = random_state_of_rank(rng, m, 3)
        pattern = HeraldPattern(signal=(2,))
        if circuit == "synthesized":
            result = synthesize_herald(target, n)
            assert result.herald == pattern
            U = result.unitary
        else:
            U = random_unitary(rng, 9)
        ell = np.zeros(U.shape[0], dtype=int)
        ell[:n] = 1
        T = np.zeros((m, m), dtype=complex)
        for i in range(m):
            for j in range(i, m):
                k = np.zeros(U.shape[0], dtype=int)
                k[m] = 2
                k[i] += 1
                k[j] += 1
                amp = definition_amplitude(U, k, ell)
                T[i, j] = T[j, i] = amp / np.sqrt(2) if i == j else amp / 2
        report = extract_heralded(U, n, pattern, m, target=target.S)
        assert report.probability == pytest.approx(2 * np.sum(np.abs(T) ** 2), rel=1e-12)
        assert np.max(np.abs(report.extracted - normalize(T).S)) <= 1e-12
        assert report.fidelity_vs_target == pytest.approx(
            abs(np.vdot(T, target.S)) / (np.linalg.norm(T) * np.linalg.norm(target.S)), abs=1e-12
        )

    def test_trivial_two_mode_identity(self):
        state = single_photons_state(2)
        report = extract_heralded(
            np.eye(2, dtype=complex), 2, HeraldPattern(signal=()), 2, target=state.S
        )
        assert np.allclose(report.extracted, state.S)
        assert report.probability == pytest.approx(1.0)

    def test_rejects_misshaped_target(self):
        state = single_photons_state(2)
        with pytest.raises(DimensionMismatch):
            extract_heralded(
                np.eye(2, dtype=complex), 2, HeraldPattern(signal=()), 2, target=np.eye(4)
            )

    def test_synthesized_rank3(self, rng):
        target = random_state_of_rank(rng, 4, 3)
        result = synthesize_herald(target, 3)
        report = extract_heralded(
            result.unitary, 3, result.herald, 4, target=target.S
        )
        assert report.fidelity_vs_target > 1 - 1e-9

    def test_probability_mass_partition(self, rng, occupation_basis):
        """Herald probability plus all other outcome mass sums to one."""
        target = random_state_of_rank(rng, 3, 2)
        result = synthesize_herald(target, 3)  # 3 payload + 1 herald + 3 aux
        U = result.unitary
        N = U.shape[0]
        n = 3
        ell = np.zeros(N, dtype=int)
        ell[:n] = 1
        total = sum(abs(amplitude(U, k, ell)) ** 2 for k in occupation_basis(N, n))
        assert total == pytest.approx(1.0, abs=1e-9)
        herald_mode = 3
        herald_mass = sum(
            abs(amplitude(U, k, ell)) ** 2
            for k in occupation_basis(N, n)
            if k[herald_mode] == 1
            and sum(k[:3]) == 2
            and sum(k[4:]) == 0
        )
        assert herald_mass == pytest.approx(result.success_probability, abs=1e-10)
