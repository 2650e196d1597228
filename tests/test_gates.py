import itertools

import numpy as np
import pytest

from photonprep import build_cnz, cnz_success_probability, fock, verify_cnz
from photonprep.gates import _sigma_max, cnz_alpha, logical_occupation
from photonprep.verify import SynthesisResult


class TestSuccessProbability:
    def test_cz_is_one_ninth(self):
        assert cnz_success_probability(2, np.pi) == pytest.approx(1 / 9, abs=1e-12)

    def test_zero_phase_is_deterministic(self):
        for n in (2, 3, 4):
            assert cnz_success_probability(n, 0.0) == pytest.approx(1.0)

    def test_ccz_at_pi(self):
        alpha = cnz_alpha(3, np.pi)
        expected = _sigma_max(3, alpha) ** (-6)
        assert cnz_success_probability(3, np.pi) == pytest.approx(expected)
        assert cnz_success_probability(3, np.pi) == pytest.approx(0.01757, abs=5e-5)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("phi", [np.pi / 4, np.pi / 2, np.pi, 3 * np.pi / 2])
    def test_lower_bound(self, n, phi):
        p = cnz_success_probability(n, phi)
        bound = (1 + (2 * np.sin(phi / 2)) ** (1 / n)) ** (-2 * n)
        assert p >= bound - 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("phi", [np.pi / 4, np.pi / 2, np.pi, 3 * np.pi / 2])
    def test_root_choice_invariance(self, n, phi):
        base = cnz_alpha(n, phi)
        probs = [
            _sigma_max(n, base * np.exp(2j * np.pi * k / n)) ** (-2 * n)
            for k in range(n)
        ]
        assert max(probs) - min(probs) < 1e-12

    def test_continuity_endpoints(self):
        for n in (2, 3):
            assert cnz_success_probability(n, 0.0) == pytest.approx(1.0, abs=1e-6)
            assert cnz_success_probability(n, 2 * np.pi) == pytest.approx(1.0, abs=1e-6)


class TestBuildAndVerify:
    def test_alpha_is_nth_root(self):
        for n in (2, 3, 4):
            for phi in (np.pi / 3, np.pi):
                alpha = cnz_alpha(n, phi)
                assert alpha**n == pytest.approx(np.exp(1j * phi) - 1, abs=1e-12)

    def test_cz_amplitudes(self):
        result, spec = build_cnz(2, np.pi)
        assert spec.p_s == pytest.approx(1 / 9, abs=1e-12)
        assert verify_cnz(result, 2, np.pi)

    def test_identity_phase(self):
        result, spec = build_cnz(3, 0.0)
        assert spec.p_s == pytest.approx(1.0)
        assert verify_cnz(result, 3, 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("phi", [np.pi / 4, np.pi / 2, np.pi, 3 * np.pi / 2])
    def test_family_verifies(self, n, phi):
        result, spec = build_cnz(n, phi)
        assert verify_cnz(result, n, phi)
        assert spec.p_s == pytest.approx(cnz_success_probability(n, phi), abs=1e-12)

    def test_unitary_and_mode_count(self):
        result, _ = build_cnz(3, np.pi / 2)
        U = result.unitary
        assert U.shape == (12, 12)
        assert np.linalg.norm(U.conj().T @ U - np.eye(12)) < 1e-10
        assert result.aux_modes == 6

    def test_tampering_detected(self):
        result, _ = build_cnz(2, np.pi)
        U = result.unitary.copy()
        U[0, 0] += 1e-3
        tampered = SynthesisResult(
            unitary=U,
            aux_modes=result.aux_modes,
            scale_alpha=result.scale_alpha,
            success_probability=result.success_probability,
        )
        assert not verify_cnz(tampered, 2, np.pi)


def _definition_table(U, n, definition_amplitude):
    """<y| U |x> over the dual-rail basis, one naive permanent per entry."""
    N = U.shape[0]

    def occupation(bits):
        occ = np.zeros(N, dtype=int)
        for i, bit in enumerate(bits):
            occ[i if bit else n + i] = 1  # |1> rail i, |0> rail n + i
        return occ

    basis = list(itertools.product((0, 1), repeat=n))
    return np.array(
        [[definition_amplitude(U, occupation(y), occupation(x)) for x in basis] for y in basis]
    )


def _gate_table(p_s, n, phi):
    expected = np.sqrt(p_s) * np.eye(2**n, dtype=complex)
    expected[-1, -1] *= np.exp(1j * phi)
    return expected


class TestOracleIndependence:
    @pytest.mark.parametrize("tamper", [False, True])
    @pytest.mark.parametrize("n", [2, 3])
    def test_verify_cnz_agrees_with_definition(self, n, tamper, definition_amplitude):
        phi = 2 * np.pi / 3
        result, _ = build_cnz(n, phi)
        U = result.unitary.copy()
        if tamper:
            U[n, 0] += 1e-4  # mixes a |1> rail into a |0> rail
        circuit = SynthesisResult(
            unitary=U, aux_modes=result.aux_modes, scale_alpha=result.scale_alpha,
            success_probability=result.success_probability,
        )
        table = _definition_table(U, n, definition_amplitude)
        deviation = np.max(np.abs(table - _gate_table(result.success_probability, n, phi)))
        verdict = bool(deviation <= 1e-9)
        assert verdict is not tamper
        assert verify_cnz(circuit, n, phi) is verdict

    @pytest.mark.parametrize("n", [3, 4])
    def test_cross_basis_leak_detected(self, n, monkeypatch):
        """A leak into one off-diagonal entry, the diagonal left exact, fails."""
        phi = np.pi
        result, _ = build_cnz(n, phi)
        exact = fock.amplitude

        def leaky(U, k, ell):
            table = exact(U, k, ell)
            table[1, 2] += 1e-6
            return table

        monkeypatch.setattr(fock, "amplitude", leaky)
        bits = list(itertools.product((0, 1), repeat=n))
        occ = logical_occupation(bits, n, result.unitary.shape[0])
        table = leaky(result.unitary, occ[:, None], occ[None])
        expected = _gate_table(result.success_probability, n, phi)
        assert np.max(np.abs(np.diag(table) - np.diag(expected))) <= 1e-9
        assert not verify_cnz(result, n, phi)
        monkeypatch.undo()
        assert verify_cnz(result, n, phi)
