import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from photonprep import (
    DimensionMismatch,
    TooLarge,
    build_cnz,
    cnz_success_probability,
    fock,
    unitary_extension,
    verify_cnz,
)
from photonprep.gates import _dft_factors, _dual_rail_basis, _gate_phases, _sigma_max, cnz_alpha
from photonprep.verify import SynthesisResult

# phases outside (0, 2 pi), far outside it, and near its multiples
ANY_PHASE = [-1.0, -np.pi / 2, -2 * np.pi + 0.1, 2 * np.pi + 1, 7.0, 100.0, 1e6, 1e17, -1e17, 1e308]


class TestSuccessProbability:
    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_fewer_than_two_qubits_rejected(self, n):
        for call in (cnz_alpha, cnz_success_probability, build_cnz):
            with pytest.raises(ValueError, match="qubit count must be at least 2"):
                call(n, np.pi)

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

    def test_phase_is_periodic(self):
        assert cnz_success_probability(2, -1.0) == pytest.approx(
            cnz_success_probability(2, 2 * np.pi - 1.0), rel=1e-12
        )
        assert cnz_success_probability(2, -1.0) < 1.0

    @pytest.mark.parametrize("phi", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_phase_rejected(self, phi):
        with pytest.raises(ValueError, match="phi"):
            build_cnz(2, phi)
        with pytest.raises(ValueError, match="phi"):
            cnz_success_probability(2, phi)

    def test_continuity_endpoints(self):
        for n in (2, 3):
            assert cnz_success_probability(n, 0.0) == pytest.approx(1.0, abs=1e-6)
            assert cnz_success_probability(n, 2 * np.pi) == pytest.approx(1.0, abs=1e-6)


class TestArgumentRefusals:
    """verify_cnz refuses an n that is not an integer >= 2, and a non-finite
    phi, as build_cnz does: a ValueError, with no warning, before the basis
    or any table is built."""

    @staticmethod
    def _refused(monkeypatch, n, phi, match):
        def unread(n):
            raise AssertionError("basis read")

        def no_table(*args):
            raise AssertionError("table built")

        result, _ = build_cnz(2, np.pi)
        monkeypatch.setattr("photonprep.gates._dual_rail_basis", unread)
        monkeypatch.setattr(fock, "amplitude", no_table)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                verify_cnz(result, n, phi)
            with pytest.raises(ValueError, match=match):
                build_cnz(n, phi)

    @pytest.mark.parametrize("phi", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
    def test_non_finite_phase(self, monkeypatch, phi):
        self._refused(monkeypatch, 2, phi, "phi must be finite")

    @pytest.mark.parametrize("n", [-1, 0, 1, True, np.int64(1)])
    def test_fewer_than_two_qubits(self, monkeypatch, n):
        self._refused(monkeypatch, n, np.pi, "qubit count must be at least 2")

    @pytest.mark.parametrize("n", [2.0, 2.5, np.float64(3.0), "2", None])
    def test_non_integer_qubit_count(self, monkeypatch, n):
        self._refused(monkeypatch, n, np.pi, "qubit count must be an integer")

    def test_numpy_integer_qubit_count_verifies(self):
        result, _ = build_cnz(np.int64(3), 1.0)
        assert verify_cnz(result, np.int64(3), np.float64(1.0))
        assert verify_cnz(result, 3, 1.0)


class TestBuildAndVerify:
    def test_alpha_is_nth_root(self):
        for n in (2, 3, 4):
            for phi in (np.pi / 3, np.pi, *ANY_PHASE):
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
    @pytest.mark.parametrize("phi", [np.pi / 4, np.pi / 2, np.pi, 3 * np.pi / 2, *ANY_PHASE])
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

    def test_oversized_truth_table_refused_before_the_broadcast(self):
        """At n = 11 the table's occupation stacks would broadcast to
        (2048, 2048, 22) integers over its dual rails, beyond
        fock.OCCUPATION_LIMIT; n = 13 would have asked for 26 GiB. The size
        check refuses it before the basis is built."""
        result, _ = build_cnz(11, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                verify_cnz(result, 11, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    @pytest.mark.parametrize("n", [24, 40])
    def test_table_beyond_the_permanent_limit_refused_before_enumeration(self, n):
        """Its amplitudes would be n-photon permanents; n = 24 used to run out
        of memory listing the 2^24 basis states."""
        result, _ = build_cnz(n, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="permanent"):
                verify_cnz(result, n, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

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

    @pytest.mark.parametrize("tamper", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reads_only_the_dual_rail_block(self, n, tamper):
        """Every entry of U outside U[:2n, :2n] set to NaN leaves the table
        and the verdict as they were, to the bit."""
        result, _ = build_cnz(n, 1.0)
        U = result.unitary.copy()
        if tamper:
            U[n, 0] += 1e-4
        blocked = U.copy()
        blocked[2 * n :, :] = blocked[:, 2 * n :] = np.nan
        tables = []
        exact = fock.amplitude

        def kept(U, k, ell):
            tables.append(exact(U, k, ell))
            return tables[-1].copy()

        verdicts = []
        for unitary in (U, blocked):
            circuit = dataclasses.replace(result, unitary=unitary)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(fock, "amplitude", kept)
                verdicts.append(verify_cnz(circuit, n, 1.0))
        assert verdicts == [not tamper] * 2
        assert np.array_equal(tables[0], tables[1])

    def test_non_square_unitary_refused(self):
        result, _ = build_cnz(2, np.pi)
        circuit = dataclasses.replace(result, unitary=result.unitary[:, :-1])
        with pytest.raises(DimensionMismatch, match="square"):
            verify_cnz(circuit, 2, np.pi)

    @pytest.mark.parametrize("n", [3, 4, 5, 10])
    def test_qubit_count_beyond_the_unitary_refused_before_enumeration(self, n):
        """A CZ unitary has 8 modes, too few for the 2n dual rails of n = 5;
        n = 10, the largest verified size, would first list its 1024 basis
        states. The rails of n = 3, 4 fit, but leave 2 and 0 modes where the
        circuit has 4 auxiliaries."""
        result, _ = build_cnz(2, np.pi)
        if 2 * n <= len(result.unitary):
            match = f"n = {n} leaves {8 - 2 * n} auxiliary modes.* 8 rows.* has 4"
        else:
            match = f"n = {n}.*2n = {2 * n}.* 8 rows"
        tracemalloc.start()
        try:
            with pytest.raises(DimensionMismatch, match=match):
                verify_cnz(result, n, np.pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestCachedTruthTable:
    """verify_cnz reads its basis from a read-only cache per n, and
    fock.amplitude keeps the checked layout of the table's stacks."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_layout_hit_equals_miss(self, n):
        result, _ = build_cnz(n, 1.0)
        U = result.unitary[: 2 * n, : 2 * n]
        occ = _dual_rail_basis(n)
        fock._cached_layout.cache_clear()
        miss = fock.amplitude(U, occ[:, None, :], occ[None, :, :])
        hit = fock.amplitude(U, occ[:, None, :], occ[None, :, :])
        assert fock._cached_layout.cache_info().hits == 1
        assert np.array_equal(miss, hit)
        fock._cached_layout.cache_clear()
        assert verify_cnz(result, n, 1.0) and verify_cnz(result, n, 1.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_basis_is_the_listed_one_read_only(self, n):
        """Row x puts qubit i's photon on rail i if bit i of x is 1, else on
        rail n + i, in the order of itertools.product."""
        occ = _dual_rail_basis(n)
        bits = np.array(list(itertools.product((0, 1), repeat=n)))
        assert occ.dtype == np.int8 and occ.shape == (2**n, 2 * n)
        assert np.array_equal(occ, np.hstack((bits, 1 - bits)))
        assert not occ.flags.writeable
        assert _dual_rail_basis(n) is occ

    @pytest.mark.parametrize(
        "n, error",
        [(5, DimensionMismatch), (3, DimensionMismatch), (11, TooLarge), (12, TooLarge), (13, TooLarge),
         (14, TooLarge), (15, TooLarge)],
    )
    def test_refused_before_the_basis_is_read(self, n, error, monkeypatch):
        """n = 11 to 14 are within the permanent limit, but their tables
        exceed fock.OCCUPATION_LIMIT: TooLarge precedes the 8-mode CZ
        unitary's DimensionMismatch, as it does past the permanent limit."""
        def unread(*args):
            raise AssertionError("basis or table read")

        monkeypatch.setattr("photonprep.gates._dual_rail_basis", unread)
        monkeypatch.setattr("photonprep.fock.amplitude", unread)
        result, _ = build_cnz(2, np.pi)
        with pytest.raises(error):
            verify_cnz(result, n, np.pi)


class TestClosedFormDilation:
    """build_cnz dilates diag(I + alpha J, I) / sigma_1 from its DFT factors."""

    @staticmethod
    def mode_map(n, alpha):
        J = np.roll(np.eye(n), -1, axis=0)
        M = np.zeros((2 * n, 2 * n), dtype=complex)
        M[:n, :n] = np.eye(n) + alpha * J
        M[n:, n:] = np.eye(n)
        return M

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("phi", [-1.0, 1.0, 2.5, np.pi, 7.0, 1e6])
    def test_block_is_scale_alpha_times_the_mode_map(self, n, phi):
        result, spec = build_cnz(n, phi)
        M = self.mode_map(n, spec.alpha)
        block = result.unitary[: 2 * n, : 2 * n]
        assert np.max(np.abs(block - result.scale_alpha * M)) <= 1e-12
        assert result.scale_alpha == pytest.approx(1 / np.linalg.norm(M, 2), rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("phi", [-1.0, np.pi, 2 * np.pi + 1, 7.0, 1e6])
    def test_matches_the_svd_built_dilation(self, n, phi):
        result, spec = build_cnz(n, phi)
        M = self.mode_map(n, spec.alpha)
        v1, s, v2h = np.linalg.svd(M)
        ref = unitary_extension(v1, s / s[0], v2h)
        U = result.unitary
        top, bottom = slice(0, 2 * n), slice(2 * n, 4 * n)
        assert np.max(np.abs(U[top, top] - ref[top, top])) <= 1e-12
        assert np.max(np.abs(U[bottom, bottom] - ref[bottom, bottom])) <= 1e-12
        # the other blocks are sqrt(I - B B^†) and sqrt(I - B^† B). At phi = pi
        # the largest singular value is twofold, and a copy the SVD returns an
        # ulp below it gives sqrt(1 - s^2) ~ 1e-8, so there they are held to
        # their squares
        for block in ((top, bottom), (bottom, top)):
            D, D_ref = U[block], ref[block]
            assert np.max(np.abs(D @ D - D_ref @ D_ref)) <= 1e-12
            if phi != np.pi:
                assert np.max(np.abs(D - D_ref)) <= 1e-12
        sigma1 = np.linalg.svd(M[:n, :n], compute_uv=False)[0]
        assert spec.p_s == pytest.approx(max(1.0, sigma1) ** (-2 * n), rel=1e-12)
        assert verify_cnz(result, n, phi)

    @staticmethod
    def _former_construction(n, phi):
        """build_cnz as it was before its DFT factors were cached: U, p_s and
        the scale, every factor built anew."""
        alpha = cnz_alpha(n, phi)
        lam = 1.0 + alpha * np.exp(2j * np.pi * np.arange(n) / n)
        sigma = float(max(1.0, np.max(np.abs(lam))))
        p_s = sigma ** (-2 * n)
        k = np.arange(n)
        dft = np.exp(2j * np.pi * (np.outer(k, k) % n) / n) / np.sqrt(n)
        v1 = np.eye(2 * n, dtype=complex)
        v2h = np.eye(2 * n, dtype=complex)
        v1[:n, :n] = dft * np.exp(1j * np.angle(lam))
        v2h[:n, :n] = dft.conj()
        U = unitary_extension(v1, np.r_[np.abs(lam), np.ones(n)] / sigma, v2h)
        return U, p_s, 1.0 / sigma

    @pytest.mark.parametrize("n", range(2, 11))
    def test_bit_identical_to_the_former_construction(self, rng, n):
        for phi in [0.0, np.pi, 2 * np.pi, -1e-13, 1e300, *rng.uniform(-20.0, 20.0, 6)]:
            result, spec = build_cnz(n, phi)
            U, p_s, scale = self._former_construction(n, phi)
            assert np.array_equal(result.unitary, U), phi
            assert result.success_probability == spec.p_s == p_s
            assert result.scale_alpha == scale

    def test_dft_factors_read_only_and_built_once_per_size(self):
        _dft_factors.cache_clear()
        for _ in range(3):
            for n in range(2, 9):
                build_cnz(n, 1.0)
        info = _dft_factors.cache_info()
        assert (info.misses, info.hits) == (7, 14)
        for n in range(2, 9):
            dft, v2h, roots = _dft_factors(n)
            assert not any(table.flags.writeable for table in (dft, v2h, roots))
            assert np.allclose(dft @ dft.conj().T, np.eye(n), atol=1e-14)
            assert np.array_equal(v2h[:n, :n], dft.conj()) and np.array_equal(v2h[n:, n:], np.eye(n))
            assert not v2h[:n, n:].any() and not v2h[n:, :n].any()
            assert np.allclose(roots**n, 1.0, atol=1e-13)
            assert np.allclose(roots[1] ** np.arange(n), roots, atol=1e-14)

    def test_gates_too_large_to_verify_are_not_cached(self):
        _dft_factors.cache_clear()
        result, _ = build_cnz(fock.PERMANENT_LIMIT + 1, 1.0)
        assert _dft_factors.cache_info().currsize == 0
        assert len(result.unitary) == 4 * (fock.PERMANENT_LIMIT + 1)

    def test_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("build_cnz took an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for n in (2, 3, 4):
            build_cnz(n, 1.0)


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


@pytest.mark.parametrize("phi", [0.0, np.pi, -1.0, 2 * np.pi, 1e17])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_gate_phases_are_the_gate(n, phi):
    """The one statement of the gate that verify_cnz, gate-cnz and io's
    encoding check read: its truth table's diagonal."""
    assert np.array_equal(np.diag(_gate_phases(n, phi)), _gate_table(1.0, n, phi))


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
        occ = _dual_rail_basis(n)
        table = leaky(result.unitary[: 2 * n, : 2 * n], occ[:, None], occ[None])
        expected = _gate_table(result.success_probability, n, phi)
        assert np.max(np.abs(np.diag(table) - np.diag(expected))) <= 1e-9
        assert not verify_cnz(result, n, phi)
        monkeypatch.undo()
        assert verify_cnz(result, n, phi)
