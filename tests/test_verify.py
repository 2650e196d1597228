import warnings

import numpy as np
import pytest

from photonprep import (
    DimensionMismatch,
    QuditTarget,
    SignalMismatch,
    TooLarge,
    TwoPhotonState,
    VerificationFailure,
    amplitude,
    extract_heralded,
    extract_postselected,
    from_qudit_target,
    normalize,
    synthesize_herald,
    synthesize_postselect,
)
from photonprep import herald as herald_module
from photonprep import verify as verify_module
from photonprep.fock import permanent_naive
from photonprep.random_states import (
    random_complex_symmetric,
    random_state_of_rank,
    random_target_of_rank,
    random_unitary,
)
from photonprep.states import single_photons_state
from photonprep.tolerances import VERIFY_TOL
from photonprep.verify import ExtractionReport, HeraldPattern, _verified_result, fidelity


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

    @pytest.mark.parametrize("fidelity", [1 - VERIFY_TOL, 0.5, float("nan")])
    def test_result_refuses_an_unverified_report(self, fidelity):
        report = ExtractionReport(extracted=np.zeros((1, 1)), probability=1.0, fidelity_vs_target=fidelity)
        with pytest.raises(VerificationFailure, match="oracle fidelity .* below tolerance"):
            _verified_result(np.eye(2, dtype=complex), 1.0, report, 2, None)

    def test_result_refuses_a_vanishing_probability(self):
        report = ExtractionReport(extracted=np.zeros((1, 1)), probability=0.0, fidelity_vs_target=1.0)
        assert report.verified
        with pytest.raises(VerificationFailure, match="vanishing success probability"):
            _verified_result(np.eye(2, dtype=complex), 1.0, report, 2, None)


class TestFidelity:
    @pytest.mark.parametrize("scale", [1e-200, 3.0, 1e200])
    def test_scale_free(self, rng, scale):
        """F(S, c S) = 1 where ||c S||_F would under- or overflow."""
        S = random_complex_symmetric(rng, 4)
        assert fidelity(S, scale * S) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(scale * S, S) == pytest.approx(1.0, abs=1e-12)

    def test_subnormal_entries(self):
        """Dividing by a subnormal peak must not form 1 / peak, which
        overflows (a RuntimeWarning, an error under the test settings)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fidelity(1e-310 * np.eye(2), np.eye(2)) >= 1 - 1e-15

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

    def test_rejects_unitary_smaller_than_the_registers(self, rng):
        state = normalize(random_complex_symmetric(rng, 3))
        with pytest.raises(DimensionMismatch, match="smaller than the computational registers"):
            extract_postselected(random_unitary(rng, 4), state, 2, 3)


class TestRegisterCounts:
    """Each oracle register holds at least one mode: an empty, negative or
    fractional register is a ValueError before U is sliced, a state evolved
    or a layout table built."""

    @pytest.fixture
    def unread(self, monkeypatch):
        def reached(*args):
            raise AssertionError("U was read")

        monkeypatch.setattr(verify_module.fock, "evolve_two_photon", reached)
        monkeypatch.setattr(verify_module, "_heralded_outputs", reached)

    @pytest.mark.parametrize(
        "d1, d2, match",
        [
            (-1, 2, "d1 mode count must be at least 1, got -1"),
            (2, -1, "d2 mode count must be at least 1, got -1"),
            (0, 2, "d1 mode count must be at least 1, got 0"),
            (2, 0, "d2 mode count must be at least 1, got 0"),
            (2.0, 2, "d1 mode count must be an integer, got 2.0"),
            (2, None, "d2 mode count must be an integer, got None"),
        ],
    )
    def test_postselected(self, unread, d1, d2, match):
        state = normalize(np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match=match):
            extract_postselected(np.eye(6, dtype=complex), state, d1, d2)

    @pytest.mark.parametrize(
        "m, match",
        [
            (0, "payload mode count must be at least 1, got 0"),
            (-1, "payload mode count must be at least 1, got -1"),
            (2.0, "payload mode count must be an integer, got 2.0"),
        ],
    )
    def test_heralded(self, unread, m, match):
        with pytest.raises(ValueError, match=match):
            extract_heralded(np.eye(9, dtype=complex), 4, HeraldPattern(signal=(2,)), m)

    def test_numpy_integer_registers(self):
        state = normalize(np.eye(4, dtype=complex))
        U = random_unitary(np.random.default_rng(7), 6)
        numpy_counts = extract_postselected(U, state, np.int64(2), np.int64(3))
        assert np.array_equal(numpy_counts.extracted, extract_postselected(U, state, 2, 3).extracted)


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
        assert np.max(np.abs(report.extracted - T)) <= 1e-12
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

    @pytest.mark.parametrize(
        "N, n, signal, m",
        [(4, 4, (2,), 5), (4, 4, (1, 1), 3), (3, 4, (2,), 1)],
        ids=["payload", "heralds", "photons"],
    )
    def test_rejects_unitary_too_small(self, rng, N, n, signal, m):
        with pytest.raises(DimensionMismatch, match="too small"):
            extract_heralded(random_unitary(rng, N), n, HeraldPattern(signal=signal), m)

    @pytest.mark.parametrize("shape", [(), (5,), (5, 4), (1, 5, 5)])
    def test_rejects_non_square_unitary(self, shape):
        with pytest.raises(DimensionMismatch, match="square"):
            extract_heralded(np.ones(shape), 3, HeraldPattern(signal=(1,)), 2)

    @pytest.mark.parametrize(
        "n, m", [(2, 3), (4, 3), (4, 4), (6, 2)], ids=["no-herald", "herald", "bell", "photons-beyond"]
    )
    def test_reads_only_the_block_of_its_photons(self, rng, n, m):
        """Every entry of U outside U[:M, :M], M = max(m + h, n), set to NaN
        leaves the report as it was, to the bit."""
        pattern = HeraldPattern(signal=(n - 2,) if n > 2 else ())
        M = max(m + pattern.herald_modes, n)
        U = random_unitary(rng, M + 3)
        blocked = U.copy()
        blocked[M:, :] = blocked[:, M:] = np.nan
        target = random_complex_symmetric(rng, m)
        report, kept = (extract_heralded(u, n, pattern, m, target=target) for u in (U, blocked))
        assert np.array_equal(report.extracted, kept.extracted)
        assert (report.probability, report.fidelity_vs_target) == (kept.probability, kept.fidelity_vs_target)
        assert np.all(np.isfinite(report.extracted)) and report.probability > 0.0

    def test_signal_must_sum_to_n_minus_2(self):
        """4 photons need a signal of 2 heralded photons; a signal of 1 is a
        SignalMismatch, not an extraction."""
        with pytest.raises(SignalMismatch, match="signal sums to 1, expected 2"):
            extract_heralded(np.eye(9, dtype=complex), 4, HeraldPattern(signal=(1,)), 4)

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


class TestHeraldedTables:
    """extract_heralded's size-only tables and the herald form F are built
    once per size and shared by every later call."""

    def test_tables_are_read_only(self):
        tables = verify_module._heralded_outputs(4, 4, (2,))
        assert verify_module._heralded_outputs(4, 4, (2,)) is tables
        assert all(not table.flags.writeable for table in tables)
        with pytest.raises(ValueError, match="read-only"):
            tables[2][0, 0] = 5
        F = herald_module.herald_bilinear_matrix(4)
        assert herald_module.herald_bilinear_matrix(4) is F
        assert not F.flags.writeable

    def test_layout_of_the_tables(self):
        """Payload pairs i <= j over 3 modes, each with the signal (2,) on
        mode 3; input photons in the first 4 modes, all the tables span."""
        i, j, k_out, ell_in, divisors = verify_module._heralded_outputs(4, 3, (2,))
        assert list(zip(i, j)) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        assert k_out[1].tolist() == [1, 1, 0, 2]
        assert k_out[3].tolist() == [0, 2, 0, 2]
        assert ell_in.tolist() == [1, 1, 1, 1]
        assert divisors.tolist() == [np.sqrt(2.0), 2.0, 2.0, np.sqrt(2.0), 2.0, np.sqrt(2.0)]

    def test_tables_span_the_photons(self):
        """Six photons, two payload modes and one herald mode: the tables
        span the 6 input modes, of which 3 to 5 are vacuum on output."""
        _, _, k_out, ell_in, _ = verify_module._heralded_outputs(6, 2, (4,))
        assert ell_in.tolist() == [1] * 6
        assert k_out.tolist() == [[2, 0, 4, 0, 0, 0], [1, 1, 4, 0, 0, 0], [0, 2, 4, 0, 0, 0]]

    def test_photons_beyond_the_permanent_limit(self):
        """Refused before any table is built for them."""
        with pytest.raises(TooLarge):
            extract_heralded(np.eye(40, dtype=complex), 15, HeraldPattern(signal=(13,)), 4)

    def test_cached_reports_equal_fresh_ones(self, rng):
        """n = 2 (empty signal), 3 and 4, each at two payload sizes, run
        interleaved in one process, give the circuits and reports that runs
        with both caches cleared give, to the bit."""
        cases = [
            (n, random_state_of_rank(rng, m, min(n, m)))
            for n in (2, 3, 4)
            for m in (n, n + 2)
        ]

        def run(n, target):
            result = synthesize_herald(target, n)
            report = extract_heralded(result.unitary, n, result.herald, target.modes, target=target.S)
            return result, report

        warm = [run(n, target) for _ in range(2) for n, target in cases][len(cases):]
        for (n, target), (result, report) in zip(cases, warm):
            verify_module._heralded_outputs.cache_clear()
            herald_module.herald_bilinear_matrix.cache_clear()
            fresh_result, fresh_report = run(n, target)
            assert np.array_equal(result.unitary, fresh_result.unitary)
            assert result.success_probability == fresh_result.success_probability
            for a, b in ((report, fresh_report), (result.report, fresh_result.report)):
                assert np.array_equal(a.extracted, b.extracted)
                assert (a.probability, a.fidelity_vs_target) == (b.probability, b.fidelity_vs_target)
