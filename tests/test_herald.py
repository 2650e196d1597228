import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from photonprep import (
    InfeasibleRank,
    MultiplicityMismatch,
    extract_heralded,
    feasible_herald,
    herald_bilinear_matrix,
    normalize,
    numerical_rank,
    permanent,
    permanent_naive,
    synthesize_herald,
)
from photonprep import herald as herald_module
from photonprep.herald import default_herald_rows
from photonprep.random_states import random_state_of_rank, random_unitary
from photonprep.selftest import _circuit_identity_error
from photonprep.tolerances import IDENTITY_TOL
from photonprep.verify import HeraldPattern

BELL = normalize(
    np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex
    )
)


def _count_bilinear_calls(monkeypatch):
    """Record each call synthesize_herald makes to herald_bilinear_matrix."""
    calls = []
    original = herald_module.herald_bilinear_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(herald_module, "herald_bilinear_matrix", counting)
    return calls


def _count_permanent_calls(monkeypatch):
    """Record the argument shape of each permanent herald.py evaluates; the
    oracle's permanents in verify are not counted."""
    shapes = []

    def counting(M):
        shapes.append(np.shape(M))
        return permanent(M)

    monkeypatch.setattr(herald_module, "fock", SimpleNamespace(permanent=counting))
    return shapes


class TestBilinearMatrix:
    def test_no_heralds(self):
        F = herald_bilinear_matrix([], 2)
        assert np.allclose(F, [[0, 1], [1, 0]])

    def test_single_flat_row(self):
        F = herald_bilinear_matrix([(np.ones(3), 1)], 3)
        assert np.allclose(F, np.ones((3, 3)) - np.eye(3))
        eigenvalues = np.sort(np.linalg.eigvalsh(F.real))
        assert np.allclose(eigenvalues, [-1, -1, 2])
        assert numerical_rank(F) == 3

    def test_two_flat_rows(self):
        F = herald_bilinear_matrix([(np.ones(4), 2)], 4)
        assert np.allclose(F, F.T)
        assert numerical_rank(F) == 4

    @pytest.mark.parametrize(
        "n, multiplicities",
        [(2, ()), (3, (1,)), (4, (2,)), (5, (2, 1)), (6, (1, 3)), (7, (2, 3))],
    )
    def test_minors_match_definition(self, rng, n, multiplicities):
        rows = [
            (rng.standard_normal(n) + 1j * rng.standard_normal(n), mult)
            for mult in multiplicities
        ]
        H = [vec for vec, mult in rows for _ in range(mult)]
        eye = np.eye(n)
        definition = np.array(
            [[permanent_naive(np.vstack([eye[a], eye[b], *H])) for b in range(n)] for a in range(n)]
        )
        F = herald_bilinear_matrix(rows, n)
        assert np.allclose(F, definition, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_flat_witness_closed_form(self, n):
        F = herald_bilinear_matrix(default_herald_rows(n), n)
        k = n - 2
        expected = math.factorial(k) * k ** (-k / 2) * (np.ones((n, n)) - np.eye(n))
        assert np.allclose(F, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("zeros", [0, 1, 2])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_single_row_product_formula(self, rng, n, zeros):
        """One distinct row h: F_ab = (n-2)! prod_{k not in {a,b}} h_k, against
        the definition's Laplace minors Per(H without columns a, b), also where
        h has zero entries."""
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h[rng.permutation(n)[:zeros]] = 0.0
        H = np.tile(h, (n - 2, 1))
        definition = np.zeros((n, n), dtype=complex)
        for a, b in itertools.combinations(range(n), 2):
            definition[a, b] = definition[b, a] = permanent_naive(np.delete(H, (a, b), axis=1))
        F = herald_bilinear_matrix([(h, n - 2)], n)
        assert np.allclose(F, definition, rtol=1e-12, atol=1e-12 * np.max(np.abs(definition)))

    @pytest.mark.parametrize("n", range(2, 15))
    def test_flat_witness_takagi_factors(self, n):
        F = herald_bilinear_matrix(default_herald_rows(n), n)
        fac = herald_module._flat_takagi(n)
        c = math.factorial(n - 2) * (n - 2) ** (-(n - 2) / 2)
        assert fac.diagonal[0] == pytest.approx(c * (n - 1), rel=1e-15)
        assert np.linalg.norm(fac.V.T @ F @ fac.V - fac.D) <= 1e-12 * c * (n - 1)
        assert np.linalg.norm(fac.V.conj().T @ fac.V - np.eye(n)) <= 1e-12

    def test_multiplicity_mismatch(self):
        with pytest.raises(MultiplicityMismatch):
            herald_bilinear_matrix([(np.ones(4), 1)], 4)

    def test_negative_multiplicity(self):
        rows = [(np.ones(4), 2), (np.arange(4), -1)]
        with pytest.raises(MultiplicityMismatch):
            herald_bilinear_matrix(rows, 4)
        with pytest.raises(MultiplicityMismatch):
            synthesize_herald(BELL, 4, herald_rows=rows)

    def test_zero_multiplicity_rows_dropped(self, rng):
        """A herald mode that expects vacuum adds nothing: the row is dropped."""
        target = random_state_of_rank(rng, 5, 4)
        alone = synthesize_herald(target, 4, herald_rows=[(np.ones(4), 2)])
        result = synthesize_herald(
            target, 4, herald_rows=[(np.ones(4), 2), (np.arange(4), 0)]
        )
        assert result.herald.signal == (2,)
        assert result.success_probability == alone.success_probability

    def test_non_finite_row_rejected(self):
        row = np.ones(4, dtype=complex)
        row[1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            synthesize_herald(BELL, 4, herald_rows=[(row, 2)])

    def test_fractional_multiplicity_rejected(self):
        with pytest.raises(MultiplicityMismatch, match="not an integer"):
            synthesize_herald(BELL, 4, herald_rows=[(np.ones(4), 2.9)])

    def test_boolean_multiplicity_rejected(self, rng):
        target = random_state_of_rank(rng, 4, 3)
        with pytest.raises(MultiplicityMismatch, match="not an integer"):
            synthesize_herald(target, 3, herald_rows=[(np.ones(3), True)])


class TestFeasibility:
    def test_bell_needs_four_photons(self):
        assert feasible_herald(BELL, 4)
        assert not feasible_herald(BELL, 3)

    def test_rank_two_needs_no_heralds(self, rng):
        assert feasible_herald(random_state_of_rank(rng, 3, 2), 2)

    def test_rank_three_with_three_photons(self, rng):
        assert feasible_herald(random_state_of_rank(rng, 4, 3), 3)


class TestSynthesize:
    def test_diagonal_rank_two_no_heralds(self):
        target = normalize(np.diag([0.6, 0.4]).astype(complex))
        result = synthesize_herald(target, 2)
        assert result.herald.signal == ()
        report = result.report
        assert report.fidelity_vs_target > 1 - 1e-9

    def test_bell_pair_four_photons(self):
        result = synthesize_herald(BELL, 4)
        assert result.herald.signal == (2,)
        report = result.report
        assert report.fidelity_vs_target > 1 - 1e-9
        assert result.success_probability > 0

    def test_rank_three_infeasible_with_two(self, rng):
        with pytest.raises(InfeasibleRank):
            synthesize_herald(random_state_of_rank(rng, 4, 3), 2)

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_random_targets_at_threshold(self, rng, rank):
        for _ in range(3):
            m = int(rng.integers(rank, 7))
            target = random_state_of_rank(rng, m, rank)
            result = synthesize_herald(target, rank)
            report = result.report
            assert report.fidelity_vs_target > 1 - 1e-9
            if rank > 2:
                with pytest.raises(InfeasibleRank):
                    synthesize_herald(target, rank - 1)

    def test_extra_photons_allowed(self, rng):
        target = random_state_of_rank(rng, 3, 2)
        result = synthesize_herald(target, 4)
        assert result.herald.signal == (2,)
        assert result.report.fidelity_vs_target > 1 - 1e-9

    def test_degenerate_user_rows_fall_back(self, rng, monkeypatch):
        """A degenerate multi-row herald is tried once through the minors; the
        fallback builds the flat witness's form in closed form."""
        calls = _count_bilinear_calls(monkeypatch)
        sizes = _count_permanent_calls(monkeypatch)
        target = random_state_of_rank(rng, 5, 4)
        # a zero herald row zeroes every minor, so the bilinear form vanishes
        rows = [(np.zeros(4), 1), (np.ones(4), 1)]
        result = synthesize_herald(target, 4, herald_rows=rows)
        assert result.report.fidelity_vs_target > 1 - 1e-9
        assert result.herald.signal == (2,)
        m = target.modes
        assert np.allclose(result.unitary[m, :4] / result.scale_alpha, 1 / np.sqrt(2))
        assert len(calls) == 2
        # one stack of 2x2 minors for the user rows, one identity stack of 4x4
        assert [shape[1:] for shape in sizes] == [(2, 2), (4, 4)]

    def test_full_rank_user_rows_kept(self, rng, monkeypatch):
        target = random_state_of_rank(rng, 5, 4)
        row = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert numerical_rank(herald_bilinear_matrix([(row, 2)], 4)) == 4
        calls = _count_bilinear_calls(monkeypatch)
        result = synthesize_herald(target, 4, herald_rows=[(row, 2)])
        assert result.report.fidelity_vs_target > 1 - 1e-9
        assert result.herald.signal == (2,)
        m = target.modes
        assert np.allclose(result.unitary[m, :4] / result.scale_alpha, row, rtol=1e-12, atol=1e-12)
        assert len(calls) == 1

    def test_identity_check_skips_zero_rows(self, rng, monkeypatch):
        """Diagonal rows at and above the rank are zero; only the rank(rank+1)/2
        pairs below it are checked, as one stack of n x n permanents."""
        sizes = _count_permanent_calls(monkeypatch)
        target = random_state_of_rank(rng, 6, 3)
        result = synthesize_herald(target, 3)
        assert result.report.fidelity_vs_target > 1 - 1e-9
        assert sizes == [(3 * 4 // 2, 3, 3)]

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_closed_form_matches_factored_form(self, rng, n, monkeypatch):
        """The default path takes the flat witness's Takagi factors in closed
        form; passing the same rows explicitly factorizes F. Both must give
        the same herald probability, since A A^dagger of the embedded rows does
        not depend on the basis inside F's degenerate eigenspace."""
        calls = []
        original = herald_module.takagi

        def counting(S, *args, **kwargs):
            calls.append(np.shape(S))
            return original(S, *args, **kwargs)

        monkeypatch.setattr(herald_module, "takagi", counting)
        target = random_state_of_rank(rng, n + 1, n)
        closed = synthesize_herald(target, n)
        assert len(calls) == 1
        factored = synthesize_herald(target, n, herald_rows=default_herald_rows(n))
        assert len(calls) == 3
        for result in (closed, factored):
            assert result.report.fidelity_vs_target > 1 - 1e-9
            assert result.success_probability > 0
        assert closed.success_probability == pytest.approx(factored.success_probability, rel=1e-12)

    @pytest.mark.parametrize("spectrum", ["random", "clustered"])
    @pytest.mark.parametrize("rank", [11, 12, 13, 14])
    def test_targets_up_to_the_permanent_limit(self, rng, rank, spectrum):
        """n = rank up to PERMANENT_LIMIT, held to the README fidelity gate;
        the identity gate is relative to its scale sqrt(2 s!) d_0."""
        if spectrum == "random":
            target = random_state_of_rank(rng, rank, rank)
        else:
            # two tight clusters of Takagi values over two more modes than the rank
            d = np.repeat([1.0, 0.3], [rank // 2, rank - rank // 2])
            d = np.concatenate([d * (1 + 1e-12 * rng.standard_normal(rank)), [0.0, 0.0]])
            V = random_unitary(rng, rank + 2)
            target = normalize(V @ np.diag(d) @ V.T)
        result = synthesize_herald(target, rank)
        assert _circuit_identity_error(result, target.S) <= IDENTITY_TOL
        assert result.report.fidelity_vs_target > 1 - 1e-9
        assert result.success_probability > 0

    def test_proof_identity_pre_embedding(self, rng):
        """Per(A_a, A_b, H) = sqrt(2 s!) S_ab on the rows read off the circuit,
        A = U[:m + h, :n] / scale_alpha, at definition level."""
        target = random_state_of_rank(rng, 4, 3)
        result = synthesize_herald(target, 3)
        m, signal = target.modes, result.herald.signal
        A = result.unitary[: m + len(signal), :3] / result.scale_alpha
        H = np.repeat(A[m:], signal, axis=0)
        scale = np.sqrt(2 * math.prod(math.factorial(s) for s in signal))
        for a in range(m):
            for b in range(m):
                per = permanent_naive(np.vstack([A[a], A[b], H]))
                assert abs(per - scale * target.S[a, b]) < 1e-9

    def test_identity_helper_catches_a_perturbed_circuit(self, rng):
        target = random_state_of_rank(rng, 5, 4)
        result = synthesize_herald(target, 4)
        assert _circuit_identity_error(result, target.S) <= IDENTITY_TOL
        U = result.unitary.copy()
        U[1, 2] += 1e-6
        tampered = dataclasses.replace(result, unitary=U)
        assert _circuit_identity_error(tampered, target.S) > IDENTITY_TOL

    def test_report_is_the_oracle_on_the_circuit(self, rng):
        target = random_state_of_rank(rng, 5, 4)
        result = synthesize_herald(target, 4)
        fresh = extract_heralded(result.unitary, 4, result.herald, target.modes, target=target.S)
        assert np.array_equal(result.report.extracted, fresh.extracted)
        assert result.report.probability == fresh.probability == result.success_probability
        assert result.report.fidelity_vs_target == fresh.fidelity_vs_target
        assert result.report.verified

    def test_wrong_signal_query_loses_weight(self):
        """Querying the herald photon on an auxiliary mode loses the target.

        How much probability leaks there depends on the Takagi basis of the
        flat witness's degenerate form, so only basis-free facts are checked.
        """
        for seed in range(8):
            target = random_state_of_rank(np.random.default_rng(seed), 3, 3)
            result = synthesize_herald(target, 3)
            m = target.modes
            good = extract_heralded(result.unitary, 3, result.herald, m, target=target.S)
            wrong = extract_heralded(
                result.unitary,
                3,
                HeraldPattern(signal=(1,)),
                m + 1,
                target=target.padded(m + 1).S,
            )
            assert good.probability == pytest.approx(result.success_probability)
            assert wrong.fidelity_vs_target < 0.9


def test_default_rows_structure():
    assert default_herald_rows(2) == []
    (vec, mult), = default_herald_rows(5)
    assert mult == 3
    assert np.allclose(vec, 1 / np.sqrt(3))
