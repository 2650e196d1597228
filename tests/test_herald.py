import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from photonprep import (
    ConvergenceFailure,
    InfeasibleRank,
    MultiplicityMismatch,
    TooLarge,
    VerificationFailure,
    extract_heralded,
    feasible_herald,
    herald_bilinear_matrix,
    normalize,
    permanent,
    synthesize_herald,
    takagi,
)
from photonprep import fock
from photonprep import herald as herald_module
from photonprep.fock import permanent_naive
from photonprep.herald import default_herald_rows
from photonprep.linalg import TakagiFactorization
from photonprep.random_states import random_state_of_rank, random_unitary
from photonprep.selftest import _circuit_identity_error
from photonprep.tolerances import IDENTITY_TOL, RANK_TOL
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

    monkeypatch.setattr(herald_module, "fock", SimpleNamespace(**{**vars(fock), "permanent": counting}))
    return shapes


def _form_from_definition(rows, n):
    """F_ab = Per(e_a, e_b, H) with the O(n!) permanent."""
    H = [vec for vec, mult in rows for _ in range(mult)]
    eye = np.eye(n)
    return np.array(
        [[permanent_naive(np.vstack([eye[a], eye[b], *H])) for b in range(n)] for a in range(n)]
    )


class TestBilinearMatrix:
    def test_no_heralds(self):
        F = herald_bilinear_matrix([], 2)
        assert np.allclose(F, [[0, 1], [1, 0]])

    def test_single_flat_row(self):
        F = herald_bilinear_matrix([(np.ones(3), 1)], 3)
        assert np.allclose(F, np.ones((3, 3)) - np.eye(3))
        eigenvalues = np.sort(np.linalg.eigvalsh(F.real))
        assert np.allclose(eigenvalues, [-1, -1, 2])
        assert takagi(F).rank == 3

    def test_two_flat_rows(self):
        F = herald_bilinear_matrix([(np.ones(4), 2)], 4)
        assert np.allclose(F, F.T)
        assert takagi(F).rank == 4

    @pytest.mark.parametrize(
        "n, multiplicities",
        [(2, ()), (3, (1,)), (4, (2,)), (5, (2, 1)), (6, (1, 3)), (7, (2, 3))],
    )
    def test_minors_match_definition(self, rng, n, multiplicities):
        """Random rows, and the same rows with two zero entries each and the
        first vector repeated as the last herald mode."""
        rows = [
            (rng.standard_normal(n) + 1j * rng.standard_normal(n), mult)
            for mult in multiplicities
        ]
        sparse = [(vec.copy(), mult) for vec, mult in rows]
        for vec, _ in sparse:
            vec[rng.permutation(n)[:2]] = 0.0
        if len(sparse) > 1:
            sparse[-1] = (sparse[0][0], sparse[-1][1])
        for case in (rows, sparse):
            F = herald_bilinear_matrix(case, n)
            assert np.allclose(F, _form_from_definition(case, n), rtol=1e-12, atol=1e-12)
            assert np.all(np.diagonal(F) == 0)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_flat_witness_closed_form(self, n):
        """The Glynn contraction of the flat row gives c (J - I) up to the
        permanent limit."""
        F = herald_bilinear_matrix(default_herald_rows(n), n)
        k = n - 2
        c = math.factorial(k) * k ** (-k / 2)
        assert np.max(np.abs(F - c * (np.ones((n, n)) - np.eye(n)))) <= 1e-13 * c

    def test_too_large_before_any_sign_table(self, rng, monkeypatch):
        built = []
        monkeypatch.setattr(fock, "_glynn_tables", built.append)
        with pytest.raises(TooLarge):
            herald_bilinear_matrix(default_herald_rows(15), 15)
        with pytest.raises(TooLarge):
            synthesize_herald(random_state_of_rank(rng, 4, 3), 15)
        assert built == []

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

    def test_flat_witness_takagi_factors_are_cached_read_only(self):
        fac = herald_module._flat_takagi(6)
        assert herald_module._flat_takagi(6) is fac
        for array in (fac.V, fac.diagonal):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

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

    @pytest.mark.parametrize("k", [-4, -1, 0, 1, 4])
    def test_predicate_is_the_synthesizer_verdict_at_threshold(self, rng, k):
        """A fourth Takagi value at RANK_TOL sigma_1 (1 + k eps): with three
        photons, feasible_herald agrees with synthesize_herald."""
        sigma = np.array([1.0, 0.6, 0.3, RANK_TOL * (1 + k * np.finfo(float).eps)])
        for _ in range(3):
            V = random_unitary(rng, 5)[:, :4]
            target = normalize((V * sigma) @ V.T)
            if feasible_herald(target, 3):
                assert synthesize_herald(target, 3).report.verified
            else:
                with pytest.raises(InfeasibleRank):
                    synthesize_herald(target, 3)


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

    def test_svd_failure_of_the_dilated_rows_is_a_convergence_failure(self, rng, monkeypatch):
        """takagi embeds the target when its SVD fails; the SVD of the rows
        A that are dilated has no fallback, and says so as a
        ConvergenceFailure rather than a bare LinAlgError (a ValueError)."""

        def failing_svd(a, *args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        target = random_state_of_rank(rng, 4, 3)
        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            synthesize_herald(target, 4)

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

    @pytest.mark.parametrize(
        "m, rank, n, user_row", [(4, 2, 2, False), (5, 4, 4, False), (6, 3, 5, False), (5, 4, 4, True)]
    )
    def test_block_is_scale_alpha_times_the_embedded_rows(self, rng, m, rank, n, user_row):
        """U's top-left (m + h) x n block is scale_alpha times the embedded
        rows A = [payload rows; herald rows], with scale_alpha = 1 / sigma_1(A):
        the herald rows come back scaled, and the block is a contraction of
        norm 1."""
        target = random_state_of_rank(rng, m, rank)
        rows = None
        if user_row:
            rows = [(rng.standard_normal(n) + 1j * rng.standard_normal(n), n - 2)]
        result = synthesize_herald(target, n, herald_rows=rows)
        h = len(result.herald.signal)
        block = result.unitary[: m + h, :n]
        herald_rows = [vec for vec, _ in (rows or default_herald_rows(n))]
        if h:
            assert np.max(np.abs(block[m:] - result.scale_alpha * np.array(herald_rows))) <= 1e-12
        assert np.linalg.norm(block, 2) == pytest.approx(1.0, abs=1e-12)

    def test_extra_photons_allowed(self, rng):
        target = random_state_of_rank(rng, 3, 2)
        result = synthesize_herald(target, 4)
        assert result.herald.signal == (2,)
        assert result.report.fidelity_vs_target > 1 - 1e-9

    def test_degenerate_user_rows_fall_back(self, rng, monkeypatch):
        """A degenerate multi-row herald's form is built once and rejected;
        the fallback builds the flat witness's form. Neither evaluates a
        permanent."""
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
        assert sizes == []

    def test_rank_deficient_user_form_falls_back_without_an_svd(self, rng, svds_outside_takagi):
        """A row with a zero entry k leaves F nonzero only in row and column k
        (rank 2); that rank is read off F's Takagi diagonal, not an SVD taken
        outside the Takagi factorization."""
        shapes = svds_outside_takagi(herald_module)
        target = random_state_of_rank(rng, 6, 4)
        row = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        row[0] = 0.0
        result = synthesize_herald(target, 5, herald_rows=[(row, 3)])
        assert result.report.verified
        assert result.herald.signal == (3,)
        m = target.modes
        assert np.allclose(result.unitary[m, :5] / result.scale_alpha, 1 / np.sqrt(3))
        assert (5, 5) not in shapes

    @pytest.mark.parametrize("user_rows", [False, True])
    def test_only_svd_is_of_the_embedded_rows(self, rng, svds_outside_takagi, user_rows):
        """The target's rank is read off its one Takagi factorization, so the
        only SVD outside takagi is of A, the (m + h) x n rows it dilates."""
        shapes = svds_outside_takagi(herald_module)
        target = random_state_of_rank(rng, 6, 4)
        rows = [(rng.standard_normal(4) + 1j * rng.standard_normal(4), 2)] if user_rows else None
        result = synthesize_herald(target, 4, herald_rows=rows)
        assert result.report.verified
        assert shapes == [(target.modes + result.herald.herald_modes, 4)]

    def test_full_rank_user_rows_kept(self, rng, monkeypatch):
        target = random_state_of_rank(rng, 5, 4)
        row = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert takagi(herald_bilinear_matrix([(row, 2)], 4)).rank == 4
        calls = _count_bilinear_calls(monkeypatch)
        result = synthesize_herald(target, 4, herald_rows=[(row, 2)])
        assert result.report.fidelity_vs_target > 1 - 1e-9
        assert result.herald.signal == (2,)
        m = target.modes
        assert np.allclose(result.unitary[m, :4] / result.scale_alpha, row, rtol=1e-12, atol=1e-12)
        assert len(calls) == 1

    def test_identity_check_skips_zero_rows(self, rng, monkeypatch):
        """Diagonal rows at and above the rank are zero; the identity on the
        rows below it is read off F as one matrix product, so herald.py
        evaluates no permanent."""
        sizes = _count_permanent_calls(monkeypatch)
        target = random_state_of_rank(rng, 6, 3)
        result = synthesize_herald(target, 3)
        assert result.report.fidelity_vs_target > 1 - 1e-9
        assert sizes == []

    def test_identity_gate_catches_a_perturbed_takagi_vector(self, rng, monkeypatch):
        flat = herald_module._flat_takagi

        def perturbed(n):
            fac = flat(n)
            V = fac.V.copy()
            V[1, 2] += 1e-6
            return TakagiFactorization(V=V, diagonal=fac.diagonal)

        monkeypatch.setattr(herald_module, "_flat_takagi", perturbed)
        with pytest.raises(VerificationFailure, match="permanent identity"):
            synthesize_herald(random_state_of_rank(rng, 5, 4), 4)

    def test_identity_gate_catches_a_perturbed_form(self, rng, monkeypatch):
        """The gate reads the F built from the herald rows, so a 1e-6 relative
        change of one of its entries (kept symmetric) fails it."""
        original = herald_module.herald_bilinear_matrix

        def perturbed(rows, n):
            F = original(rows, n)
            F[0, 1] = F[1, 0] = F[0, 1] * (1 + 1e-6)
            return F

        monkeypatch.setattr(herald_module, "herald_bilinear_matrix", perturbed)
        with pytest.raises(VerificationFailure, match="permanent identity"):
            synthesize_herald(random_state_of_rank(rng, 5, 4), 4)

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
                target=np.pad(target.S, (0, 1)),
            )
            assert good.probability == pytest.approx(result.success_probability)
            assert wrong.fidelity_vs_target < 0.9


def test_default_rows_structure():
    assert default_herald_rows(2) == []
    (vec, mult), = default_herald_rows(5)
    assert mult == 3
    assert np.allclose(vec, 1 / np.sqrt(3))
