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
from photonprep.result import HeraldPattern
from photonprep.random_states import random_state_of_rank

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

    def test_multiplicity_mismatch(self):
        with pytest.raises(MultiplicityMismatch):
            herald_bilinear_matrix([(np.ones(4), 1)], 4)

    def test_negative_multiplicity(self):
        rows = [(np.ones(4), 2), (np.arange(4), -1)]
        with pytest.raises(MultiplicityMismatch):
            herald_bilinear_matrix(rows, 4)
        with pytest.raises(MultiplicityMismatch):
            synthesize_herald(BELL, 4, herald_rows=rows)


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
        report = result.details["oracle_report"]
        assert report.fidelity_vs_target > 1 - 1e-9

    def test_bell_pair_four_photons(self):
        result = synthesize_herald(BELL, 4)
        assert result.herald.signal == (2,)
        report = result.details["oracle_report"]
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
            report = result.details["oracle_report"]
            assert report.fidelity_vs_target > 1 - 1e-9
            if rank > 2:
                with pytest.raises(InfeasibleRank):
                    synthesize_herald(target, rank - 1)

    def test_extra_photons_allowed(self, rng):
        target = random_state_of_rank(rng, 3, 2)
        result = synthesize_herald(target, 4)
        assert result.herald.signal == (2,)
        assert result.details["oracle_report"].fidelity_vs_target > 1 - 1e-9

    def test_degenerate_user_rows_fall_back(self, rng, monkeypatch):
        calls = _count_bilinear_calls(monkeypatch)
        target = random_state_of_rank(rng, 4, 3)
        # a zero herald row makes the bilinear form rank-deficient
        result = synthesize_herald(target, 3, herald_rows=[(np.zeros(3), 1)])
        assert result.details["oracle_report"].fidelity_vs_target > 1 - 1e-9
        ((vec, mult),) = result.details["herald_rows"]
        assert mult == 1
        assert np.allclose(vec, 1.0)
        assert len(calls) == 2

    def test_full_rank_user_rows_kept(self, rng, monkeypatch):
        target = random_state_of_rank(rng, 5, 4)
        row = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert numerical_rank(herald_bilinear_matrix([(row, 2)], 4)) == 4
        calls = _count_bilinear_calls(monkeypatch)
        result = synthesize_herald(target, 4, herald_rows=[(row, 2)])
        assert result.details["oracle_report"].fidelity_vs_target > 1 - 1e-9
        ((vec, mult),) = result.details["herald_rows"]
        assert mult == 2
        assert np.array_equal(vec, row)
        assert len(calls) == 1

    def test_identity_check_skips_zero_rows(self, rng, monkeypatch):
        """Diagonal rows at and above the rank are zero; only the rank(rank+1)/2
        pairs below it need a permanent."""
        calls = []

        def counting(M):
            calls.append(M.shape[0])
            return permanent(M)

        monkeypatch.setattr(herald_module, "fock", SimpleNamespace(permanent=counting))
        target = random_state_of_rank(rng, 6, 3)
        result = synthesize_herald(target, 3)
        assert result.details["oracle_report"].fidelity_vs_target > 1 - 1e-9
        assert calls.count(3) == 3 * 4 // 2

    def test_proof_identity_pre_embedding(self, rng):
        target = random_state_of_rank(rng, 4, 3)
        result = synthesize_herald(target, 3)
        rows = result.details["diagonal_rows"]
        d = result.details["takagi_diagonal"]
        herald = [
            vec for vec, mult in result.details["herald_rows"] for _ in range(mult)
        ]
        s_fact = math.prod(
            math.factorial(s) for s in result.herald.signal
        )
        for i in range(rows.shape[0]):
            for j in range(rows.shape[0]):
                per = permanent(np.vstack([rows[i], rows[j], *herald]))
                expected = np.sqrt(2 * s_fact) * d[i] if i == j else 0.0
                assert abs(per - expected) < 1e-9

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
