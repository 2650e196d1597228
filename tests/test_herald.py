import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from photonprep import (
    InfeasibleRank,
    QuditTarget,
    TooLarge,
    VerificationFailure,
    build_cnz,
    extract_heralded,
    extract_postselected,
    feasible_herald,
    from_qudit_target,
    herald_bilinear_matrix,
    normalize,
    permanent,
    synthesize_herald,
    synthesize_postselect,
    takagi,
    unitary_extension,
    verify_cnz,
)
from photonprep import fock
from photonprep import gates as gates_module
from photonprep import herald as herald_module
from photonprep import linalg as linalg_module
from photonprep import postselect as postselect_module
from photonprep import verify as verify_module
from photonprep.fock import permanent_naive
from photonprep.linalg import TakagiFactorization
from photonprep.random_states import random_state_of_rank, random_target_of_rank, random_unitary
from photonprep.selftest import _circuit_identity_error
from photonprep.tolerances import DOCUMENT_UNITARITY_TOL, IDENTITY_TOL, RANK_TOL
from photonprep.verify import HeraldPattern

BELL = normalize(
    np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex
    )
)


def _build_and_check(construction):
    """A circuit of the construction, and its oracle's verdict on it."""
    rng = np.random.default_rng(5)
    if construction == "herald":
        target = random_state_of_rank(rng, 5, 4)
        result = synthesize_herald(target, 4)
        report = extract_heralded(result.unitary, 4, result.herald, target.modes, target=target.S)
        return result, report.verified
    if construction == "postselect":
        state, target = random_state_of_rank(rng, 5, 3), random_target_of_rank(rng, 2, 3, 2)
        result = synthesize_postselect(state, target)
        return result, extract_postselected(result.unitary, state, 2, 3, target=target.C).verified
    result, _ = build_cnz(3, np.pi / 2)
    return result, verify_cnz(result, 3, np.pi / 2)


def _flat_row(n):
    """The flat witness's herald row (1, ..., 1) / sqrt(n - 2)."""
    return np.full(n, 1.0 / math.sqrt(n - 2))


def _count_permanent_calls(monkeypatch):
    """Record the argument shape of each permanent herald.py evaluates; the
    oracle's permanents in verify are not counted."""
    shapes = []

    def counting(M):
        shapes.append(np.shape(M))
        return permanent(M)

    monkeypatch.setattr(herald_module, "fock", SimpleNamespace(**{**vars(fock), "permanent": counting}))
    return shapes


def _form_from_definition(n):
    """F_ab = Per(e_a, e_b, H) with the O(n!) permanent, H the flat row
    repeated n - 2 times."""
    H = [_flat_row(n) for _ in range(n - 2)]
    eye = np.eye(n)
    return np.array(
        [[permanent_naive(np.vstack([eye[a], eye[b], *H])) for b in range(n)] for a in range(n)]
    )


class TestBilinearMatrix:
    def test_no_heralds(self):
        F = herald_bilinear_matrix(2)
        assert np.allclose(F, [[0, 1], [1, 0]])

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_fewer_than_two_photons_rejected(self, n):
        with pytest.raises(ValueError, match="photon count must be at least 2"):
            herald_bilinear_matrix(n)

    def test_single_flat_row(self):
        F = herald_bilinear_matrix(3)
        assert np.allclose(F, np.ones((3, 3)) - np.eye(3))
        eigenvalues = np.sort(np.linalg.eigvalsh(F.real))
        assert np.allclose(eigenvalues, [-1, -1, 2])
        assert takagi(F).rank == 3

    def test_two_flat_rows(self):
        F = herald_bilinear_matrix(4)
        assert np.allclose(F, F.T)
        assert takagi(F).rank == 4

    @pytest.mark.parametrize("n", range(2, 8))
    def test_minors_match_definition(self, n):
        F = herald_bilinear_matrix(n)
        assert np.allclose(F, _form_from_definition(n), rtol=1e-12, atol=1e-12)
        assert np.all(np.diagonal(F) == 0)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_flat_witness_closed_form(self, n):
        """The Glynn contraction of the flat row gives c (J - I) up to the
        permanent limit."""
        F = herald_bilinear_matrix(n)
        k = n - 2
        c = math.factorial(k) * k ** (-k / 2)
        assert np.max(np.abs(F - c * (np.ones((n, n)) - np.eye(n)))) <= 1e-13 * c

    def test_too_large_before_any_sign_table(self, rng, monkeypatch):
        built = []
        monkeypatch.setattr(fock, "_glynn_tables", built.append)
        with pytest.raises(TooLarge):
            herald_bilinear_matrix(15)
        with pytest.raises(TooLarge):
            synthesize_herald(random_state_of_rank(rng, 4, 3), 15)
        assert built == []

    @pytest.mark.parametrize("n", range(2, 15))
    def test_flat_witness_takagi_factors(self, n):
        F = herald_bilinear_matrix(n)
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


class TestFeasibility:
    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_fewer_than_two_photons_rejected(self, n):
        for decide in (feasible_herald, synthesize_herald):
            with pytest.raises(ValueError, match="photon count must be at least 2"):
                decide(BELL, n)

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


class TestPhotonCount:
    """The photon count is an integer >= 2, by the rule build_cnz holds the
    qubit count to: anything else is a ValueError before a Takagi
    factorization, a sign table, a layout table or the cached form F is read."""

    @pytest.fixture
    def untouched(self, monkeypatch):
        herald_bilinear_matrix(4)  # a cached F that 4.0, equal to 4, must not reach

        def reached(*args):
            raise AssertionError("a table or a factorization was reached")

        for module, name in [
            (fock, "_glynn_tables"), (herald_module, "takagi"), (herald_module, "state_rank"),
            (verify_module, "_heralded_outputs"),
        ]:
            monkeypatch.setattr(module, name, reached)

    @pytest.mark.parametrize(
        "n, match",
        [
            (4.0, "photon count must be an integer, got 4.0"),
            (np.float64(4), "photon count must be an integer"),
            (2.5, "photon count must be an integer"),
            ("4", "photon count must be an integer"),
            (None, "photon count must be an integer"),
            (1, "photon count must be at least 2, got 1"),
            (True, "photon count must be an integer, got True"),
            (np.int64(-3), "photon count must be at least 2, got -3"),
            (False, "photon count must be an integer, got False"),
        ],
    )
    def test_refused_before_any_table(self, untouched, n, match):
        calls = [
            lambda: feasible_herald(BELL, n),
            lambda: synthesize_herald(BELL, n),
            lambda: herald_bilinear_matrix(n),
            lambda: extract_heralded(np.eye(9, dtype=complex), n, HeraldPattern(signal=(2,)), 4),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=match):
                call()

    def test_numpy_integer_count(self):
        result = synthesize_herald(BELL, np.int64(4))
        assert np.array_equal(result.unitary, synthesize_herald(BELL, 4).unitary)
        assert feasible_herald(BELL, np.int64(4)) and not feasible_herald(BELL, np.int64(3))
        assert np.array_equal(herald_bilinear_matrix(np.int64(4)), herald_bilinear_matrix(4))
        report = extract_heralded(result.unitary, np.int64(4), result.herald, np.int64(4), target=BELL.S)
        assert report.verified


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

    def test_readme_bell_pair_probability(self):
        """The README's Bell pair from 4 photons: sigma_1^2 = 2 + sqrt(2)/6,
        so p = (2 + sqrt(2)/6)^(-4) / 2 exactly."""
        bell = from_qudit_target(QuditTarget(np.eye(2) / np.sqrt(2)))
        result = synthesize_herald(bell, 4)
        assert result.report.verified
        assert 0.5 * (2 + math.sqrt(2) / 6) ** -4 == pytest.approx(0.0200130896446016, rel=1e-15)
        assert result.success_probability == pytest.approx(0.0200130896446016, rel=1e-12)

    @pytest.mark.parametrize("make_target", [
        lambda rng: random_state_of_rank(rng, 4, 3),
        lambda rng: from_qudit_target(random_target_of_rank(rng, 9, 9, 2)),
        lambda rng: from_qudit_target(random_target_of_rank(rng, 4, 4, 2)),
    ], ids=["4-modes", "18-modes", "8-modes"])
    def test_failing_svd_leaves_heralding_verified(self, rng, monkeypatch, make_target):
        """takagi takes one SVD of a target, of the whole generic target or of
        a two-qudit target's qudit block, and embeds the target whole when it
        fails; heralding takes no other SVD, so it still returns a verified
        circuit. The 4-mode target has rank 3, the two-qudit ones rank 4."""
        calls = []

        def failing_svd(a, *args, **kwargs):
            calls.append(a.shape)
            raise np.linalg.LinAlgError("SVD did not converge")

        target = make_target(rng)
        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        result = synthesize_herald(target, 4)
        assert result.report.verified
        assert result.herald.signal == (2,)
        assert len(calls) == 1

    def test_rank_three_infeasible_with_two(self, rng):
        with pytest.raises(InfeasibleRank):
            synthesize_herald(random_state_of_rank(rng, 4, 3), 2)

    @pytest.mark.parametrize("m, rank", [(4, 3), (6, 5), (8, 8)])
    def test_infeasible_states_the_fidelity_ceiling(self, rng, m, rank):
        """The refusal states sqrt(sum_{i<=n} sigma_i^2 / sum sigma_i^2), the
        best fidelity of a rank-n state with the target, for each n < rank."""
        target = random_state_of_rank(rng, m, rank)
        sigma = np.linalg.svd(target.S, compute_uv=False)
        for n in range(2, rank):
            with pytest.raises(InfeasibleRank, match=f"fidelity ceiling at rank {n} is ") as info:
                synthesize_herald(target, n)
            stated = float(str(info.value).rsplit(" ", 1)[1])
            formula = math.sqrt(np.sum(sigma[:n] ** 2) / np.sum(sigma**2))
            assert abs(stated - formula) <= 1e-12
            assert stated < 1.0

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

    @pytest.mark.parametrize("m, rank, n", [(4, 2, 2), (5, 4, 4), (6, 3, 5)])
    def test_block_is_scale_alpha_times_the_embedded_rows(self, rng, m, rank, n):
        """U's top-left (m + h) x n block is scale_alpha times the embedded
        rows A = [payload rows; herald row], with scale_alpha = 1 / sigma_1(A):
        the flat herald row comes back scaled, and the block is a contraction
        of norm 1."""
        target = random_state_of_rank(rng, m, rank)
        result = synthesize_herald(target, n)
        h = len(result.herald.signal)
        block = result.unitary[: m + h, :n]
        if h:
            assert np.max(np.abs(block[m:] - result.scale_alpha * _flat_row(n))) <= 1e-12
        assert np.linalg.norm(block, 2) == pytest.approx(1.0, abs=1e-12)

    def test_extra_photons_allowed(self, rng):
        target = random_state_of_rank(rng, 3, 2)
        result = synthesize_herald(target, 4)
        assert result.herald.signal == (2,)
        assert result.report.fidelity_vs_target > 1 - 1e-9

    def test_no_svd_outside_takagi(self, rng, svds_outside_takagi, monkeypatch):
        """The target is the only matrix factorized: takagi runs once, on it,
        and no SVD is taken outside it; the rows are dilated from factors in
        closed form."""
        shapes = svds_outside_takagi(herald_module)
        calls = []
        recorded = herald_module.takagi

        def counting(S):
            calls.append(S)
            return recorded(S)

        monkeypatch.setattr(herald_module, "takagi", counting)
        target = random_state_of_rank(rng, 6, 4)
        result = synthesize_herald(target, 4)
        assert result.report.verified
        assert shapes == []
        assert len(calls) == 1 and calls[0] is target.S

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
        change of one of its entries (kept symmetric) fails it. The cached F
        is read-only, so the change is made on a copy."""
        original = herald_module.herald_bilinear_matrix

        def perturbed(n):
            F = original(n).copy()
            F[0, 1] = F[1, 0] = F[0, 1] * (1 + 1e-6)
            return F

        monkeypatch.setattr(herald_module, "herald_bilinear_matrix", perturbed)
        with pytest.raises(VerificationFailure, match="permanent identity"):
            synthesize_herald(random_state_of_rank(rng, 5, 4), 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_closed_form_matches_factored_form(self, rng, n):
        """The circuit against a reference built from the definitions: F's
        Takagi factors from takagi, the embedded rows A = [payload; herald]
        formed and dilated from numpy's SVD. F's degenerate eigenspace leaves
        the Takagi basis free, which changes A by a unitary on the right, so
        the block is compared through its Gram B B^dagger; p and unitarity
        are compared directly."""
        target = random_state_of_rank(rng, n + 1, n)
        m, h = target.modes, int(n > 2)
        fac_out, fac_f = takagi(target.S), takagi(herald_bilinear_matrix(n))
        V_f = fac_f.V
        if h:
            # F's top Takagi vector is the flat one up to sign: take the herald row's
            V_f = V_f * np.sign(V_f[:, 0].sum().real)
        d = fac_out.diagonal[:n]
        weights = np.sqrt(math.sqrt(2.0 * math.factorial(n - 2)) * d / fac_f.diagonal)
        A = fac_out.V[:, :n].conj() @ (weights[:, None] * V_f.T)
        if h:
            A = np.vstack([A, _flat_row(n)])
        u, s, vh = np.linalg.svd(A, full_matrices=False)
        reference = unitary_extension(u, s / s[0], vh)
        closed = synthesize_herald(target, n)
        for U in (closed.unitary, reference):
            assert np.linalg.norm(U.conj().T @ U - np.eye(len(U))) <= 1e-13
        block, ref_block = closed.unitary[: m + h, :n], reference[: m + h, :n]
        assert np.max(np.abs(block @ block.conj().T - ref_block @ ref_block.conj().T)) <= 1e-12
        assert closed.scale_alpha == pytest.approx(1.0 / s[0], rel=1e-12)
        assert closed.success_probability == pytest.approx(0.5 * s[0] ** (-2 * n), rel=1e-12)
        oracle = extract_heralded(reference, n, closed.herald, m, target=target.S)
        assert oracle.verified
        assert oracle.probability == pytest.approx(closed.success_probability, rel=1e-12)

    @pytest.mark.parametrize("spectrum", ["random", "clustered"])
    @pytest.mark.parametrize("rank", range(1, 15))
    def test_success_probability_in_closed_form(self, rng, rank, spectrum):
        """The oracle's p is sigma_1^(-2n) / 2 for sigma read off the target's
        Takagi values d: w_i^2 = sqrt(2 (n-2)!) d_i / F_i with F's Takagi
        values (c (n-1), c, ..., c), plus n / (n - 2) on w_0^2 for the herald
        row."""
        n = max(rank, 2)
        if spectrum == "random":
            target = random_state_of_rank(rng, rank + 1, rank)
        else:
            d = np.repeat([1.0, 0.3], [(rank + 1) // 2, rank // 2])
            V = random_unitary(rng, rank + 2)[:, :rank]
            target = normalize((V * (d * (1 + 1e-12 * rng.standard_normal(rank)))) @ V.T)
        k = n - 2
        c = math.factorial(k) * k ** (-k / 2)
        form = np.r_[c * (n - 1), np.full(n - 1, c)]
        sigma2 = math.sqrt(2 * math.factorial(k)) * takagi(target.S).diagonal[:rank] / form[:rank]
        if k:
            sigma2[0] += n / k
        result = synthesize_herald(target, n)
        assert result.report.verified
        assert result.success_probability == pytest.approx(0.5 * sigma2.max() ** -n, rel=1e-12)

    @pytest.mark.parametrize("construction", ["herald", "postselect", "cnz"])
    def test_unitarity_gate_catches_what_the_oracle_cannot_see(self, monkeypatch, construction):
        """Column 0 of the first factor scaled by 1 + 1e-6, and s[0] divided by
        the same, leave the block every oracle reads unchanged to rounding but
        put the dilation off unitarity by ~4e-6. With unitary_extension's gate
        lifted, the oracle passes the circuit; with it, every construction
        refuses it."""
        module = {"herald": herald_module, "postselect": postselect_module, "cnz": gates_module}
        original = module[construction].unitary_extension

        def skewed(a, s, bh):
            a, s = np.array(a, dtype=complex), np.array(s, dtype=float)
            a[:, 0] *= 1 + 1e-6
            s[0] /= 1 + 1e-6
            return original(a, s, bh)

        monkeypatch.setattr(module[construction], "unitary_extension", skewed)
        with monkeypatch.context() as lifted:
            lifted.setattr(linalg_module, "DOCUMENT_UNITARITY_TOL", np.inf)
            result, oracle_passes = _build_and_check(construction)
        U = result.unitary
        assert np.linalg.norm(U.conj().T @ U - np.eye(len(U))) > DOCUMENT_UNITARITY_TOL
        assert oracle_passes
        with pytest.raises(VerificationFailure, match="unitarity"):
            _build_and_check(construction)

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
