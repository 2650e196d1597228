import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonprep
from photonprep import (
    ConvergenceFailure,
    NotSymmetric,
    VerificationFailure,
    state_rank,
    takagi,
    unitary_extension,
)
from photonprep.herald import herald_bilinear_matrix
from photonprep import linalg as linalg_module
from photonprep.linalg import (
    TakagiFactorization,
    _bipartite_takagi,
    _bipartition,
    _embedded_takagi,
    _peak_scaled,
    checked_svd,
)
from photonprep.random_states import (
    random_complex_symmetric,
    random_target_of_rank,
    random_unitary,
)
from photonprep.states import QuditTarget, from_qudit_target, normalize, single_photons_state
from photonprep.tolerances import (
    DOCUMENT_UNITARITY_TOL, RANK_TOL, TAKAGI_CUT, TAKAGI_RECONSTRUCTION_TOL
)

PACKAGE = Path(photonprep.__file__).parent


@st.composite
def adversarial_spectra(draw, max_m=16):
    """(seed, singular values) with near-equal clusters, exact zeros and
    values at the rank threshold, at overall scales 1e-8 ... 1e3, over
    1 ... max_m modes."""
    m = draw(st.integers(1, max_m))
    base = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3))
    gap = st.sampled_from([0.0, 1e-15, 1e-12, 1e-10, 2e-8, 1e-7, 1e-5])
    sigma = np.sort([base[i % len(base)] * (1.0 - draw(gap)) for i in range(m)])[::-1]
    zeros = draw(st.integers(0, m - 1))
    near = draw(st.integers(0, m - 1 - zeros))
    top = sigma[0]
    for i in range(m - zeros - near, m - zeros):
        sigma[i] = top * RANK_TOL * draw(st.floats(0.1, 10.0))
    sigma[m - zeros :] = 0.0
    scale = 10.0 ** draw(st.integers(-8, 3))
    return draw(st.integers(0, 2**32 - 1)), scale * np.sort(sigma)[::-1]


def _with_spectrum(seed, sigma):
    U = random_unitary(np.random.default_rng(seed), len(sigma))
    return U @ np.diag(sigma) @ U.T


# takagi's two routes, each with a unit-scale S that takes it; the bipartite
# route is handed the block B = S[:1, 1:], not S
ROUTES = (("_svd_takagi", np.eye(2)), ("_bipartite_takagi", np.array([[0.0, 1.0], [1.0, 0.0]])))
# the modes of a 12 + 12 two-qudit state interleaved, a0, b0, a1, b1, ...
INTERLEAVED_24 = np.arange(24).reshape(2, 12).T.ravel()


class TestTakagi:
    def test_identity(self):
        fac = takagi(np.eye(3))
        assert np.allclose(fac.diagonal, 1.0)
        assert np.linalg.norm(fac.V.T @ fac.V - np.eye(3)) < 1e-12

    def test_already_diagonal(self):
        fac = takagi(np.diag([0.3, 0.2]).astype(complex))
        assert np.allclose(fac.diagonal, [0.3, 0.2])
        assert np.allclose(np.abs(fac.V), np.eye(2))

    def test_rank_deficient_diagonal(self):
        fac = takagi(np.diag([3.0, 0.0]))
        assert np.array_equal(fac.diagonal, [3.0, 0.0])
        assert np.linalg.norm(fac.V.conj().T @ fac.V - np.eye(2)) < 1e-12
        assert np.linalg.norm(fac.V.T @ np.diag([3.0, 0.0]) @ fac.V - fac.D) < 1e-12

    def test_zero_matrix(self):
        fac = takagi(np.zeros((3, 3)))
        assert np.array_equal(fac.diagonal, np.zeros(3))
        assert np.linalg.norm(fac.V.conj().T @ fac.V - np.eye(3)) < 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            takagi(np.zeros((0, 0)))

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="expected a square matrix"):
            takagi(np.ones(shape))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            takagi(np.array([[np.nan]]))

    def test_overflowing_matrix_is_a_convergence_failure(self):
        """Finite entries of 1e308 overflow once symmetrized: a
        ConvergenceFailure, not a factorization with a non-finite V."""
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConvergenceFailure):
            takagi(np.full((2, 2), 1e308))

    def test_reconstruction_gate_refuses_nan(self, monkeypatch):
        """On either route, a factorization with NaN vectors is refused."""
        for route, S in ROUTES:
            m = len(S)
            nan_factor = TakagiFactorization(V=np.full((m, m), np.nan + 0j), diagonal=np.ones(m))
            monkeypatch.setattr(linalg_module, route, lambda M: nan_factor)
            with pytest.raises(ConvergenceFailure, match="reconstruct"):
                takagi(S)

    def test_antidiagonal_half(self):
        S = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        fac = takagi(S)
        assert np.allclose(fac.diagonal, [0.5, 0.5])
        assert np.linalg.norm(fac.V.T @ S @ fac.V - fac.D) < 1e-12

    def test_random_6x6(self, rng):
        S = random_complex_symmetric(rng, 6)
        fac = takagi(S)
        assert np.linalg.norm(fac.V.T @ S @ fac.V - fac.D) < 1e-9
        assert np.linalg.norm(fac.V.conj().T @ fac.V - np.eye(6)) < 1e-10

    def test_diagonal_matches_singular_values(self, rng):
        S = random_complex_symmetric(rng, 7)
        fac = takagi(S)
        assert np.allclose(fac.diagonal, np.linalg.svd(S, compute_uv=False), atol=1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            takagi(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("c", [1e-310, 1e-20, 1.0, 1e20, 1e300])
    def test_symmetry_gate_is_relative(self, c):
        """||S - S^T||_F / ||S||_F = sqrt(2) for [[0, c], [0, 0]] at every
        scale, and the message reports that ratio."""
        with pytest.raises(NotSymmetric, match=r"\|\|S - S\^T\|\|_F/\|\|S\|\|_F = 1\.414e\+00"):
            takagi(np.array([[0, c], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("c", [1e-200, 1.0, 1e100])
    def test_symmetric_to_rounding_at_any_scale(self, rng, c):
        A = random_complex_symmetric(rng, 4)
        J = np.triu(np.ones((4, 4)), 1)
        fac = takagi(c * (A + 1e-12 * (J - J.T)))
        assert np.allclose(fac.diagonal / c, np.linalg.svd(A, compute_uv=False), rtol=1e-10)

    @pytest.mark.parametrize("c", [1e-300, 1e-3, 1.0, 1e3, 1e300])
    def test_reconstruction_gate_is_relative(self, monkeypatch, c):
        """A diagonal off by 1e-6 sigma_1 misses TAKAGI_RECONSTRUCTION_TOL
        sigma_1 at every scale, also where the residual's squares would
        underflow or overflow at the scale of c S, on either route."""
        for route, S in ROUTES:

            def wrong(M, inner=getattr(linalg_module, route)):
                factor = inner(M)
                diagonal = factor.diagonal.copy()
                diagonal[0] *= 1 + 1e-6
                return TakagiFactorization(V=factor.V, diagonal=diagonal)

            monkeypatch.setattr(linalg_module, route, wrong)
            with pytest.raises(ConvergenceFailure, match="reconstruct"):
                takagi(c * S)

    @pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
    def test_exactly_covariant_under_powers_of_two(self, k):
        """S and 2^k S have one peak-scaled copy, so they share V bit for bit
        and their diagonals differ by exactly 2^k."""
        S = random_complex_symmetric(np.random.default_rng(24), 6)
        fac, scaled = takagi(S), takagi(2.0**k * S)
        assert np.array_equal(scaled.V, fac.V)
        assert np.array_equal(scaled.diagonal, 2.0**k * fac.diagonal)

    @pytest.mark.parametrize("c", [1e170, 1e200])
    def test_factorizes_where_the_residual_squares_overflow(self, c):
        """Rounding alone puts residual entries of c A near 1e154 and beyond;
        read on the peak-scaled copy, the reconstruction gate still passes."""
        A = random_complex_symmetric(np.random.default_rng(46), 4)
        fac = takagi(c * A)
        assert np.allclose(fac.diagonal / c, takagi(A).diagonal, rtol=1e-12, atol=0)

    def test_coupled_indices_are_embedded_as_one_block(self, monkeypatch):
        """from_qudit_target of a rank-9 12 x 12 target with its modes
        interleaved (a0, b0, a1, b1, ...), so no d1 splits it: the 24 x 24 S
        takes the SVD route and has nine twofold nonzero values, so 18 of its
        24 indices couple, and only those 18 are embedded, as one 18 x 18
        block."""
        S = from_qudit_target(random_target_of_rank(np.random.default_rng(37), 12, 12, 9)).S
        S = S[np.ix_(INTERLEAVED_24, INTERLEAVED_24)]
        embedded, sizes = _embedded_takagi, []

        def recording(block):
            sizes.append(block.shape)
            return embedded(block)

        monkeypatch.setattr(linalg_module, "_embedded_takagi", recording)
        assert takagi(S).rank == 18
        assert sizes == [(18, 18)]

    @pytest.mark.parametrize("m", [1, 2, 10, 11, 64])
    def test_any_size_takes_the_svd_route(self, monkeypatch, m):
        """An S that is not bipartite is factorized by one SVD at every size,
        with no embedding (a diagonal S of distinct values couples no
        indices)."""
        calls = _routes(monkeypatch)
        takagi(np.diag(np.linspace(1.0, 0.1, m)))
        assert calls == [("_svd_takagi", (m, m))]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8))
    def test_reconstruction_property(self, seed, m):
        gen = np.random.default_rng(seed)
        S = random_complex_symmetric(gen, m)
        fac = takagi(S)
        assert np.linalg.norm(fac.V.T @ S @ fac.V - fac.D) < 1e-9
        assert np.linalg.norm(fac.V.conj().T @ fac.V - np.eye(m)) <= 1e-10
        assert np.all(fac.diagonal >= -1e-12)
        assert np.all(np.diff(fac.diagonal) <= 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(case=adversarial_spectra(max_m=20))
    def test_adversarial_spectra_meet_gates(self, case):
        seed, sigma = case
        m = len(sigma)
        S = _with_spectrum(seed, sigma)
        fac = takagi(S)
        gate = 1e-10 * max(1.0, sigma[0])
        assert np.linalg.norm(fac.V.T @ S @ fac.V - fac.D) <= gate
        assert np.linalg.norm(fac.V.conj().T @ fac.V - np.eye(m)) <= 1e-10
        assert np.allclose(fac.diagonal, sigma, rtol=0, atol=gate)
        assert np.all(fac.diagonal >= 0) and np.all(np.diff(fac.diagonal) <= 0)

    def test_two_close_pairs(self):
        """Two singular-value pairs 2e-8 apart: a near-degenerate case that
        cluster-based phase repair fails on."""
        sigma = np.array([1.0, 1.0 - 2e-8, 0.5, 0.5 - 2e-8])
        for seed in range(50):
            S = _with_spectrum(seed, sigma)
            fac = takagi(S)
            assert np.linalg.norm(fac.V.T @ S @ fac.V - fac.D) <= 1e-10
            assert np.linalg.norm(fac.V.conj().T @ fac.V - np.eye(4)) <= 1e-10


def _coupled_families():
    """Matrices whose singular values come in degenerate clusters, so that
    many or all indices couple: S proportional to I (as is and under a
    unitary congruence), from_qudit_target pairs, single photons, and the
    flat herald form c (J - I) for n = 2 ... 14."""
    rng = np.random.default_rng(20261018)
    cases = {}
    for m in (1, 2, 5, 16):
        cases[f"identity-{m}"] = 0.3 * np.eye(m, dtype=complex)
        u = random_unitary(rng, m)
        cases[f"congruent-identity-{m}"] = 7.0 * u @ u.T
    for d, rank in ((2, 1), (2, 2), (4, 3), (4, 4), (8, 2), (8, 8)):
        target = random_target_of_rank(rng, d, d, rank)
        cases[f"qudit-pairs-{d}-rank-{rank}"] = from_qudit_target(target).S
    for m in (2, 3, 4, 9):
        cases[f"single-photons-{m}"] = single_photons_state(m).S
    for n in range(2, 15):
        cases[f"flat-form-{n}"] = herald_bilinear_matrix(n)
    return cases


COUPLED = _coupled_families()


class TestTakagiAgainstEmbedding:
    """takagi against the real symmetric embedding of the whole matrix, the
    definition-level reference it falls back to: equal diagonals, and both
    factorizations meet the reconstruction and unitarity gates of
    test_adversarial_spectra_meet_gates."""

    def check(self, S):
        m = len(S)
        sigma1 = np.linalg.svd(S, compute_uv=False)[0]
        gate = 1e-10 * max(1.0, sigma1)
        fac = takagi(S)
        reference = _embedded_takagi(S)
        assert np.allclose(fac.diagonal, reference.diagonal, rtol=0, atol=1e-12 * max(1.0, sigma1))
        for f in (fac, reference):
            assert np.linalg.norm(f.V.T @ S @ f.V - f.D) <= gate
            assert np.linalg.norm(f.V.conj().T @ f.V - np.eye(m)) <= 1e-10
            assert np.all(f.diagonal >= 0) and np.all(np.diff(f.diagonal) <= 0)

    @pytest.mark.parametrize("case", sorted(COUPLED))
    def test_coupled_families(self, case):
        self.check(COUPLED[case])

    @settings(max_examples=100, deadline=None)
    @given(case=adversarial_spectra(max_m=64))
    def test_adversarial_spectra(self, case):
        self.check(_with_spectrum(*case))

    def test_generic_256(self):
        self.check(random_complex_symmetric(np.random.default_rng(256), 256))

    def test_svd_failure_falls_back_to_the_embedding(self, monkeypatch):
        """Divide and conquer can fail to converge where the embedding's
        eigensolver does not; takagi then embeds its peak-scaled copy of S
        whole, and multiplies the diagonal by the peak. 18 modes: threefold
        clusters, exact zeros and a value near rounding."""
        S = _with_spectrum(7, np.repeat([1.0, 0.8, 0.5, 0.2, 1e-11, 0.0], 3))

        def failing_svd(a, *args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        fac = takagi(S)
        scaled, peak = _peak_scaled(S)
        reference = _embedded_takagi((scaled + scaled.T) / 2.0)
        assert np.array_equal(fac.diagonal, reference.diagonal * peak)
        assert np.array_equal(fac.V, reference.V)
        assert np.linalg.norm(fac.V.T @ S @ fac.V - fac.D) <= 1e-10

    def test_embedding_failure_is_a_convergence_failure(self, monkeypatch):
        """With the SVD refused, the embedding's eigh is the last resort of
        both routes: on both, its LinAlgError reaches the caller as
        ConvergenceFailure."""
        def refused(a):
            raise ConvergenceFailure("SVD refused")

        def failing_eigh(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(linalg_module, "checked_svd", refused)
        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        for _, S in ROUTES:
            with pytest.raises(ConvergenceFailure, match="Eigenvalues did not converge") as err:
                takagi(S)
            assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    def test_non_unitary_singular_vectors_fall_back(self, monkeypatch):
        """Columns of U off unit norm by 1e-9 leave P diagonal, so every
        index looks isolated, and pass the reconstruction gate; only a check
        of U itself keeps V unitary. Divide and conquer can lose 1e-6 of
        orthogonality inside large clusters."""
        S = _with_spectrum(8, np.linspace(1.0, 0.0, 12))
        svd = np.linalg.svd

        def skewed_svd(a, *args, **kwargs):
            u, s, wh = svd(a, *args, **kwargs)
            return u * (1.0 + 1e-9), s, wh

        monkeypatch.setattr(np.linalg, "svd", skewed_svd)
        fac = takagi(S)
        assert np.linalg.norm(fac.V.conj().T @ fac.V - np.eye(len(S))) <= 1e-10
        assert np.linalg.norm(fac.V.T @ S @ fac.V - fac.D) <= 1e-10

    def test_non_unitary_right_singular_vectors_fall_back(self, monkeypatch):
        """P = Sigma W^† conj(U) reads W^† too: a row of W^† leaning 1e-9 on
        the next one leaks into P's diagonal phases and costs V^T S V - D
        ~7e-10, which a check of U alone lets through."""
        S = _with_spectrum(8, np.linspace(1.0, 0.0, 12))
        svd = np.linalg.svd

        def skewed_svd(a, *args, **kwargs):
            u, s, wh = svd(a, *args, **kwargs)
            wh[0] += 1e-9 * wh[1]
            return u, s, wh

        monkeypatch.setattr(np.linalg, "svd", skewed_svd)
        fac = takagi(S)
        assert np.linalg.norm(fac.V.T @ S @ fac.V - fac.D) <= 1e-10


def _bipartite_targets():
    """Two-qudit targets C whose states from_qudit_target must send down the
    closed form, each normalized: full and deficient rank, I / sqrt(d), and C
    with a zero first row, a zero first column or a zero leading entry, none
    of which moves the first d1 that splits the state."""
    rng = np.random.default_rng(20261021)
    cases = {}
    for d1, d2 in ((1, 1), (1, 7), (7, 1), (3, 2), (4, 4), (32, 32), (64, 64)):
        p = min(d1, d2)
        for rank in sorted({1, max(1, p // 2), p}):
            cases[f"{d1}x{d2}-rank-{rank}"] = random_target_of_rank(rng, d1, d2, rank).C
        if d1 == d2:
            cases[f"{d1}x{d2}-identity"] = np.eye(d1) / np.sqrt(d1)
        C = random_target_of_rank(rng, d1, d2, p).C
        for kind, zeroed in (("zero-first-row", np.s_[0, :]), ("zero-first-column", np.s_[:, 0]),
                             ("zero-leading-entry", np.s_[0, 0])):
            Z = C.copy()
            Z[zeroed] = 0.0
            if np.any(Z):
                cases[f"{d1}x{d2}-{kind}"] = Z / np.linalg.norm(Z)
    return cases


BIPARTITE = _bipartite_targets()


def _routes(monkeypatch):
    """Record, in call order, each call of takagi's two routes and of its
    fallback with the shape of the matrix it got."""
    calls = []
    for name in ("_bipartite_takagi", "_embedded_takagi", "_svd_takagi"):
        def recording(M, name=name, inner=getattr(linalg_module, name)):
            calls.append((name, M.shape))
            return inner(M)

        monkeypatch.setattr(linalg_module, name, recording)
    return calls


class TestBipartiteTakagi:
    """takagi factorizes a bipartite S = [[0, B], [B^T, 0]], every
    from_qudit_target state among them, in closed form from the SVD of B, at
    any size, and every other S as before."""

    @staticmethod
    def check(S, fac):
        m = len(S)
        sigma1 = np.linalg.svd(S, compute_uv=False)[0]
        assert np.linalg.norm(fac.V.conj().T @ fac.V - np.eye(m)) <= 1e-10
        residual = np.linalg.norm(fac.V.T @ S @ fac.V - fac.D)
        assert residual <= TAKAGI_RECONSTRUCTION_TOL * sigma1
        assert np.all(fac.diagonal >= 0) and np.all(np.diff(fac.diagonal) <= 0)
        reference = _embedded_takagi(S)
        assert np.allclose(fac.diagonal, reference.diagonal, rtol=0, atol=1e-12 * sigma1)

    @pytest.mark.parametrize("case", sorted(BIPARTITE))
    def test_two_qudit_states_take_the_closed_form(self, monkeypatch, case):
        """One call of the closed form on the d1 x d2 block, and each singular
        value of C, halved, twice."""
        C = BIPARTITE[case]
        S = from_qudit_target(QuditTarget(C)).S
        calls = _routes(monkeypatch)
        fac = takagi(S)
        assert calls == [("_bipartite_takagi", C.shape)]
        monkeypatch.undo()
        sigma = np.linalg.svd(C, compute_uv=False) / 2.0
        expected = np.zeros(len(S))
        expected[: 2 * len(sigma)] = np.repeat(sigma, 2)
        assert np.allclose(fac.diagonal, expected, rtol=0, atol=1e-14)
        assert fac.rank == 2 * np.linalg.matrix_rank(C)
        self.check(S, fac)

    @pytest.mark.parametrize("m", [2, 8, 24])
    def test_the_zero_matrix_is_split_after_its_first_mode(self, monkeypatch, m):
        calls = _routes(monkeypatch)
        fac = takagi(np.zeros((m, m)))
        assert calls == [("_bipartite_takagi", (1, m - 1))]
        assert np.array_equal(fac.diagonal, np.zeros(m))
        assert np.linalg.norm(fac.V.conj().T @ fac.V - np.eye(m)) <= 1e-10

    def test_the_first_d1_that_splits_is_taken(self):
        """A zero last row of C lets a smaller d1 split the state too; the
        first is taken, and its block factorizes the same S."""
        C = np.array([[1.0, 2.0j], [0.5, -1.0], [0.0, 0.0]])
        S = from_qudit_target(QuditTarget(C / np.linalg.norm(C))).S
        assert _bipartition(S) == 2
        self.check(S, takagi(S))

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), d1=st.integers(1, 10), d2=st.integers(1, 10),
        zeros=st.floats(0.0, 0.9), scale=st.integers(-8, 3),
    )
    def test_any_block_takes_the_closed_form(self, seed, d1, d2, zeros, scale):
        """S = [[0, B], [B^T, 0]] for a random B at scales 1e-8 ... 1e3, any
        share of its entries zero (B = 0 included), of full or deficient rank."""
        gen = np.random.default_rng(seed)
        rank = int(gen.integers(1, min(d1, d2) + 1))
        B = (gen.standard_normal((d1, rank)) + 1j * gen.standard_normal((d1, rank))) @ (
            gen.standard_normal((rank, d2)) + 1j * gen.standard_normal((rank, d2))
        )
        B[gen.random(B.shape) < zeros] = 0.0
        S = 10.0**scale * np.block([[np.zeros((d1, d1)), B], [B.T, np.zeros((d2, d2))]])
        assert 1 <= _bipartition(_peak_scaled(S)[0]) <= d1
        fac = takagi(S)
        if np.any(S):
            self.check(S, fac)

    @pytest.mark.parametrize("d", [4, 12])
    @pytest.mark.parametrize("how", ["interleaved", "haar-rotated"])
    def test_a_state_no_d1_splits_keeps_its_old_route(self, monkeypatch, d, how):
        """A two-qudit state with its modes interleaved (a0, b0, a1, b1, ...)
        or under a Haar-random congruence is not bipartite: it takes the SVD
        route at every size."""
        rng = np.random.default_rng(d)
        S = from_qudit_target(random_target_of_rank(rng, d, d, d)).S
        if how == "interleaved":
            order = np.arange(2 * d).reshape(2, d).T.ravel()
            S = S[np.ix_(order, order)]
        else:
            u = random_unitary(rng, 2 * d)
            S = u @ S @ u.T
        assert _bipartition(_peak_scaled(S)[0]) == 0
        calls = _routes(monkeypatch)
        fac = takagi(S)
        assert calls[0] == ("_svd_takagi", (2 * d, 2 * d))
        assert "_bipartite_takagi" not in {name for name, _ in calls}
        monkeypatch.undo()
        self.check(S, fac)

    def test_a_nonzero_diagonal_is_refused_before_the_scan(self, monkeypatch):
        """A generic S is ruled out at its diagonal: no m x m scan."""
        triu_calls = []
        triu = np.triu
        monkeypatch.setattr(np, "triu", lambda *args, **kw: triu_calls.append(1) or triu(*args, **kw))
        assert _bipartition(random_complex_symmetric(np.random.default_rng(3), 64)) == 0
        assert triu_calls == []

    def test_a_herald_qudit_target_takes_one_4x4_svd_and_no_eigh(self, monkeypatch):
        """The benchmark's 8-mode target, from a rank-3 4 x 4 C."""
        S = from_qudit_target(random_target_of_rank(np.random.default_rng(6), 4, 4, 3)).S
        svds, eighs = [], []
        svd, eigh = np.linalg.svd, np.linalg.eigh
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: svds.append(a.shape) or svd(a, *args, **kw))
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: eighs.append(a.shape) or eigh(a, *args, **kw))
        assert takagi(S).rank == 6
        assert svds == [(4, 4)] and eighs == []

    def test_a_failing_svd_falls_back_to_the_whole_embedding(self, monkeypatch):
        """checked_svd's ConvergenceFailure on B sends S, peak-scaled, to the
        whole embedding, as on the SVD route."""
        S = 3.0 * from_qudit_target(random_target_of_rank(np.random.default_rng(7), 4, 6, 3)).S

        def failing_svd(a, *args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        fac = takagi(S)
        scaled, peak = _peak_scaled(S)
        reference = _embedded_takagi(scaled)
        assert np.array_equal(fac.diagonal, reference.diagonal * peak)
        assert np.array_equal(fac.V, reference.V)
        assert np.linalg.norm(fac.V.T @ S @ fac.V - fac.D) <= 1e-10

    def test_closed_form_vectors(self, rng):
        """_bipartite_takagi's vectors, as its docstring states them, from
        checked_svd's factors of B."""
        B = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        u, sigma, wh = checked_svd(B)
        fac = _bipartite_takagi(B)
        plus = np.vstack([u, wh.T[:, :3]]) / np.sqrt(2.0)
        minus = 1j * np.vstack([u, -wh.T[:, :3]]) / np.sqrt(2.0)
        assert np.allclose(fac.V[:, 0:6:2], plus.conj(), rtol=0, atol=1e-15)
        assert np.allclose(fac.V[:, 1:6:2], minus.conj(), rtol=0, atol=1e-15)
        assert np.allclose(fac.V[:, 6:], np.vstack([np.zeros((3, 2)), wh.T[:, 3:]]).conj(), rtol=0, atol=0)
        assert np.array_equal(fac.diagonal, np.r_[np.repeat(sigma, 2), 0.0, 0.0])


def _rounding(r, N):
    """unitary_extension's rounding term rho = 32 gamma_{N+3} (r + sqrt(N)),
    gamma_k = k u / (1 - k u) with u = eps / 2, as its docstring derives it."""
    u, k = np.finfo(float).eps / 2, N + 3
    return 32 * k * u / (1 - k * u) * (r + np.sqrt(N))


def _contraction(A):
    """The reduced SVD of A / sigma_1(A), as the constructions pass it."""
    a, s, bh = np.linalg.svd(A, full_matrices=False)
    return a, s / s[0], bh


def _is_unitary(U, tol=1e-10):
    return np.linalg.norm(U.conj().T @ U - np.eye(len(U))) <= tol


class TestEmbeddedTakagiCompletion:
    """_embedded_takagi completes its vectors by QR whether or not a value is
    cut; either way it returns a unitary V that reconstructs S within
    takagi's gate."""

    @staticmethod
    def qr_calls(monkeypatch):
        calls, qr = [], np.linalg.qr

        def counting_qr(*args, **kwargs):
            calls.append(args[0].shape)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        return calls

    @staticmethod
    def check(S, fac):
        k = len(S)
        assert np.linalg.norm(fac.V.conj().T @ fac.V - np.eye(k)) <= 1e-10
        residual = np.linalg.norm(fac.V.T @ S @ fac.V - fac.D)
        assert residual <= TAKAGI_RECONSTRUCTION_TOL * fac.diagonal[0]
        assert np.all(fac.diagonal >= 0) and np.all(np.diff(fac.diagonal) <= 0)

    def test_a_cut_value_takes_the_completion(self, rng, monkeypatch):
        """A rank-2 block of size 3: its third value is cut, and QR completes
        the two kept vectors."""
        V = random_unitary(rng, 3)
        S = (V * [1.0, 0.5, 0.0]) @ V.T
        S = (S + S.T) / 2.0
        calls = self.qr_calls(monkeypatch)
        fac = _embedded_takagi(S)
        assert calls == [(3, 2)]
        assert fac.diagonal[2] == 0.0
        self.check(S, fac)

    def test_nothing_cut_takes_the_completion(self, monkeypatch):
        """Nothing cut, a twofold value included: QR still reorthonormalizes
        all four vectors."""
        S = _with_spectrum(9, np.array([1.0, 0.7, 0.7, 0.2]))
        calls = self.qr_calls(monkeypatch)
        fac = _embedded_takagi(S)
        assert calls == [(4, 4)]
        assert np.count_nonzero(fac.diagonal) == 4
        self.check(S, fac)


class TestUnitaryExtension:
    def test_already_unitary(self):
        U = unitary_extension(*np.linalg.svd(np.eye(2, dtype=complex)))
        assert np.allclose(U[:2, :2], np.eye(2))

    def test_scalar(self):
        U = unitary_extension(*np.linalg.svd(np.array([[0.6]])))
        assert np.allclose(U, [[0.6, 0.8], [0.8, -0.6]])

    def test_rectangular(self, rng):
        A = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        U = unitary_extension(*_contraction(A))
        assert len(U) == 8
        assert _is_unitary(U)
        assert np.linalg.norm(U[:3, :5] - A / np.linalg.norm(A, 2)) < 1e-10

    @pytest.mark.parametrize("m1, m2, r", [(2, 2, 2), (2, 3, 2), (3, 2, 0), (4, 4, 1)])
    def test_zero_contraction_is_the_swap(self, rng, m1, m2, r):
        """s = 0 has the dilation [[0, I], [I, 0]], whatever orthonormal
        factors it comes with."""
        a, bh = random_unitary(rng, m1)[:, :r], random_unitary(rng, m2)[:r]
        U = unitary_extension(a, np.zeros(r), bh)
        swap = np.block([[np.zeros((m1, m2)), np.eye(m1)], [np.eye(m2), np.zeros((m2, m1))]])
        assert np.max(np.abs(U - swap)) <= 1e-12
        assert np.all(U[:m1, :m2] == 0)
        exact = unitary_extension(np.eye(m1)[:, :r], np.zeros(r), np.eye(m2)[:r])
        assert np.array_equal(exact, swap)

    # s below 1 (no hidden rescale), unsorted, with exact 0s and 1s, and
    # shorter than min(m1, m2)
    @pytest.mark.parametrize(
        "s",
        [
            [0.3, 0.9, 0.1, 0.6],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0, 1.0],
            [0.5, 1.0],
            [0.0],
            [],
        ],
    )
    @pytest.mark.parametrize("m1, m2", [(4, 6), (6, 4), (4, 4)])
    def test_unitary_for_any_contraction(self, rng, s, m1, m2):
        """U is unitary, and its top-left block is (a * s) @ bh bit for bit,
        exactly as passed."""
        s = np.array(s, dtype=float)
        r = len(s)
        a, bh = random_unitary(rng, m1)[:, :r], random_unitary(rng, m2)[:r]
        U = unitary_extension(a, s, bh)
        assert U.shape == (m1 + m2, m1 + m2)
        assert _is_unitary(U)
        assert np.array_equal(U[:m1, :m2], (a * s) @ bh)

    @pytest.mark.parametrize(
        "bad", [np.nextafter(1.0, 2.0), 2.0, -np.nextafter(0.0, 1.0), -0.5, np.nan, np.inf, -np.inf]
    )
    def test_rejects_values_outside_the_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            unitary_extension(np.eye(3)[:, :2], np.array([0.5, bad]), np.eye(3)[:2])

    def test_rejects_complex_values(self):
        """B is dilated exactly as given, so a complex s is refused, not cast
        to its real part."""
        with pytest.raises(ValueError, match="real"):
            unitary_extension(np.eye(2)[:, :1], np.array([0.5 + 0.5j]), np.eye(2)[:1])

    @pytest.mark.parametrize(
        "m1, m2, rank", [(4, 6, 1), (6, 4, 1), (5, 5, 2), (3, 7, 2), (1, 3, 1)]
    )
    def test_rank_deficient(self, rng, m1, m2, rank):
        """Rows and columns beyond the singular support pass through the
        identity blocks of the dilation."""
        a = rng.standard_normal((m1, rank)) + 1j * rng.standard_normal((m1, rank))
        b = rng.standard_normal((rank, m2)) + 1j * rng.standard_normal((rank, m2))
        A = a @ b
        U = unitary_extension(*_contraction(A))
        assert len(U) == m1 + m2
        assert _is_unitary(U)
        assert np.linalg.norm(U[:m1, :m2] - A / np.linalg.norm(A, 2)) <= 1e-10

    def test_matches_block_diagonal_factors(self, rng):
        """U = diag(V1, V2) K diag(V2^†, V1^†), with the core K built densely
        from the full SVD; the dilation reads its first r = 3 rows of V2^†."""
        A = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        v1, s, v2h = np.linalg.svd(A)
        s = s / s[0]
        U = unitary_extension(v1, s, v2h[:3])
        S = np.zeros((3, 5))
        S[:3, :3] = np.diag(s)
        D1 = np.diag(np.sqrt(np.clip(1 - s**2, 0, None)))
        D2 = np.eye(5)
        D2[:3, :3] = D1
        K = np.block([[S, D1], [D2, -S.T]])
        left = np.block([[v1, np.zeros((3, 5))], [np.zeros((5, 3)), v2h.conj().T]])
        right = np.block([[v2h, np.zeros((5, 3))], [np.zeros((3, 5)), v1.conj().T]])
        assert np.linalg.norm(U - left @ K @ right) <= 1e-12

    @pytest.mark.parametrize("m1, m2", [(3, 5), (5, 3), (4, 4)])
    def test_from_unsorted_factors(self, rng, m1, m2):
        """Factors passed as held, s unsorted and with zeros: U is the dense
        diag(V1, V2) K diag(V2^†, V1^†) with K built in the order given,
        from the first r columns of V1 and rows of V2^†."""
        r = min(m1, m2)
        v1, v2h = random_unitary(rng, m1), random_unitary(rng, m2)
        s = np.array([0.0, 0.35, 1.0, 0.0])[:r]
        U = unitary_extension(v1[:, :r], s, v2h[:r])
        S = np.zeros((m1, m2))
        S[:r, :r] = np.diag(s)
        D1 = np.eye(m1)
        D1[:r, :r] = np.diag(np.sqrt(1 - s**2))
        D2 = np.eye(m2)
        D2[:r, :r] = D1[:r, :r]
        K = np.block([[S, D1], [D2, -S.T]])
        left = np.block([[v1, np.zeros((m1, m2))], [np.zeros((m2, m1)), v2h.conj().T]])
        right = np.block([[v2h, np.zeros((m2, m1))], [np.zeros((m1, m2)), v1.conj().T]])
        assert np.linalg.norm(U - left @ K @ right) <= 1e-12
        assert _is_unitary(U)

    @pytest.mark.parametrize("value", [0.0, 1e-9, 0.5, 1.0])
    @pytest.mark.parametrize("m1, m2", [(4, 6), (6, 4), (5, 5)])
    def test_defect_blocks_match_the_full_width_form(self, rng, value, m1, m2):
        """I - a diag(g) a^† equals V1 diag(sqrt(1 - s^2), 1, ...) V1^†, and
        likewise for V2, including s near 0 where 1 - sqrt(1 - s^2) would
        cancel; the bottom-right block is -B^†."""
        r = min(m1, m2) - 1
        s = np.full(r, value)
        v1, v2h = random_unitary(rng, m1), random_unitary(rng, m2)
        U = unitary_extension(v1[:, :r], s, v2h[:r])
        assert np.linalg.norm(U.conj().T @ U - np.eye(m1 + m2)) <= 1e-14
        v2 = v2h.conj().T
        defect1 = np.r_[np.sqrt(1.0 - s**2), np.ones(m1 - r)]
        defect2 = np.r_[np.sqrt(1.0 - s**2), np.ones(m2 - r)]
        assert np.linalg.norm(U[:m1, m2:] - (v1 * defect1) @ v1.conj().T) <= 1e-14
        assert np.linalg.norm(U[m1:, :m2] - (v2 * defect2) @ v2h) <= 1e-14
        assert np.array_equal(U[m1:, m2:], -U[:m1, :m2].conj().T)

    # (a, s, bh) shapes: a wider than r, r above m1, s not a vector, bh
    # taller than r, a not 2-D, bh not 2-D, r above m2, and s a scalar
    @pytest.mark.parametrize(
        "shapes",
        [
            ((3, 3), (2,), (2, 3)),
            ((2, 3), (3,), (3, 3)),
            ((2, 2), (3,), (3, 3)),
            ((2, 2), (2, 1), (2, 2)),
            ((3, 2), (2,), (3, 3)),
            ((3,), (1,), (1, 3)),
            ((3, 1), (1,), (3,)),
            ((3, 3), (3,), (3, 2)),
            ((3, 1), (), (1, 3)),
        ],
    )
    def test_rejects_factors_that_do_not_fit(self, shapes):
        a, s, bh = (np.ones(shape) for shape in shapes)
        with pytest.raises(ValueError):
            unitary_extension(a, s, bh)

    @pytest.mark.parametrize("m1, m2", [(3, 5), (5, 3), (4, 4), (1, 6), (6, 1), (0, 3), (3, 0)])
    def test_dilates_numpys_reduced_svd(self, rng, m1, m2):
        """np.linalg.svd(B, full_matrices=False) of a contraction B is passed
        as it comes, r = min(m1, m2) down to 0: U is unitary with B as its
        top-left block."""
        A = rng.standard_normal((m1, m2)) + 1j * rng.standard_normal((m1, m2))
        B = A * rng.uniform(0.0, 1.0) / max(np.linalg.norm(A, 2), 1.0)
        U = unitary_extension(*np.linalg.svd(B, full_matrices=False))
        assert U.shape == (m1 + m2, m1 + m2)
        assert np.linalg.norm(U.conj().T @ U - np.eye(m1 + m2)) <= 1e-12
        assert np.max(np.abs(U[:m1, :m2] - B), initial=0.0) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m1=st.integers(1, 6), m2=st.integers(1, 6))
    def test_contract_property(self, seed, m1, m2):
        gen = np.random.default_rng(seed)
        A = gen.standard_normal((m1, m2)) + 1j * gen.standard_normal((m1, m2))
        U = unitary_extension(*_contraction(A))
        assert len(U) == m1 + m2
        assert _is_unitary(U)
        assert np.linalg.norm(U[:m1, :m2] - A / np.linalg.norm(A, 2)) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m1=st.integers(2, 39),
        m2=st.integers(2, 39),
        exponent=st.floats(-14.0, -4.0),
    )
    def test_defect_within_the_factor_width_bound(self, seed, m1, m2, exponent):
        """Orthonormal factors perturbed by 10^exponent, s with an exact 1 and
        an exact 0: ||U^† U - I||_F <= 2 e (1 + e) + rho, with
        e = ||a^† a - I||_F + ||b^† b - I||_F taken here from the factors.
        The gate is lifted, so factors it would refuse are dilated too."""
        gen = np.random.default_rng(seed)
        r = int(gen.integers(2, min(m1, m2) + 1))
        s = gen.uniform(0.0, 1.0, r)
        s[0], s[-1] = 1.0, 0.0
        noise = 10.0**exponent * (gen.standard_normal((2, 39, 39)) + 1j * gen.standard_normal((2, 39, 39)))
        a = (random_unitary(gen, m1) + noise[0, :m1, :m1])[:, :r]
        bh = (random_unitary(gen, m2) + noise[1, :m2, :m2])[:r]
        with pytest.MonkeyPatch.context() as lifted:
            lifted.setattr(linalg_module, "DOCUMENT_UNITARITY_TOL", np.inf)
            U = unitary_extension(a, s, bh)
        b = bh.conj().T
        e = np.linalg.norm(a.conj().T @ a - np.eye(r)) + np.linalg.norm(b.conj().T @ b - np.eye(r))
        N = m1 + m2
        assert np.linalg.norm(U.conj().T @ U - np.eye(N)) <= 2 * e * (1 + e) + _rounding(r, N)

    @pytest.mark.parametrize("side", [-1, 1])
    def test_gate_boundary(self, side):
        """Column 0 of a scaled so that ||a^† a - I||_F = e puts the bound
        2 e (1 + e) + rho a relative 1e-6 inside (side -1, accepted) or
        outside (side 1, refused) DOCUMENT_UNITARITY_TOL. That margin is
        below rho, so a gate without the rounding term would accept both.
        With s_0 = g_0 = 1 the defect is e (2 + e): the bound is tight."""
        m1, m2, r = 5, 3, 3
        rho = _rounding(r, m1 + m2)
        assert DOCUMENT_UNITARITY_TOL * 1e-6 < rho
        X = (DOCUMENT_UNITARITY_TOL - rho) * (1 + side * 1e-6)
        e = X / (1 + np.sqrt(1 + 2 * X))  # 2 e (1 + e) = X
        a = np.eye(m1, r, dtype=complex)
        a[:, 0] *= np.sqrt(1 + e)
        s = np.array([1.0, 0.5, 0.0])
        if side > 0:
            with pytest.raises(VerificationFailure, match="unitarity"):
                unitary_extension(a, s, np.eye(r, m2))
            return
        U = unitary_extension(a, s, np.eye(r, m2))
        defect = np.linalg.norm(U.conj().T @ U - np.eye(m1 + m2))
        assert defect == pytest.approx(e * (2 + e), rel=1e-6)
        assert defect <= DOCUMENT_UNITARITY_TOL


class TestPeakScaled:
    def test_largest_modulus_becomes_one(self, rng):
        M = 1e-7 * random_complex_symmetric(rng, 4)
        scaled, peak = _peak_scaled(M)
        assert peak == np.max(np.abs(M))
        assert np.max(np.abs(scaled)) == pytest.approx(1.0, rel=1e-15)
        assert np.allclose(scaled * peak, M, rtol=1e-15, atol=0)

    def test_subnormal_peak(self):
        """Complex division by 1e-310 forms 1 / 1e-310, which overflows."""
        M = 1e-310 * np.array([[1, 1j], [0, -1]])
        scaled, peak = _peak_scaled(M)
        assert peak == 1e-310
        assert np.allclose(scaled, [[1, 1j], [0, -1]], rtol=1e-5, atol=0)

    def test_zero_and_real_input(self):
        scaled, peak = _peak_scaled(np.zeros((2, 3)))
        assert peak == 0.0 and scaled.dtype == complex
        assert np.array_equal(scaled, np.zeros((2, 3)))


class TestCheckedSvd:
    """The SVD a dilation reads: unitary factors or ConvergenceFailure."""

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (5, 3), (32, 32)])
    def test_is_the_svd(self, rng, shape):
        A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for x, y in zip(checked_svd(A), np.linalg.svd(A)):
            assert np.array_equal(x, y)

    def test_non_convergence_is_a_convergence_failure(self, monkeypatch):
        """A bare LinAlgError subclasses ValueError, which the CLI would
        report as an input error."""

        def failing_svd(a, *args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            checked_svd(np.eye(3))

    @pytest.mark.parametrize("shape", [(4, 6), (6, 4), (5, 5)])
    @pytest.mark.parametrize("factor", [0, 2])
    def test_non_unitary_factors_are_a_convergence_failure(self, monkeypatch, shape, factor):
        """A k x k factor off unitarity by more than TAKAGI_CUT k, as divide
        and conquer can leave it inside large clusters, raises, also where
        the defect is below TAKAGI_CUT (m1 + m2)."""
        A, factors, defect = _skewed_factors(monkeypatch, shape, factor, 1.1)
        assert TAKAGI_CUT * len(factors[factor]) < defect < TAKAGI_CUT * sum(shape)
        with pytest.raises(ConvergenceFailure, match="off unitarity"):
            checked_svd(A)

    @pytest.mark.parametrize("shape", [(4, 6), (6, 4), (5, 5)])
    @pytest.mark.parametrize("factor", [0, 2])
    def test_factors_within_their_own_bound_pass(self, monkeypatch, shape, factor):
        A, factors, defect = _skewed_factors(monkeypatch, shape, factor, 0.9)
        assert 0 < defect < TAKAGI_CUT * len(factors[factor])
        assert checked_svd(A)[factor] is factors[factor]

    def test_is_the_only_svd_in_the_package(self):
        """Every SVD the package takes goes through this guard: numpy's svd
        is named once in the package, inside checked_svd."""
        found = {path.name: len(_svd_names(ast.parse(path.read_text()))) for path in PACKAGE.glob("*.py")}
        assert {name: count for name, count in found.items() if count} == {"linalg.py": 1}
        tree = ast.parse((PACKAGE / "linalg.py").read_text())
        guard = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "checked_svd")
        assert len(_svd_names(guard)) == 1


def _skewed_factors(monkeypatch, shape, factor, over):
    """Make np.linalg.svd return exact identity factors for a zero matrix of
    the given shape, with factor 0 (u) or 2 (vh) scaled to c I, whose defect
    ||X^† X - I||_F = (c^2 - 1) sqrt(k) is over x TAKAGI_CUT k. Returns the
    matrix, the factors and that defect."""
    k = shape[0] if factor == 0 else shape[1]
    c = np.sqrt(1.0 + over * TAKAGI_CUT * np.sqrt(k))
    factors = [np.eye(shape[0], dtype=complex), np.zeros(min(shape)), np.eye(shape[1], dtype=complex)]
    factors[factor] = factors[factor] * c
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: tuple(factors))
    return np.zeros(shape), factors, np.linalg.norm((c * c - 1.0) * np.eye(k))


def _svd_names(tree) -> list:
    """The nodes under tree that name an svd: an attribute (np.linalg.svd)
    or an import (from numpy.linalg import svd)."""
    return [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "svd")
        or (isinstance(node, ast.ImportFrom) and any(alias.name == "svd" for alias in node.names))
    ]


class TestNumericalRank:
    """The rank rule, read off the Takagi diagonal, against the definition."""

    def test_zero(self):
        assert takagi(np.zeros((4, 4))).rank == 0

    def test_identity(self, definition_rank):
        assert takagi(np.eye(3)).rank == 3 == definition_rank(np.eye(3))
        assert state_rank(normalize(np.eye(3))) == 3

    def test_outer_product(self):
        assert takagi(np.ones((2, 2))).rank == 1

    def test_invariant_under_unitaries(self, rng, definition_rank):
        """Congruence S -> u S u^T, the evolution of a two-photon state."""
        g = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        state = normalize(g @ g.T)
        rank = state_rank(state)
        assert rank == 3 == definition_rank(state.S)
        for _ in range(10):
            u = random_unitary(rng, 5)
            S = u @ state.S @ u.T
            assert takagi(S).rank == rank == definition_rank(S)


def test_import_loads_no_scipy():
    code = "import sys, photonprep\nprint(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n"
    env = {**os.environ, "PYTHONPATH": str(Path(photonprep.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
