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
from photonprep.linalg import TakagiFactorization, _embedded_takagi, checked_svd
from photonprep.random_states import (
    random_complex_symmetric,
    random_target_of_rank,
    random_unitary,
)
from photonprep.states import from_qudit_target, normalize, single_photons_state
from photonprep.tolerances import DOCUMENT_UNITARITY_TOL, RANK_TOL, TAKAGI_CUT

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

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            takagi(np.array([[np.nan]]))

    def test_overflowing_matrix_is_a_convergence_failure(self):
        """Finite entries of 1e308 overflow once symmetrized: a
        ConvergenceFailure, not a factorization with a non-finite V."""
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConvergenceFailure):
            takagi(np.full((2, 2), 1e308))

    def test_reconstruction_gate_refuses_nan(self, monkeypatch):
        nan_factor = TakagiFactorization(V=np.full((2, 2), np.nan + 0j), diagonal=np.ones(2))
        monkeypatch.setattr(linalg_module, "_svd_takagi", lambda S: nan_factor)
        with pytest.raises(ConvergenceFailure, match="reconstruct"):
            takagi(np.eye(2))

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
    @given(case=adversarial_spectra())
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
    definition-level reference it falls back to on coupled clusters: equal
    diagonals, and both factorizations meet the reconstruction and
    unitarity gates of test_adversarial_spectra_meet_gates."""

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
        eigensolver does not; takagi then embeds S whole."""
        S = _with_spectrum(7, np.array([1.0, 0.8, 0.5, 0.5, 1e-11, 0.0]))

        def failing_svd(a, *args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        fac = takagi(S)
        reference = _embedded_takagi((S + S.T) / 2.0)
        assert np.array_equal(fac.diagonal, reference.diagonal)
        assert np.array_equal(fac.V, reference.V)
        assert np.linalg.norm(fac.V.T @ S @ fac.V - fac.D) <= 1e-10

    def test_non_unitary_singular_vectors_fall_back(self, monkeypatch):
        """Columns of U off unit norm by 1e-9 leave P diagonal, so every
        index looks isolated, and pass the reconstruction gate; only a check
        of U itself keeps V unitary. Divide and conquer can lose 1e-6 of
        orthogonality inside large clusters."""
        S = _with_spectrum(8, np.array([1.0, 0.9, 0.7, 0.4, 0.2, 0.0]))
        svd = np.linalg.svd

        def skewed_svd(a, *args, **kwargs):
            u, s, wh = svd(a, *args, **kwargs)
            return u * (1.0 + 1e-9), s, wh

        monkeypatch.setattr(np.linalg, "svd", skewed_svd)
        fac = takagi(S)
        assert np.linalg.norm(fac.V.conj().T @ fac.V - np.eye(6)) <= 1e-10
        assert np.linalg.norm(fac.V.T @ S @ fac.V - fac.D) <= 1e-10

    def test_non_unitary_right_singular_vectors_fall_back(self, monkeypatch):
        """P = Sigma W^† conj(U) reads W^† too: a row of W^† leaning 1e-9 on
        the next one leaks into P's diagonal phases and costs V^T S V - D
        ~7e-10, which a check of U alone lets through."""
        S = _with_spectrum(8, np.array([1.0, 0.9, 0.7, 0.4, 0.2, 0.0]))
        svd = np.linalg.svd

        def skewed_svd(a, *args, **kwargs):
            u, s, wh = svd(a, *args, **kwargs)
            wh[0] += 1e-9 * wh[1]
            return u, s, wh

        monkeypatch.setattr(np.linalg, "svd", skewed_svd)
        fac = takagi(S)
        assert np.linalg.norm(fac.V.T @ S @ fac.V - fac.D) <= 1e-10


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
