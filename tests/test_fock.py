import math
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
    DimensionMismatch,
    PhotonNumberMismatch,
    TooLarge,
    amplitude,
    evolve_two_photon,
    normalize,
    permanent,
    permanent_naive,
)
from photonprep.fock import occupation_basis
from photonprep.random_states import random_complex_symmetric, random_unitary

SPLITTER = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class TestPermanent:
    def test_identity(self):
        assert permanent(np.eye(2)) == pytest.approx(1.0)

    def test_all_ones(self):
        assert permanent(np.ones((2, 2))) == pytest.approx(2.0)

    def test_balanced_splitter(self):
        assert permanent(SPLITTER) == pytest.approx(0.0, abs=1e-15)

    def test_empty(self):
        assert permanent(np.zeros((0, 0))) == pytest.approx(1.0)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            permanent(np.eye(15))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
    def test_matches_naive(self, seed, n):
        gen = np.random.default_rng(seed)
        M = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        fast = permanent(M)
        slow = permanent_naive(M)
        assert abs(fast - slow) <= 1e-9 * max(1.0, abs(slow))


def _matrix_of_kind(rng, n, kind):
    if kind == "complex":
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "real":
        return rng.standard_normal((n, n))
    if kind == "rank1":
        u, v = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        return np.outer(u, v)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M[:, rng.integers(n)] = 0.0
    return M


class TestRyserKernel:
    @pytest.mark.parametrize("kind", ["complex", "real", "rank1", "zero_column"])
    @pytest.mark.parametrize("n", range(9))
    def test_matches_naive_every_size(self, rng, n, kind):
        M = _matrix_of_kind(rng, n, kind) if n else np.zeros((0, 0))
        fast, slow = permanent(M), permanent_naive(M)
        if kind == "zero_column" and n:
            # the naive sum is exactly zero; Ryser's signed sum cancels to
            # roundoff of its terms, each bounded by the product of row 1-norms
            assert slow == 0
            assert abs(fast) <= 1e-13 * np.prod(np.abs(M).sum(axis=1))
        else:
            assert abs(fast - slow) <= 1e-11 * abs(slow)

    @pytest.mark.parametrize("n", [10, 14])
    def test_all_ones_is_factorial(self, n):
        exact = math.factorial(n)
        assert abs(permanent(np.ones((n, n))) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("n", [1, 5, 14])
    def test_permuted_diagonal(self, rng, n):
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        M = np.eye(n)[rng.permutation(n)] @ np.diag(d)
        exact = np.prod(d)
        assert abs(permanent(M) - exact) <= 1e-12 * abs(exact)

    def test_import_builds_no_table(self):
        code = (
            "import numpy, photonprep\n"
            "from photonprep import fock\n"
            "print(fock._ryser_tables.cache_info().currsize)\n"
            "photonprep.permanent(numpy.eye(3))\n"
            "print(fock._ryser_tables.cache_info().currsize)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(photonprep.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["0", "1"]


class TestAmplitude:
    def test_identity_circuit(self):
        assert amplitude(np.eye(3), (1, 0, 1), (1, 0, 1)) == pytest.approx(1.0)

    def test_hong_ou_mandel(self):
        assert amplitude(SPLITTER, (1, 1), (1, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_bunched_output(self):
        assert amplitude(SPLITTER, (2, 0), (1, 1)) == pytest.approx(1 / np.sqrt(2))

    def test_photon_mismatch(self):
        with pytest.raises(PhotonNumberMismatch):
            amplitude(np.eye(2), (1, 1), (1, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            amplitude(np.eye(2), (1, 1, 0), (1, 1))

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3])
    def test_unitarity_of_induced_map(self, rng, m, n):
        U = random_unitary(rng, m)
        ell = tuple([1] * n + [0] * (m - n)) if n <= m else None
        if ell is None:
            pytest.skip("more photons than modes not exercised here")
        total = sum(abs(amplitude(U, k, ell)) ** 2 for k in occupation_basis(m, n))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestEvolveTwoPhoton:
    def test_identity(self, rng):
        S = random_complex_symmetric(rng, 4)
        assert np.allclose(evolve_two_photon(np.eye(4), S), (S + S.T) / 2)

    def test_permutation_relabels_modes(self):
        S = np.diag([0.5, 0.3, 0.1]).astype(complex)
        P = np.eye(3)[[2, 0, 1]]
        evolved = evolve_two_photon(P, S)
        assert np.allclose(np.sort(np.diag(evolved)), np.sort(np.diag(S)))

    def test_preserves_rank_and_weight(self, rng):
        state = normalize(random_complex_symmetric(rng, 5))
        U = random_unitary(rng, 5)
        evolved = evolve_two_photon(U, state.S)
        assert np.linalg.matrix_rank(evolved, tol=1e-10) == np.linalg.matrix_rank(
            state.S, tol=1e-10
        )
        assert 2 * np.trace(evolved.conj().T @ evolved).real == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evolve_two_photon(np.eye(3), np.eye(2))


def test_amplitude_agrees_with_matrix_conjugation(rng):
    """Two independent pathways to the evolved two-photon coefficients."""
    m = 4
    U = random_unitary(rng, m)
    state = normalize(random_complex_symmetric(rng, m))
    evolved = evolve_two_photon(U, state.S)

    # input coefficients in the Fock basis
    def coeff(S, occ):
        (i, j) = [idx for idx in range(m) for _ in range(occ[idx])]
        return np.sqrt(2) * S[i, i] if i == j else 2 * S[i, j]

    for k in occupation_basis(m, 2):
        via_amplitude = sum(
            coeff(state.S, ell) * amplitude(U, k, ell) for ell in occupation_basis(m, 2)
        )
        assert via_amplitude == pytest.approx(coeff(evolved, k), abs=1e-10)
