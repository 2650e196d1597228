import math
import os
from fractions import Fraction
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonprep
from photonprep import fock
from photonprep import (
    DimensionMismatch,
    PhotonNumberMismatch,
    TooLarge,
    amplitude,
    evolve_two_photon,
    normalize,
    permanent,
)
from photonprep.fock import permanent_naive
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
            # the naive sum is exactly zero; Glynn's signed sum cancels to
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
            "print(fock._glynn_tables.cache_info().currsize)\n"
            "photonprep.permanent(numpy.eye(3))\n"
            "print(fock._glynn_tables.cache_info().currsize)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(photonprep.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["0", "1"]


class TestStackedPermanent:
    @pytest.mark.parametrize("n", range(9))
    def test_matches_naive_every_size(self, rng, n):
        # one matrix of each kind, as a (4, n, n) and a (2, 2, n, n) stack
        kinds = ["complex", "real", "rank1", "zero_column"]
        stack = np.array([_matrix_of_kind(rng, n, kind) if n else np.zeros((0, 0)) for kind in kinds])
        slow = np.array([permanent_naive(M) for M in stack])
        bound = np.array([1e-11 * abs(s) for s in slow])
        if n:
            # a zero column sums to exactly zero naively, to roundoff in Glynn
            assert slow[3] == 0
            bound[3] = 1e-13 * np.prod(np.abs(stack[3]).sum(axis=1))
        flat = permanent(stack)
        assert isinstance(flat, np.ndarray) and flat.shape == (4,)
        assert np.all(np.abs(flat - slow) <= bound)
        grid = permanent(stack[[[0, 1], [3, 2]]])
        assert grid.shape == (2, 2)
        assert np.all(np.abs(grid - slow[[[0, 1], [3, 2]]]) <= bound[[[0, 1], [3, 2]]])

    def test_flat_rows_to_rounding(self, rng):
        """Two rows a * 1 over twelve flat rows 1/sqrt(12), the flat-witness
        pair of a 14-photon herald: Per = a^2 14! / 12^6, read to near
        rounding although the matrix is as flat as the limit allows."""
        n = fock.PERMANENT_LIMIT
        a = rng.uniform(0.05, 3.0, 50)
        stack = np.full((50, n, n), 1 / np.sqrt(n - 2), dtype=complex)
        stack[:, :2] = a[:, None, None]
        exact = a**2 * math.factorial(n) / (n - 2) ** ((n - 2) / 2)
        assert np.max(np.abs(permanent(stack) - exact) / exact) <= 1e-12

    def test_matrix_returns_complex_stack_returns_array(self, rng):
        M = _matrix_of_kind(rng, 3, "complex")
        assert type(permanent(M)) is complex
        one = permanent(M[None])
        assert one.shape == (1,) and one[0] == pytest.approx(permanent(M), abs=1e-14)

    @pytest.mark.parametrize("shape", [(0, 3, 3), (2, 0, 4, 4), (0, 0, 0)])
    def test_empty_batch(self, shape):
        out = permanent(np.zeros(shape))
        assert out.shape == shape[:-2] and out.dtype == complex

    def test_stack_of_empty_matrices(self):
        assert np.array_equal(permanent(np.zeros((3, 0, 0))), np.ones(3))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 4)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError):
            permanent(np.zeros(shape))

    def test_too_large_stack(self):
        with pytest.raises(TooLarge):
            permanent(np.zeros((2, 15, 15)))

    def test_batch_larger_than_one_chunk(self, rng):
        # permuted diagonals have the exact permanent prod(d)
        n, count = 10, 250
        assert fock._CHUNK_ELEMENTS // (n << n) < count // 2
        d = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        stack = np.array([np.eye(n)[rng.permutation(n)] for _ in range(count)]) * d[:, None, :]
        exact = d.prod(axis=1)
        assert np.all(np.abs(permanent(stack) - exact) <= 1e-12 * np.abs(exact))


def _matrix_major_permanent(M):
    """Glynn's formula with each matrix's rows kept together, the layout
    `permanent` used before its rows went photon-major; one unchunked product."""
    n = M.shape[-1]
    if not n:
        return np.ones(M.shape[:-2], dtype=complex)
    deltas, weights = fock._glynn_tables(n)
    sums = (M.reshape(-1, n) @ deltas).reshape(-1, n, 1 << (n - 1))
    return (sums.prod(axis=1) @ weights).reshape(M.shape[:-2])


class TestPhotonMajorLayout:
    """The photon-major row order changes only where each row sum sits, so
    the permanents agree with the matrix-major layout to rounding, here
    bounded at 2^-50 relative."""

    @pytest.mark.parametrize("n", range(fock.PERMANENT_LIMIT + 1))
    def test_single_matrix_every_size(self, rng, n):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        reference = complex(_matrix_major_permanent(M))
        fast = permanent(M)
        assert abs(fast - reference) <= 2.0**-50 * abs(reference)
        if n <= 8:
            slow = permanent_naive(M)
            assert abs(fast - slow) <= 1e-11 * abs(slow)

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 10, 12])
    def test_stack_spanning_chunks(self, rng, n):
        step = max(1, fock._CHUNK_ELEMENTS // (n << (n - 1)))
        count = 2 * step + 3  # two full chunks and a partial third
        stack = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
        reference = _matrix_major_permanent(stack)
        fast = permanent(stack)
        assert fast.shape == (count,)
        assert np.all(np.abs(fast - reference) <= 2.0**-50 * np.abs(reference))
        if n <= 8:
            picks = rng.choice(count, 4, replace=False)
            slow = np.array([permanent_naive(M) for M in stack[picks]])
            assert np.all(np.abs(fast[picks] - slow) <= 1e-11 * np.abs(slow))

    def test_leading_shape_kept(self, rng):
        stack = rng.standard_normal((3, 5, 6, 6)) + 1j * rng.standard_normal((3, 5, 6, 6))
        reference = _matrix_major_permanent(stack)
        fast = permanent(stack)
        assert fast.shape == (3, 5)
        assert np.all(np.abs(fast - reference) <= 2.0**-50 * np.abs(reference))


class TestBatchedAmplitude:
    def test_matches_definition_with_bunching(self, rng, definition_amplitude, occupation_basis):
        # 3 photons in 4 modes: every pair of the 20 occupations, k_i up to 3
        m, n = 4, 3
        U = random_unitary(rng, m)
        basis = np.array(list(occupation_basis(m, n)))
        table = amplitude(U, basis[:, None, :], basis[None, :, :])
        assert table.shape == (len(basis), len(basis))
        expected = [[definition_amplitude(U, k, ell) for ell in basis] for k in basis]
        assert np.max(np.abs(table - expected)) <= 1e-12

    def test_matches_scalar_calls(self, rng):
        U = random_unitary(rng, 5)
        ks = np.array([[2, 0, 1, 0, 0], [0, 0, 0, 3, 0], [1, 1, 1, 0, 0]])
        ell = np.array([0, 1, 1, 0, 1])
        batch = amplitude(U, ks, ell)
        assert batch.shape == (3,)
        # a batched product may round differently in the last bits
        assert np.max(np.abs(batch - [amplitude(U, k, ell) for k in ks])) <= 1e-14
        assert type(amplitude(U, ks[0], ell)) is complex

    def test_batch_larger_than_one_chunk(self, rng, occupation_basis):
        # 8 photons in 4 modes: 165 outputs, more than one chunk of 8x8
        # permanents; the induced map is unitary, so their weights sum to 1
        m, n = 4, 8
        U = random_unitary(rng, m)
        basis = np.array(list(occupation_basis(m, n)))
        assert fock._CHUNK_ELEMENTS // (n << n) < len(basis)
        ell = (3, 1, 0, 4)
        batch = amplitude(U, basis, ell)
        assert np.sum(np.abs(batch) ** 2) == pytest.approx(1.0, abs=1e-10)
        single = [amplitude(U, k, ell) for k in basis]
        assert np.max(np.abs(batch - single)) <= 1e-12

    def test_leading_shapes_broadcast(self, rng, occupation_basis):
        U = random_unitary(rng, 3)
        ks = np.array(list(occupation_basis(3, 2)))
        out = amplitude(U, ks[:, None, None, :], ks[None, None, :, :])
        assert out.shape == (len(ks), 1, len(ks))

    def test_empty_batch(self):
        out = amplitude(np.eye(3), np.zeros((0, 3), dtype=int), (1, 0, 0))
        assert out.shape == (0,)

    def test_vacuum(self):
        assert amplitude(np.eye(3), np.zeros((2, 3), dtype=int), (0, 0, 0)).tolist() == [1, 1]

    def test_mixed_photon_numbers(self):
        # each entry conserves photons, but the batch mixes 1 and 2
        with pytest.raises(PhotonNumberMismatch):
            amplitude(np.eye(2), [(1, 0), (1, 1)], [(0, 1), (2, 0)])

    def test_one_entry_mismatched(self):
        with pytest.raises(PhotonNumberMismatch):
            amplitude(np.eye(3), [(1, 1, 0), (1, 0, 0)], (0, 1, 1))

    def test_negative_entry(self):
        with pytest.raises(ValueError):
            amplitude(np.eye(3), [(1, 1, 0), (2, 1, -1)], (0, 1, 1))

    @pytest.mark.parametrize("k, ell", [([(1, 1)], (1, 1, 0)), ([(1, 1, 0, 0)], (1, 1, 0)), ((1, 1, 0), [(1, 1)])])
    def test_wrong_last_axis(self, k, ell):
        with pytest.raises(DimensionMismatch):
            amplitude(np.eye(3), k, ell)

    def test_leading_shapes_do_not_broadcast(self):
        with pytest.raises(DimensionMismatch):
            amplitude(np.eye(2), [(1, 0)] * 2, [(0, 1)] * 3)

    def test_too_many_photons(self):
        m = 15
        k = np.ones((2, m), dtype=int)
        with pytest.raises(TooLarge):
            amplitude(np.eye(m), k, k)

    def test_too_many_photons_caught_before_the_broadcast(self):
        """A 256 x 256 table of 15-photon pairs over 60 modes would broadcast
        to two 31 MB occupation stacks; the limit is checked on the stacks as
        given."""
        k = np.zeros((256, 1, 60), dtype=int)
        k[..., 0] = 15
        ell = np.zeros((1, 256, 60), dtype=int)
        ell[..., 1] = 15
        U = np.eye(60)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                amplitude(U, k, ell)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_table_beyond_the_occupation_limit(self):
        """The 11-qubit truth table, 2^11 x 2^11 amplitudes over 22 modes, is
        beyond OCCUPATION_LIMIT entries: refused, naming the table's shape and
        modes, before its photon indices are built."""
        k = np.zeros((2048, 1, 22), dtype=np.int8)
        k[..., :11] = 1
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match=r"table of shape \(2048, 2048\) over 22 modes beyond 67108864"):
                amplitude(np.eye(22), k, k.reshape(1, 2048, 22))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestOccupationEntries:
    @pytest.mark.parametrize("k", [(1.7, 0, 0), (1, 0.5, -0.5), ("1", 0, 0), ("x", 0, 0), (np.nan, 0, 0), (np.inf, 0, 0)])
    def test_fractional_or_non_numeric_entries_are_refused(self, k):
        """Such entries once truncated to the amplitude of (1, 0, 0)."""
        with pytest.raises(ValueError, match="occupations must be integers"):
            amplitude(np.eye(3), k, (1, 0, 0))
        with pytest.raises(ValueError, match="occupations must be integers"):
            amplitude(np.eye(3), (1, 0, 0), [k, (1, 0, 0)])

    def test_fraction_objects_are_refused(self):
        from fractions import Fraction

        with pytest.raises(ValueError, match="occupations must be integers"):
            amplitude(np.eye(3), (Fraction(1), 0, 0), (1, 0, 0))

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64, float])
    def test_integer_valued_entries_of_any_numeric_dtype(self, rng, dtype):
        U = random_unitary(rng, 3)
        k = np.array([[2, 0, 1], [0, 1, 2]], dtype=dtype)
        ell = np.array([1, 1, 1], dtype=dtype)
        assert np.array_equal(amplitude(U, k, ell), amplitude(U, k.astype(int), ell.astype(int)))


def _herald_layout(rng, n):
    """A random unitary over the heralded oracle's modes at n photons, with
    the oracle's output stack and its one input."""
    from photonprep.verify import _heralded_outputs

    m = n + 1
    signal = () if n == 2 else (n - 2,)
    _, _, k_out, ell_in, _ = _heralded_outputs(n, m, signal)
    return random_unitary(rng, len(ell_in)), k_out, ell_in


def _cnz_table(rng, n):
    """A random unitary over 2n dual rails, with the n-qubit basis as rows and columns."""
    from photonprep.gates import _dual_rail_basis

    occ = _dual_rail_basis(n)
    return random_unitary(rng, 2 * n), occ[:, None, :], occ[None, :, :]


class TestIndexGather:
    @staticmethod
    def _broadcast_reference(U, k, ell):
        """The amplitudes through m-wide broadcast occupations, every
        submatrix gathered by row and column index arrays in one batch."""
        k, ell = np.asarray(k), np.asarray(ell)
        m = len(U)
        shape = np.broadcast_shapes(k.shape[:-1], ell.shape[:-1])
        kb = np.broadcast_to(k, shape + (m,)).reshape(-1, m).astype(int)
        lb = np.broadcast_to(ell, shape + (m,)).reshape(-1, m).astype(int)
        n = int(kb[0].sum())
        modes = np.tile(np.arange(m), len(kb))
        rows = np.repeat(modes, kb.reshape(-1)).reshape(-1, n, 1)
        cols = np.repeat(modes, lb.reshape(-1)).reshape(-1, 1, n)
        norms = np.sqrt(fock._FACTORIALS[kb].prod(axis=1) * fock._FACTORIALS[lb].prod(axis=1))
        return (permanent(U[rows, cols]) / norms).reshape(shape)

    @staticmethod
    def _cases(rng, occupation_basis):
        basis = np.array(list(occupation_basis(5, 3)))
        U = random_unitary(rng, 5)
        yield "a stack against every third entry", U, basis[:, None, :], basis[None, ::3, :]
        yield "a one-chunk (a, 1, m) x (1, b, m) broadcast", U, basis[:7, None, :], basis[None, 3:12, :]
        yield "a 0-d pair", U, basis[4], basis[9]
        for n in range(2, 7):
            yield f"the herald layout at n = {n}", *_herald_layout(rng, n)
        yield "the 6-qubit truth table, several chunks", *_cnz_table(rng, 6)

    def test_matches_the_broadcast_occupation_reference(self, rng, occupation_basis):
        """The photon index gather, through one chunk's flat index or chunk by
        chunk, against the m-wide broadcast it replaced: the same submatrices
        in the same batches, so equal to the bit, on a miss and on a hit."""
        for name, U, k, ell in self._cases(rng, occupation_basis):
            reference = self._broadcast_reference(U, k, ell)
            fock._cached_layout.cache_clear()
            miss, hit = amplitude(U, k, ell), amplitude(U, k, ell)
            assert fock._cached_layout.cache_info().hits == 1, name
            assert np.array_equal(miss, reference), name
            assert np.array_equal(hit, reference), name
            assert np.shape(miss) == reference.shape, name

    def test_peak_memory_below_one_broadcast_occupation_stack(self):
        """The 8-qubit CZ truth table spans 256 x 256 entries of 8 photons: one
        broadcast photon index array is 65536 x 8 int64, 4.2 MB. Each chunk
        gathers its indices from the broadcast views, so the peak (row sums,
        the output table and one chunk's gathers) stays below one such array."""
        result, _ = photonprep.build_cnz(8, 1.0)
        U = result.unitary
        bits = (np.arange(256)[:, None] >> np.arange(8)[::-1]) & 1
        occ = np.zeros((256, len(U)), dtype=int)
        occ[:, :8], occ[:, 8:16] = bits, 1 - bits
        index_bytes = 256 * 256 * 8 * 8
        tracemalloc.start()
        try:
            table = amplitude(U, occ[:, None, :], occ[None, :, :])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index_bytes == 4_194_304
        assert peak < index_bytes
        assert np.max(np.abs(table - np.diag(np.diag(table)))) <= 1e-12

    def test_mismatch_reported_at_its_broadcast_entry(self):
        k = np.array([[1, 0], [0, 1]])
        ell = np.array([[[1, 0]], [[2, 0]]])
        with pytest.raises(PhotonNumberMismatch, match="1 output photons vs 2 input"):
            amplitude(np.eye(2), k, ell)

    def test_empty_broadcast_of_mixed_stacks(self):
        """A broadcast with no entries reads none of the photon numbers."""
        k = np.array([[1, 0, 0], [1, 1, 0]])
        ell = np.zeros((0, 1, 3), dtype=int)
        assert amplitude(np.eye(3), k, ell).shape == (0, 2)


class TestLayoutMemo:
    """`amplitude` keeps the checked layout of a pair of stacks, keyed on
    their exact bytes; a hit and a miss run the same evaluation."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_hit_equals_miss_on_herald_layouts(self, rng, n):
        U, k_out, ell_in = _herald_layout(rng, n)
        fock._cached_layout.cache_clear()
        miss = amplitude(U, k_out, ell_in)
        hits = [amplitude(U, k_out, ell_in) for _ in range(2)]
        info = fock._cached_layout.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        fock._cached_layout.cache_clear()
        assert all(np.array_equal(miss, hit) for hit in hits)
        assert np.array_equal(miss, amplitude(U, k_out, ell_in))

    def test_integer_dtypes_give_identical_amplitudes(self, rng):
        """Each dtype is its own key; the layouts they give are the same."""
        U, k_out, ell_in = _herald_layout(rng, 4)
        fock._cached_layout.cache_clear()
        tables = [
            amplitude(U, k_out.astype(dtype), ell_in.astype(dtype))
            for dtype in (np.int8, np.int64, float)
            for _ in range(2)
        ]
        assert fock._cached_layout.cache_info().currsize == 3
        assert all(np.array_equal(tables[0], table) for table in tables)

    def test_mutating_a_stack_in_place_changes_the_result(self, rng):
        U = random_unitary(rng, 4)
        k = np.array([[2, 0, 0, 0], [1, 1, 0, 0]])
        ell = np.array([1, 0, 1, 0])
        before = amplitude(U, k, ell)
        k[0] = (0, 0, 1, 1)
        after = amplitude(U, k, ell)
        assert after[0] != before[0] and after[1] == before[1]
        assert after[0] == amplitude(U, (0, 0, 1, 1), ell)

    @pytest.mark.parametrize(
        "k, ell, error, match",
        [
            ((1.5, 0, 0), (1, 0, 0), ValueError, "occupations must be integers"),
            ((np.inf, 0, 0), (1, 0, 0), ValueError, "occupations must be integers"),
            ([(1, 0, 0), (np.nan, 0, 0)], (1, 0, 0), ValueError, "occupations must be integers"),
            ((Fraction(1), 0, 0), (1, 0, 0), ValueError, "occupations must be integers"),
            ((2, 1, -1), (0, 1, 1), ValueError, "occupations must be nonnegative"),
            ((1, 0, 0), (1, 1, 0), PhotonNumberMismatch, "1 output photons vs 2 input"),
            ([(1, 0, 0), (1, 1, 0)], [(0, 1, 0), (0, 2, 0)], PhotonNumberMismatch, "mixes photon numbers"),
            ((1, 0), (1, 0, 0), DimensionMismatch, "must match the unitary dimension"),
            ((5, 5, 5), (5, 5, 5), TooLarge, "photon number 15 beyond the permanent limit"),
        ],
    )
    def test_refusals_repeat_and_are_not_kept(self, k, ell, error, match):
        fock._cached_layout.cache_clear()
        for _ in range(2):
            with pytest.raises(error, match=match):
                amplitude(np.eye(3), k, ell)
        assert fock._cached_layout.cache_info().currsize == 0

    @pytest.mark.parametrize("entries", [(2**62, 2**62), (2**63 - 1, 1)])
    def test_entries_beyond_the_limit_refused_before_their_sum_wraps(self, entries):
        """Both sum past 2^63 in int64 and once wrapped to a negative photon
        number, which passed the limit and failed inside numpy."""
        for _ in range(2):
            with pytest.raises(TooLarge, match=f"occupation {max(entries)} beyond the permanent limit"):
                amplitude(np.eye(2), entries, entries)

    @pytest.mark.parametrize(
        "dtype, entry", [(np.uint8, 255), (np.uint64, 2**63), (np.uint64, 2**64 - 1)]
    )
    def test_unsigned_entries_beyond_the_limit_are_too_large(self, dtype, entry):
        """uint64 entries of 2^63 and above wrapped negative in the cast to
        int64 and were refused as negative occupations."""
        occ = np.array([entry], dtype=dtype)
        for _ in range(2):
            with pytest.raises(TooLarge, match=f"occupation {entry} beyond the permanent limit"):
                amplitude(np.eye(1), occ, occ)

    @pytest.mark.parametrize(
        "table, arrays",
        [
            # one chunk: the flat gather and the norms
            (lambda rng: _herald_layout(rng, 3), 2),
            (lambda rng: _cnz_table(rng, 4), 2),
            # several chunks: both stacks' photon modes and factorial products
            (lambda rng: _cnz_table(rng, 7), 4),
        ],
        ids=["herald-3-photons", "truth-table-4-qubits", "truth-table-7-qubits"],
    )
    def test_memoized_arrays_are_read_only(self, rng, monkeypatch, table, arrays):
        U, k, ell = table(rng)
        seen = []
        evaluate = fock._evaluate

        def recording(U, layout):
            seen.append(layout)
            return evaluate(U, layout)

        monkeypatch.setattr(fock, "_evaluate", recording)
        fock._cached_layout.cache_clear()
        amplitude(U, k, ell)
        amplitude(U, k, ell)
        miss, hit = seen
        assert miss is hit
        assert len(miss[2:]) == arrays
        assert all(isinstance(a, np.ndarray) and not a.flags.writeable for a in miss[2:])

    @pytest.mark.parametrize("n", range(6))
    def test_largest_one_chunk_layout_kept(self, n):
        """n photons in one mode, a stack of a rows against one of b: the
        memo keeps the layout while a + b fit its budget. A one-chunk table
        spans size <= _chunk_size(n) entries, so its gather (size n^2 int64,
        and n^2 <= n 2^(n-1)) and its norms (size float64) hold at most
        8 * _CHUNK_ELEMENTS bytes each. n = 1 reaches the bound: 2 MiB."""
        size = fock._chunk_size(n)
        a = 128
        b = size // a
        k, ell = np.full((a, 1, 1), n), np.full((1, b, 1), n)
        assert a + b <= fock._LAYOUT_ENTRIES
        fock._cached_layout.cache_clear()
        for _ in range(2):
            assert np.array_equal(amplitude(np.eye(1), k, ell), np.ones((a, b)))
        assert fock._cached_layout.cache_info().hits == 1
        layout = fock._layout((1, 1), k, ell)
        assert len(layout) == 4  # one chunk
        held = sum(table.nbytes for table in layout[2:])
        assert held <= 16 * fock._CHUNK_ELEMENTS
        if n == 1:
            assert held == 16 * fock._CHUNK_ELEMENTS == 2 * 1024**2
        # one entry more spans two chunks and holds the unbroadcast indices
        assert len(fock._layout((1, 1), np.full((size + 1, 1), n), (n,))) == 6

    def test_layout_above_the_budget_is_not_kept(self):
        """One photon in one mode: a stack of `entries` rows, plus the input."""
        fock._cached_layout.cache_clear()
        for entries in (fock._LAYOUT_ENTRIES - 1, fock._LAYOUT_ENTRIES):
            assert amplitude(np.eye(1), np.ones((entries, 1), dtype=int), (1,)).shape == (entries,)
        info = fock._cached_layout.cache_info()
        assert (info.misses, info.currsize) == (1, 1)


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
        # a unitary that is not a matrix, a 0-d one included
        for U in (1.0, np.ones(1), np.ones((1, 1, 1))):
            with pytest.raises(DimensionMismatch):
                amplitude(U, [1], [1])

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3])
    def test_unitarity_of_induced_map(self, rng, m, n, occupation_basis):
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
        assert abs(2 * np.trace(evolved.conj().T @ evolved).real - 1.0) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evolve_two_photon(np.eye(3), np.eye(2))

    @pytest.mark.parametrize("k", [1, 2, 4, 5])
    def test_rows_are_top_left_block(self, rng, k):
        U = random_unitary(rng, 5)
        S = random_complex_symmetric(rng, 5)
        full = evolve_two_photon(U, S)
        assert np.allclose(evolve_two_photon(U[:k], S), full[:k, :k], rtol=0, atol=1e-14)

    def test_columns_beyond_the_state_see_zero_padding(self, rng):
        U = random_unitary(rng, 6)
        S = random_complex_symmetric(rng, 4)
        padded = np.zeros((6, 6), dtype=complex)
        padded[:4, :4] = S
        full = evolve_two_photon(U, padded)
        assert np.allclose(evolve_two_photon(U[:3, :4], S), full[:3, :3], rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "u_shape, s_shape",
        [((3, 4), (3, 3)), ((4, 3), (4, 4)), ((2, 3), (3, 4)), ((3,), (3, 3)), ((3, 3), (3,))],
    )
    def test_mismatched_shapes_raise(self, u_shape, s_shape):
        with pytest.raises(DimensionMismatch):
            evolve_two_photon(np.ones(u_shape), np.ones(s_shape))


def test_amplitude_agrees_with_matrix_conjugation(rng, occupation_basis):
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
