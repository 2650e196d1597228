"""Permanent-based Fock amplitudes for linear-optical circuits.

The transition amplitude between Fock states under a mode unitary is the
permanent of a row/column-repeated submatrix, normalized by the square
roots of the occupation factorials. The permanent itself is Glynn's
formula evaluated for all sign vectors at once, as one matrix product
with a cached sign table, its rows ordered photon-major (row i of every
matrix, then row i + 1), so the product over photons runs over contiguous
slabs. `permanent` takes a single matrix or a stack of same-size
matrices, and `amplitude` broadcasts over stacks of occupation vectors, so
a whole truth table or heralded output space is one call. It turns each
stack, as given, into the mode index of each photon and broadcasts only
those n-wide index arrays, never the m-wide occupations. A table that fits
one chunk of `permanent` is read through one flat gather index into U,
rows * m + cols per submatrix, built with its norms when the table is
checked; a table of several chunks gathers each chunk's indices from the
broadcast views, so no (size, n) copy of them is made. What the checks
yield, the layout (gather and norms, or index arrays and factorial
products), is kept per distinct pair of stacks, keyed on their exact bytes,
for pairs of up to _LAYOUT_ENTRIES entries: an oracle that asks for the
same table on every op checks it once. Larger layouts are checked on every
call.
An O(n!) expansion is kept as an independent test oracle.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .exceptions import DimensionMismatch, PhotonNumberMismatch, TooLarge

PERMANENT_LIMIT = 14

# Entries of the table that one `amplitude` call spans, its broadcast leading
# shape times the m modes: the 2^10 x 2^10 truth table of a 10-qubit gate
# over its 20 dual rails fits, the 2^11 x 2^11 one over 22 does not. No stack
# of that size is built: each of the two photon index arrays is n / m of it.
OCCUPATION_LIMIT = 1 << 26

_FACTORIALS = np.array([math.factorial(i) for i in range(PERMANENT_LIMIT + 1)], dtype=float)

# Complex elements of Glynn's (n * matrices) x 2^(n-1) row-sum table
# evaluated at once (2 MB); longer stacks are split along their leading axis.
# The chunk's photon-major copy of its matrices and its gathered indices are
# smaller still. This is the largest power of two under which the 8-qubit
# CZ truth table's peak (row sums, output table, one chunk's gathers) stays
# below one 4.2 MB (entries, 8) int64 index array; at 4 MB the row sums alone
# reach that. The price: stacks at n >= 12 run up to ~10% slower than at
# 4 MB, and the 10-qubit truth table pays twice the per-chunk overhead.
_CHUNK_ELEMENTS = 1 << 17

# Entries of a pair of occupation stacks whose checked layout `amplitude`
# keeps, and how many such layouts it keeps. The checks cost ~20 us plus
# ~7 ns per entry (1 BLAS thread): 1.5x the 2-qubit CZ truth table's
# amplitudes, 2% at 6 qubits (1536 entries), 0.4% at 7 (3584). Beyond this
# budget the permanents dwarf them, so larger layouts are checked anew. A
# kept layout holds its key bytes (at most 32 KiB) and either a one-chunk
# table's gather (size n^2 int64) and norms (size float64), each at most
# 1 MiB as size n^2 <= size n 2^(n-1) <= _CHUNK_ELEMENTS, so 2 MiB in all at
# one photon; or a larger table's photon indices and factorial products,
# ~0.5 MB at most (14 photons in one mode). The memo thus stays below ~33 MB;
# the 4-qubit CZ truth table keeps 34 KiB, the 6-photon heralded oracle's 36
# entries 10 KiB.
_LAYOUT_ENTRIES = 1 << 12
_LAYOUTS = 16


def _chunk_size(n: int) -> int:
    """How many n x n matrices one chunk holds: as many as keep their row-sum
    table within _CHUNK_ELEMENTS, and at least one."""
    return max(1, _CHUNK_ELEMENTS // (max(n, 1) << max(n - 1, 0)))


def _chunks(count: int, n: int):
    """Slices of a stack of `count` n x n matrices, one chunk each."""
    step = _chunk_size(n)
    return (slice(start, start + step) for start in range(0, count, step))


@functools.lru_cache(maxsize=PERMANENT_LIMIT)
def _glynn_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n x 2^(n-1)) matrix of all sign vectors delta in {+1, -1}^n with
    delta_0 = +1, one per column, and the weight prod_k delta_k / 2^(n-1) of
    each. Built on first use of each size."""
    bits = (np.arange(1 << (n - 1)) >> np.arange(n - 1)[:, None]) & 1
    deltas = np.vstack([np.ones((1, 1 << (n - 1))), 1.0 - 2.0 * bits])
    weights = (deltas.prod(axis=0) / (1 << (n - 1))).astype(complex)
    deltas = deltas.astype(complex)  # matches M, so no cast per call
    deltas.setflags(write=False)
    weights.setflags(write=False)
    return deltas, weights


def permanent(M: np.ndarray) -> complex | np.ndarray:
    """Permanent of a square matrix, or of each matrix in a (..., n, n) stack,
    via Glynn's formula.

    Per(M) = 2^(1-n) sum_delta (prod_k delta_k) prod_i sum_j delta_j M_ij
    over sign vectors delta in {+1, -1}^n with delta_0 = +1. The signed row
    sums of every matrix in a chunk of the stack are one product of its rows
    with the sign table, the rows taken photon-major: row 0 of every matrix,
    then row 1, and so on. The product over i then multiplies n contiguous
    (matrices, 2^(n-1)) slabs, where a matrix-major layout would reduce over
    a strided middle axis. Its terms are bounded by the product of the row
    1-norms over 2^(n-1), which keeps the cancellation far smaller than in
    Ryser's subset sum on flat matrices: the all-flat 14 x 14 permanent comes
    out to ~1e-13 relative, against ~1e-9 for Ryser. A 2-D input returns a
    complex number, a stack an array of its leading shape.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {M.shape}")
    n = M.shape[-1]
    if n > PERMANENT_LIMIT:
        raise TooLarge(f"permanent limited to {PERMANENT_LIMIT}x{PERMANENT_LIMIT}")
    out = np.ones(M.shape[:-2], dtype=complex)
    if n:
        deltas, weights = _glynn_tables(n)
        flat, per = M.reshape(-1, n, n), out.reshape(-1)
        for part in _chunks(len(flat), n):
            rows = flat[part].transpose(1, 0, 2).reshape(-1, n)
            sums = (rows @ deltas).reshape(n, -1, 1 << (n - 1))
            per[part] = sums.prod(axis=0) @ weights
    return complex(out) if out.ndim == 0 else out


def permanent_naive(M: np.ndarray) -> complex:
    """O(n!) definition of the permanent; test oracle only."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= M[i, j]
        total += prod
    return complex(total)


def _occupations(x) -> np.ndarray:
    """x as an integer array. Integral floats are accepted; a fractional,
    non-finite or non-numeric entry raises ValueError instead of being
    truncated. An unsigned entry beyond the permanent limit is TooLarge
    before the cast, which would wrap 2^63 and above negative."""
    a = np.asarray(x)
    if a.dtype.kind == "u" and a.max(initial=0) > PERMANENT_LIMIT:
        raise TooLarge(f"occupation {a.max()} beyond the permanent limit")
    if a.dtype.kind in "biu":
        return a.astype(int, copy=False)
    if a.dtype.kind != "f":
        raise ValueError(f"occupations must be integers, got {a.dtype} entries")
    # 2^53 bounds the floats that hold integers exactly
    if not np.all(np.isfinite(a) & (np.trunc(a) == a) & (np.abs(a) <= 2.0**53)):
        raise ValueError("occupations must be integers, got a fractional or non-finite entry")
    return a.astype(int)


def _photon_modes(occupations: np.ndarray, n: int) -> np.ndarray:
    """(..., n) array of the mode of each photon, ascending, for a (..., m)
    stack whose every entry holds n photons."""
    modes = np.arange(occupations.size) % occupations.shape[-1]
    return np.repeat(modes, occupations.reshape(-1)).reshape(occupations.shape[:-1] + (n,))


def _layout(U_shape: tuple[int, ...], k, ell) -> tuple:
    """Every check of `amplitude` on U's shape and the occupation stacks, in
    order, and what its evaluation reads of them, read-only: the broadcast
    leading shape and the photon number n, then, for a table that fits one
    chunk, the (size, n, n) flat index rows * m + cols of each submatrix
    entry in U and the (size,) norms sqrt(prod k_i! ell_j!); for a larger
    one, the (..., n) photon mode indices of each stack and the factorial
    product of each of its entries, unbroadcast."""
    k, ell = _occupations(k), _occupations(ell)
    m = U_shape[0] if len(U_shape) == 2 else None
    if U_shape != (m, m) or k.shape[-1:] != (m,) or ell.shape[-1:] != (m,):
        raise DimensionMismatch("occupation vectors must match the unitary dimension")
    try:
        shape = np.broadcast_shapes(k.shape[:-1], ell.shape[:-1])
    except ValueError as exc:
        raise DimensionMismatch(f"occupation stacks do not broadcast: {exc}") from exc
    if k.min(initial=0) < 0 or ell.min(initial=0) < 0:
        raise ValueError("occupations must be nonnegative")
    # bounded entries keep the photon sums below from wrapping
    entry = max(k.max(initial=0), ell.max(initial=0))
    if entry > PERMANENT_LIMIT:
        raise TooLarge(f"occupation {entry} beyond the permanent limit")
    k_photons, ell_photons = k.sum(axis=-1), ell.sum(axis=-1)
    photons = max(k_photons.max(initial=0), ell_photons.max(initial=0))
    if photons > PERMANENT_LIMIT:
        raise TooLarge(f"photon number {photons} beyond the permanent limit")
    size = math.prod(shape)
    if size * m > OCCUPATION_LIMIT:
        raise TooLarge(f"table of shape {shape} over {m} modes beyond {OCCUPATION_LIMIT} entries")
    if np.any(k_photons != ell_photons):
        k_photons, ell_photons = np.broadcast_arrays(k_photons, ell_photons)
        i = np.argmax(k_photons != ell_photons)
        raise PhotonNumberMismatch(f"{k_photons.flat[i]} output photons vs {ell_photons.flat[i]} input")
    if not size:
        return shape, 0, np.empty((0, 0, 0), dtype=np.intp), np.empty(0)
    # a nonempty broadcast reaches every entry of each stack, and the entries
    # of ell match those of k, so k alone tells whether the photon number is one
    n = int(np.ravel(k_photons)[0])
    if np.any(k_photons != n):
        raise PhotonNumberMismatch(f"a batch mixes photon numbers {np.unique(k_photons).tolist()}")
    k_modes, ell_modes = _photon_modes(k, n), _photon_modes(ell, n)
    k_factorials, ell_factorials = _FACTORIALS[k].prod(axis=-1), _FACTORIALS[ell].prod(axis=-1)
    if size <= _chunk_size(n):
        rows = np.broadcast_to(k_modes, shape + (n,)).reshape(size, n, 1)
        cols = np.broadcast_to(ell_modes, shape + (n,)).reshape(size, 1, n)
        norms = np.sqrt(k_factorials * ell_factorials).reshape(size)
        layout = (rows * m + cols, norms)
    else:
        layout = (k_modes, ell_modes, k_factorials, ell_factorials)
    for table in layout:
        table.setflags(write=False)
    return (shape, n) + layout


@functools.lru_cache(maxsize=_LAYOUTS)
def _cached_layout(U_shape, k_dtype, k_shape, k_bytes, ell_dtype, ell_shape, ell_bytes) -> tuple:
    """_layout of the stacks that these exact bytes hold."""
    k = np.frombuffer(k_bytes, dtype=k_dtype).reshape(k_shape)
    ell = np.frombuffer(ell_bytes, dtype=ell_dtype).reshape(ell_shape)
    return _layout(U_shape, k, ell)


def _evaluate(U: np.ndarray, layout: tuple) -> complex | np.ndarray:
    """The amplitudes of a checked layout, their permanents over the norms:
    one chunk's submatrices taken from U through its flat gather, or a larger
    table's gathered from the photon mode indices, chunk by chunk."""
    shape, n, *tables = layout
    if len(tables) == 2:
        gather, norms = tables
        out = (permanent(np.take(U, gather)) / norms).reshape(shape)
    else:
        k_modes, ell_modes, k_factorials, ell_factorials = tables
        size = math.prod(shape)
        rows = np.broadcast_to(k_modes, shape + (n,))
        cols = np.broadcast_to(ell_modes, shape + (n,))
        out = np.empty(size, dtype=complex)
        for part in _chunks(size, n):
            entries = np.unravel_index(np.arange(part.start, min(part.stop, size)), shape)
            out[part] = permanent(U[rows[entries][:, :, None], cols[entries][:, None, :]])
        out = out.reshape(shape)
        out /= np.sqrt(k_factorials * ell_factorials)
    return complex(out) if out.ndim == 0 else out


def amplitude(U: np.ndarray, k, ell) -> complex | np.ndarray:
    """Transition amplitude <k| induced-U |ell> for occupation vectors k, ell.

    Builds the submatrix by repeating row i of U k_i times and column j
    ell_j times, then divides the permanent by sqrt(prod k_i! ell_j!).
    k and ell may be stacks (..., m) whose leading shapes broadcast; every
    entry must then carry the same photon number, and the result is an
    array of the broadcast leading shape. A pair of vectors returns a
    complex number. Entries must be integers (ValueError otherwise).

    Every check and the factorial norms read the stacks as given. Only the
    photon mode indices, n per entry, are broadcast: a table that fits one
    chunk of `permanent` turns them into one flat gather index into U, a
    larger one gathers its submatrices from them chunk by chunk. The checked
    layout of a pair of numeric stacks with up to 4096 entries between them
    is kept, keyed on their exact bytes, so a repeated pair is checked once.
    """
    U = np.asarray(U, dtype=complex)
    k, ell = np.asarray(k), np.asarray(ell)
    if k.dtype.kind in "biuf" and ell.dtype.kind in "biuf" and k.size + ell.size <= _LAYOUT_ENTRIES:
        layout = _cached_layout(
            U.shape, k.dtype, k.shape, k.tobytes(), ell.dtype, ell.shape, ell.tobytes()
        )
    else:
        layout = _layout(U.shape, k, ell)
    return _evaluate(U, layout)


def evolve_two_photon(U: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Action of a mode unitary on a two-photon state matrix: S -> U @ S @ U.T.

    Convention: U maps input mode j (column j) to the output modes (rows),
    matching `amplitude`, where output occupations repeat rows. Under that
    map a_p^† a_q^† picks up u_ip u_jq, i.e. S conjugates as U S U^T.
    U may be k x m against an m x m S: k of the output rows of a larger
    unitary give the k x k top-left block of the full evolution.
    """
    U = np.asarray(U, dtype=complex)
    S = np.asarray(S, dtype=complex)
    if U.ndim != 2 or S.ndim != 2 or S.shape[0] != S.shape[1] or U.shape[1] != S.shape[0]:
        raise DimensionMismatch(f"shapes {U.shape} and {S.shape} are incompatible")
    out = U @ S @ U.T
    return np.multiply(out + out.T, 0.5, out=out)

