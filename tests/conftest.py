import base64
import math

import numpy as np
import pytest

from photonprep.fock import permanent_naive
from photonprep.io import matrix_to_doc
from photonprep.tolerances import RANK_TOL


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _definition_amplitude(U, k, ell) -> complex:
    """<k| U |ell> from the definition: the O(n!) permanent of U with row i
    repeated k_i times and column j repeated ell_j times, over
    sqrt(prod k_i! ell_j!). One pair of occupation vectors per call."""
    rows = np.repeat(np.arange(len(k)), k)
    cols = np.repeat(np.arange(len(ell)), ell)
    norm = math.prod(math.factorial(int(x)) for x in (*k, *ell))
    return permanent_naive(np.asarray(U)[np.ix_(rows, cols)]) / math.sqrt(norm)


def _occupation_basis(modes: int, photons: int):
    """All occupation vectors of `photons` photons over `modes` modes."""
    if modes == 1:
        yield (photons,)
        return
    for first in range(photons, -1, -1):
        for rest in _occupation_basis(modes - 1, photons - first):
            yield (first,) + rest


def _definition_rank(M) -> int:
    """Rank from the definition: the singular values of M above RANK_TOL
    times the largest, by an SVD independent of any Takagi factorization."""
    sigma = np.linalg.svd(np.asarray(M, dtype=complex), compute_uv=False)
    return int(np.count_nonzero(sigma > RANK_TOL * np.max(sigma, initial=0.0)))


def _decode_matrix(field) -> np.ndarray:
    """The entries of a written matrix field, read from its base64 text as
    row-major little-endian complex128 without the reader under test."""
    raw = base64.b64decode(field["base64"], validate=True)
    return np.frombuffer(raw, "<c16").reshape(field["rows"], field["cols"]).copy()


def _encode_matrix(M) -> dict:
    """A 2-D array as a matrix field, encoded without the writer under test
    and its checks: a NaN or infinite entry is written as it is."""
    M = np.asarray(M, dtype="<c16")
    return {"rows": M.shape[0], "cols": M.shape[1], "base64": base64.b64encode(M.tobytes()).decode("ascii")}


def _edit_matrix(field, edit):
    """A written matrix field decoded, passed through `edit` (a function of
    its complex array) and encoded again as documents are written."""
    return matrix_to_doc(edit(_decode_matrix(field)))


@pytest.fixture
def decode_matrix():
    return _decode_matrix


@pytest.fixture
def encode_matrix():
    return _encode_matrix


@pytest.fixture
def edit_matrix():
    return _edit_matrix


@pytest.fixture
def svds_outside_takagi(monkeypatch):
    """``record(module)`` returns a list that collects the shape of every
    ``np.linalg.svd`` argument, except while ``module.takagi`` runs: the
    Takagi factorization of a large input takes one SVD of it."""
    shapes = []
    inside = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        if not inside:
            shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def record(module):
        takagi = module.takagi

        def paused_takagi(S):
            inside.append(True)
            try:
                return takagi(S)
            finally:
                inside.pop()

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(module, "takagi", paused_takagi)
        return shapes

    return record


@pytest.fixture
def definition_amplitude():
    return _definition_amplitude


@pytest.fixture
def definition_rank():
    return _definition_rank


@pytest.fixture
def occupation_basis():
    return _occupation_basis
