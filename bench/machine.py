"""Machine-speed reference for normalizing the benchmark's timings.

On a shared virtual machine the same code runs up to twice as fast at one
moment as at another. A fixed kernel, built from numpy and Python only and
independent of photonprep, is timed next to each measurement; dividing by
its speed relative to nominal takes that drift out.
"""

import time

import numpy as np

# Reference CPU times that count as speed 1 (typical on a 2-core x86_64 VM,
# Python 3.11, numpy 2.4 with OpenBLAS 0.3.31).
PYTHON_NOMINAL_MS = 2.5
LAPACK_NOMINAL_MS = 1.0


class Reference:
    """A loop over a 6-vector (the shape of the Ryser inner loop) and the SVD
    of a fixed 80x80 complex matrix (the shape of the linalg layer), timed
    separately, because a busy neighbour slows interpreter code and LAPACK
    code by different factors."""

    STEPS = 400

    def __init__(self):
        rng = np.random.default_rng(20240502)
        self.columns = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self.matrix = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))

    def time(self) -> tuple[float, float]:
        """CPU milliseconds of the Python part and of the LAPACK part."""
        start = time.process_time()
        row = np.zeros(6, dtype=complex)
        total = 0.0j
        for k in range(self.STEPS):
            row += self.columns[:, k % 6]
            total += np.prod(row)
        middle = time.process_time()
        np.linalg.svd(self.matrix, compute_uv=False)
        end = time.process_time()
        return (middle - start) * 1e3, (end - middle) * 1e3


def speed(sample: tuple[float, float], python_share: float) -> float:
    """Time relative to nominal (above 1 on a slower machine), weighting the
    two parts like the measured code."""
    python_ms, lapack_ms = sample
    return python_share * python_ms / PYTHON_NOMINAL_MS + (1.0 - python_share) * lapack_ms / LAPACK_NOMINAL_MS
