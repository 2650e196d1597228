"""The benchmark's workloads: seeded inputs, the timed op, and its check.

Every op in a workload has the same size; only the random content changes.
The op calls photonprep through module attributes (``herald.synthesize_herald``
and so on), so wrappers installed by the tracer are seen.

``check(inputs, output, naive)`` runs outside the timer. It raises
CheckFailed on a wrong output and returns the worst infidelity it saw. It
never reads the synthesizer's own bookkeeping. ``naive`` is None, or, on a
seeded sample of ops, a generator: the check then also recomputes amplitudes
from the permanent's definition (``fock.permanent_naive``), so that a faster
oracle cannot pass on its own.

Each workload also fixes ``python_share``, the weight of the interpreter
part against the LAPACK part of the reference kernel that normalizes machine
speed (machine.py). The weights were fitted on a 2-core VM by least
run-to-run spread; they sit near each op's
interpreter share in the trace (herald_qudit and cnz_sweep spend over 90%
of their time in Python-level loops, postselect_qudit about half in LAPACK
and half in the numpy and scipy wrappers around it).
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from photonprep import SynthesisResult, fock, gates, herald, io, postselect, states, verify

FIDELITY_TOL = 1e-9
AMPLITUDE_TOL = 1e-9


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _matrix_of_rank(rng: np.random.Generator, d1: int, d2: int, rank: int) -> np.ndarray:
    C = _complex_gaussian(rng, (d1, rank)) @ _complex_gaussian(rng, (rank, d2))
    return C / np.linalg.norm(C)


def _fidelity(A: np.ndarray, B: np.ndarray) -> float:
    return float(abs(np.vdot(A, B)) / (np.linalg.norm(A) * np.linalg.norm(B)))


def _require_fidelity(A: np.ndarray, B: np.ndarray, what: str) -> float:
    infidelity = 1.0 - _fidelity(A, B)
    if not infidelity <= FIDELITY_TOL:
        raise CheckFailed(f"{what}: infidelity {infidelity:.3e} above {FIDELITY_TOL}")
    return infidelity


def _naive_amplitude(U: np.ndarray, out_occ, in_occ) -> complex:
    """<out| U |in> from the definition: permanent of the row/column-repeated
    submatrix over the square root of the occupation factorials."""
    rows = np.repeat(np.arange(len(out_occ)), out_occ)
    cols = np.repeat(np.arange(len(in_occ)), in_occ)
    norm = math.prod(math.factorial(int(k)) for k in out_occ)
    norm *= math.prod(math.factorial(int(k)) for k in in_occ)
    return fock.permanent_naive(U[np.ix_(rows, cols)]) / math.sqrt(norm)


class HeraldQudit:
    """Rank-6 state over 8 payload modes (a random two-ququart target of rank 3)
    heralded from 6 single photons with the default herald."""

    name = "herald_qudit"
    python_share = 1.0
    naive_fraction = 0.05
    D = 4
    RANK = 3
    PHOTONS = 6

    def make_input(self, rng: np.random.Generator) -> states.TwoPhotonState:
        C = _matrix_of_rank(rng, self.D, self.D, self.RANK)
        return states.from_qudit_target(states.QuditTarget(C))

    def op(self, state: states.TwoPhotonState) -> SynthesisResult:
        return herald.synthesize_herald(state, self.PHOTONS)

    def check(self, state, result: SynthesisResult, naive) -> float:
        m = state.modes
        report = verify.extract_heralded(
            result.unitary, self.PHOTONS, result.herald, m, target=state.S
        )
        infidelity = 1.0 - report.fidelity_vs_target
        if not infidelity <= FIDELITY_TOL:
            raise CheckFailed(f"oracle infidelity {infidelity:.3e}")
        if not report.probability > 0.0:
            raise CheckFailed("vanishing herald probability")
        if naive is not None:
            N = result.unitary.shape[0]
            in_occ = np.zeros(N, dtype=int)
            in_occ[: self.PHOTONS] = 1
            base = np.zeros(N, dtype=int)
            base[m : m + result.herald.herald_modes] = result.herald.signal
            T = np.zeros((m, m), dtype=complex)
            for i, j in itertools.combinations_with_replacement(range(m), 2):
                out_occ = base.copy()
                out_occ[i] += 1
                out_occ[j] += 1
                amp = _naive_amplitude(result.unitary, out_occ, in_occ)
                # |1_i 1_j> carries 2 S_ij, |2_i> carries sqrt(2) S_ii
                T[i, j] = T[j, i] = amp / 2.0 if i != j else amp / math.sqrt(2.0)
            infidelity = max(infidelity, _require_fidelity(T, state.S, "naive herald"))
        return infidelity


class PostselectQudit:
    """Random 32x32 target of rank r in [1, 32] from a random 64-mode input
    state of rank in [r, 64]."""

    name = "postselect_qudit"
    python_share = 0.5
    naive_fraction = 0.05
    D = 32
    MODES = 64
    NAIVE_ENTRIES = 2

    def make_input(self, rng: np.random.Generator):
        r = int(rng.integers(1, self.D + 1))
        target = states.QuditTarget(_matrix_of_rank(rng, self.D, self.D, r))
        k = int(rng.integers(r, self.MODES + 1))
        g = _complex_gaussian(rng, (self.MODES, k))
        return states.normalize(g @ g.T), target

    def op(self, inputs) -> SynthesisResult:
        return postselect.synthesize_postselect(*inputs)

    def check(self, inputs, result: SynthesisResult, naive) -> float:
        state_in, target = inputs
        U = result.unitary
        S = np.zeros(U.shape, dtype=complex)
        S[: self.MODES, : self.MODES] = state_in.S
        # coefficient of a_i^† a_{D+j}^† in U S U^T
        C_out = 2.0 * (U @ S @ U.T)[: self.D, self.D : 2 * self.D]
        infidelity = _require_fidelity(C_out, target.C, "C block")
        if not np.sum(np.abs(C_out) ** 2) > 0.0:
            raise CheckFailed("vanishing success probability")
        if naive is not None:
            pairs = list(itertools.combinations_with_replacement(range(self.MODES), 2))
            for i, j in naive.integers(0, self.D, (self.NAIVE_ENTRIES, 2)):
                rows = [i, self.D + j]
                amp = 0.0j
                for p, q in pairs:
                    # |1_p 1_q> carries 2 S_pq; |2_p> carries sqrt(2) S_pp and
                    # its permanent is divided by sqrt(2!)
                    weight = 2.0 * S[p, q] if p != q else S[p, p]
                    amp += weight * fock.permanent_naive(U[np.ix_(rows, [p, q])])
                if not abs(amp - C_out[i, j]) <= AMPLITUDE_TOL:
                    raise CheckFailed(f"naive amplitude ({i}, {j}) off by {abs(amp - C_out[i, j]):.3e}")
        return infidelity


class CnzSweep:
    """build_cnz(4, phi) for phi uniform in (0, 2 pi), a JSON round trip of its
    synthesis document, and verify_cnz on the decoded document."""

    name = "cnz_sweep"
    python_share = 1.0
    naive_fraction = 0.1
    QUBITS = 4

    def make_input(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(0.0, 2.0 * math.pi))

    def op(self, phi: float):
        n = self.QUBITS
        result, _ = gates.build_cnz(n, phi)
        target = np.eye(2**n, dtype=complex)
        target[-1, -1] = np.exp(1j * phi)
        doc = io.synthesis_to_doc(result, "cnz", target, n=n, phi=phi)
        decoded = io.synthesis_from_doc(json.loads(json.dumps(doc)))
        received = SynthesisResult(
            unitary=decoded["unitary"],
            aux_modes=decoded["aux_modes"],
            scale_alpha=1.0,
            success_probability=decoded["success_probability"],
        )
        verified = gates.verify_cnz(received, decoded["n"], decoded["phi"])
        return result, decoded, verified

    def check(self, phi: float, output, naive) -> float:
        result, decoded, verified = output
        if verified is not True:
            raise CheckFailed(f"verify_cnz returned {verified!r}")
        if not np.array_equal(decoded["unitary"], result.unitary):
            raise CheckFailed("decoded unitary differs from the built one")
        if decoded["phi"] != phi or decoded["n"] != self.QUBITS:
            raise CheckFailed("decoded n/phi differ from the request")
        p_s = result.success_probability
        if not p_s > 0.0:
            raise CheckFailed("vanishing success probability")
        if naive is None:
            return 0.0
        n = self.QUBITS
        N = result.unitary.shape[0]
        basis = list(itertools.product((0, 1), repeat=n))

        def occupation(bits):
            occ = np.zeros(N, dtype=int)
            for i, bit in enumerate(bits):
                occ[i if bit else n + i] = 1  # |1> rail i, |0> rail n + i
            return occ

        table = np.array(
            [[_naive_amplitude(result.unitary, occupation(y), occupation(x)) for x in basis] for y in basis]
        )
        expected = math.sqrt(p_s) * np.eye(len(basis), dtype=complex)
        expected[-1, -1] *= np.exp(1j * phi)
        deviation = float(np.max(np.abs(table - expected)))
        if not deviation <= AMPLITUDE_TOL:
            raise CheckFailed(f"naive gate table off by {deviation:.3e}")
        return 1.0 - _fidelity(table, expected)


WORKLOADS = {w.name: w for w in (HeraldQudit(), PostselectQudit(), CnzSweep())}

