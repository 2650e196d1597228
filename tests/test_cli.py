import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import photonprep
from photonprep import QuditTarget, from_qudit_target, normalize, state_rank
from photonprep.cli import main
from photonprep.io import load_json, matrix_from_doc, matrix_to_doc, synthesis_from_doc
from photonprep.verify import HeraldPattern
from photonprep.random_states import random_complex_symmetric, random_state_of_rank, random_target_of_rank


def write_matrix(path, M):
    path.write_text(json.dumps(matrix_to_doc(M)))
    return str(path)


def random_symmetric_256():
    a = np.random.default_rng(0).standard_normal((2, 256, 256))
    a = a[0] + 1j * a[1]
    return a + a.T


def state_of_a_target_with_zero_leading_entry():
    """The 128-mode state of a random 64 x 64 target whose C[0, 0] is 0."""
    C = np.random.default_rng(128).standard_normal((2, 64, 64))
    C = C[0] + 1j * C[1]
    C[0, 0] = 0
    return from_qudit_target(QuditTarget(C / np.linalg.norm(C))).S


def state_near_the_rank_threshold():
    """A Haar-rotated 4-mode input with Takagi values [1, 1.001e-10], just
    above the rank threshold."""
    gen = np.random.default_rng(26)
    q, _ = np.linalg.qr(gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4)))
    v = q[:, :2]
    return normalize((v * [1.0, 1.001e-10]) @ v.T).S


# a 2 x 2 target as written, not normalized
TARGET_2 = np.array([[0.8, 0.1], [0.2j, 0.5]])


@pytest.fixture
def bell_state_file(tmp_path):
    state = from_qudit_target(QuditTarget(np.eye(2, dtype=complex) / np.sqrt(2)))
    return write_matrix(tmp_path / "bell.json", state.S)


class TestRank:
    def test_bell_rank(self, bell_state_file, capsys):
        assert main(["rank", "--state", bell_state_file]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_output_writes_the_rank(self, bell_state_file, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["rank", "--state", bell_state_file, "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text()) == 4

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["rank", "--state", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": 2, "cols": 2}))
        assert main(["rank", "--state", str(bad)]) == 2
        assert "state.base64: missing" in capsys.readouterr().err

    def test_rank_of_the_symmetrized_state(self, tmp_path, capsys):
        """rank reads the state as the synth-* verbs do: M = e0 e1^T + e2 e3^T
        has rank 2, its symmetric part rank 4."""
        M = np.zeros((4, 4), dtype=complex)
        M[0, 1] = M[2, 3] = 1.0
        path = write_matrix(tmp_path / "m.json", M)
        assert main(["rank", "--state", path]) == 0
        assert capsys.readouterr().out.strip() == "4"
        assert main(["synth-herald", "--target", path, "--photons", "4"]) == 0

    def test_zero_state_is_an_input_error(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "zero.json", np.zeros((3, 3)))
        assert main(["rank", "--state", path]) == 2
        assert "zero" in capsys.readouterr().err

    def test_rank_of_a_state_with_subnormal_entries(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "tiny.json", np.diag([1e-310, 1e-310]))
        assert main(["rank", "--state", path]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_rank_of_a_state_whose_weight_overflows(self, tmp_path, capsys):
        """2 ||S||_F^2 of the all-1e200 matrix overflows; its normalized state
        has rank 1."""
        path = write_matrix(tmp_path / "huge.json", np.full((2, 2), 1e200))
        assert main(["rank", "--state", path]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_rank_of_a_state_whose_modulus_overflows(self, tmp_path, capsys):
        """Each part of 1.5e308 (1 + i) is finite, its modulus is not: the
        rank-1 matrix of such entries is read at the scale of its largest
        part, a rank-1 state, not a zero one."""
        path = write_matrix(tmp_path / "modulus.json", np.full((3, 3), 1.5e308 + 1.5e308j))
        assert main(["rank", "--state", path]) == 0
        assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize("verb", ["rank", "synth-postselect", "synth-herald"])
def test_non_square_state_is_an_input_error(tmp_path, capsys, verb):
    path = write_matrix(tmp_path / "wide.json", np.ones((2, 3)))
    target = write_matrix(tmp_path / "target.json", np.eye(2))
    argv = {
        "rank": ["rank", "--state", path],
        "synth-postselect": ["synth-postselect", "--state", path, "--target", target],
        "synth-herald": ["synth-herald", "--target", path, "--photons", "2"],
    }[verb]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "must be square, got (2, 3)" in err
    assert "broadcast" not in err


class TestTakagi:
    def test_factorization_output(self, tmp_path, capsys, decode_matrix):
        path = write_matrix(tmp_path / "s.json", np.array([[0, 0.5], [0.5, 0]]))
        assert main(["takagi", "--input", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["D"]["rows"] == 2
        d00 = decode_matrix(doc["D"])[0, 0]
        assert d00.real == pytest.approx(0.5)

    def test_factors_read_back(self, tmp_path):
        """V and D are matrices that matrix_from_doc reads back, and
        V^T S V = D."""
        S = np.array([[0.3, 0.5j], [0.5j, -1.0]])
        out = tmp_path / "takagi.json"
        assert main(["takagi", "--input", write_matrix(tmp_path / "s.json", S), "--output", str(out)]) == 0
        doc = load_json(str(out))
        V, D = (matrix_from_doc(doc[key], key) for key in ("V", "D"))
        assert np.allclose(V.T @ S @ V, D, atol=1e-12)

    def test_small_asymmetric_matrix_is_not_factorized(self, tmp_path, capsys):
        """The symmetry gate is relative: [[0, 1e-20], [0, 0]] is as far from
        symmetric as [[0, 1], [0, 0]]."""
        path = write_matrix(tmp_path / "s.json", np.array([[0, 1e-20], [0, 0]]))
        assert main(["takagi", "--input", path]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "make",
        [
            random_symmetric_256,
            lambda: np.eye(16),
            lambda: random_complex_symmetric(np.random.default_rng(6), 6),
            lambda: np.eye(4),
            lambda: from_qudit_target(random_target_of_rank(np.random.default_rng(37), 12, 12, 9)).S,
            state_of_a_target_with_zero_leading_entry,
        ],
        ids=["random-256", "eye-16", "random-6", "eye-4", "rank-9-target", "zero-leading-entry"],
    )
    def test_factors_reconstruct_at_any_size(self, tmp_path, make):
        """By one SVD: of random symmetric matrices, and of eye(4) and
        eye(16), whose equal singular values form one coupled block. In
        closed form: of the 24-mode state of a rank-9 12 x 12 target, whose
        nine twofold values come from the SVD of its 12 x 12 block, and of a
        128-mode state."""
        S = make()
        out = tmp_path / "takagi.json"
        assert main(["takagi", "--input", write_matrix(tmp_path / "s.json", S), "--output", str(out)]) == 0
        doc = load_json(str(out))
        V, D = (matrix_from_doc(doc[key], key) for key in ("V", "D"))
        sigma_1 = np.linalg.svd(S, compute_uv=False)[0]
        assert np.linalg.norm(V.T @ S @ V - D) <= 1e-8 * max(1.0, sigma_1)

    def test_diagonal_of_a_scaled_matrix(self, tmp_path):
        """Every cut and gate reads the peak-scaled copy: the random 256-mode
        matrix times 1e200 factorizes, its diagonal 1e200 times the
        unscaled one's."""
        S = random_symmetric_256()
        diagonals = []
        for scale in (1.0, 1e200):
            out = tmp_path / "takagi.json"
            assert main(["takagi", "--input", write_matrix(tmp_path / "s.json", scale * S), "--output", str(out)]) == 0
            diagonals.append(matrix_from_doc(load_json(str(out))["D"], "D").diagonal().real)
        d, huge = diagonals
        assert np.max(np.abs(huge / 1e200 - d)) / d[0] <= 1e-12

    def test_overflowing_matrix_is_not_factorized(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "s.json", np.full((2, 2), 1e308))
        assert main(["takagi", "--input", path]) == 2
        assert capsys.readouterr().out == ""


class TestGateCnz:
    def test_cz_success_probability(self, capsys):
        assert main(["gate-cnz", "--n", "2", "--phi", "3.141592653589793"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["success_probability"] == pytest.approx(1 / 9, abs=1e-9)
        assert doc["kind"] == "cnz"

    def test_roundtrip_verify(self, tmp_path, capsys):
        out = tmp_path / "cnz.json"
        assert main(["gate-cnz", "--n", "3", "--phi", "1.0", "--output", str(out)]) == 0
        assert main(["verify", "--input", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verified"] is True

    def test_negative_phase_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "cnz.json"
        assert main(["gate-cnz", "--n", "2", "--phi", "-1.0", "--output", str(out)]) == 0
        assert main(["verify", "--input", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    @pytest.mark.parametrize("phi", [0.0, np.pi, -1.0, 2 * np.pi], ids=["0", "pi", "-1", "2pi"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_written_document_verifies(self, tmp_path, capsys, n, phi):
        out = tmp_path / "cnz.json"
        assert main(["gate-cnz", "--n", str(n), "--phi", repr(phi), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert "target" not in doc and (doc["n"], doc["phi"]) == (n, phi)
        assert main(["verify", "--input", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    def test_gate_the_oracle_refuses_is_not_written(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("photonprep.gates.verify_cnz", lambda result, n, phi: False)
        out = tmp_path / "cnz.json"
        assert main(["gate-cnz", "--n", "2", "--phi", "1.0", "--output", str(out)]) == 3
        assert "verification failed" in capsys.readouterr().err
        assert not out.exists()

    def test_eight_qubit_document(self, tmp_path, capsys):
        """Without the 256 x 256 table, and with its 32 x 32 unitary as one
        base64 string, the 8-qubit document is ~22 KB, and it verifies."""
        out = tmp_path / "cz8.json"
        assert main(["gate-cnz", "--n", "8", "--phi", "1.0", "--output", str(out)]) == 0
        assert out.stat().st_size < 30_000
        assert main(["verify", "--input", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    def test_non_finite_phase_is_an_input_error(self, capsys):
        assert main(["gate-cnz", "--n", "2", "--phi", "nan"]) == 2
        assert "phi must be finite" in capsys.readouterr().err

    def test_oversized_gate_is_an_input_error(self, capsys):
        assert main(["gate-cnz", "--n", "13", "--phi", "1.0"]) == 2
        err = capsys.readouterr().err
        assert "13-qubit truth table: 13-photon permanents over 26 modes, beyond fock.amplitude" in err

    def test_module_entry_point_exits_with_the_code(self):
        """`python -m photonprep.cli` exits with main's code: 11 qubits is the
        smallest gate refused."""
        env = {**os.environ, "PYTHONPATH": str(Path(photonprep.__file__).parents[1])}
        argv = [sys.executable, "-m", "photonprep.cli", "gate-cnz", "--n", "11", "--phi", "1.0"]
        out = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert out.returncode == 2 and out.stdout == ""
        assert "11-qubit truth table" in out.stderr

    @pytest.mark.parametrize("n", [11, 12, 13, 14, 15])
    def test_gate_beyond_the_occupation_limit_is_refused_before_it_is_built(self, capsys, monkeypatch, n):
        """4^n amplitudes over 2n modes exceed fock.OCCUPATION_LIMIT, within
        the permanent limit (n <= 14) or beyond it (15): neither the gate,
        nor the basis, nor the table is made."""
        def unbuilt(*args):
            raise AssertionError("built past the size check")

        for name in ("photonprep.gates.build_cnz", "photonprep.gates._dual_rail_basis", "photonprep.fock.amplitude"):
            monkeypatch.setattr(name, unbuilt)
        assert main(["gate-cnz", "--n", str(n), "--phi", "1.0"]) == 2
        assert f"{n}-qubit truth table" in capsys.readouterr().err

    def test_gate_beyond_the_permanent_limit_is_an_input_error(self, capsys):
        assert main(["gate-cnz", "--n", "24", "--phi", "1.0"]) == 2
        assert "permanent" in capsys.readouterr().err

    def test_verify_of_an_edited_qubit_count_is_an_input_error(self, cz_doc, capsys):
        doc = json.loads(cz_doc.read_text())
        doc["n"] = 24
        cz_doc.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(cz_doc)]) == 2
        assert "permanent" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n, drop",
        [(3, None), (4, None), (5, None), (10, None), (4, "aux_modes")],
        ids=["3", "4", "5", "10", "4-without-aux_modes"],
    )
    def test_verify_of_a_qubit_count_beyond_the_unitary_is_an_input_error(self, cz_doc, capsys, n, drop):
        """The CZ unitary has 8 modes, too few for the 2n dual rails of n = 5
        and 10, the largest verified size; those of n = 3 and 4 fit, but
        contradict its 4 auxiliaries. Without aux_modes the document is
        refused as it is read, not judged as if it had none, which n = 4 fits."""
        doc = json.loads(cz_doc.read_text())
        doc["n"] = n
        doc.pop(drop, None)
        cz_doc.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(cz_doc)]) == 2
        err = capsys.readouterr().err
        assert f"{drop}: " in err if drop else f"n = {n}" in err and "8 rows" in err


@pytest.fixture
def cz_doc(tmp_path, capsys):
    out = tmp_path / "cz.json"
    args = ["gate-cnz", "--n", "2", "--phi", "3.141592653589793", "--output", str(out)]
    assert main(args) == 0
    capsys.readouterr()
    return out


class TestVerifyRejectsBadProbability:
    @pytest.mark.parametrize("value", ["0.111", True, float("nan"), 1.5, -0.1])
    def test_malformed_input_exit_code(self, cz_doc, capsys, value):
        doc = json.loads(cz_doc.read_text())
        doc["success_probability"] = value
        cz_doc.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(cz_doc)]) == 2
        assert "success_probability" in capsys.readouterr().err

    def test_unedited_document_verifies(self, cz_doc, capsys):
        assert main(["verify", "--input", str(cz_doc)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True


class TestVerifyPhi:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
    def test_malformed_input_exit_code(self, cz_doc, capsys, value):
        doc = json.loads(cz_doc.read_text())
        doc["phi"] = value
        cz_doc.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(cz_doc)]) == 2
        assert "phi" in capsys.readouterr().err

    def test_integer_beyond_int64_is_a_failed_verification(self, cz_doc, capsys):
        """phi = 10^30 is a finite JSON number that numpy holds only as an
        object: the CZ circuit is not its gate (exit 3), and no traceback."""
        doc = json.loads(cz_doc.read_text())
        doc["phi"] = 10**30
        cz_doc.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(cz_doc)]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out)["verified"] is False and captured.err == ""

    def test_document_with_legacy_alpha_verifies(self, cz_doc, capsys):
        """Documents written before the alpha field was dropped still verify."""
        doc = json.loads(cz_doc.read_text())
        assert "alpha" not in doc
        doc["alpha"] = [0.0, 1.4142135623730951]
        cz_doc.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(cz_doc)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True


class TestVerifyLegacyTarget:
    """Documents written while cnz documents still carried the gate's table
    as `target` verify as before: the table was never part of the verdict."""

    @pytest.mark.parametrize(
        "target",
        [matrix_to_doc(np.diag([1, 1, 1, -1])), matrix_to_doc(np.array([[5.0]]))],
        ids=["gate", "1x1"],
    )
    @pytest.mark.parametrize("phi, code", [(np.pi, 0), (1.0, 3)], ids=["as-written", "other-phase"])
    def test_same_verdict_as_without_it(self, cz_doc, capsys, target, phi, code):
        doc = json.loads(cz_doc.read_text())
        doc.update(target=target, phi=phi)
        cz_doc.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(cz_doc)]) == code
        assert json.loads(capsys.readouterr().out)["verified"] is (code == 0)


def test_verify_rejects_a_unitary_with_a_nan_defect(cz_doc, capsys, edit_matrix):
    """Entries +-1e308 overflow the Gram: the defect reads NaN and exits 2,
    with no RuntimeWarning leaking out, even one raised as an error."""
    doc = json.loads(cz_doc.read_text())

    def overflow(U):
        U[:2, :2] = [[1e308, 1e308], [1e308, -1e308]]
        return U

    doc["unitary"] = edit_matrix(doc["unitary"], overflow)
    cz_doc.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", "--input", str(cz_doc)]) == 2
    assert "unitary: matrix is not unitary" in capsys.readouterr().err


def test_verify_rejects_a_non_square_unitary(cz_doc, capsys, edit_matrix):
    doc = json.loads(cz_doc.read_text())
    doc["unitary"] = edit_matrix(doc["unitary"], lambda U: U[:-1])
    cz_doc.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(cz_doc)]) == 2
    assert "unitary: expected a square matrix" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda u, _: {**u, "base64": 42},
        lambda u, _: {**u, "base64": u["base64"][:-4]},
        lambda u, _: {**u, "rows": 10**9, "base64": u["base64"][:24]},
        lambda u, _: {**u, "base64": "*" + u["base64"][1:]},
        lambda u, _: {**u, "base64": u["base64"][:-4] + "===="},
        lambda u, encode: encode(np.full((u["rows"], u["cols"]), np.nan)),
        lambda u, _: {"rows": u["rows"], "cols": u["cols"], "data": [[1.0, 0.0]] * (u["rows"] * u["cols"])},
        lambda u, _: {k: v for k, v in u.items() if k != "base64"},
    ],
    ids=["non-string", "short", "huge-claim", "alphabet", "padding", "nan", "pairs", "neither"],
)
def test_verify_refuses_a_malformed_base64_unitary(cz_doc, capsys, encode_matrix, edit):
    doc = json.loads(cz_doc.read_text())
    doc["unitary"] = edit(doc["unitary"], encode_matrix)
    cz_doc.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(cz_doc)]) == 2
    captured = capsys.readouterr()
    assert "unitary.base64: " in captured.err and captured.out == ""


def test_verify_names_the_missing_base64_of_a_legacy_unitary(cz_doc, capsys, decode_matrix):
    """base64 is the one matrix encoding: a document written before it, whose
    unitary carries its [re, im] data pairs, is an input error (exit 2) that
    names the unitary's missing base64."""
    doc = json.loads(cz_doc.read_text())
    U = decode_matrix(doc["unitary"])
    doc["unitary"] = {"rows": U.shape[0], "cols": U.shape[1], "data": U.view(float).reshape(-1, 2).tolist()}
    cz_doc.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(cz_doc)]) == 2
    assert "unitary.base64: missing" in capsys.readouterr().err


class TestSynthHerald:
    def test_infeasible_rank_exit_code(self, tmp_path, capsys):
        state = random_state_of_rank(np.random.default_rng(7), 4, 3)
        path = write_matrix(tmp_path / "rank3.json", state.S)
        assert main(["synth-herald", "--target", path, "--photons", "2"]) == 1
        assert "rank" in capsys.readouterr().err

    def test_roundtrip(self, bell_state_file, tmp_path, capsys):
        out = tmp_path / "synth.json"
        code = main(
            ["synth-herald", "--target", bell_state_file, "--photons", "4",
             "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["herald"]["signal"] == [2]
        # 4 + 1 + 4 modes, p = (2 + sqrt(2)/6)^(-4) / 2
        assert doc["unitary"]["rows"] == 9
        assert doc["success_probability"] == pytest.approx(0.0200130896446016, rel=1e-12)
        assert main(["verify", "--input", str(out)]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verified"] is True
        assert verdict["success_probability"] == pytest.approx(
            doc["success_probability"], abs=1e-12
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_signal_of_n_photons(self, tmp_path, n):
        """Two photons need no herald mode, three need one that sees one
        photon: the heralded oracle's tables are built per layout."""
        state = random_state_of_rank(np.random.default_rng(n), 5, n)
        path = write_matrix(tmp_path / "rank.json", state.S)
        out = tmp_path / "herald.json"
        assert main(["synth-herald", "--target", path, "--photons", str(n), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["herald"]["signal"] == [1] * (n - 2)
        assert main(["verify", "--input", str(out)]) == 0

    def test_rank_12_target_from_12_photons(self, rank12_files, capsys):
        """Near the permanent limit: the rank rule read off the target's
        Takagi factors, and the circuit that heralds it verifies."""
        state, doc = rank12_files
        assert main(["rank", "--state", state]) == 0
        assert capsys.readouterr().out.strip() == "12"
        assert main(["verify", "--input", str(doc)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    @pytest.mark.parametrize("field, value", [("signal", 5), ("aux_modes", 42)])
    def test_edited_rank_12_document_is_an_input_error(self, rank12_files, tmp_path, capsys, field, value):
        """A malformed signal, or an aux_modes that contradicts the 12 + 1 + 12
        rows, is an input error (exit 2), not a traceback (exit 1)."""
        doc = json.loads(rank12_files[1].read_text())
        (doc["herald"] if field == "signal" else doc)[field] = value
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(path)]) == 2
        assert field in capsys.readouterr().err


@pytest.fixture(scope="module")
def rank12_files(tmp_path_factory):
    """A random rank-12 state of 12 modes, and the document of its circuit
    heralded from 12 photons."""
    tmp = tmp_path_factory.mktemp("rank12")
    state = write_matrix(tmp / "rank12.json", random_state_of_rank(np.random.default_rng(0), 12, 12).S)
    doc = tmp / "herald12.json"
    assert main(["synth-herald", "--target", state, "--photons", "12", "--output", str(doc)]) == 0
    return state, doc


@pytest.fixture
def bell_doc(bell_state_file, tmp_path, capsys):
    out = tmp_path / "herald.json"
    args = ["synth-herald", "--target", bell_state_file, "--photons", "4", "--output", str(out)]
    assert main(args) == 0
    capsys.readouterr()
    return out


class TestVerifyRejectsMalformedHeraldDocument:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("signal", [2.7]),
            ("signal", "2"),
            ("signal", [True, True]),
            ("signal", 5),
            # 4 payload + 1 herald + 4 auxiliary modes
            ("aux_modes", 0),
            ("aux_modes", 42),
        ],
    )
    def test_malformed_input_exit_code(self, bell_doc, capsys, field, value):
        doc = json.loads(bell_doc.read_text())
        if field == "signal":
            doc["herald"][field] = value
        else:
            doc[field] = value
        bell_doc.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(bell_doc)]) == 2
        assert field in capsys.readouterr().err

    def test_signal_not_summing_to_n_minus_2(self, bell_doc, capsys):
        """The signal fixes the photons: a signal of 1 describes 3 photons,
        whose heralded state through the Bell circuit is not the Bell pair.
        The oracle refuses it (exit 3), with no error."""
        doc = json.loads(bell_doc.read_text())
        doc["herald"]["signal"] = [1]
        bell_doc.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(bell_doc)]) == 3
        captured = capsys.readouterr()
        verdict = json.loads(captured.out)
        assert verdict["verified"] is False and verdict["fidelity"] < 0.6
        assert captured.err == ""

    def test_document_without_a_herald_is_refused_by_aux_modes(self, bell_doc, capsys):
        """Without its signal (2,), the 9 rows leave 5 auxiliary modes past the
        4-mode payload, not the document's 4."""
        doc = json.loads(bell_doc.read_text())
        del doc["herald"]
        bell_doc.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(bell_doc)]) == 2
        assert capsys.readouterr().err.startswith("error: aux_modes: ")

    def test_two_photon_document_has_empty_signal(self, tmp_path, capsys):
        state = random_state_of_rank(np.random.default_rng(3), 3, 2)
        path = write_matrix(tmp_path / "rank2.json", state.S)
        out = tmp_path / "herald2.json"
        assert main(["synth-herald", "--target", path, "--photons", "2", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["herald"]["signal"] == []
        assert main(["verify", "--input", str(out)]) == 0


class TestHeraldDocumentFormat:
    """A herald document states each layout fact once: its signal fixes the
    photons and the herald modes, its target the payload modes."""

    def test_written_keys(self, bell_doc):
        doc = json.loads(bell_doc.read_text())
        assert list(doc) == ["kind", "unitary", "aux_modes", "success_probability", "target", "herald"]
        assert doc["herald"] == {"signal": [2]}

    @pytest.mark.parametrize(
        "photons, payload_modes, modes",
        [(4, 4, 1), (7, 99, 3)],
        ids=["as-written-before", "contradicting"],
    )
    def test_retired_keys_leave_the_verdict_as_it_is(self, bell_doc, capsys, photons, payload_modes, modes):
        """A document written while herald documents carried photons,
        payload_modes and herald.modes verifies with the same output,
        whatever they hold."""
        assert main(["verify", "--input", str(bell_doc)]) == 0
        expected = capsys.readouterr().out
        doc = json.loads(bell_doc.read_text())
        doc.update(photons=photons, payload_modes=payload_modes)
        doc["herald"]["modes"] = modes
        bell_doc.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(bell_doc)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "field, value",
        [("modes", 7), ("modes", "x"), ("payload_modes", "4"), ("payload_modes", 4.5),
         ("payload_modes", True), ("payload_modes", 99)],
    )
    def test_a_retired_key_verify_once_refused_is_not_read(self, bell_doc, capsys, field, value):
        """The values verify refused (exit 2) while the format carried
        herald.modes and payload_modes now leave its output as it is."""
        assert main(["verify", "--input", str(bell_doc)]) == 0
        expected = capsys.readouterr().out
        doc = json.loads(bell_doc.read_text())
        (doc["herald"] if field == "modes" else doc)[field] = value
        bell_doc.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(bell_doc)]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected and captured.err == ""

    @pytest.mark.parametrize("field, value", [("n", 2), ("n", 1), ("phi", 7.0)])
    def test_a_cnz_field_is_refused(self, bell_doc, capsys, field, value):
        """n and phi belong to cnz documents: a herald document carrying
        either is malformed (exit 2), whatever the value."""
        doc = json.loads(bell_doc.read_text())
        doc[field] = value
        bell_doc.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(bell_doc)]) == 2
        err = capsys.readouterr().err
        assert f"{field}: only cnz documents carry one, not herald documents" in err
        assert "Traceback" not in err


class TestSynthPostselect:
    def test_bell_from_single_photons(self, tmp_path, capsys):
        state = tmp_path / "in.json"
        S = np.zeros((4, 4))
        S[0, 1] = S[1, 0] = 0.5
        write_matrix(state, S)
        target = write_matrix(
            tmp_path / "target.json", np.eye(2, dtype=complex) / np.sqrt(2)
        )
        out = tmp_path / "synth.json"
        code = main(
            ["synth-postselect", "--state", str(state), "--target", target,
             "--output", str(out)]
        )
        assert code == 0
        assert main(["verify", "--input", str(out)]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verified"] is True
        assert verdict["fidelity"] > 1 - 1e-9

    @pytest.fixture
    def ps_doc(self, tmp_path, capsys):
        """A 5-mode input and a 2 x 2 target: a 5 + 2 + 2 = 9 mode circuit."""
        state = write_matrix(
            tmp_path / "in.json", random_state_of_rank(np.random.default_rng(5), 5, 3).S
        )
        C = np.array([[0.8, 0.1], [0.2j, 0.5]])
        target = write_matrix(tmp_path / "target.json", C / np.linalg.norm(C))
        out = tmp_path / "synth.json"
        assert main(["synth-postselect", "--state", state, "--target", target,
                     "--output", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_circuit_over_input_plus_register_modes(self, ps_doc, capsys):
        doc = json.loads(ps_doc.read_text())
        assert (doc["unitary"]["rows"], doc["aux_modes"]) == (9, 5)
        assert main(["verify", "--input", str(ps_doc)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    @pytest.mark.parametrize("value", [0, 3, 99])
    def test_verify_of_an_edited_aux_mode_count_is_an_input_error(self, ps_doc, capsys, value):
        """aux_modes must be the rows beyond the d1 + d2 register modes."""
        doc = json.loads(ps_doc.read_text())
        doc["aux_modes"] = value
        ps_doc.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(ps_doc)]) == 2
        err = capsys.readouterr().err
        assert "aux_modes" in err and "9 rows leave 5 past payload and herald" in err

    @pytest.mark.parametrize(
        "make_state, target, rows",
        [
            (lambda: random_state_of_rank(np.random.default_rng(0), 5, 3).S, TARGET_2, 9),
            (lambda: random_state_of_rank(np.random.default_rng(0), 5, 3).S, 1e200 * TARGET_2, 9),
            (lambda: random_state_of_rank(np.random.default_rng(1), 6, 6).S, np.outer([0.6, 0.8j], [0.8, 0.6]), 10),
            (state_near_the_rank_threshold, TARGET_2, 8),
        ],
        ids=["rank-3-input", "huge-target", "rank-1-target", "input-near-the-rank-threshold"],
    )
    def test_written_circuit_verifies(self, tmp_path, capsys, make_state, target, rows):
        """A target is read at any scale. A rank-1 target from a full-rank
        input has its mode map dilated at width rank(C) = 1 < rank(S_in) = 6.
        An input just above the rank threshold is rescaled by lam^2 ~ 1e10,
        and its circuit still verifies."""
        state = write_matrix(tmp_path / "in.json", make_state())
        out = tmp_path / "synth.json"
        assert main(["synth-postselect", "--state", state, "--target", write_matrix(tmp_path / "target.json", target),
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["unitary"]["rows"] == rows
        assert main(["verify", "--input", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    @pytest.mark.parametrize("field, code", [("target", 0), ("aux_modes", 2)], ids=["target-times-1e200", "aux-modes-3"])
    def test_edited_rank_3_input_document(self, tmp_path, edit_matrix, field, code):
        """The verdict reads the document's target up to scale, also where its
        norm would overflow: times 1e200, it verifies. An aux_modes of 3, not
        the 9 - (2 + 2) = 5 rows past the registers, is an input error."""
        state = write_matrix(tmp_path / "in.json", random_state_of_rank(np.random.default_rng(0), 5, 3).S)
        out = tmp_path / "synth.json"
        assert main(["synth-postselect", "--state", state, "--target", write_matrix(tmp_path / "target.json", TARGET_2),
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc[field] = edit_matrix(doc["target"], lambda C: 1e200 * C) if field == "target" else 3
        out.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(out)]) == code

    def test_infeasible(self, tmp_path, capsys):
        state = tmp_path / "in.json"
        S = np.zeros((6, 6))
        S[0, 1] = S[1, 0] = 0.5
        write_matrix(state, S)
        target = write_matrix(
            tmp_path / "target.json", np.eye(3, dtype=complex) / np.sqrt(3)
        )
        assert main(["synth-postselect", "--state", str(state), "--target", target]) == 1

    @pytest.mark.parametrize("scale", [1e-200, 3.0, 1e200])
    def test_verify_of_a_scaled_target(self, tmp_path, capsys, edit_matrix, scale):
        """The document's target enters the verdict only up to scale: the
        input 0.5 I_4 onto the target I_2 verifies with its target scaled by
        any finite factor, including where its norm would under- or overflow."""
        state = write_matrix(tmp_path / "in.json", 0.5 * np.eye(4))
        target = write_matrix(tmp_path / "target.json", np.eye(2))
        out = tmp_path / "synth.json"
        assert main(["synth-postselect", "--state", state, "--target", target,
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["target"] = edit_matrix(doc["target"], lambda C: (C.view(float) * scale).view(complex))
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--input", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["fidelity"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-170, 1e200])
    def test_target_read_at_any_scale(self, tmp_path, capsys, scale):
        """diag(c, c) is the target I_2 / sqrt(2) whether ||C||_F would
        underflow (1e-170) or overflow (1e200)."""
        state = write_matrix(tmp_path / "in.json", 0.5 * np.eye(4))
        target = write_matrix(tmp_path / "target.json", scale * np.eye(2))
        out = tmp_path / "synth.json"
        assert main(["synth-postselect", "--state", state, "--target", target,
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["target"] == matrix_to_doc(np.eye(2) / np.sqrt(2))
        assert main(["verify", "--input", str(out)]) == 0

    def test_zero_target_is_an_input_error(self, tmp_path, capsys):
        state = write_matrix(tmp_path / "in.json", 0.5 * np.eye(4))
        target = write_matrix(tmp_path / "target.json", np.zeros((2, 2)))
        assert main(["synth-postselect", "--state", state, "--target", target]) == 2
        assert "target: zero matrix" in capsys.readouterr().err


class TestSelftest:
    def test_runs_clean(self, capsys):
        assert main(["selftest", "--seed", "42"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["passed"] is True
        assert [c["name"] for c in doc["criteria"]] == [
            "cz-recovery", "cnz-family", "theorem1-iff", "theorem2-iff", "proof-identity"
        ]
        assert all("margin" in c["detail"] for c in doc["criteria"][2:])
        assert "PASS" in captured.err

    def test_seed_reproducible(self, capsys):
        main(["selftest", "--seed", "99"])
        first = capsys.readouterr().out
        main(["selftest", "--seed", "99"])
        second = capsys.readouterr().out
        assert first == second


class TestOneRankRule:
    """The CLI decides rank with the library's RANK_TOL: a Takagi value of
    5e-10 relative to the largest counts."""

    @pytest.fixture
    def near_threshold_file(self, tmp_path):
        state = normalize(np.diag([1.0, 1.0, 5e-10]).astype(complex))
        assert state_rank(state) == 3
        return write_matrix(tmp_path / "near.json", state.S)

    def test_rank_matches_library(self, near_threshold_file, capsys):
        assert main(["rank", "--state", near_threshold_file]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_herald_infeasible_like_library(self, near_threshold_file, capsys):
        assert main(["synth-herald", "--target", near_threshold_file, "--photons", "2"]) == 1
        assert "rank-3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--state", "s.json"],
        ["takagi", "--input", "s.json"],
        ["synth-postselect", "--state", "s.json", "--target", "t.json"],
        ["synth-herald", "--target", "t.json", "--photons", "4"],
        ["gate-cnz", "--n", "2", "--phi", "1.0"],
        ["verify", "--input", "d.json"],
        ["selftest"],
    ],
)
def test_no_verb_takes_a_tolerance(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1e-9"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["gate-cnz", "synth-herald", "synth-postselect"])
def test_synthesis_documents_read_back(bell_state_file, tmp_path, verb):
    """Each document a synthesis verb writes is one synthesis_from_doc reads,
    and it decodes to what was written."""
    pair = write_matrix(tmp_path / "pair.json", np.eye(2) / np.sqrt(2))
    single_photons = write_matrix(tmp_path / "in.json", normalize(np.eye(3, dtype=complex)).S)
    argv = {
        "gate-cnz": ["gate-cnz", "--n", "3", "--phi", "1.0"],
        "synth-herald": ["synth-herald", "--target", bell_state_file, "--photons", "4"],
        "synth-postselect": ["synth-postselect", "--state", single_photons, "--target", pair],
    }[verb]
    out = tmp_path / "doc.json"
    assert main([*argv, "--output", str(out)]) == 0
    doc = load_json(str(out))
    decoded = synthesis_from_doc(doc)
    for key, value in doc.items():
        if isinstance(value, dict) and key != "herald":
            assert np.array_equal(decoded[key], matrix_from_doc(value, key)), key
        elif key != "herald":
            assert decoded[key] == value, key
    herald = doc["herald"] and HeraldPattern(tuple(doc["herald"]["signal"]))
    assert decoded["herald"] == herald and (herald is None) == (verb != "synth-herald")


class TestDocumentFiles:
    """A document file that cannot be read or written is an input error
    (exit 2) that names its path, not a traceback."""

    @pytest.mark.parametrize("verb", ["gate-cnz", "takagi", "verify"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_output(self, tmp_path, capsys, verb, where):
        cz = tmp_path / "cz.json"
        assert main(["gate-cnz", "--n", "2", "--phi", "1.0", "--output", str(cz)]) == 0
        argv = {
            "gate-cnz": ["gate-cnz", "--n", "2", "--phi", "1.0"],
            "takagi": ["takagi", "--input", write_matrix(tmp_path / "s.json", np.eye(2))],
            "verify": ["verify", "--input", str(cz)],
        }[verb]
        out = tmp_path / "no" / "such" / "cz.json" if where == "missing-directory" else tmp_path
        capsys.readouterr()
        assert main([*argv, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ") and captured.out == ""

    def test_relative_output_is_named_as_given(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gate-cnz", "--n", "2", "--phi", "1.0", "--output", "no/such/dir/cz.json"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write no/such/dir/cz.json: ") and captured.out == ""

    def test_input_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"rows": 1, "cols": 1, "base64": "\xff"}')
        assert main(["rank", "--state", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")
