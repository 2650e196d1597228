import json

import numpy as np
import pytest

from photonprep import QuditTarget, from_qudit_target, normalize, state_rank
from photonprep.cli import main
from photonprep.io import matrix_to_doc
from photonprep.random_states import random_state_of_rank


def write_matrix(path, M):
    path.write_text(json.dumps(matrix_to_doc(M)))
    return str(path)


@pytest.fixture
def bell_state_file(tmp_path):
    state = from_qudit_target(QuditTarget(np.eye(2, dtype=complex) / np.sqrt(2)))
    return write_matrix(tmp_path / "bell.json", state.S)


class TestRank:
    def test_bell_rank(self, bell_state_file, capsys):
        assert main(["rank", "--state", bell_state_file]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["rank", "--state", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": 2, "cols": 2}))
        assert main(["rank", "--state", str(bad)]) == 2
        assert "data" in capsys.readouterr().err


class TestTakagi:
    def test_factorization_output(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "s.json", np.array([[0, 0.5], [0.5, 0]]))
        assert main(["takagi", "--input", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["D"]["rows"] == 2
        d00 = doc["D"]["data"][0]
        assert d00[0] == pytest.approx(0.5)


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

    def test_document_with_legacy_alpha_verifies(self, cz_doc, capsys):
        """Documents written before the alpha field was dropped still verify."""
        doc = json.loads(cz_doc.read_text())
        assert "alpha" not in doc
        doc["alpha"] = [0.0, 1.4142135623730951]
        cz_doc.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(cz_doc)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True


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
        assert main(["verify", "--input", str(out)]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verified"] is True
        assert verdict["success_probability"] == pytest.approx(
            doc["success_probability"], abs=1e-12
        )


class TestVerifyRejectsMalformedHeraldDocument:
    @pytest.fixture
    def bell_doc(self, bell_state_file, tmp_path, capsys):
        out = tmp_path / "herald.json"
        args = ["synth-herald", "--target", bell_state_file, "--photons", "4", "--output", str(out)]
        assert main(args) == 0
        capsys.readouterr()
        return out

    @pytest.mark.parametrize(
        "field, value",
        [
            ("signal", [2.7]),
            ("signal", "2"),
            ("signal", [True, True]),
            ("signal", 5),
            ("payload_modes", "4"),
            ("payload_modes", 4.5),
            ("payload_modes", True),
        ],
    )
    def test_malformed_input_exit_code(self, bell_doc, capsys, field, value):
        doc = json.loads(bell_doc.read_text())
        if field == "signal":
            doc["herald"]["signal"] = value
        else:
            doc[field] = value
        bell_doc.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(bell_doc)]) == 2
        assert field in capsys.readouterr().err

    def test_two_photon_document_has_empty_signal(self, tmp_path, capsys):
        state = random_state_of_rank(np.random.default_rng(3), 3, 2)
        path = write_matrix(tmp_path / "rank2.json", state.S)
        out = tmp_path / "herald2.json"
        assert main(["synth-herald", "--target", path, "--photons", "2", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["herald"]["signal"] == []
        assert main(["verify", "--input", str(out)]) == 0


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

    def test_infeasible(self, tmp_path, capsys):
        state = tmp_path / "in.json"
        S = np.zeros((6, 6))
        S[0, 1] = S[1, 0] = 0.5
        write_matrix(state, S)
        target = write_matrix(
            tmp_path / "target.json", np.eye(3, dtype=complex) / np.sqrt(3)
        )
        assert main(["synth-postselect", "--state", str(state), "--target", target]) == 1


class TestSelftest:
    def test_runs_clean(self, capsys):
        assert main(["selftest", "--seed", "42"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["passed"] is True
        assert len(doc["criteria"]) == 8
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
