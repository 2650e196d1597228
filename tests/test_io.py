import json
import math

import numpy as np
import pytest

from photonprep.exceptions import DocumentError
from photonprep import build_cnz, normalize, synthesize_herald
from photonprep.io import matrix_from_doc, matrix_to_doc, synthesis_from_doc, synthesis_to_doc


def _doc(data, rows=1, cols=2):
    return {"rows": rows, "cols": cols, "data": data}


def _rejects(doc, message, field, name="m"):
    with pytest.raises(DocumentError) as err:
        matrix_from_doc(doc, name)
    assert str(err.value) == message
    assert err.value.field == field


class TestRejections:
    @pytest.mark.parametrize("doc", [None, [], "matrix", 3])
    def test_non_object(self, doc):
        _rejects(doc, "m: expected an object", "m")

    @pytest.mark.parametrize("key", ["rows", "cols", "data"])
    def test_missing_key(self, key):
        doc = _doc([[1.0, 0.0], [0.0, 1.0]])
        del doc[key]
        _rejects(doc, f"m.{key}: missing", f"m.{key}")

    @pytest.mark.parametrize(
        "rows, cols", [(0, 2), (1, 0), (-1, 2), (1.0, 2), ("1", 2), (True, 2), (1, True)]
    )
    def test_rows_cols_not_positive_integers(self, rows, cols):
        _rejects(_doc([[1.0, 0.0], [0.0, 1.0]], rows, cols), "m.rows/cols: must be positive integers", "m")

    @pytest.mark.parametrize("data", [[[1.0, 0.0]], [[1.0, 0.0]] * 3, [], {"0": [1, 0]}])
    def test_wrong_entry_count(self, data):
        _rejects(_doc(data), "m.data: expected 2 entries", "m.data")

    @pytest.mark.parametrize(
        "bad",
        [
            (1.0, 0.0),  # not a list (a tuple never comes out of JSON)
            "10",
            {"re": 1.0, "im": 0.0},
            1.0,
            [1.0, 0.0, 0.0],
            [1.0],
            [],
            ["1.0", 0.0],
            [1.0, None],
            [True, False],
            [1.0, False],
            [[1.0], 0.0],
        ],
    )
    def test_malformed_pair_names_first_bad_index(self, bad):
        _rejects(_doc([[1.0, 0.0], bad]), "m.data[1]: expected [re, im]", "m.data")
        _rejects(_doc([bad, bad]), "m.data[0]: expected [re, im]", "m.data")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, value):
        _rejects(_doc([[1.0, 0.0], [0.0, value]]), "m.data: non-finite entry", "m.data")

    def test_non_finite_from_json_text(self):
        doc = json.loads('{"rows": 1, "cols": 1, "data": [[NaN, 0]]}')
        _rejects(doc, "m.data: non-finite entry", "m.data")


class TestRoundTrip:
    def test_bit_exact(self):
        tiny = np.nextafter(0.0, 1.0)  # smallest subnormal
        M = np.array(
            [
                [-0.0 + 0.0j, complex(0.0, -0.0), complex(tiny, -tiny)],
                [1 / 3 + 2j / 7, complex(-1e-310, 5e-324), complex(1.7976931348623157e308, -2.2250738585072014e-308)],
            ]
        )
        doc = json.loads(json.dumps(matrix_to_doc(M, label="x")))
        assert doc["rows"] == 2 and doc["cols"] == 3 and doc["label"] == "x"
        back = matrix_from_doc(doc)
        assert back.dtype == complex and back.shape == (2, 3)
        assert back.view(float).tobytes() == M.view(float).tobytes()  # keeps -0.0 signs

    def test_random_matrix_is_bit_exact(self, rng):
        M = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        back = matrix_from_doc(json.loads(json.dumps(matrix_to_doc(M))))
        assert back.view(float).tobytes() == M.view(float).tobytes()

    def test_data_layout_is_row_major_pairs(self):
        doc = matrix_to_doc(np.array([[1 + 2j, 3.0], [-4j, 0.5]]))
        assert doc["data"] == [[1.0, 2.0], [3.0, 0.0], [0.0, -4.0], [0.5, 0.0]]
        assert all(type(v) is float for pair in doc["data"] for v in pair)

    def test_vector_and_scalar_become_rows(self):
        assert matrix_to_doc(np.array([1.0, 2.0]))["rows"] == 1
        assert matrix_to_doc(2.0)["data"] == [[2.0, 0.0]]

    def test_integer_components(self):
        back = matrix_from_doc(_doc([[1, 0], [0, -2]]))
        assert back.tolist() == [[1 + 0j, -2j]]


class TestSuccessProbability:
    @pytest.fixture
    def doc(self):
        result, _ = build_cnz(2, np.pi)
        return synthesis_to_doc(result, "cnz", np.eye(4), n=2, phi=np.pi)

    @pytest.mark.parametrize(
        "value", ["0.111", None, True, False, [0.1], float("nan"), float("inf"), 1.5, -0.1, 10**400]
    )
    def test_rejects(self, doc, value):
        doc["success_probability"] = value
        with pytest.raises(DocumentError) as err:
            synthesis_from_doc(doc)
        assert err.value.field == "success_probability"

    def test_rejects_missing(self, doc):
        del doc["success_probability"]
        with pytest.raises(DocumentError):
            synthesis_from_doc(doc)

    @pytest.mark.parametrize("value", [0, 1, 0.0, 1.0, 1 / 9])
    def test_accepts_closed_interval(self, doc, value):
        doc["success_probability"] = value
        decoded = synthesis_from_doc(doc)["success_probability"]
        assert type(decoded) is float and decoded == value


class TestIntegerFields:
    @pytest.fixture
    def herald_doc(self):
        state = normalize(np.eye(4, dtype=complex))
        result = synthesize_herald(state, 4)
        return synthesis_to_doc(result, "herald", state.S, photons=4, payload_modes=4)

    @pytest.fixture
    def cnz_doc(self):
        result, _ = build_cnz(2, np.pi)
        return synthesis_to_doc(result, "cnz", np.eye(4), n=2, phi=np.pi)

    @pytest.mark.parametrize(
        "field, value",
        [("photons", True), ("photons", 1), ("payload_modes", 0), ("aux_modes", -1),
         ("aux_modes", "0"), ("aux_modes", 1.5)],
    )
    def test_herald_rejects(self, herald_doc, field, value):
        herald_doc[field] = value
        with pytest.raises(DocumentError) as err:
            synthesis_from_doc(herald_doc)
        assert err.value.field == field

    @pytest.mark.parametrize("signal", [[0], [2, -1], None])
    def test_signal_rejects(self, herald_doc, signal):
        herald_doc["herald"]["signal"] = signal
        with pytest.raises(DocumentError) as err:
            synthesis_from_doc(herald_doc)
        assert err.value.field == "herald.signal"

    @pytest.mark.parametrize("value", [True, 1])
    def test_cnz_rejects_n(self, cnz_doc, value):
        cnz_doc["n"] = value
        with pytest.raises(DocumentError) as err:
            synthesis_from_doc(cnz_doc)
        assert err.value.field == "n"

    def test_accepts_written_documents(self, herald_doc, cnz_doc):
        decoded = synthesis_from_doc(herald_doc)
        assert (decoded["photons"], decoded["payload_modes"]) == (4, 4)
        assert decoded["herald"].signal == (2,)
        assert synthesis_from_doc(cnz_doc)["n"] == 2


class TestPhi:
    @pytest.fixture
    def doc(self):
        result, _ = build_cnz(2, np.pi)
        return synthesis_to_doc(result, "cnz", np.eye(4), n=2, phi=np.pi)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400, True, False, "3.14", None])
    def test_rejects(self, doc, value):
        doc["phi"] = value
        with pytest.raises(DocumentError) as err:
            synthesis_from_doc(doc)
        assert err.value.field == "phi"

    def test_rejects_missing(self, doc):
        del doc["phi"]
        with pytest.raises(DocumentError):
            synthesis_from_doc(doc)

    @pytest.mark.parametrize("value", [0, 3, 0.5, np.pi])
    def test_accepts_finite_numbers(self, doc, value):
        doc["phi"] = value
        assert synthesis_from_doc(doc)["phi"] == value
