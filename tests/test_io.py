import base64
import dataclasses
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from photonprep.exceptions import DocumentError
from photonprep import (
    QuditTarget, build_cnz, extract_heralded, from_qudit_target, gates, normalize, synthesize_herald,
    synthesize_postselect,
)
from photonprep.io import load_json, matrix_from_doc, matrix_to_doc, synthesis_from_doc, synthesis_to_doc

# the truth table of the CZ gate, n = 2 and phi = pi
CZ = np.diag([1, 1, 1, -1]).astype(complex)
# how a matrix with both entry fields, or neither, is refused
ENTRIES = "a matrix carries its entries as base64 or as [re, im] data pairs"


def _doc(data, rows=1, cols=2):
    return {"rows": rows, "cols": cols, "data": data}


def _b64(*parts):
    """base64 of the given floats as little-endian float64, in order."""
    return base64.b64encode(struct.pack(f"<{len(parts)}d", *parts)).decode("ascii")


def _rejects(doc, message, field, name="m"):
    with pytest.raises(DocumentError) as err:
        matrix_from_doc(doc, name)
    assert str(err.value) == message
    assert err.value.field == field


class TestRejections:
    @pytest.mark.parametrize("doc", [None, [], "matrix", 3])
    def test_non_object(self, doc):
        _rejects(doc, "m: expected an object", "m")

    @pytest.mark.parametrize(
        "key, message, field",
        [
            ("rows", "m.rows: missing", "m.rows"),
            ("cols", "m.cols: missing", "m.cols"),
            ("data", f"m.base64: missing; {ENTRIES}", "m.base64"),
        ],
        ids=["rows", "cols", "data"],
    )
    def test_missing_key(self, key, message, field):
        doc = _doc([[1.0, 0.0], [0.0, 1.0]])
        del doc[key]
        _rejects(doc, message, field)

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

    # a JSON integer beyond the float range has no float: not an OverflowError
    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, pytest.param(10**400, id="1e400"), pytest.param(-(10**400), id="-1e400")],
    )
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
        doc = json.loads(json.dumps(matrix_to_doc(M)))
        assert doc["rows"] == 2 and doc["cols"] == 3
        back = matrix_from_doc(doc)
        assert back.dtype == complex and back.shape == (2, 3)
        assert back.view(float).tobytes() == M.view(float).tobytes()  # keeps -0.0 signs

    def test_random_matrix_is_bit_exact(self, rng):
        M = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        back = matrix_from_doc(json.loads(json.dumps(matrix_to_doc(M))))
        assert back.view(float).tobytes() == M.view(float).tobytes()

    def test_data_layout_is_row_major_pairs(self):
        """The base64 text holds (re, im) pairs of little-endian float64,
        row-major; -4j has the real part -0.0."""
        doc = matrix_to_doc(np.array([[1 + 2j, 3.0], [-4j, 0.5]]))
        assert set(doc) == {"rows", "cols", "base64"} and type(doc["base64"]) is str
        assert base64.b64decode(doc["base64"]) == struct.pack("<8d", 1.0, 2.0, 3.0, 0.0, -0.0, -4.0, 0.5, 0.0)

    def test_vector_and_scalar_become_rows(self):
        assert matrix_to_doc(np.array([1.0, 2.0])) == {
            "rows": 1, "cols": 2, "base64": _b64(1.0, 0.0, 2.0, 0.0)
        }
        assert matrix_to_doc(2.0) == {"rows": 1, "cols": 1, "base64": _b64(2.0, 0.0)}

    def test_integer_components(self):
        back = matrix_from_doc(_doc([[1, 0], [0, -2]]))
        assert back.tolist() == [[1 + 0j, -2j]]


def _b64_doc(text, rows=1, cols=2):
    return {"rows": rows, "cols": cols, "base64": text}


def _pairs(field):
    """A written matrix field restated as a row-major list of [re, im]
    pairs, the layout documents were written in before base64."""
    return {
        "rows": field["rows"],
        "cols": field["cols"],
        "data": matrix_from_doc(field).view(float).reshape(-1, 2).tolist(),
    }


class TestBase64:
    """A written matrix is the base64 text of its row-major little-endian
    complex128 bytes: exact to the bit, and refused before decoding when its
    length does not fit rows x cols."""

    TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal

    @pytest.mark.parametrize(
        "M",
        [
            np.array([[complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)]]),
            np.array([[complex(TINY, -TINY)], [complex(-1e-310, 2.2250738585072014e-308)]]),
            np.array([[1.7e308 - 1.7e308j, -1.7e308 + 1.7e308j], [1.7976931348623157e308, -1.7976931348623157e308j]]),
            np.array([[1 / 3 + 2j / 7]]),
            np.arange(5) * (1 - 0.5j),
            (np.arange(5) * (1 - 0.5j)).reshape(5, 1),
        ],
        ids=["signed-zeros", "subnormals", "extremes", "1x1", "1xn", "nx1"],
    )
    def test_round_trip_is_bit_exact(self, M):
        doc = json.loads(json.dumps(matrix_to_doc(M)))
        back = matrix_from_doc(doc)
        M = np.atleast_2d(M)
        assert back.dtype == complex and back.shape == M.shape
        assert np.array_equal(back, M)
        assert np.array_equal(np.signbit(back.view(float)), np.signbit(M.view(float)))

    def test_decoded_matrix_is_writable(self):
        back = matrix_from_doc(matrix_to_doc(np.eye(2)))
        back[0, 0] = 2.0
        assert back.flags.writeable and back[0, 0] == 2.0

    @pytest.mark.parametrize("text", [None, 5, 1.5, True, ["AAAA"], {"0": "AAAA"}], ids=repr)
    def test_non_string(self, text):
        _rejects(
            _b64_doc(text),
            f"m.base64: expected a string of 44 characters for 1 x 2 entries, got {type(text).__name__}",
            "m.base64",
        )

    @pytest.mark.parametrize(
        "text, rows, cols",
        [
            (_b64(1.0, 0.0), 1, 2),  # one entry where two are declared
            (_b64(1.0, 0.0, 2.0, 0.0, 3.0, 0.0), 1, 2),  # three
            (_b64(1.0, 0.0, 2.0, 0.0) + "AAAA", 1, 2),
            ("", 1, 2),
            # a 24-character string that claims 10^9 x 2 entries: no 32 GB buffer is made
            (_b64(1.0, 0.0), 10**9, 2),
        ],
        ids=["short", "long", "trailing", "empty", "huge-claim"],
    )
    def test_length_that_does_not_fit_rows_and_cols(self, text, rows, cols):
        expected = 4 * -(-16 * rows * cols // 3)
        tracemalloc.start()
        try:
            with pytest.raises(DocumentError) as err:
                matrix_from_doc(_b64_doc(text, rows, cols), "m")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == (
            f"m.base64: expected a string of {expected} characters for {rows} x {cols} entries, "
            f"got {len(text)} characters"
        )
        assert err.value.field == "m.base64"
        assert peak < 100_000

    @pytest.mark.parametrize(
        "edit",
        [
            lambda t: "*" + t[1:],  # outside the alphabet
            lambda t: "-" + t[1:],  # the URL-safe alphabet's 62
            lambda t: "\u00e9" + t[1:],  # outside ASCII
            lambda t: " " + t[1:],
            lambda t: t[:20] + "\n" + t[21:],
            lambda t: t[:-3] + "A=A",  # padding before data
            lambda t: t[:-4] + "====",  # padding in place of data
        ],
        ids=["star", "dash", "non-ascii", "space", "newline", "inner-padding", "all-padding"],
    )
    def test_invalid_base64(self, edit):
        text = _b64(1.0, 0.0, 2.0, 0.0)
        with pytest.raises(DocumentError, match=r"^m\.base64: ") as err:
            matrix_from_doc(_b64_doc(edit(text)), "m")
        assert err.value.field == "m.base64"

    def test_data_in_place_of_padding(self):
        """44 characters whose last two are data decode to 33 bytes, not 32."""
        text = _b64(1.0, 0.0, 2.0, 0.0)
        assert text.endswith("=")
        _rejects(_b64_doc(text.rstrip("=") + "A" * (44 - len(text.rstrip("=")))),
                 "m.base64: decodes to 33 bytes, expected 32", "m.base64")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("part", [0, 3])
    def test_non_finite_bytes(self, value, part):
        parts = [1.0, 0.0, 2.0, 0.0]
        parts[part] = value
        _rejects(_b64_doc(_b64(*parts)), "m.base64: non-finite entry", "m.base64")

    def test_both_data_and_base64(self):
        doc = {**_doc([[1.0, 0.0], [2.0, 0.0]]), "base64": _b64(1.0, 0.0, 2.0, 0.0)}
        _rejects(doc, f"m.base64: both base64 and data; {ENTRIES}", "m.base64")

    def test_neither_data_nor_base64(self):
        _rejects({"rows": 1, "cols": 2}, f"m.base64: missing; {ENTRIES}", "m.base64")


class TestDocumentsWrittenAsPairs:
    """Documents written before base64 carry each matrix as [re, im] pairs;
    they decode to the same matrices, bit for bit, and still verify."""

    def test_cnz_document(self):
        result, _ = build_cnz(2, np.pi)
        doc = json.loads(json.dumps(synthesis_to_doc(result, "cnz", CZ, n=2, phi=np.pi)))
        legacy = json.loads(json.dumps({**doc, "unitary": _pairs(doc["unitary"])}))
        assert "base64" not in legacy["unitary"]
        decoded, expected = synthesis_from_doc(legacy), synthesis_from_doc(doc)
        assert decoded["unitary"].view(float).tobytes() == expected["unitary"].view(float).tobytes()
        assert np.array_equal(decoded["unitary"], result.unitary)
        assert gates.verify_cnz(dataclasses.replace(result, unitary=decoded["unitary"]), 2, np.pi)

    def test_herald_bell_pair_document(self):
        state = from_qudit_target(QuditTarget(np.eye(2) / np.sqrt(2)))
        result = synthesize_herald(state, 4)
        doc = synthesis_to_doc(result, "herald", state.S, photons=4, payload_modes=state.modes)
        doc = json.loads(json.dumps(doc))
        legacy = {**doc, "unitary": _pairs(doc["unitary"]), "target": _pairs(doc["target"])}
        legacy = json.loads(json.dumps(legacy))
        decoded, expected = synthesis_from_doc(legacy), synthesis_from_doc(doc)
        for key in ("unitary", "target"):
            assert decoded[key].view(float).tobytes() == expected[key].view(float).tobytes()
        assert np.array_equal(decoded["unitary"], result.unitary)
        report = extract_heralded(
            decoded["unitary"], 4, decoded["herald"], decoded["payload_modes"], target=decoded["target"]
        )
        assert report.verified


class TestSuccessProbability:
    @pytest.fixture
    def doc(self):
        result, _ = build_cnz(2, np.pi)
        return synthesis_to_doc(result, "cnz", CZ, n=2, phi=np.pi)

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
        return synthesis_to_doc(result, "cnz", CZ, n=2, phi=np.pi)

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

    @pytest.mark.parametrize("value", [0, 3, 5, 42])
    def test_herald_aux_modes_must_fit_the_layout(self, herald_doc, value):
        """4 payload + 1 herald + 4 auxiliary modes: only 4 is consistent."""
        herald_doc["aux_modes"] = value
        with pytest.raises(DocumentError) as err:
            synthesis_from_doc(herald_doc)
        assert err.value.field == "aux_modes"

    def test_payload_beyond_the_rows_names_the_payload(self, herald_doc):
        """A payload that the unitary's 9 rows cannot hold is refused as
        such, not as an aux_modes count of -91."""
        herald_doc["payload_modes"] = 99
        with pytest.raises(DocumentError, match="payload_modes: payload and herald need 100 modes, but") as err:
            synthesis_from_doc(herald_doc)
        assert err.value.field == "payload_modes"

    def test_herald_document_without_a_herald_has_the_empty_signal(self):
        """Two photons need no herald mode: a null herald decodes as the
        empty signal, and the 3 + 0 + 2 layout holds."""
        state = normalize(np.diag([1.0, 1.0, 0.0]).astype(complex))
        doc = synthesis_to_doc(synthesize_herald(state, 2), "herald", state.S, photons=2)
        doc["herald"] = None
        decoded = synthesis_from_doc(doc)
        assert decoded["herald"].signal == () and decoded["payload_modes"] == 3

    def test_payload_modes_default_to_the_target(self, herald_doc):
        del herald_doc["payload_modes"]
        assert synthesis_from_doc(herald_doc)["payload_modes"] == 4

    @pytest.mark.parametrize("signal", [[0], [2, -1], None])
    def test_signal_rejects(self, herald_doc, signal):
        herald_doc["herald"]["signal"] = signal
        with pytest.raises(DocumentError) as err:
            synthesis_from_doc(herald_doc)
        assert err.value.field == "herald.signal"

    @pytest.mark.parametrize("modes", [7, 0, 2, -1, "x", "1", 1.0, True, None])
    def test_herald_modes_must_match_the_signal(self, herald_doc, modes):
        """The signal (2,) lays out one herald mode: any other modes field is
        an input error, not a document that verifies."""
        herald_doc["herald"]["modes"] = modes
        with pytest.raises(DocumentError) as err:
            synthesis_from_doc(herald_doc)
        assert err.value.field == "herald.modes"

    def test_herald_modes_may_be_left_out(self, herald_doc):
        del herald_doc["herald"]["modes"]
        assert synthesis_from_doc(herald_doc)["herald"].herald_modes == 1

    def test_herald_modes_of_the_empty_signal(self):
        state = normalize(np.diag([1.0, 1.0, 0.0]).astype(complex))
        doc = synthesis_to_doc(synthesize_herald(state, 2), "herald", state.S, photons=2)
        assert doc["herald"] == {"modes": 0, "signal": []}
        assert synthesis_from_doc(doc)["herald"].signal == ()
        doc["herald"]["modes"] = 1
        with pytest.raises(DocumentError, match="herald.modes"):
            synthesis_from_doc(doc)

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


class TestSynthesisDocumentRefusals:
    @pytest.fixture
    def docs(self):
        state = normalize(np.eye(4, dtype=complex))
        herald = synthesis_to_doc(synthesize_herald(state, 4), "herald", state.S, photons=4)
        state_in, target = normalize(np.eye(3, dtype=complex)), QuditTarget(np.eye(2) / np.sqrt(2))
        postselect = synthesis_to_doc(
            synthesize_postselect(state_in, target), "postselect", target.C,
            input_state=matrix_to_doc(state_in.S),
        )
        return {"herald": herald, "postselect": postselect}

    @pytest.mark.parametrize(
        "kind, edit, field",
        [
            ("herald", lambda doc: [doc], "document"),
            ("herald", lambda doc: {**doc, "kind": "hom"}, "kind"),
            ("herald", lambda doc: {**doc, "herald": {"modes": 1}}, "herald.signal"),
            ("herald", lambda doc: {**doc, "herald": [2]}, "herald.signal"),
            ("herald", lambda doc: {k: v for k, v in doc.items() if k != "photons"}, "photons"),
            ("postselect", lambda doc: {k: v for k, v in doc.items() if k != "input_state"}, "input_state"),
            ("postselect", lambda doc: {**doc, "input_state": None}, "input_state"),
            # a 9 x 9 target needs 18 payload modes of the 7-mode circuit
            ("postselect", lambda doc: {**doc, "target": matrix_to_doc(np.eye(9))}, "target"),
        ],
    )
    def test_field_is_named(self, docs, kind, edit, field):
        with pytest.raises(DocumentError) as err:
            synthesis_from_doc(edit(docs[kind]))
        assert err.value.field == field and str(err.value).startswith(field)

    def test_unknown_kind_is_not_written(self):
        with pytest.raises(ValueError, match="unknown synthesis kind 'hom'"):
            synthesis_to_doc(build_cnz(2, np.pi)[0], "hom", CZ)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(DocumentError, match="cannot read"):
            load_json(str(tmp_path / "missing.json"))
        with pytest.raises(DocumentError, match="cannot read"):
            load_json(str(tmp_path))


class TestPhi:
    @pytest.fixture
    def doc(self):
        result, _ = build_cnz(2, np.pi)
        return synthesis_to_doc(result, "cnz", CZ, n=2, phi=np.pi)

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


def test_non_square_unitary_is_a_document_error():
    result, _ = build_cnz(2, np.pi)
    doc = synthesis_to_doc(result, "cnz", CZ, n=2, phi=np.pi)
    doc["unitary"] = matrix_to_doc(result.unitary[:-1])
    with pytest.raises(DocumentError, match="expected a square matrix") as err:
        synthesis_from_doc(doc)
    assert err.value.field == "unitary"


def test_unitary_with_a_nan_defect_is_a_document_error():
    """An overflowing block makes ||U^† U - I||_F NaN, which no gate may
    read as within tolerance."""
    result, _ = build_cnz(2, np.pi)
    doc = synthesis_to_doc(result, "cnz", CZ, n=2, phi=np.pi)
    U = result.unitary.copy()
    U[:2, :2] = [[1e308, 1e308], [1e308, -1e308]]
    doc["unitary"] = matrix_to_doc(U)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DocumentError, match="not unitary") as err:
        synthesis_from_doc(doc)
    assert err.value.field == "unitary"


class TestCnzDocument:
    """A cnz document records n and phi, which fix its gate; the table
    passed to the encoder is checked against that gate, not written."""

    @pytest.fixture
    def result(self):
        return build_cnz(2, np.pi)[0]

    @pytest.mark.parametrize(
        "target, match",
        [
            pytest.param(np.eye(4), r"entry \(3, 3\) is \(1\+0j\)", id="identity"),
            pytest.param(np.eye(8), r"2\^2 x 2\^2 gate of n = 2, got shape \(8, 8\)", id="wider"),
            pytest.param(np.array([[5.0]]), r"got shape \(1, 1\)", id="1x1"),
            pytest.param(CZ[0], r"got shape \(4,\)", id="vector"),
            pytest.param(np.where(np.eye(4, k=1) == 1, np.nan, CZ), r"entry \(0, 1\) is \(nan", id="nan"),
            pytest.param(CZ + 2e-9, r"entry \(0, 0\)", id="beyond-tolerance"),
        ],
    )
    def test_refuses_a_table_that_is_not_the_gate(self, result, target, match):
        with pytest.raises(ValueError, match=match):
            synthesis_to_doc(result, "cnz", target, n=2, phi=np.pi)

    def test_accepts_the_table_within_tolerance(self, result):
        target = CZ + 5e-10
        doc = synthesis_to_doc(result, "cnz", target, n=2, phi=np.pi)
        assert (doc["n"], doc["phi"]) == (2, np.pi)
        assert np.array_equal(target, CZ + 5e-10)  # compared on a copy

    @pytest.mark.parametrize("missing", ["n", "phi"])
    def test_refuses_a_call_without_n_or_phi(self, result, missing):
        extras = {"n": 2, "phi": np.pi}
        del extras[missing]
        with pytest.raises(ValueError, match="^n/phi: required for cnz documents$"):
            synthesis_to_doc(result, "cnz", CZ, **extras)

    @pytest.mark.parametrize(
        "extras, match",
        [
            ({"n": 1, "phi": np.pi}, "n: expected an integer >= 2"),
            ({"n": 2.0, "phi": np.pi}, "n: expected an integer >= 2"),
            ({"n": 2, "phi": np.inf}, "phi: expected a finite number"),
            ({"n": 2, "phi": np.nan}, "phi: expected a finite number"),
        ],
    )
    def test_refuses_n_or_phi_that_fix_no_gate(self, result, extras, match):
        with pytest.raises(ValueError, match=match):
            synthesis_to_doc(result, "cnz", CZ, **extras)

    def test_written_document_has_no_target(self, result):
        doc = json.loads(json.dumps(synthesis_to_doc(result, "cnz", CZ, n=2, phi=np.pi)))
        assert "target" not in doc
        decoded = synthesis_from_doc(doc)
        assert "target" not in decoded
        assert np.array_equal(decoded["unitary"], result.unitary)
        assert (decoded["n"], decoded["phi"]) == (2, np.pi)

    @pytest.mark.parametrize(
        "target",
        [matrix_to_doc(CZ), matrix_to_doc(np.array([[5.0]])), None, 3, {"rows": 0}],
        ids=["gate", "1x1", "null", "number", "malformed"],
    )
    def test_legacy_target_is_not_read(self, result, target):
        """A document written before the table was dropped decodes as one
        without it, whatever it holds."""
        doc = synthesis_to_doc(result, "cnz", CZ, n=2, phi=np.pi)
        legacy = {**doc, "target": target}
        decoded, expected = synthesis_from_doc(legacy), synthesis_from_doc(doc)
        assert decoded.keys() == expected.keys()
        assert np.array_equal(decoded["unitary"], expected["unitary"])

    def test_ten_qubit_document_is_small(self):
        """The 2^10 x 2^10 table alone took 44 MB of JSON."""
        result, _ = build_cnz(10, 1.0)
        text = json.dumps(synthesis_to_doc(result, "cnz", np.diag(gates._gate_phases(10, 1.0)), n=10, phi=1.0))
        assert len(text) < 100_000

    def test_synthesizer_documents_keep_their_target(self):
        state = normalize(np.diag([1.0, 1.0, 0.0]).astype(complex))
        doc = synthesis_to_doc(synthesize_herald(state, 2), "herald", state.S, photons=2)
        assert list(doc)[:6] == ["kind", "unitary", "aux_modes", "success_probability", "target", "herald"]
        assert np.array_equal(synthesis_from_doc(doc)["target"], state.S)


class TestWriterFields:
    """synthesis_to_doc holds the document it returns to the rule that
    synthesis_from_doc reads documents by: what the reader refuses, the
    writer refuses first, as ValueError with the reader's words, and every
    document it returns reads back."""

    BELL = from_qudit_target(QuditTarget(np.eye(2) / np.sqrt(2)))
    STATE_IN = normalize(np.eye(3, dtype=complex))
    PAIR = QuditTarget(np.eye(2) / np.sqrt(2))
    VALID = {
        "cnz": {"n": 2, "phi": np.pi},
        "herald": {"photons": 4, "payload_modes": 4},
        "postselect": {"input_state": matrix_to_doc(STATE_IN.S)},
    }

    @pytest.fixture(scope="class")
    def herald(self):
        return synthesize_herald(self.BELL, 4), self.BELL.S

    @pytest.fixture(scope="class")
    def cnz(self):
        return build_cnz(2, np.pi)[0], CZ

    @pytest.fixture(scope="class")
    def postselect(self):
        return synthesize_postselect(self.STATE_IN, self.PAIR), self.PAIR.C

    @pytest.mark.parametrize(
        "kind, field, value, named",
        [
            ("cnz", "phi", True, "phi"),
            ("cnz", "phi", "1.0", "phi"),
            ("cnz", "n", True, "n"),
            ("cnz", "n", None, "n"),
            ("cnz", "phi", None, "n"),
            ("herald", "photons", 4.0, "photons"),
            ("herald", "photons", True, "photons"),
            ("herald", "payload_modes", 4.0, "payload_modes"),
            ("herald", "payload_modes", 0, "payload_modes"),
            ("herald", "photons", None, "photons"),
            ("postselect", "input_state", None, "input_state"),
            # the 4-mode Bell target laid out on 3 payload modes leaves 5, not 4, auxiliaries
            ("herald", "payload_modes", 3, "aux_modes"),
            ("herald", "payload_modes", 99, "payload_modes"),
            ("herald", "success_probability", float("nan"), "success_probability"),
            ("herald", "success_probability", 1.5, "success_probability"),
            ("postselect", "success_probability", -0.5, "success_probability"),
            ("cnz", "success_probability", float("inf"), "success_probability"),
            ("herald", "aux_modes", -1, "aux_modes"),
            ("herald", "aux_modes", 3, "aux_modes"),
            ("postselect", "aux_modes", 0, "aux_modes"),
            ("cnz", "aux_modes", -1, "aux_modes"),
        ],
    )
    def test_refuses_what_the_reader_refuses(self, request, kind, field, value, named):
        """A field of the result is written as the result holds it, an
        extra as given; None stands for an extra left out."""
        valid, target = request.getfixturevalue(kind)
        result, extras = valid, {key: v for key, v in self.VALID[kind].items() if key != field}
        if field in ("aux_modes", "success_probability"):
            result = dataclasses.replace(valid, **{field: value})
        elif value is not None:
            extras[field] = value
        with pytest.raises(ValueError) as written:
            synthesis_to_doc(result, kind, target, **extras)
        doc = synthesis_to_doc(valid, kind, target, **self.VALID[kind])
        doc.pop(field)
        if value is not None:
            doc[field] = value
        with pytest.raises(DocumentError) as read:
            synthesis_from_doc(json.loads(json.dumps(doc)))
        assert str(written.value) == str(read.value) and read.value.field == named

    @pytest.mark.parametrize(
        "key", ["alpha", "unitary", "aux_modes", "success_probability", "herald", "input"]
    )
    def test_refuses_an_extra_it_does_not_take(self, cnz, key):
        """An extra named after a field the writer fills in would overwrite
        it: a CZ document with an I_8 unitary extra would read back and fail
        verify_cnz."""
        result, target = cnz
        value = matrix_to_doc(np.eye(8)) if key == "unitary" else 0
        message = f"^{key}: not among the extras input_state, n, payload_modes, phi, photons$"
        with pytest.raises(ValueError, match=message):
            synthesis_to_doc(result, "cnz", target, n=2, phi=np.pi, **{key: value})

    @pytest.mark.parametrize("n", [60, 20000])
    def test_table_size_is_stated_as_a_power_of_two(self, cnz, n):
        """2^20000 has more digits than Python converts to text."""
        message = f"^target: expected the 2\\^{n} x 2\\^{n} gate of n = {n}, got shape \\(4, 4\\)$"
        with pytest.raises(ValueError, match=message):
            synthesis_to_doc(cnz[0], "cnz", CZ, n=n, phi=1.0)

    @pytest.mark.parametrize(
        "kind, extras",
        [
            ("cnz", {"n": 2, "phi": np.pi}),
            ("cnz", {"n": 2, "phi": 3}),
            ("cnz", {"n": 2, "phi": -1e308}),
            ("herald", {"photons": 4}),
            ("herald", {"photons": 4, "payload_modes": 4}),
            ("postselect", VALID["postselect"]),
        ],
    )
    def test_accepted_calls_round_trip(self, request, kind, extras):
        result, target = request.getfixturevalue(kind)
        if kind == "cnz":
            target = np.diag(gates._gate_phases(extras["n"], extras["phi"]))
        doc = synthesis_to_doc(result, kind, target, **extras)
        decoded = synthesis_from_doc(json.loads(json.dumps(doc)))
        if kind == "postselect":
            assert np.array_equal(decoded["input_state"], self.STATE_IN.S)
        else:
            assert {key: decoded[key] for key in extras} == extras
        assert np.array_equal(decoded["unitary"], result.unitary)
        assert decoded["aux_modes"] == result.aux_modes
        assert decoded["success_probability"] == result.success_probability
