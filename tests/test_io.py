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
    QuditTarget, build_cnz, from_qudit_target, gates, normalize, synthesize_herald,
    synthesize_postselect,
)
from photonprep.io import load_json, matrix_from_doc, matrix_to_doc, synthesis_from_doc, synthesis_to_doc

# the truth table of the CZ gate, n = 2 and phi = pi
CZ = np.diag([1, 1, 1, -1]).astype(complex)
# how a matrix without base64 is refused
ENTRIES = "a matrix carries its entries as one base64 string of row-major little-endian complex128"


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
        "key, stray, message, field",
        [
            ("rows", {}, "m.rows: missing", "m.rows"),
            ("cols", {}, "m.cols: missing", "m.cols"),
            ("base64", {}, f"m.base64: missing; {ENTRIES}", "m.base64"),
            # base64 is the one encoding: the [re, im] pairs of documents written before it are not read
            ("base64", {"data": [[1.0, 0.0], [0.0, 1.0]]},
             f"m.base64: missing; {ENTRIES}", "m.base64"),
        ],
        ids=["rows", "cols", "base64", "pairs"],
    )
    def test_missing_key(self, key, stray, message, field):
        doc = _b64_doc(_b64(1.0, 0.0, 0.0, 1.0))
        del doc[key]
        doc.update(stray)
        _rejects(doc, message, field)

    @pytest.mark.parametrize(
        "rows, cols", [(0, 2), (1, 0), (-1, 2), (1.0, 2), ("1", 2), (True, 2), (1, True)]
    )
    def test_rows_cols_not_positive_integers(self, rows, cols):
        _rejects(_b64_doc(_b64(1.0, 0.0, 0.0, 1.0), rows, cols), "m.rows/cols: must be positive integers", "m")


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

    @pytest.mark.parametrize(
        "M, match",
        [
            (np.array([[1.0, np.nan]]), "non-finite entry"),
            (np.array([np.inf, 1.0]), "non-finite entry"),
            (complex(0.0, -np.inf), "non-finite entry"),
            (None, "expected complex entries, got NoneType"),
            (np.zeros((2, 2, 2)), r"expected a nonempty matrix, got shape \(2, 2, 2\)"),
            (np.zeros((0, 3)), r"expected a nonempty matrix, got shape \(0, 3\)"),
            ([], r"expected a nonempty matrix, got shape \(1, 0\)"),
            ({"rows": 1, "cols": 1, "base64": _b64(1.0, 0.0)}, "expected complex entries, got dict"),
            (10**400, "expected complex entries, got int"),
            ([2**70, 1], "expected complex entries, got list"),  # beyond int64: numpy holds it as an object
            ("1+", "expected complex entries, got str"),
            ("1+2j", "expected complex entries, got str"),  # text, though numpy would parse it
            ([[1.0, 2.0], [3.0]], "expected complex entries, got list"),
        ],
        ids=["nan", "inf", "-inf-imag", "none", "3d", "no-rows", "empty", "dict", "1e400", "2^70", "string",
             "number-string", "ragged"],
    )
    def test_writer_refuses_what_is_not_a_finite_matrix(self, M, match):
        with pytest.raises(ValueError, match=match):
            matrix_to_doc(M)


def _b64_doc(text, rows=1, cols=2):
    return {"rows": rows, "cols": cols, "base64": text}


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
        return synthesis_to_doc(result, "herald", state.S)

    @pytest.fixture
    def cnz_doc(self):
        result, _ = build_cnz(2, np.pi)
        return synthesis_to_doc(result, "cnz", CZ, n=2, phi=np.pi)

    @pytest.mark.parametrize(
        "field, value",
        [("aux_modes", -1), ("aux_modes", "0"), ("aux_modes", 1.5)],
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

    def test_herald_document_without_a_herald_has_the_empty_signal(self):
        """Two photons need no herald mode: a null herald decodes as the
        empty signal, and the 3 + 0 + 2 layout holds."""
        state = normalize(np.diag([1.0, 1.0, 0.0]).astype(complex))
        doc = synthesis_to_doc(synthesize_herald(state, 2), "herald", state.S)
        assert doc["herald"] == {"signal": []}
        doc["herald"] = None
        decoded = synthesis_from_doc(doc)
        assert decoded["herald"].signal == () and decoded["target"].shape == (3, 3)

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
        assert decoded["herald"].signal == (2,) and decoded["target"].shape == (4, 4)
        assert not {"photons", "payload_modes"} & decoded.keys()
        assert synthesis_from_doc(cnz_doc)["n"] == 2


class TestSynthesisDocumentRefusals:
    @pytest.fixture
    def docs(self):
        state = normalize(np.eye(4, dtype=complex))
        herald = synthesis_to_doc(synthesize_herald(state, 4), "herald", state.S)
        state_in, target = normalize(np.eye(3, dtype=complex)), QuditTarget(np.eye(2) / np.sqrt(2))
        postselect = synthesis_to_doc(
            synthesize_postselect(state_in, target), "postselect", target.C,
            input_state=state_in.S,
        )
        cnz = synthesis_to_doc(build_cnz(2, np.pi)[0], "cnz", CZ, n=2, phi=np.pi)
        return {"herald": herald, "postselect": postselect, "cnz": cnz}

    @pytest.mark.parametrize(
        "kind, edit, field",
        [
            ("herald", lambda doc: [doc], "document"),
            ("herald", lambda doc: {**doc, "kind": "hom"}, "kind"),
            ("herald", lambda doc: {**doc, "herald": {"modes": 1}}, "herald.signal"),
            ("herald", lambda doc: {**doc, "herald": [2]}, "herald.signal"),
            # without its signal (2,), the 4 + 0 + 4 layout leaves 5 auxiliaries of the 9 rows, not 4
            ("herald", lambda doc: {k: v for k, v in doc.items() if k != "herald"}, "aux_modes"),
            ("postselect", lambda doc: {k: v for k, v in doc.items() if k != "input_state"}, "input_state"),
            ("postselect", lambda doc: {**doc, "input_state": None}, "input_state"),
            # a 9 x 9 target needs 18 payload modes of the 7-mode circuit
            ("postselect", lambda doc: {**doc, "target": matrix_to_doc(np.eye(9))}, "target"),
            # and 9 payload modes beside the herald mode of the 9-mode circuit
            ("herald", lambda doc: {**doc, "target": matrix_to_doc(np.eye(9))}, "target"),
            # read as 0, a missing aux_modes would fit n = 4 on the 8-mode CZ
            ("cnz", lambda doc: {**{k: v for k, v in doc.items() if k != "aux_modes"}, "n": 4}, "aux_modes"),
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


class TestDocumentKeys:
    """Each kind of document carries its own key set, and a herald document
    states each layout fact once: its signal fixes the photons (its total +
    2) and the herald modes (one per entry), its target the payload modes."""

    BELL = from_qudit_target(QuditTarget(np.eye(2) / np.sqrt(2)))
    COMMON = ["kind", "unitary", "aux_modes", "success_probability"]

    @pytest.fixture
    def herald_doc(self):
        return synthesis_to_doc(synthesize_herald(self.BELL, 4), "herald", self.BELL.S)

    def test_each_kind_has_its_keys(self, herald_doc):
        assert list(herald_doc) == [*self.COMMON, "target", "herald"]
        assert herald_doc["herald"] == {"signal": [2]}
        cnz = synthesis_to_doc(build_cnz(2, np.pi)[0], "cnz", CZ, n=2, phi=np.pi)
        assert list(cnz) == [*self.COMMON, "herald", "n", "phi"] and cnz["herald"] is None
        state_in, pair = normalize(np.eye(3, dtype=complex)), QuditTarget(np.eye(2) / np.sqrt(2))
        postselect = synthesis_to_doc(
            synthesize_postselect(state_in, pair), "postselect", pair.C, input_state=state_in.S
        )
        assert list(postselect) == [*self.COMMON, "target", "herald", "input_state"]
        assert postselect["herald"] is None

    @pytest.mark.parametrize(
        "photons, payload_modes, modes",
        [(4, 4, 1), (7, 99, 3), (True, "x", None)],
        ids=["as-written-before", "contradicting", "malformed"],
    )
    def test_retired_keys_are_not_read(self, herald_doc, photons, payload_modes, modes):
        """A herald document written while it still carried photons,
        payload_modes and herald.modes decodes as one without them, whatever
        they hold: its signal and target decide."""
        legacy = json.loads(json.dumps(herald_doc))
        legacy.update(photons=photons, payload_modes=payload_modes)
        legacy["herald"]["modes"] = modes
        self.assert_decodes_alike(legacy, herald_doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            *(("herald.modes", modes) for modes in [-1, 0, 1.0, 1, 2, 7, None, True, "x"]),
            ("payload_modes", 0),
            ("photons", 1),
            ("photons", True),
        ],
    )
    def test_a_retired_key_is_not_read(self, herald_doc, key, value):
        """Each value the reader once refused or checked against the signal
        and target, alone, leaves the decoding as it is."""
        legacy = json.loads(json.dumps(herald_doc))
        if key == "herald.modes":
            legacy["herald"]["modes"] = value
        else:
            legacy[key] = value
        self.assert_decodes_alike(legacy, herald_doc)

    @staticmethod
    def assert_decodes_alike(doc, reference):
        decoded, expected = synthesis_from_doc(doc), synthesis_from_doc(reference)
        assert decoded.keys() == expected.keys()
        for key, value in expected.items():
            assert np.array_equal(decoded[key], value) if key in ("unitary", "target") else decoded[key] == value


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
            # 6 has the 3 bits of 2^2, but is no power of two
            pytest.param(np.eye(6), r"2\^2 x 2\^2 gate of n = 2, got shape \(6, 6\)", id="6x6"),
            pytest.param(np.eye(4)[:, :2], r"got shape \(4, 2\)", id="non-square"),
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
        doc = synthesis_to_doc(synthesize_herald(state, 2), "herald", state.S)
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
        "herald": {},
        "postselect": {"input_state": STATE_IN.S},
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
            ("postselect", "input_state", None, "input_state"),
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

    @pytest.mark.parametrize("kind", ["herald", "cnz"])
    def test_refuses_an_input_state_outside_post_selection(self, request, kind):
        """Only a post-selected circuit acts on an input state: a herald or
        cnz document that carries one is refused, on write as on read."""
        valid, target = request.getfixturevalue(kind)
        with pytest.raises(ValueError) as written:
            synthesis_to_doc(valid, kind, target, **self.VALID[kind], input_state=self.STATE_IN.S)
        doc = synthesis_to_doc(valid, kind, target, **self.VALID[kind])
        doc["input_state"] = matrix_to_doc(self.STATE_IN.S)
        with pytest.raises(DocumentError) as read:
            synthesis_from_doc(json.loads(json.dumps(doc)))
        assert str(written.value) == str(read.value) and read.value.field == "input_state"
        assert str(read.value) == f"input_state: only postselect documents carry one, not {kind} documents"

    @pytest.mark.parametrize("kind, key, value", [
        ("herald", "n", 1), ("herald", "n", 2), ("herald", "n", "x"), ("herald", "phi", 7.0),
        ("postselect", "n", 3), ("postselect", "phi", 0.0), ("postselect", "phi", float("nan")),
    ])
    def test_refuses_a_field_of_another_kind(self, request, kind, key, value):
        """n and phi fix a cnz gate and nothing else: a herald or
        post-selection document that carries either, valid or not, is
        refused, on write as on read, before its value is read."""
        valid, target = request.getfixturevalue(kind)
        with pytest.raises(ValueError) as written:
            synthesis_to_doc(valid, kind, target, **self.VALID[kind], **{key: value})
        doc = synthesis_to_doc(valid, kind, target, **self.VALID[kind])
        doc[key] = value
        with pytest.raises(DocumentError) as read:
            synthesis_from_doc(json.loads(json.dumps(doc)))
        assert str(written.value) == str(read.value) and read.value.field == key
        assert str(read.value) == f"{key}: only cnz documents carry one, not {kind} documents"

    @pytest.mark.parametrize("kind", ["herald", "postselect"])
    def test_a_null_field_of_another_kind_counts_as_absent(self, request, kind):
        valid, target = request.getfixturevalue(kind)
        doc = synthesis_to_doc(valid, kind, target, **self.VALID[kind])
        expected = synthesis_from_doc(doc)
        decoded = synthesis_from_doc({**doc, "n": None, "phi": None})
        assert "n" not in decoded and "phi" not in decoded
        assert decoded.keys() == expected.keys()

    @pytest.mark.parametrize(
        "key",
        ["alpha", "unitary", "aux_modes", "success_probability", "herald", "input", "photons", "payload_modes"],
    )
    def test_refuses_an_extra_it_does_not_take(self, cnz, key):
        """An extra named after a field the writer fills in would overwrite
        it: a CZ document with an I_8 unitary extra would read back and fail
        verify_cnz. photons and payload_modes, which herald documents no
        longer carry, are refused like any other name."""
        result, target = cnz
        value = matrix_to_doc(np.eye(8)) if key == "unitary" else 0
        message = f"^{key}: not among the extras input_state, n, phi$"
        with pytest.raises(ValueError, match=message):
            synthesis_to_doc(result, "cnz", target, n=2, phi=np.pi, **{key: value})

    @pytest.mark.parametrize(
        "state, match",
        [
            (np.full((3, 3), np.nan), "non-finite entry"),
            (np.eye(3)[None], "got shape"),
            (matrix_to_doc(STATE_IN.S), "expected complex entries, got dict"),
        ],
        ids=["nan", "3d", "matrix-document"],
    )
    def test_refuses_an_input_state_it_cannot_encode(self, postselect, state, match):
        """input_state is a matrix that the writer encodes, held to the rule
        of every other matrix it writes."""
        result, target = postselect
        with pytest.raises(ValueError, match=match):
            synthesis_to_doc(result, "postselect", target, input_state=state)

    @pytest.mark.parametrize("n", [60, 20000])
    def test_table_size_is_stated_as_a_power_of_two(self, cnz, n):
        """2^20000 has more digits than Python converts to text."""
        message = f"^target: expected the 2\\^{n} x 2\\^{n} gate of n = {n}, got shape \\(4, 4\\)$"
        with pytest.raises(ValueError, match=message):
            synthesis_to_doc(cnz[0], "cnz", CZ, n=n, phi=1.0)

    def test_table_size_is_refused_without_forming_it(self, cnz):
        """The side 2^n is tested by its bits: n = 10^8 is refused without a
        number of 10^8 bits, or any table, in memory."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^target: expected the 2\^100000000 x 2\^100000000 gate"):
                synthesis_to_doc(cnz[0], "cnz", CZ, n=10**8, phi=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "kind, extras",
        [
            ("cnz", {"n": 2, "phi": np.pi}),
            ("cnz", {"n": 2, "phi": 3}),
            ("cnz", {"n": 2, "phi": -1e308}),
            ("herald", {}),
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
