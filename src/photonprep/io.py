"""JSON documents for matrices and synthesis artifacts.

A matrix is written as {"rows", "cols", "base64"}, its one encoding: the
base64 text of its row-major little-endian complex128 bytes, exact to the
bit and read back by np.frombuffer(base64.b64decode(s), "<c16").reshape(rows,
cols). matrix_to_doc writes every matrix of every document, and refuses, as
ValueError, each matrix that matrix_from_doc would refuse on read.
A synthesis document bundles the unitary with enough context to re-verify
it from scratch: the kind, kind-specific fields and, for the synthesizers,
the target. A herald document states each layout fact once: its herald
signal fixes the photons (its total + 2) and the herald modes (one per
entry), its target the payload modes (its rows). A cnz document records n
and phi, which fix its gate, instead of the gate's 2^n x 2^n table. Each
kind reads only its own fields: n and phi in any other document, or an
input_state outside post-selection, are refused. Fields the reader does not
know are not read: the `target` of an older cnz document, or the `photons`,
`payload_modes` and `herald.modes` of an older herald one.
One rule states a synthesis document's fields other than its matrices, and
the writer runs it on what it returns as the reader runs it on what it reads.
"""

from __future__ import annotations

import base64
import json
import sys
from typing import Any

import numpy as np

from .exceptions import DocumentError
from .gates import _deviation, _gate_phases
from .linalg import _gram_defect
from .verify import HeraldPattern, SynthesisResult, _aux_modes
from .tolerances import CNZ_AMPLITUDE_TOL, DOCUMENT_UNITARITY_TOL

KINDS = ("postselect", "herald", "cnz")
# the scalar fields a cnz document carries beside aux_modes and
# success_probability: each integer's least value, or None for a finite number
_SCALAR_FIELDS = (("n", 2), ("phi", None))
# the fields each kind of document must carry beside those of every document;
# a document of another kind carries none of them
_REQUIRED = {"postselect": ("input_state",), "herald": (), "cnz": ("n", "phi")}
# the fields synthesis_to_doc takes as extras; it fills in every other field itself
_EXTRAS = frozenset().union(*_REQUIRED.values())


def matrix_to_doc(M: Any) -> dict[str, Any]:
    """The document of M, a scalar, vector (both as one row) or matrix of
    finite complex entries; ValueError for anything else."""
    try:  # numpy holds text, None, a dict or an integer beyond int64 as other than numbers
        M = np.atleast_2d(np.asarray(M).astype(complex, casting="same_kind", copy=False))
    except (TypeError, ValueError):  # ValueError: a ragged list
        raise ValueError(f"matrix: expected complex entries, got {type(M).__name__}") from None
    if M.ndim > 2 or M.size == 0:
        raise ValueError(f"matrix: expected a nonempty matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix: non-finite entry")
    raw = np.ascontiguousarray(M, dtype="<c16").tobytes()
    return {"rows": M.shape[0], "cols": M.shape[1], "base64": base64.b64encode(raw).decode("ascii")}


def _is_finite_number(value: Any) -> bool:
    # JSON true/false decode to bool, a subclass of int; they are not numbers here.
    # int-float comparison is exact, so NaN, infinities and integers beyond the float range fail
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def _is_int_at_least(value: Any, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _int_from_doc(value: Any, field: str, minimum: int) -> int:
    """An integer field: a JSON integer (not a boolean) of at least `minimum`."""
    if not _is_int_at_least(value, minimum):
        raise DocumentError(f"{field}: expected an integer >= {minimum}, got {value!r}", field)
    return value


def _scalar_from_doc(value: Any, field: str, minimum: int | None) -> Any:
    """A field of _SCALAR_FIELDS: an integer of at least `minimum`, or, with
    no minimum, a finite JSON number (not a boolean)."""
    if minimum is not None:
        return _int_from_doc(value, field, minimum)
    if not _is_finite_number(value):
        raise DocumentError(f"{field}: expected a finite number, got {value!r}", field)
    return value


def _probability_from_doc(value: Any) -> float:
    """A probability field: a finite JSON number (not a boolean) in [0, 1]."""
    if not (_is_finite_number(value) and 0.0 <= value <= 1.0):
        raise DocumentError(
            f"success_probability: expected a finite number in [0, 1], got {value!r}",
            "success_probability",
        )
    return float(value)


def _entries_from_base64(text: Any, rows: int, cols: int, field: str) -> np.ndarray:
    """The rows x cols complex entries that `text` encodes as base64 of
    row-major little-endian complex128 bytes."""
    nbytes = 16 * rows * cols
    length = 4 * -(-nbytes // 3)
    # sized before decoding: a short string that claims a huge matrix allocates nothing
    if not isinstance(text, str) or len(text) != length:
        got = f"{len(text)} characters" if isinstance(text, str) else type(text).__name__
        raise DocumentError(
            f"{field}.base64: expected a string of {length} characters for {rows} x {cols} entries, got {got}",
            f"{field}.base64",
        )
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise DocumentError(f"{field}.base64: invalid base64: {exc}", f"{field}.base64") from exc
    if len(raw) != nbytes:  # padding in place of data, or data in place of padding
        raise DocumentError(
            f"{field}.base64: decodes to {len(raw)} bytes, expected {nbytes}", f"{field}.base64"
        )
    return np.frombuffer(raw, "<c16").astype(complex).reshape(rows, cols)


def matrix_from_doc(doc: Any, field: str = "matrix") -> np.ndarray:
    if not isinstance(doc, dict):
        raise DocumentError(f"{field}: expected an object", field)
    for key in ("rows", "cols"):
        if key not in doc:
            raise DocumentError(f"{field}.{key}: missing", f"{field}.{key}")
    rows, cols = doc["rows"], doc["cols"]
    if not (_is_int_at_least(rows, 1) and _is_int_at_least(cols, 1)):
        raise DocumentError(f"{field}.rows/cols: must be positive integers", field)
    if "base64" not in doc:
        message = "a matrix carries its entries as one base64 string of row-major little-endian complex128"
        raise DocumentError(f"{field}.base64: missing; {message}", f"{field}.base64")
    M = _entries_from_base64(doc["base64"], rows, cols, field)
    if not np.isfinite(M).all():
        raise DocumentError(f"{field}.base64: non-finite entry", f"{field}.base64")
    return M


def _check_cnz_target(target: Any, n: int, phi: float) -> None:
    """Raise ValueError unless `target` is, entry by entry within
    CNZ_AMPLITUDE_TOL, the table of the gate that n and phi fix."""
    target = np.asarray(target, dtype=complex)
    side = target.shape[0] if target.ndim == 2 and target.shape[0] == target.shape[1] else 0
    # 2^n, a power of two of n + 1 bits, is neither formed nor printed: n may have thousands of digits
    if side & (side - 1) or side.bit_length() != n + 1:
        raise ValueError(f"target: expected the 2^{n} x 2^{n} gate of n = {n}, got shape {target.shape}")
    # NaN fails the comparison, so a NaN entry is off too
    off = ~(_deviation(target.copy(), _gate_phases(n, phi)) <= CNZ_AMPLITUDE_TOL)
    if off.any():
        i, j = np.argwhere(off)[0]
        gate = f"the gate of n = {n}, phi = {phi}"
        raise ValueError(f"target: entry ({i}, {j}) is {target[i, j]}, not that of {gate}")


def _fields(doc: dict[str, Any]) -> dict[str, Any]:
    """The decoded non-matrix fields of synthesis document `doc`, by the one
    rule that synthesis_to_doc and synthesis_from_doc hold documents to;
    DocumentError names the first field at fault. `doc`'s kind is known and
    its unitary and target (but for cnz) are well-formed matrix documents,
    so their rows and cols are read as given."""
    kind = doc["kind"]
    required = _REQUIRED[kind]
    for key in sorted(_EXTRAS):
        if key not in required and doc.get(key) is not None:  # a null field counts as absent
            carriers = " and ".join(k for k in KINDS if key in _REQUIRED[k])
            message = f"only {carriers} documents carry one, not {kind} documents"
            raise DocumentError(f"{key}: {message}", key)
    out: dict[str, Any] = {
        "aux_modes": _int_from_doc(doc.get("aux_modes"), "aux_modes", 0),
        "success_probability": _probability_from_doc(doc.get("success_probability")),
        # a herald document without one has the empty signal of two photons
        "herald": HeraldPattern(signal=()) if kind == "herald" else None,
    }
    herald = doc.get("herald")
    if herald is not None:
        if not isinstance(herald, dict) or "signal" not in herald:
            raise DocumentError("herald.signal: missing", "herald.signal")
        signal = herald["signal"]
        try:  # a list of positive integers, empty for two photons, which need no herald
            if not isinstance(signal, list):
                raise ValueError(signal)
            out["herald"] = HeraldPattern(signal=tuple(signal))
        except ValueError:
            raise DocumentError(
                f"herald.signal: expected a list of positive integers, got {signal!r}", "herald.signal"
            ) from None
    for key, minimum in _SCALAR_FIELDS:
        if key in required and key in doc:
            out[key] = _scalar_from_doc(doc[key], key, minimum)
    if any(doc.get(key) is None for key in required):  # by identity: a field may hold an array
        raise DocumentError(f"{'/'.join(required)}: required for {kind} documents", required[0])
    if kind != "cnz":  # the synthesizers' layout; verify_cnz checks the cnz one
        shape = doc["target"]["rows"], doc["target"]["cols"]
        rows = doc["unitary"]["rows"]
        aux = _aux_modes(rows, shape[0] if kind == "herald" else sum(shape), out["herald"])
        if aux < 0:  # the target does not fit: it is at fault, not aux_modes
            message = f"payload and herald need {rows - aux} modes, but the unitary has {rows} rows"
            raise DocumentError(f"target: {message}", "target")
        if out["aux_modes"] != aux:
            message = f"{out['aux_modes']}, but {rows} rows leave {aux} past payload and herald"
            raise DocumentError(f"aux_modes: {message}", "aux_modes")
    return out


def synthesis_to_doc(
    result: SynthesisResult, kind: str, target: np.ndarray, **extras: Any
) -> dict[str, Any]:
    """The synthesis document of `result`, which synthesis_from_doc reads
    back. The extras are n and phi, which only a cnz document carries, and
    input_state (a matrix), which only a post-selection document carries; a
    herald document takes none, as its signal and target fix its layout. The
    document's fields are held to the reader's rule, as ValueError with the
    reader's words, and its matrices to matrix_to_doc's. A cnz document
    records n and phi instead of `target`, which must be the table of the
    gate they fix (ValueError otherwise)."""
    if kind not in KINDS:
        raise ValueError(f"unknown synthesis kind {kind!r}")
    if not extras.keys() <= _EXTRAS:
        unknown = ", ".join(sorted(extras.keys() - _EXTRAS))
        raise ValueError(f"{unknown}: not among the extras {', '.join(sorted(_EXTRAS))}")
    doc: dict[str, Any] = {
        "kind": kind,
        "unitary": matrix_to_doc(result.unitary),
        "aux_modes": result.aux_modes,
        "success_probability": float(result.success_probability),
    }
    if kind != "cnz":
        doc["target"] = matrix_to_doc(target)
    doc["herald"] = {"signal": list(result.herald.signal)} if result.herald is not None else None
    doc.update(extras)
    if doc.get("input_state") is not None:  # by identity: a matrix has no truth value
        doc["input_state"] = matrix_to_doc(doc["input_state"])
    try:
        _fields(doc)
    except DocumentError as exc:  # the reader's rule and words, as the writer's ValueError
        raise ValueError(str(exc)) from None
    if kind == "cnz":
        _check_cnz_target(target, doc["n"], doc["phi"])
    return doc


def synthesis_from_doc(doc: Any) -> dict[str, Any]:
    """Validate and decode a synthesis document into python values."""
    if not isinstance(doc, dict):
        raise DocumentError("document: expected an object", "document")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"kind: expected one of {KINDS}", "kind")
    unitary = matrix_from_doc(doc.get("unitary"), "unitary")
    if unitary.shape[0] != unitary.shape[1]:
        raise DocumentError(f"unitary: expected a square matrix, got {unitary.shape}", "unitary")
    if not _gram_defect(unitary) <= DOCUMENT_UNITARITY_TOL:
        raise DocumentError("unitary: matrix is not unitary", "unitary")
    out: dict[str, Any] = {"kind": kind, "unitary": unitary}
    if kind != "cnz":  # n and phi fix a cnz gate; an older document's table is not read
        out["target"] = matrix_from_doc(doc.get("target"), "target")
    if doc.get("input_state") is not None:
        out["input_state"] = matrix_from_doc(doc["input_state"], "input_state")
    out.update(_fields(doc))
    return out


def load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def dump_json(doc: Any, path: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if path is None:
        print(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from exc
