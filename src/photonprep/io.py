"""JSON documents for matrices and synthesis artifacts.

Complex entries are serialized as two-element [re, im] arrays, row-major.
A synthesis document bundles the unitary with enough context to re-verify
it from scratch: the target, the kind, and kind-specific fields.
"""

from __future__ import annotations

import itertools
import json
import sys
from typing import Any

import numpy as np

from .exceptions import DocumentError
from .verify import HeraldPattern, SynthesisResult
from .tolerances import DOCUMENT_UNITARITY_TOL

KINDS = ("postselect", "herald", "cnz")


def matrix_to_doc(M: np.ndarray, label: str | None = None) -> dict[str, Any]:
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    doc: dict[str, Any] = {
        "rows": M.shape[0],
        "cols": M.shape[1],
        "data": np.stack([M.real, M.imag], -1).reshape(-1, 2).tolist(),
    }
    if label is not None:
        doc["label"] = label
    return doc


def _is_number_type(t: type) -> bool:
    # JSON true/false decode to bool, a subclass of int; they are not numbers here
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _is_finite_number(value: Any) -> bool:
    # int-float comparison is exact, so NaN, infinities and integers beyond the float range fail
    return _is_number_type(type(value)) and abs(value) <= sys.float_info.max


def _is_pair(pair: Any) -> bool:
    return (
        isinstance(pair, list)
        and len(pair) == 2
        and all(_is_number_type(type(v)) for v in pair)
    )


def _is_int_at_least(value: Any, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _int_from_doc(value: Any, field: str, minimum: int) -> int:
    """An integer field: a JSON integer (not a boolean) of at least `minimum`."""
    if not _is_int_at_least(value, minimum):
        raise DocumentError(f"{field}: expected an integer >= {minimum}, got {value!r}", field)
    return value


def _probability_from_doc(value: Any) -> float:
    """A probability field: a finite JSON number (not a boolean) in [0, 1]."""
    if not (_is_finite_number(value) and 0.0 <= value <= 1.0):
        raise DocumentError(
            f"success_probability: expected a finite number in [0, 1], got {value!r}",
            "success_probability",
        )
    return float(value)


def matrix_from_doc(doc: Any, field: str = "matrix") -> np.ndarray:
    if not isinstance(doc, dict):
        raise DocumentError(f"{field}: expected an object", field)
    for key in ("rows", "cols", "data"):
        if key not in doc:
            raise DocumentError(f"{field}.{key}: missing", f"{field}.{key}")
    rows, cols = doc["rows"], doc["cols"]
    if not all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in (rows, cols)):
        raise DocumentError(f"{field}.rows/cols: must be positive integers", field)
    data = doc["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise DocumentError(
            f"{field}.data: expected {rows * cols} entries", f"{field}.data"
        )
    # each distinct type is checked once; only a malformed document is
    # scanned entry by entry, to name its first bad entry
    pairs = all(issubclass(t, list) for t in set(map(type, data))) and set(map(len, data)) == {2}
    values = list(itertools.chain.from_iterable(data)) if pairs else []
    if not (pairs and all(map(_is_number_type, set(map(type, values))))):
        idx = next(i for i, pair in enumerate(data) if not _is_pair(pair))
        raise DocumentError(f"{field}.data[{idx}]: expected [re, im]", f"{field}.data")
    M = np.array(values, dtype=float).view(complex).reshape(rows, cols)
    if not np.all(np.isfinite(M)):
        raise DocumentError(f"{field}.data: non-finite entry", f"{field}.data")
    return M


def synthesis_to_doc(
    result: SynthesisResult, kind: str, target: np.ndarray, **extras: Any
) -> dict[str, Any]:
    if kind not in KINDS:
        raise ValueError(f"unknown synthesis kind {kind!r}")
    doc: dict[str, Any] = {
        "kind": kind,
        "unitary": matrix_to_doc(result.unitary),
        "aux_modes": result.aux_modes,
        "success_probability": float(result.success_probability),
        "target": matrix_to_doc(target),
        "herald": (
            {"modes": result.herald.herald_modes, "signal": list(result.herald.signal)}
            if result.herald is not None
            else None
        ),
    }
    doc.update(extras)
    return doc


def synthesis_from_doc(doc: Any) -> dict[str, Any]:
    """Validate and decode a synthesis document into python values."""
    if not isinstance(doc, dict):
        raise DocumentError("document: expected an object", "document")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"kind: expected one of {KINDS}", "kind")
    unitary = matrix_from_doc(doc.get("unitary"), "unitary")
    defect = np.linalg.norm(unitary.conj().T @ unitary - np.eye(unitary.shape[0]))
    if defect > DOCUMENT_UNITARITY_TOL:
        raise DocumentError("unitary: matrix is not unitary", "unitary")
    out: dict[str, Any] = {
        "kind": kind,
        "unitary": unitary,
        "aux_modes": _int_from_doc(doc.get("aux_modes", 0), "aux_modes", 0),
        "success_probability": _probability_from_doc(doc.get("success_probability")),
        "target": matrix_from_doc(doc.get("target"), "target"),
    }
    herald = doc.get("herald")
    if herald is not None:
        if not isinstance(herald, dict) or "signal" not in herald:
            raise DocumentError("herald.signal: missing", "herald.signal")
        signal = herald["signal"]
        # empty for two photons, which need no herald
        if not (isinstance(signal, list) and all(_is_int_at_least(s, 1) for s in signal)):
            raise DocumentError(
                f"herald.signal: expected a list of positive integers, got {signal!r}",
                "herald.signal",
            )
        out["herald"] = HeraldPattern(signal=tuple(signal))
    else:
        out["herald"] = None
    if doc.get("input_state") is not None:
        out["input_state"] = matrix_from_doc(doc["input_state"], "input_state")
    for key, minimum in (("n", 2), ("photons", 2), ("payload_modes", 1)):
        if key in doc:
            out[key] = _int_from_doc(doc[key], key, minimum)
    if "phi" in doc:
        phi = doc["phi"]
        if not _is_finite_number(phi):
            raise DocumentError(f"phi: expected a finite number, got {phi!r}", "phi")
        out["phi"] = phi
    if kind == "postselect" and "input_state" not in out:
        raise DocumentError("input_state: required for postselect documents", "input_state")
    if kind == "herald" and "photons" not in out:
        raise DocumentError("photons: required for herald documents", "photons")
    if kind == "cnz":
        if "n" not in out or "phi" not in out:
            raise DocumentError("n/phi: required for cnz documents", "n")
    return out


def load_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def dump_json(doc: Any, path: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")
