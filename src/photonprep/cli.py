"""Command-line front end.

One verb per construction: ``rank``, ``takagi``, ``synth-postselect``,
``synth-herald``, ``gate-cnz``, ``verify``, ``selftest``. All inputs and
outputs are the JSON documents from :mod:`photonprep.io`; results go to
stdout (valid JSON) unless ``--output`` is given, diagnostics to stderr.
No verb takes a tolerance: every threshold is fixed in
:mod:`photonprep.tolerances`, the same as in the library.

Exit codes: 0 success, 1 infeasible, 2 input error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import gates, herald, io, postselect, selftest, verify
from .exceptions import DocumentError, InfeasibleRank, PhotonPrepError, VerificationFailure
from .linalg import takagi
from .verify import SynthesisResult
from .states import QuditTarget, TwoPhotonState, normalize, state_rank

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _load_matrix(path: str, field: str) -> np.ndarray:
    return io.matrix_from_doc(io.load_json(path), field)


def _load_state(path: str) -> TwoPhotonState:
    return normalize(_load_matrix(path, "state"))


def _load_target(path: str) -> QuditTarget:
    C = _load_matrix(path, "target")
    # scaled by its largest entry first, as normalize does, so the norm
    # neither overflows nor underflows
    peak = np.max(np.abs(C), initial=0.0)
    if peak == 0:
        raise DocumentError("target: zero matrix", "target")
    C = C / peak
    return QuditTarget(C / np.linalg.norm(C))


def cmd_rank(args) -> int:
    # the rank of the normalized (symmetrized) state, as every synth-* verb sees it
    print(state_rank(_load_state(args.state)))
    return EXIT_OK


def cmd_takagi(args) -> int:
    M = _load_matrix(args.input, "input")
    fac = takagi(M)
    io.dump_json(
        {"V": io.matrix_to_doc(fac.V), "D": io.matrix_to_doc(fac.D)}, args.output
    )
    return EXIT_OK


def cmd_synth_postselect(args) -> int:
    state_in = _load_state(args.state)
    target = _load_target(args.target)
    result = postselect.synthesize_postselect(state_in, target)
    doc = io.synthesis_to_doc(
        result,
        "postselect",
        target.C,
        input_state=io.matrix_to_doc(state_in.S),
    )
    io.dump_json(doc, args.output)
    return EXIT_OK


def cmd_synth_herald(args) -> int:
    state_out = _load_state(args.target)
    result = herald.synthesize_herald(state_out, args.photons)
    doc = io.synthesis_to_doc(
        result,
        "herald",
        state_out.S,
        photons=args.photons,
        payload_modes=state_out.modes,
    )
    io.dump_json(doc, args.output)
    return EXIT_OK


def cmd_gate_cnz(args) -> int:
    gates._check_table_size(args.n)  # every printed gate is verified
    result, _ = gates.build_cnz(args.n, args.phi)
    if not gates.verify_cnz(result, args.n, args.phi):
        raise VerificationFailure("constructed gate failed the oracle check")
    target = np.eye(2**args.n, dtype=complex)
    target[-1, -1] = np.exp(1j * args.phi)
    doc = io.synthesis_to_doc(result, "cnz", target, n=args.n, phi=args.phi)
    io.dump_json(doc, args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    decoded = io.synthesis_from_doc(io.load_json(args.input))
    kind = decoded["kind"]
    U = decoded["unitary"]
    target = decoded["target"]
    out = {"kind": kind}
    if kind == "cnz":
        p = decoded["success_probability"]
        result = SynthesisResult(
            unitary=U, aux_modes=decoded["aux_modes"], scale_alpha=1.0, success_probability=p
        )
        ok = gates.verify_cnz(result, decoded["n"], decoded["phi"])
        out.update(verified=ok, success_probability=p)
    else:
        if kind == "postselect":
            d1, d2 = target.shape
            state_in = normalize(decoded["input_state"])
            report = verify.extract_postselected(U, state_in, d1, d2, target=target)
        else:  # herald
            n, m = decoded["photons"], decoded["payload_modes"]
            report = verify.extract_heralded(U, n, decoded["herald"], m, target=target)
        ok = report.verified
        out.update(verified=ok, success_probability=report.probability)
        out["fidelity"] = report.fidelity_vs_target
    io.dump_json(out, args.output)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_selftest(args) -> int:
    rows = selftest.run_all(args.seed)
    width = max(len(name) for name, _, _ in rows)
    for name, passed, detail in rows:
        verdict = "PASS" if passed else "FAIL"
        print(f"{name:<{width}}  {verdict}  {detail}", file=sys.stderr)
    all_passed = all(passed for _, passed, _ in rows)
    io.dump_json(
        {
            "criteria": [
                {"name": name, "passed": passed, "detail": detail}
                for name, passed, detail in rows
            ],
            "passed": all_passed,
        },
        args.output,
    )
    return EXIT_OK if all_passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonprep",
        description="Synthesis and verification of two-photon linear-optical circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", default=None, help="output path (default: stdout)")

    p = sub.add_parser("rank", help="rank of a state matrix")
    p.add_argument("--state", required=True)
    common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("takagi", help="Takagi factorization of a symmetric matrix")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=cmd_takagi)

    p = sub.add_parser("synth-postselect", help="post-selected two-qudit preparation")
    p.add_argument("--state", required=True, help="input two-photon state JSON")
    p.add_argument("--target", required=True, help="target two-qudit matrix JSON")
    common(p)
    p.set_defaults(func=cmd_synth_postselect)

    p = sub.add_parser("synth-herald", help="heralded two-photon preparation")
    p.add_argument("--target", required=True, help="target state matrix JSON")
    p.add_argument("--photons", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_synth_herald)

    p = sub.add_parser("gate-cnz", help="generalized controlled-phase gate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--phi", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_gate_cnz)

    p = sub.add_parser("verify", help="re-verify a synthesis document")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=selftest.DEFAULT_SEED)
    common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleRank as exc:
        _err(f"infeasible: {exc}")
        return EXIT_INFEASIBLE
    except ValueError as exc:
        _err(str(exc))
        return EXIT_INPUT
    except VerificationFailure as exc:
        _err(f"verification failed: {exc}")
        return EXIT_VERIFY
    except PhotonPrepError as exc:
        _err(str(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
