#!/usr/bin/env python3
"""Scan the C^{n-1}Z success probability over the phase phi.

For each requested photon number n, sweeps phi over (0, 2*pi), builds the
post-selected gate, re-verifies it through the Fock-amplitude oracle, and
prints a table of success probabilities. Useful for reproducing the known
reference points p_s(2, pi) = 1/9 and p_s(3, pi) ~ 0.01757.
"""

from __future__ import annotations

import argparse
import math

from photonprep import build_cnz, cnz_success_probability, verify_cnz


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--photons", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--steps", type=int, default=9, help="phi samples per curve")
    parser.add_argument(
        "--verify", action="store_true", help="rebuild and oracle-check each point"
    )
    args = parser.parse_args()

    failures = 0
    for n in args.photons:
        print(f"# C^{n - 1}Z on {n} photons")
        print(f"{'phi/pi':>8} {'p_s':>12} {'verified':>9}")
        for i in range(1, args.steps + 1):
            phi = 2.0 * math.pi * i / (args.steps + 1)
            p_s = cnz_success_probability(n, phi)
            status = "-"
            if args.verify:
                result, _ = build_cnz(n, phi)
                status = "ok" if verify_cnz(result, n, phi) else "FAIL"
                failures += status == "FAIL"
            print(f"{phi / math.pi:8.4f} {p_s:12.6f} {status:>9}")
        print()
    if failures:
        raise SystemExit(f"{failures} point(s) failed the oracle check")


if __name__ == "__main__":
    main()
