#!/usr/bin/env python3
"""Random end-to-end preparation experiment.

Draws random targets, runs both synthesizers (post-selected preparation from
a random input state, heralded preparation from single photons), and reports
the fidelity and success probability that the Fock-amplitude oracle read off
each returned circuit.
"""

from __future__ import annotations

import argparse

import numpy as np

from photonprep import QuditTarget, from_qudit_target, synthesize_herald, synthesize_postselect
from photonprep.random_states import random_state_of_rank, random_target_of_rank


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-dim", type=int, default=3, help="largest qudit dimension")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)

    print("# post-selected preparation: random input state -> random target")
    print(f"{'trial':>5} {'d1xd2':>6} {'rank':>4} {'fidelity':>10} {'p_s':>10}")
    ps_probs = []
    for t in range(args.trials):
        d1 = int(rng.integers(2, args.max_dim + 1))
        d2 = int(rng.integers(2, args.max_dim + 1))
        rank = int(rng.integers(1, min(d1, d2) + 1))
        target = random_target_of_rank(rng, d1, d2, rank)
        state_in = random_state_of_rank(rng, d1 + d2, int(rng.integers(rank, d1 + d2 + 1)))
        result = synthesize_postselect(state_in, target)
        report = result.report
        ps_probs.append(report.probability)
        print(
            f"{t:5d} {d1}x{d2:>4} {rank:4d} "
            f"{report.fidelity_vs_target:10.7f} {report.probability:10.6f}"
        )
    print(f"mean p_s = {np.mean(ps_probs):.6f}\n")

    print("# heralded preparation from single photons")
    print(f"{'trial':>5} {'modes':>5} {'rank':>4} {'n':>3} {'fidelity':>10} {'p_s':>10}")
    h_probs = []
    for t in range(args.trials):
        m = int(rng.integers(2, 2 * args.max_dim + 1))
        rank = int(rng.integers(1, m + 1))
        state_out = random_state_of_rank(rng, m, rank)
        n = max(2, rank)
        result = synthesize_herald(state_out, n)
        report = result.report
        h_probs.append(report.probability)
        print(
            f"{t:5d} {m:5d} {rank:4d} {n:3d} "
            f"{report.fidelity_vs_target:10.7f} {report.probability:10.6f}"
        )
    print(f"mean p_s = {np.mean(h_probs):.6f}")

    # a familiar fixed point: the two-qubit Bell pair (state rank 4, so 4 photons)
    bell = from_qudit_target(
        QuditTarget(np.array([[1.0, 0.0], [0.0, 1.0]]) / np.sqrt(2.0))
    )
    result = synthesize_herald(bell, 4)
    report = result.report
    print(
        f"\nBell pair from 4 photons: fidelity {report.fidelity_vs_target:.9f}, "
        f"p_s {report.probability:.6f}, herald signal {result.herald.signal}"
    )


if __name__ == "__main__":
    main()
