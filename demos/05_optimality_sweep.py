"""Probing optimality of the synthesized feedback.

Perturbs the closed-loop control by u = Theta x + eps v for a library of
bounded adapted directions v and epsilon in {1, 0.1, 0.01}, evaluating every
arm on the same Brownian paths so Monte Carlo noise cancels in differences.
Three facts fall out: the cost gap is never meaningfully negative (one-sided
optimality), the epsilon-odd part of the gap is statistical noise (no
first-order direction of improvement), and the epsilon-even part scales
exactly quadratically (ratio 100 between eps = 0.1 and 0.01).  The arms come
from superposition (one zero-start response per direction); one arm per
direction is also simulated directly and must agree up to rounding.  The
responses and the direct arms step together in one pass that adds their
costs as it goes, so no arm's path history is kept.
"""

import numpy as np

from slqkit.evaluate import make_perturbations, optimality_sweep
from slqkit.feedback import synthesize
from slqkit.grid import make_grid, sample_brownian
from slqkit.problem import InitialCondition, scenario_example1
from slqkit.riccati import closed_form_example1


def main() -> None:
    grid = make_grid(1.0, 64)
    batch = sample_brownian(grid, 2000, seed=1)
    model = scenario_example1(1.0)
    sol = closed_form_example1(grid, batch)
    law = synthesize(sol, model)
    init = InitialCondition(0, np.array([1.0]))

    perts = make_perturbations(grid, batch, model.m)
    chosen = [perts[0], perts[7]]  # const_one and sign_w
    sweep = optimality_sweep(sol, law, model, init, batch, perturbations=chosen)

    print(f"{'perturbation':>14} {'eps':>6} {'J(u) - J(fb)':>14} "
          f"{'std err':>10} {'ok':>4}")
    for r in sweep.rows:
        print(f"{r.perturbation_id:>14} {r.epsilon:6.2f} {r.J_minus_Jfb:14.6f} "
              f"{r.std_err:10.2e} {str(r.gap_ok):>4}")
    print(f"\nmost negative gap: {sweep.min_gap:+.2e} "
          "(one-sided tolerance is 3 SE + 0.5 sqrt(h))")
    print("no first-order improvement direction:", sweep.first_order_ok)
    for pid, ratio in sweep.quad_ratios.items():
        print(f"even-gap ratio eps 0.1 vs 0.01 for {pid}: {ratio:.6f} "
              "(quadratic structure pins this at 100)")
    print(f"direct arms vs superposition: max relative deviation "
          f"{sweep.superposition_error:.1e} (bound 1e-10)")
    print("sweep verdict:", "PASS" if sweep.passed else "FAIL")


if __name__ == "__main__":
    main()
