"""Detail decay across levels and stability of both transform directions.

For data sampled from a C^1 periodic function the level-l differences decay
like 2^-l (up to the one-norm of the inverse filter per step), and details
inherit that rate through the moment constants.  Interpolatory masks give
depth-independent bounds; non-interpolatory ones trade a larger constant for
the same rate.
"""

import numpy as np

from evenrev import (
    bspline_mask,
    dd_mask,
    decay_report,
    decompose,
    decomposition_stability_experiment,
    reconstruction_stability_experiment,
)

for name, mask in (("cubic spline", bspline_mask(4)), ("4-point interpolatory", dd_mask(2))):
    report = decay_report("sine", 10, 2, mask)
    print(f"{name}: f(t) = sin(2 pi t), 10 levels")
    print(f"  constants: ||g||_1 = {report.constants['gamma_norm1']:.6f}, "
          f"K_combined = {report.constants['k_combined']:.6f}")
    print(f"  {'level':>5} {'|diff|':>12} {'diff bound':>12} {'|detail|':>12} {'detail bound':>12}")
    for row in report.rows:
        if row.level % 2 == 0 and row.level > 0:
            print(
                f"  {row.level:>5} {row.delta_norm:12.3e} {row.bound_delta:12.3e} "
                f"{row.detail_norm:12.3e} {row.bound_detail:12.3e}"
            )
    print()

mask = bspline_mask(4)
print("Decomposition stability, cubic mask, 100 seeded trials each:")
for p in ("inf", 2):
    rep = decomposition_stability_experiment(mask, p=p, trials=100, seed=42)
    margin = max(t.measured / t.bound for t in rep.trials if t.bound > 0)
    print(
        f"  p={p:>3}: decimation-step norm {rep.constants['decimation_norm']:.4f}, "
        f"all bounds hold: {rep.all_ok}, worst measured/bound = {margin:.3f}"
    )

rng = np.random.default_rng(9)
pyr = decompose(rng.uniform(-1, 1, 256), mask, 6)
rep = reconstruction_stability_experiment(mask, pyr, 1e-3, 100, seed=11)
k_sub = rep.constants["sup_norm"]  # estimated from the iterated masks
print(f"\nReconstruction stability with estimated sup-norm constant {k_sub:.4f}:")
print(f"  100 trials at amplitude 1e-3, all bounds hold: {rep.all_ok}")
worst = max(t.measured for t in rep.trials)
print(f"  largest output deviation {worst:.3e} vs budget {rep.trials[0].bound:.3e}")
