"""Success-ratio grid over (alpha, beta): the phase transition.

Runs a reduced grid (a few cells, 10 trials each) and prints the pivoted
success-ratio matrix next to the analytic recovery boundary
(sqrt(alpha) - sqrt(beta))^2 = K^(d-1) (d-1)!.  Ratios jump from 0 to 1 as
cells cross the boundary.

The full-size study (n=210, K=3, alpha 0..120 step 3, beta 0..40 step 1,
5 trials per cell) runs through the same driver; see the CLI:

    hyperclust phase --n 210 --k 3 --alpha-range 0:120:3 --beta-range 0:40:1 \
        --trials 5 --init spectral --seed 0 --threads 8 --out phase.csv
"""

import math
import warnings

from hyperclust.experiments import GridConfig, phase_transition, threshold_curve

n, d, K = 120, 3, 2
cfg = GridConfig(
    n=n,
    d=d,
    K=K,
    alphas=(5.0, 15.0, 25.0, 35.0, 45.0),
    betas=(2.0, 8.0),
    trials=10,
    init="spectral",
    base_seed=1,
)

with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # near-tied cells may hit the eigensolver's cap
    rows, ratios = phase_transition(cfg)

boundary = K ** (d - 1) * math.factorial(d - 1)
print(f"recovery boundary: (sqrt(a) - sqrt(b))^2 = {boundary}")
header = "alpha\\beta" + "".join(f"{b:>8g}" for b in cfg.betas)
print(header)
for alpha in cfg.alphas:
    cells = "".join(f"{ratios[(alpha, beta)]:>8.2f}" for beta in cfg.betas)
    print(f"{alpha:>10g}{cells}")

print("\nthreshold curve points (alpha, beta):")
for alpha, beta in threshold_curve(cfg.alphas, d, K):
    print(f"  ({alpha:g}, {beta:.2f})")
