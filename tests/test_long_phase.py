"""Full-size phase-transition grid; opt in with HYPERCLUST_RUN_LONG=1.

Reproduces the large study: n=210, K=3, d=3, alpha 0..120 step 3, beta
0..40 step 1, 5 trials per cell with spectral starts: 8405 trials in
about 105 CPU-s and 54 s wall on 2 processes of a 2-vCPU VM (the workers'
CPU time by ``resource.getrusage(RUSAGE_CHILDREN)`` around
``phase_transition``).  The driver fans out to all cores.
"""

import math
import os
import warnings

import pytest

from hyperclust.experiments import GridConfig, phase_transition

pytestmark = pytest.mark.skipif(
    os.environ.get("HYPERCLUST_RUN_LONG") != "1",
    reason="set HYPERCLUST_RUN_LONG=1 to run the full-size grid",
)


def test_full_grid_phase_transition(tmp_path):
    cfg = GridConfig.from_ranges(
        210,
        3,
        3,
        (0.0, 120.0, 3.0),
        (0.0, 40.0, 1.0),
        trials=5,
        init="spectral",
        base_seed=0,
        threads=os.cpu_count() or 1,
    )
    out = tmp_path / "phase_full.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows, ratios = phase_transition(cfg, out)
    assert len(rows) == len(cfg.alphas) * len(cfg.betas) * 5
    assert (tmp_path / "phase_full_threshold.csv").exists()

    # the transition: well above the boundary succeeds, well below fails
    boundary = 3 ** 2 * math.factorial(2)  # 18
    hi = lo = 0
    hi_n = lo_n = 0
    for (alpha, beta), ratio in ratios.items():
        if ratio is None:
            continue
        gap = (math.sqrt(alpha) - math.sqrt(beta)) ** 2
        if gap >= 2 * boundary:
            hi += ratio
            hi_n += 1
        elif gap <= boundary / 2:
            lo += ratio
            lo_n += 1
    assert hi_n and lo_n
    assert hi / hi_n >= 0.9
    assert lo / lo_n <= 0.2
