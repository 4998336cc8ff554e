"""The exact-recovery threshold at several (d, K).

The paper claims exact recovery down to the information-theoretic limit
(sqrt(alpha) - sqrt(beta))^2 = T = K^(d-1) (d-1)! for every d >= 2 and
K >= 2.  Each grid here applies the desk-scale phase-transition rule of the
acceptance suite to one (d, K): spectral starts, 20 trials per cell,
beta = T/8, a success ratio of at least 0.9 where the gap is at least 2T and
at most 0.5 where it is at most T/2.  The base seed was fixed before any
result was seen.
"""

import math
import warnings

import pytest

from hyperclust.experiments import GridConfig, phase_transition

GAPS = (0.25, 0.5, 2.0, 4.0)  # in units of T


@pytest.mark.parametrize("d, K, n", [(3, 2, 120), (3, 3, 120), (4, 2, 120), (4, 3, 96)])
def test_success_ratio_crosses_the_threshold(d, K, n):
    T = K ** (d - 1) * math.factorial(d - 1)
    beta = T / 8
    alphas = tuple((math.sqrt(beta) + math.sqrt(gap * T)) ** 2 for gap in GAPS)
    cfg = GridConfig(n, d, K, alphas, (beta,), trials=20, init="spectral", base_seed=2031)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # capped-eigensolver notices below the limit
        _, ratios = phase_transition(cfg)
    by_gap = {gap: ratios[alpha, beta] for gap, alpha in zip(GAPS, alphas)}
    assert None not in by_gap.values(), f"skipped cells: {by_gap}"
    assert all(ratio >= 0.9 for gap, ratio in by_gap.items() if gap >= 2), by_gap
    assert all(ratio <= 0.5 for gap, ratio in by_gap.items() if gap <= 0.5), by_gap
