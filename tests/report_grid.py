"""A seeded grid of analyze inputs over every family and verdict.

Shared by the report writer's test (test_cli.py) and the scaling test of
AnalysisReport.at (test_freeboundary.py).  Each (H, B) pair takes H
log-uniform in [1e-6, 1e6] and B from one of five bands:

* B = 0, the cylinder;
* B log-uniform in [1e-15, 1), unduloids on both sides of the dichotomy;
* B within 1e-16 ... 1e-2 relative, or 0 ... 32 ulps, of the threshold
  B* = 0.7658950238720568 (README), where the verdict flips;
* B = 1 -+ 10^[-15, -1], both sides of the critical catenoid;
* B log-uniform in (1, 1e15], nodoids.
"""
import numpy as np

B_STAR = 0.7658950238720568
PER_BAND = 250


def report_inputs(seed: int = 2019) -> list[tuple[float, float]]:
    """5 * PER_BAND (H, B) pairs of valid input, in a fixed order."""
    rng = np.random.default_rng(seed)
    n = PER_BAND
    side = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    ulps = np.nextafter(B_STAR, 2.0) - B_STAR
    near_star = np.where(
        rng.random(n) < 0.5,
        B_STAR * (1.0 + side * 10.0 ** rng.uniform(-16.0, -2.0, n)),
        B_STAR + side * rng.integers(0, 33, n) * ulps)
    bands = [np.zeros(n),
             10.0 ** rng.uniform(-15.0, 0.0, n),
             near_star,
             1.0 + side * 10.0 ** rng.uniform(-15.0, -1.0, n),
             10.0 ** rng.uniform(0.0, 15.0, n)]
    bs = np.concatenate(bands)
    hs = 10.0 ** rng.uniform(-6.0, 6.0, bs.size)
    return list(zip(hs.tolist(), bs.tolist()))
