"""The interval-truncated Gaussian kernel that drives the estimator's
input channel, checked against a dense numpy quadrature across regimes.

Run from the repository root:  python demos/02_truncated_moments.py
"""

import math

import numpy as np

from permgamp import Interval, truncated_moments


def grid_moments(c, tau, iv, n=200_001):
    """Mean and variance of N(c, tau) on iv by the trapezoid rule on n nodes.
    The exponent is re-centred at its maximum over the nodes, which span only
    the part of iv where it stays within 800 of that maximum."""
    r = math.sqrt(1600.0 * tau + max(iv.lo - c, c - iv.hi, 0.0) ** 2)
    x = np.linspace(max(iv.lo, c - r), min(iv.hi, c + r), n)
    f = -((x - c) ** 2) / (2.0 * tau)
    w = np.exp(f - f.max())
    w[[0, -1]] *= 0.5
    mean = np.dot(w, x) / w.sum()
    return mean, np.dot(w, (x - mean) ** 2) / w.sum()


cases = [
    ("center inside",            0.5,   1.0,   Interval(0.0, 1.0)),
    ("flat limit (huge tau)",    0.0,   1e9,   Interval(-1.0, 1.0)),
    ("untruncated (tiny tau)",   5.0,   1e-8,  Interval(0.0, 10.0)),
    ("mild tail",                2.5,   0.25,  Interval(0.0, 1.0)),
    ("deep tail (20 sigma)",    21.0,   1.0,   Interval(0.0, 1.0)),
    ("narrow interval in tail", -390.0, 1e4,   Interval(-3.2, -3.15)),
]

print(f"{'case':<26} {'mean':>12} {'var':>12} {'|d mean|':>10} {'|d var|':>10}")
for name, c, tau, iv in cases:
    m, v = truncated_moments(c, tau, iv)
    qm, qv = grid_moments(c, tau, iv)
    print(f"{name:<26} {m:12.6f} {v:12.3e} {abs(m - qm):10.1e} {abs(v - qv):10.1e}")

# Far beyond quadrature reach the kernel stays finite and inside the box.
m, v = truncated_moments(1e9, 1.0, Interval(0.0, 1.0))
print(f"\n10^9 sigma out: mean {m:.9f} (inside (0,1)), var {v:.1e} (floored)")
