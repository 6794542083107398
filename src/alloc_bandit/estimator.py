"""Weighted reciprocal estimator with monotone confidence intervals.

For a single job the estimator tracks an interval [nu_lower, nu_upper]
containing the difficulty cut-off with high probability. All state lives
in reciprocal space: ``lower_recip = 1/nu_lower`` and ``upper_recip =
1/nu_upper`` (0 encodes an infinite upper bound), which keeps the
arithmetic free of infinities and matches the clamp updates

    lower_recip_t = min(lower_recip_{t-1}, recip_hat + radius)
    upper_recip_t = max(upper_recip_{t-1}, recip_hat - radius)

where ``recip_hat = sum_s w_s X_s / sum_s w_s M_s`` is the weighted
reciprocal estimate. The sample weight ``w = 1 / (1 - M / nu_upper)``
upweights allocations near the cut-off, whose outcomes carry low variance,
and equals 1 while the upper bound is infinite. The radius is
``confidence_radius_f(r_max, v2, delta) / sum_wm``, which ``update``
computes inline so that a sample costs one call; the tests pin that copy
to ``confidence_radius_f`` bit for bit.

The state holds only what the policy reads; the regret analysis's counts
(updates t, fully allocated steps T) live with the test oracle.
"""

from __future__ import annotations

import math
from math import log, sqrt

WEIGHT_CAP = 1e12


def confidence_radius_f(r_max: float, v2: float, delta: float) -> float:
    """Self-normalized deviation bound for the weighted sums.

    f(R, V^2, delta) with delta_0 = delta / (3 (R+1)^2 (V^2+1)^2):

        (R+1)/3 * log(2/delta_0)
        + sqrt(2 (V^2+1) log(2/delta_0) + ((R+1)/3)^2 log^2(2/delta_0))

    Strictly increasing in both R and V^2. Natural logarithm throughout.
    The caller keeps the domain: delta in (0, 1) and R, V^2 >= 0 (the
    estimator calls this only with R >= 1 and V^2 > 0).
    """
    r1 = r_max + 1.0
    log_term = math.log(2.0 * 3.0 * r1 * r1 * (v2 + 1.0) * (v2 + 1.0) / delta)
    a = r1 / 3.0 * log_term
    return a + math.sqrt(2.0 * (v2 + 1.0) * log_term + a * a)


class EstimatorState:
    """Mutable per-job confidence state. One owner per job; updates are
    strictly sequential. Distinct jobs' states are independent. Nothing is
    checked here: the step kernel, the only caller, builds each state from
    a bound ``model._bounds`` accepted or a probe's 2^-t, and a delta in (0, 1)."""

    __slots__ = (
        "lower_recip",
        "upper_recip",
        "sum_wx",
        "sum_wm",
        "r_max",
        "delta",
        "weighted",
        "weight_capped",
        "collapsed",
    )

    def __init__(self, nu_lower0: float, delta: float, weighted: bool = True):
        self.lower_recip = 1.0 / nu_lower0
        self.upper_recip = 0.0
        self.sum_wx = 0.0
        self.sum_wm = 0.0
        self.r_max = 0.0
        self.delta = delta
        self.weighted = weighted
        # Diagnostics: weight hit the numerical cap / interval would have
        # inverted (possible only when coverage has already failed).
        self.weight_capped = False
        self.collapsed = False

    def update(self, m: float, x: int) -> None:
        """Fold in one (allocation, outcome) sample and tighten the interval.

        Requires 0 < m <= nu_lower (the policy never allocates past its
        own lower bound) and x in {0, 1}; nothing checks this. The weight
        uses the pre-update upper bound; the variance proxy uses the
        pre-update lower bound against the full weighted mass. The radius
        repeats ``confidence_radius_f``'s operations in the same order, so
        the two agree bit for bit. O(1) per call; mutates the state.
        """
        lower_prev = self.lower_recip
        upper_prev = self.upper_recip
        if self.weighted:
            mu = m * upper_prev
            if mu >= 1.0 - 1e-12:
                w = WEIGHT_CAP
                self.weight_capped = True
            else:
                w = 1.0 / (1.0 - mu)
            sum_wx = self.sum_wx + w * x
            sum_wm = self.sum_wm + w * m
        else:
            w = 1.0
            sum_wx = self.sum_wx + x
            sum_wm = self.sum_wm + m
        self.sum_wx = sum_wx
        self.sum_wm = sum_wm
        r_max = self.r_max
        if w > r_max:
            r_max = self.r_max = w

        # confidence_radius_f(r_max, v2, delta) with v1 = v2 + 1.
        v1 = sum_wm * lower_prev + 1.0
        r1 = r_max + 1.0
        log_term = log(2.0 * 3.0 * r1 * r1 * v1 * v1 / self.delta)
        a = r1 / 3.0 * log_term
        radius = (a + sqrt(2.0 * v1 * log_term + a * a)) / sum_wm
        recip_hat = sum_wx / sum_wm
        lower_new = recip_hat + radius
        if lower_new > lower_prev:
            lower_new = lower_prev
        upper_new = recip_hat - radius
        if upper_new < upper_prev:
            upper_new = upper_prev
        if upper_new > lower_new:
            upper_new = lower_new
            self.collapsed = True
        self.lower_recip = lower_new
        self.upper_recip = upper_new
