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
and equals 1 while the upper bound is infinite.
"""

from __future__ import annotations

import json
import math

WEIGHT_CAP = 1e12
FULL_ALLOC_RTOL = 1e-12


def confidence_radius_f(r_max: float, v2: float, delta: float) -> float:
    """Self-normalized deviation bound for the weighted sums.

    f(R, V^2, delta) with delta_0 = delta / (3 (R+1)^2 (V^2+1)^2):

        (R+1)/3 * log(2/delta_0)
        + sqrt(2 (V^2+1) log(2/delta_0) + ((R+1)/3)^2 log^2(2/delta_0))

    Strictly increasing in both R and V^2. Natural logarithm throughout.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if r_max < 0 or v2 < 0:
        raise ValueError("r_max and v2 must be non-negative")
    r1 = r_max + 1.0
    log_term = math.log(2.0 * 3.0 * r1 * r1 * (v2 + 1.0) * (v2 + 1.0) / delta)
    a = r1 / 3.0 * log_term
    return a + math.sqrt(2.0 * (v2 + 1.0) * log_term + a * a)


class EstimatorState:
    """Mutable per-job confidence state. One owner per job; updates are
    strictly sequential. Distinct jobs' states are independent."""

    __slots__ = (
        "lower_recip",
        "upper_recip",
        "sum_wx",
        "sum_wm",
        "r_max",
        "t",
        "delta",
        "full_alloc_steps",
        "weighted",
        "weight_capped",
        "collapsed",
    )

    def __init__(self, nu_lower0: float, delta: float, weighted: bool = True):
        if not (nu_lower0 > 0 and math.isfinite(nu_lower0)):
            raise ValueError(f"initial lower bound must be positive and finite, got {nu_lower0}")
        if not (0.0 < delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        self.lower_recip = 1.0 / nu_lower0
        self.upper_recip = 0.0
        self.sum_wx = 0.0
        self.sum_wm = 0.0
        self.r_max = 0.0
        self.t = 0
        self.delta = delta
        self.full_alloc_steps = 0
        self.weighted = weighted
        # Diagnostics: weight hit the numerical cap / interval would have
        # inverted (possible only when coverage has already failed).
        self.weight_capped = False
        self.collapsed = False

    @property
    def nu_lower(self) -> float:
        return 1.0 / self.lower_recip

    @property
    def nu_upper(self) -> float:
        return math.inf if self.upper_recip == 0.0 else 1.0 / self.upper_recip

    def width(self) -> float:
        """Interval width in reciprocal space: lower_recip - upper_recip."""
        return self.lower_recip - self.upper_recip

    def update(self, m: float, x: int) -> "EstimatorState":
        """Fold in one (allocation, outcome) sample and tighten the interval.

        Requires 0 < m <= nu_lower (the policy never allocates past its
        own lower bound). The weight uses the pre-update upper bound; the
        variance proxy uses the pre-update lower bound against the full
        weighted mass. O(1) per call. Mutates and returns self.
        """
        lower_prev = self.lower_recip
        nu_lower_prev = 1.0 / lower_prev
        if not m > 0.0:
            raise ValueError(f"allocation must be positive, got {m}")
        if m > nu_lower_prev * (1.0 + FULL_ALLOC_RTOL):
            raise ValueError(
                f"allocation {m} exceeds the current lower bound {nu_lower_prev}"
            )
        if x not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {x}")

        if self.weighted:
            mu = m * self.upper_recip
            if mu >= 1.0 - 1e-12:
                w = WEIGHT_CAP
                self.weight_capped = True
            else:
                w = 1.0 / (1.0 - mu)
        else:
            w = 1.0

        self.sum_wx += w * x
        self.sum_wm += w * m
        if w > self.r_max:
            self.r_max = w
        self.t += 1

        v2 = self.sum_wm * lower_prev
        radius = confidence_radius_f(self.r_max, v2, self.delta) / self.sum_wm
        recip_hat = self.sum_wx / self.sum_wm
        lower_new = recip_hat + radius
        if lower_new > lower_prev:
            lower_new = lower_prev
        upper_new = recip_hat - radius
        if upper_new < self.upper_recip:
            upper_new = self.upper_recip
        if upper_new > lower_new:
            upper_new = lower_new
            self.collapsed = True
        self.lower_recip = lower_new
        self.upper_recip = upper_new

        if abs(m - nu_lower_prev) <= FULL_ALLOC_RTOL * nu_lower_prev:
            self.full_alloc_steps += 1
        return self

    def snapshot(self) -> str:
        """JSON snapshot of the whole state, flags included; doubles
        round-trip bit-exactly (shortest repr)."""
        return json.dumps(
            {
                "L": self.lower_recip,
                "U": self.upper_recip,
                "sum_wx": self.sum_wx,
                "sum_wm": self.sum_wm,
                "r_max": self.r_max,
                "t": self.t,
                "delta": self.delta,
                "T": self.full_alloc_steps,
                "weighted": self.weighted,
                "weight_capped": self.weight_capped,
                "collapsed": self.collapsed,
            }
        )

    @classmethod
    def from_snapshot(cls, text: str) -> "EstimatorState":
        doc = json.loads(text)
        state = cls.__new__(cls)
        state.lower_recip = float(doc["L"])
        state.upper_recip = float(doc["U"])
        state.sum_wx = float(doc["sum_wx"])
        state.sum_wm = float(doc["sum_wm"])
        state.r_max = float(doc["r_max"])
        state.t = int(doc["t"])
        state.delta = float(doc["delta"])
        state.full_alloc_steps = int(doc["T"])
        state.weighted = bool(doc["weighted"])
        state.weight_capped = bool(doc["weight_capped"])
        state.collapsed = bool(doc["collapsed"])
        return state
