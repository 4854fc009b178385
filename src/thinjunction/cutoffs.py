"""Quintic smoothstep cutoffs used to glue the expansion regions."""

from __future__ import annotations

import numpy as np


class SmoothStep:
    """C^2 ramp: 0 for t <= lo, 1 for t >= hi, quintic in between."""

    def __init__(self, lo, hi):
        if not hi > lo:
            raise ValueError("need hi > lo")
        self.lo = float(lo)
        self.hi = float(hi)
        self.width = self.hi - self.lo

    def _t(self, x):
        # np.clip's values, without its dispatch cost on small arrays
        return np.minimum(np.maximum(
            (np.asarray(x, dtype=float) - self.lo) / self.width, 0.0), 1.0)

    @staticmethod
    def _ramp(t):
        return t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))

    def _slope(self, t):
        return 30.0 * t ** 2 * (1.0 - t) ** 2 / self.width

    def __call__(self, x):
        return self._ramp(self._t(x))

    def deriv(self, x):
        return self._slope(self._t(x))

    def value_slope(self, x):
        """(ramp, slope) at x from one clipped variable."""
        t = self._t(x)
        return self._ramp(t), self._slope(t)

    def deriv2(self, x):
        t = self._t(x)
        return 60.0 * t * (1.0 - t) * (1.0 - 2.0 * t) / self.width ** 2

    @property
    def support(self):
        """Interval where the derivatives are nonzero."""
        return self.lo, self.hi
