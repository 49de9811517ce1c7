"""The log of the regularized lower incomplete gamma function, the building
block of the exact-Bayes shrinkage formula for equal variances."""

from __future__ import annotations

import functools
import importlib
import math


@functools.cache
def _special():  # scipy.special on first use: `import shrinkfit` loads no SciPy
    return importlib.import_module("scipy.special")


def log_lower_regularized_gamma(a: float, x: float) -> float:
    """log P(a, x), finite even where P itself underflows (x much below a).

    Below x = a + 1 it is a log x - x - log Gamma(a + 1) + log 1F1(1; a + 1; x),
    the series of P with its prefactor in log space; above, log gammainc(a, x).
    """
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return -math.inf
    if x < a + 1.0:
        log_series = math.log(_special().hyp1f1(1.0, a + 1.0, x))
        return a * math.log(x) - x - math.lgamma(a + 1.0) + log_series
    return math.log(_special().gammainc(a, x))
