"""log P(a, x) of the regularized lower incomplete gamma function; no module
of the package calls it, but the benchmark's tracer wraps it."""

import math


def log_lower_regularized_gamma(a: float, x: float) -> float:
    """log P(a, x), finite even where P itself underflows (x much below a).

    Below x = a + 1 it is a log x - x - log Gamma(a + 1) + log 1F1(1; a + 1; x),
    the series of P with its prefactor in log space; above, log gammainc(a, x).
    """
    from scipy.special import gammainc, hyp1f1  # here, so that `import shrinkfit` skips SciPy
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return -math.inf
    if x < a + 1.0:
        return a * math.log(x) - x - math.lgamma(a + 1.0) + math.log(hyp1f1(1.0, a + 1.0, x))
    return math.log(gammainc(a, x))
