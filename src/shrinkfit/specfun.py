"""Special functions: ndtr, the Normal CDF the coverage scoring evaluates, in
numpy; and log P(a, x) of the regularized lower incomplete gamma function,
which no module of the package calls but the benchmark's tracer wraps, the
one function here that uses SciPy."""

import math

import numpy as np

# Cephes' ndtr (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the algorithm scipy.special.ndtr evaluates. Each pair is
# (numerator, monic denominator) of a rational function, highest degree
# first, with the denominator's leading 1 left out (_polevl, _p1evl):
# erfc(z) = exp(-z^2) P(z)/Q(z) for 1 <= z < 8 and exp(-z^2) R(z)/S(z) from 8
# up, and erf(x) = x T(x^2)/U(x^2) for |x| < 1.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2  # erfc(z) is taken as 0 where z^2 exceeds it
_SQRT1_2 = 0.70710678118654752440
_BLOCK = 8192  # elements per block of ndtr


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """coef[0] x^n + ... + coef[n] by Horner's rule, as Cephes' polevl."""
    acc = coef[0] * x
    acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """x^n + coef[0] x^(n-1) + ... + coef[n-1], as Cephes' p1evl."""
    acc = x + coef[0]
    for c in coef[1:]:
        acc *= x
        acc += c
    return acc


def ndtr(a) -> np.ndarray:
    """The standard Normal CDF at every element of `a`, an array of a's shape.

    Cephes' ndtr with its operations in order: 0.5 + 0.5 erf(a/sqrt 2) where
    |a|/sqrt 2 < 1, else 0.5 erfc(|a|/sqrt 2), or 1 minus it for positive a.
    It is within 4 ulp of scipy.special.ndtr, and most values are the same
    bits. Far tails give 0 and 1 with no warning, and NaN stays NaN. The
    elements go through in blocks of _BLOCK, so that the temporaries of a
    block stay small and in cache, however large `a` is.
    """
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    y = np.empty(flat.size)
    with np.errstate(all="ignore"):
        for i in range(0, flat.size, _BLOCK):
            _ndtr_block(flat[i:i + _BLOCK], y[i:i + _BLOCK])
    return y.reshape(a.shape)


def _ndtr_block(a: np.ndarray, y: np.ndarray) -> None:
    """ndtr of the 1-d a into y. The erf branch and the R/S branch, with the
    underflow of erfc to 0 beyond z^2 = _MAXLOG, run only on the elements
    that need them."""
    x = a * _SQRT1_2
    z = np.abs(x)
    zz = z * z
    np.exp(-zz, out=y)
    y *= _polevl(z, _P)
    y /= _p1evl(z, _Q)
    far = z >= 8.0
    if far.any():
        zf, zzf = z[far], zz[far]
        erfc = np.exp(-zzf) * _polevl(zf, _R) / _p1evl(zf, _S)
        y[far] = np.where(zzf > _MAXLOG, 0.0, erfc)
    y *= 0.5
    np.subtract(1.0, y, out=y, where=x > 0.0)
    near = z < 1.0
    if near.any():
        xn = x[near]
        xx = xn * xn
        y[near] = 0.5 + 0.5 * (xn * _polevl(xx, _T) / _p1evl(xx, _U))


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
