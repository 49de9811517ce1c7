"""Write mpmath values of the equal-variance exact posterior moments of B.

    python3 scripts/make_equal_exact_reference.py [OUT]

With n = m + 1 and a = n - c the posterior of B is p(B) ~ B^(a-1)
(1 - B)^(c-1) e^(-TB) on [0, 1], so E[B^j] = (a)_j/(n)_j M(a + j, n + j, -T)
/ M(a, n, -T), which by Kummer's transformation is (a)_j/(n)_j M(c, n + j, T)
/ M(c, n, T).  The script evaluates that at 50 significant digits and
takes Var B = E[B^2] - E[B]^2 there, where the cancellation costs at most
about 10 digits on this grid.

The grid was fixed before the first run:
- m in {0.5, 1, 4, 9, 49, 499, 4999, 49999};
- c in {0.1, 0.5, 1, 1.5}, or {0.5, 1} for m >= 4999, where c < m + 1 (at
  m = 0.5, c = 1.5 the posterior is improper);
- T in {0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1, 10} and (m + 1) times
  {0.5, 0.9, 0.97, 1, 1.03, 1.1, 2, 10}.

OUT defaults to tests/equal_exact_reference.json, which
tests/test_fitters.py reads.  A run takes about 15 s.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath

OUT = Path(__file__).resolve().parent.parent / "tests" / "equal_exact_reference.json"
M_VALUES = (0.5, 1.0, 4.0, 9.0, 49.0, 499.0, 4999.0, 49999.0)
T_FIXED = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0)
T_SCALED = (0.5, 0.9, 0.97, 1.0, 1.03, 1.1, 2.0, 10.0)


def moments(T: float, m: float, c: float) -> tuple[float, float]:
    """E[B] and Var B at 50 digits, rounded to floats."""
    with mpmath.workdps(50):
        T, c, n = mpmath.mpf(T), mpmath.mpf(c), mpmath.mpf(m) + 1
        a = n - c
        M = [mpmath.hyp1f1(c, n + j, T, maxterms=10**7) for j in range(3)]
        B = a / n * M[1] / M[0]
        B2 = a * (a + 1) / (n * (n + 1)) * M[2] / M[0]
        return float(B), float(B2 - B * B)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    out = Path(args[0]) if args else OUT
    rows = []
    for m in M_VALUES:
        for c in (0.5, 1.0) if m >= 4999 else (0.1, 0.5, 1.0, 1.5):
            if not c < m + 1.0:
                continue
            for T in T_FIXED + tuple((m + 1.0) * s for s in T_SCALED):
                rows.append(json.dumps([m, c, T, *moments(T, m, c)]))
    out.write_text('{"fields": ["m", "c", "T", "B", "v"], "digits": 50, "rows": [\n'
                   + ",\n".join(rows) + "\n]}\n")
    print(f"{len(rows)} rows -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
