"""Posterior means, variances, and Normal-approximation intervals for the
random effects, given a fitted ShrinkagePosterior."""

from __future__ import annotations

import numpy as np

from .density import beta_and_projection_diag
from .model import RandomEffectPosterior, ShrinkagePosterior, TwoLevelData

DEFAULT_Z = 1.96  # nominal 95% two-sided


def random_effects(
    data: TwoLevelData,
    shr: ShrinkagePosterior,
    z_star: float = DEFAULT_Z,
) -> RandomEffectPosterior:
    """Random-effect moments from the fitted shrinkages, shrinking toward
    the data's own Level-2 means: X beta_hat when r >= 1, the known means
    data.mu when r = 0, the same means `shr` was fitted with.

    theta_hat_i = (1 - B_i) y_i + B_i * fitted mean, and

        s_i^2 = (1 - (1 - p_ii) B_i) V_i + v_i (y_i - yhat_i)^2

    where yhat_i is the fitted mean and p_ii the projection diagonal at
    A_hat (p_ii = 0 when r = 0).  The second term carries the uncertainty
    in the shrinkage itself; plug-in fits (v = 0) omit it, which is what
    makes their intervals too short.  The regression weights
    (beta_hat and p_ii) are frozen at A_hat: exact for equal variances, where
    they do not depend on A, and a good approximation otherwise since their
    relative variation dies off like 1/k.  Intervals are the Normal
    approximation theta_hat +- z_star * s (no skew correction).
    """
    if not 0.0 < z_star < np.inf:
        raise ValueError("z_star must be finite and positive")
    if data.r >= 1:
        beta, p_diag = beta_and_projection_diag(shr.A_hat, data)
        mean = data.X @ beta
    else:
        beta, p_diag, mean = np.empty(0), 0.0, data.mu
    theta, s2 = shrunken_moments(data.y, data.V, shr.B_hat, shr.v, mean, p_diag)
    half = z_star * np.sqrt(s2)
    return RandomEffectPosterior(
        theta_hat=theta,
        s2=s2,
        beta_hat=beta,
        lo=theta - half,
        hi=theta + half,
        z_star=z_star,
    )


def shrunken_moments(y, V, B, v, mean, p_diag=0.0) -> tuple[np.ndarray, np.ndarray]:
    """theta_hat and s2 (floored at 0) of random_effects from the shrinkage
    moments B, v, the fitted Level-2 means and the projection diagonal p_ii
    (0 when r = 0); every argument broadcasts, so a leading axis may run
    over replications."""
    theta = (1.0 - B) * y + B * mean
    s2 = (1.0 - (1.0 - p_diag) * B) * V + v * (y - mean) ** 2
    return theta, np.maximum(s2, 0.0)

