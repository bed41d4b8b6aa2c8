"""Risk-sensitive episodic objective: exponential-utility form, its
mean-minus-variance surrogate, and the per-sample policy-gradient weights.

Note on signs: the literal exponential objective (1/mu) log E[exp(-mu R)] is
decreasing in R, so the trainer maximizes the second-order surrogate
mean(R) - (mu/2) Var(R) instead, which is what the closed-form gradient is
derived from. `evar_literal` is kept as a diagnostic; for small mu it equals
-surrogate_return up to O(mu^2).
"""

from __future__ import annotations

import numpy as np


def evar_literal(returns, mu: float) -> float:
    """(1/mu) log mean(exp(-mu R)), stabilized by max-shift (log-sum-exp)."""
    r = np.asarray(returns, dtype=float)
    if r.size == 0:
        raise ValueError("returns must be nonempty")
    if mu <= 0.0:
        raise ValueError("mu must be > 0; use surrogate_return for mu = 0")
    z = -mu * r
    m = np.max(z)
    return float((m + np.log(np.mean(np.exp(z - m)))) / mu)


def surrogate_return(returns, mu: float) -> float:
    """Second-order expansion mean(R) - (mu/2) Var(R), population variance."""
    r = np.asarray(returns, dtype=float)
    if r.size == 0:
        raise ValueError("returns must be nonempty")
    return float(np.mean(r) - 0.5 * mu * np.var(r))


def gradient_weight(ret: float, ret_mean: float, mu: float,
                    eq14_literal: bool = False) -> float:
    """Score-function weight for one episodic return.

    Default: (1 + mu*R_mean) R - (mu/2) R^2, the form the surrogate's
    gradient expands to. `eq14_literal` switches both risk signs, i.e.
    (1 - mu*R_mean) R + (mu/2) R^2, for replication of the printed
    sample-based update rule.
    """
    if eq14_literal:
        return (1.0 - mu * ret_mean) * ret + 0.5 * mu * ret * ret
    return (1.0 + mu * ret_mean) * ret - 0.5 * mu * ret * ret
