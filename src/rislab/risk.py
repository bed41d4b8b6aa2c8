"""Risk-sensitive episodic objective: exponential-utility form, its
mean-minus-variance surrogate, and the policy-gradient weights, the one
formula every gradient in the trainer and its harnesses uses.

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


def gradient_weight(returns, ret_mean: float, mu: float):
    """Score-function weight (1 + mu*R_mean) R - (mu/2) R^2 of episodic
    returns R, the gradient of mean(R) - (mu/2) Var(R); elementwise when
    `returns` is an array."""
    return (1.0 + mu * ret_mean) * returns - 0.5 * mu * returns * returns
