"""Shared test helpers: finite-difference oracles and random parameter
points. Not named conftest.py: perfbench/tests has a conftest of its own, and
one pytest run collects both directories."""

import numpy as np

from rislab.policy import PolicyParams, n_params, param_layout


def fd_gradient(fun, values, step=1e-5):
    out = np.zeros(values.size)
    for k in range(values.size):
        up = values.copy()
        up[k] += step
        down = values.copy()
        down[k] -= step
        out[k] = (fun(up) - fun(down)) / (2 * step)
    return out


def max_rel_err(a, b):
    # floor keyed to the gradient scale: below it, finite-difference roundoff
    # dominates and the comparison is effectively absolute
    floor = 1e-5 * max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / den))


def random_params(arch, rng, scale=0.6):
    """Random parameter point with randomized biases, keeping the relu
    pre-activations off their kinks (central differences break at a kink)."""
    return PolicyParams(values=rng.uniform(-scale, scale, size=n_params(arch)),
                        layout=param_layout(arch))


def differentiable_at(cache, margin=1e-3):
    return all(float(np.min(np.abs(pre))) > margin for _, pre, _ in cache.trunk)
