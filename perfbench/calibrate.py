"""Calibration loop: a fixed piece of work shaped like rislab's, sharing no
code with it, whose wall time tracks the host's current speed.

The host's speed drifts by up to 2x over tens of seconds, and a tight loop
slows less than rislab does, so the loop copies rislab's mix instead: a
one-hot history encoding filled from Python, a 3-layer LSTM stack stepped
slot by slot on tiny arrays, and a ray-by-ray channel with an eigenvalue
rate, at desk or at paper sizes. All of it is this directory's own code
(the channel and encoding come from checks.py) on fixed synthetic inputs.
"""

from __future__ import annotations

import math
import time

import numpy as np

import checks

NOMINAL_S = 0.1      # about the loop's wall time on an idle host
_REPEATS = 110
_PAPER_REPEATS = 20


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _inputs():
    rng = np.random.default_rng(0)
    layers = []
    fan = 17
    for width in (16, 8, 4):
        layers.append((rng.normal(scale=0.3, size=(4 * width, fan)),
                       rng.normal(scale=0.3, size=(4 * width, width)),
                       np.zeros(4 * width)))
        fan = width
    entries = [((7 * k) % 16, 0.05 * k) for k in range(16)]
    rays = [(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi),
             complex(*rng.normal(size=2))) for _ in range(9)]
    return layers, entries, rays


def _lstm(layers, seq):
    for w, u, b in layers:
        width = b.size // 4
        h, c, out = np.zeros(width), np.zeros(width), []
        for x in seq:
            z = x @ w.T + h @ u.T + b
            i, f, o = _sigmoid(z[:width]), _sigmoid(z[width:2 * width]), _sigmoid(z[3 * width:])
            c = f * c + i * np.tanh(z[2 * width:3 * width])
            h = o * np.tanh(c)
            out.append(h)
        seq = out
    return seq[-1]


def _channel(rays, n_ap, n_ue, n_side):
    h = np.zeros((n_ap, n_ue), dtype=complex)
    for aod, aoa, gain in rays:
        h += gain * np.outer(checks._ula(aod, n_ap), checks._ula(aoa, n_ue).conj())
    g = np.zeros((n_side * n_side, n_ue), dtype=complex)
    for aod, aoa, gain in rays[:3]:
        g += gain * np.outer(checks._upa(aod, 1.2, n_side, n_side), checks._ula(aoa, n_ue).conj())
    return checks.eig_rate(h + (h[:, :1] @ g[:1]), 1.0, 1e9, 1e-12)


def calibration_seconds(mix: str = "desk") -> float:
    """Wall time of the calibration loop. "desk" mixes tiny-array LSTM
    steps with a desk-sized channel (8 x 4, 4 x 4 panels); "paper" spends
    half of it on the channel at the paper's sizes (128 x 64, 8 x 8 panels)
    instead, the mix of the workload that runs no policy."""
    layers, entries, rays = _inputs()
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(_PAPER_REPEATS if mix == "paper" else 0):
        acc += _channel(rays, 128, 64, 8)
    for _ in range(_REPEATS // 2 if mix == "paper" else _REPEATS):
        acc += float(_lstm(layers, checks.encode_own(entries, 16, 16)).sum())
        acc += _channel(rays, 8, 4, 4)
    return time.perf_counter() - t0
