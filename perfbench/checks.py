"""Output checks, each built apart from the code it checks.

Every check returns a list of failure messages; an empty list is a pass.
The references here share no code with rislab's channel, rate, encoding or
gradient paths: steering vectors, path gains and the cascade are rebuilt
from the documented ray model, rates come from eigenvalues instead of
slogdet, and gradients are compared with central finite differences.
"""

from __future__ import annotations

import math

import numpy as np

C_LIGHT = 299_792_458.0


# ---------------------------------------------------------------------------
# probabilities and rates


def check_distributions(dists, tol: float = 1e-9) -> list[str]:
    """Each vector is finite, nonnegative and sums to one."""
    bad = []
    for k, d in enumerate(dists):
        d = np.asarray(d, dtype=float)
        if not (np.all(np.isfinite(d)) and np.all(d >= 0.0) and abs(d.sum() - 1.0) <= tol):
            bad.append(f"distribution {k} is not a probability vector: {d}")
    return bad


def check_rates_finite(rates) -> list[str]:
    r = np.asarray(rates, dtype=float)
    if np.all(np.isfinite(r)) and np.all(r >= 0.0):
        return []
    return [f"rate not finite or negative: {r[~(np.isfinite(r) & (r >= 0))][:3]}"]


def eig_rate(h: np.ndarray, tx_power: float, bandwidth: float, noise_density: float) -> float:
    """w * sum_i log2(1 + c * lambda_i), lambda from eigvalsh of the Gram matrix,
    c = q / (N_a w sigma^2)."""
    c = tx_power / (h.shape[0] * bandwidth * noise_density)
    gram = h @ h.conj().T if h.shape[0] <= h.shape[1] else h.conj().T @ h
    lam = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    return bandwidth * float(np.sum(np.log1p(c * lam))) / math.log(2.0)


def check_rate(h, budget, rate: float, rtol: float = 1e-8) -> list[str]:
    ref = eig_rate(np.asarray(h), budget.tx_power, budget.bandwidth, budget.noise_density)
    if abs(rate - ref) <= rtol * abs(ref) + 1e-12 * budget.bandwidth:
        return []
    return [f"rate {rate!r} differs from the eigenvalue rate {ref!r}"]


# ---------------------------------------------------------------------------
# channel: loop oracle of the ray model


def _ula(angle: float, n: int) -> np.ndarray:
    return np.array([np.exp(1j * ((n - 1) / 2.0 - k) * math.pi * math.cos(angle))
                     for k in range(n)])


def _upa(azimuth: float, elevation: float, n_h: int, n_v: int) -> np.ndarray:
    # element index kv * n_h + kh: vertical phase law cos(el), horizontal
    # cos(az) * sin(el)
    out = np.empty(n_h * n_v, dtype=complex)
    for kv in range(n_v):
        for kh in range(n_h):
            out[kv * n_h + kh] = np.exp(1j * math.pi * (
                ((n_v - 1) / 2.0 - kv) * math.cos(elevation)
                + ((n_h - 1) / 2.0 - kh) * math.cos(azimuth) * math.sin(elevation)))
    return out


def _path_gain(distance: float, freq: float, exponent: float) -> float:
    return (C_LIGHT / (2.0 * math.pi * freq)) ** 2 * distance ** (-exponent)


def _center(cell, size):
    return ((cell[0] + 0.5) * size, (cell[1] + 0.5) * size)


def _bearing(a, b, size):
    (ax, ay), (bx, by) = _center(a, size), _center(b, size)
    return math.atan2(by - ay, bx - ax)


def _distance(a, b, size):
    (ax, ay), (bx, by) = _center(a, size), _center(b, size)
    return max(math.hypot(bx - ax, by - ay), 0.5 * size)


def _wrap(angle):
    return math.atan2(math.sin(angle), math.cos(angle))


def oracle_channel(scn, state, beam: int, phase_idx) -> np.ndarray:
    """End-to-end N_a x N_u matrix of the ray model, assembled ray by ray and
    RIS element by RIS element.

    Each link has a LoS-capable ray (gain 1, elevation pi/2) plus n_rays - 1
    scattered rays that always take the NLoS exponent. Amplitude of a ray is
    gain * sqrt(rho), rho = (c / 2 pi f)^2 d^(-nu); rays leaving the AP are
    scaled by |a(beam)^H a(aod)| / N_a. Each RIS contributes
    H_ap_ris diag(exp(j phi)) H_ris_ue.
    """
    grid, geo, cfg = scn.grid, scn.geometry, scn.cfg
    size, user = grid.cell_size, state.user_cell
    beam_vec = _ula(scn.beams.angles[beam], geo.n_ap)

    def amplitude(blocked, gain, dist, aod, from_ap):
        nu = cfg.exponent_nlos if blocked else cfg.exponent_los
        amp = gain * math.sqrt(_path_gain(dist, cfg.carrier_freq, nu))
        if from_ap:
            amp *= abs(np.vdot(beam_vec, _ula(aod, geo.n_ap))) / geo.n_ap
        return amp

    def rays(link, los_blocked, los_aod, los_aoa):
        out = [(los_blocked, 1.0, los_aod, los_aoa, math.pi / 2)]
        for ell in range(cfg.n_rays - 1):
            out.append((True, complex(state.scatter_gains[link, ell]),
                        float(state.scatter_aod[link, ell]),
                        float(state.scatter_aoa[link, ell]),
                        float(state.scatter_elev[link, ell])))
        return out

    ap = grid.ap_cell
    h = np.zeros((geo.n_ap, geo.n_ue), dtype=complex)
    blocked = bool(scn.dark.dark[user[1], user[0]]) or bool(state.chain_blocked[0])
    dist = _distance(ap, user, size)
    for b, gain, aod, aoa, _el in rays(0, blocked, _bearing(ap, user, size),
                                       _wrap(_bearing(user, ap, size) - state.orientation)):
        h += amplitude(b, gain, dist, aod, True) * np.outer(
            _ula(aod, geo.n_ap), _ula(aoa, geo.n_ue).conj())

    for g, ris in enumerate(grid.ris_cells):
        n_h, n_v = geo.ris_shapes[g]
        h_in = np.zeros((geo.n_ap, n_h * n_v), dtype=complex)
        dist = _distance(ap, ris, size)
        for b, gain, aod, aoa, el in rays(1 + 2 * g, scn.ap_ris_blocked[g],
                                          _bearing(ap, ris, size), _bearing(ris, ap, size)):
            h_in += amplitude(b, gain, dist, aod, True) * np.outer(
                _ula(aod, geo.n_ap), _upa(aoa, el, n_h, n_v).conj())
        h_out = np.zeros((n_h * n_v, geo.n_ue), dtype=complex)
        blocked = (bool(scn.ris_shadow[g].dark[user[1], user[0]])
                   or bool(state.chain_blocked[1 + g]))
        dist = _distance(ris, user, size)
        for b, gain, aod, aoa, el in rays(2 + 2 * g, blocked, _bearing(ris, user, size),
                                          _wrap(_bearing(user, ris, size) - state.orientation)):
            h_out += amplitude(b, gain, dist, aod, False) * np.outer(
                _upa(aod, el, n_h, n_v), _ula(aoa, geo.n_ue).conj())
        phases = scn.phases.entries[phase_idx[g]]
        for n in range(n_h * n_v):
            h += np.exp(1j * phases[n]) * np.outer(h_in[:, n], h_out[n, :])
    return h


def check_channel(scn, state, beam: int, phase_idx, h, rtol: float = 1e-9) -> list[str]:
    ref = oracle_channel(scn, state, beam, phase_idx)
    h = np.asarray(h)
    if h.shape != ref.shape:
        return [f"channel shape {h.shape} differs from the oracle's {ref.shape}"]
    err = float(np.max(np.abs(h - ref)))
    if err <= rtol * float(np.max(np.abs(ref))):
        return []
    return [f"channel differs from the ray-model oracle by {err:.3g} "
            f"(scale {float(np.max(np.abs(ref))):.3g})"]


# ---------------------------------------------------------------------------
# gradients


def surrogate_weights(returns, mu: float) -> np.ndarray:
    """w_s = (1 + mu * mean(R)) R_s - (mu / 2) R_s^2, the gradient weights of
    the surrogate mean(R) - (mu / 2) Var(R)."""
    r = np.asarray(returns, dtype=float)
    return (1.0 + mu * r.mean()) * r - 0.5 * mu * r * r


def encode_own(entries, n_actions: int, history_len: int) -> np.ndarray:
    """(H, A + 1): one-hot action then normalized rate for the last H
    (action, rate) entries, zero rows padding the front."""
    entries = list(entries)[-history_len:]
    out = np.zeros((history_len, n_actions + 1))
    pad = history_len - len(entries)
    for k, (action, rate) in enumerate(entries):
        out[pad + k, action] = 1.0
        out[pad + k, n_actions] = rate
    return out


def own_inputs(controller, batch) -> list[list[np.ndarray]]:
    """Per agent, per slot: the (S, H, A + 1) stack of own-history inputs of
    a distributed controller over the batch."""
    horizon = len(batch[0].rates_norm)
    out = []
    for m, n_actions in enumerate(controller.head_sizes):
        per_slot = []
        for t in range(horizon):
            feats = []
            for s in batch:
                entries = tuple(s.start_entries[m]) + tuple(
                    (s.actions[k][m], s.rates_norm[k]) for k in range(t))
                feats.append(encode_own(entries, n_actions, controller.history_len))
            per_slot.append(np.stack(feats))
        out.append(per_slot)
    return out


def weighted_log_policy(controller, batch, inputs, weights, forward) -> float:
    """sum_s w_s sum_t sum_m log pi_m(a_stm | own history) for a distributed
    controller; `forward` is the policy network's eval forward."""
    total = 0.0
    rows = np.arange(len(batch))
    for m, (arch, params) in enumerate(controller.nets):
        for t, feats in enumerate(inputs[m]):
            probs, _ = forward(params, arch, feats, mode="eval")
            acts = np.array([s.actions[t][m] for s in batch])
            total += float(np.sum(weights * np.log(probs[0][rows, acts])))
    return total


def smooth_mask(params, arch, feats, forward, margin: float = 1e-4) -> np.ndarray:
    """1 per parameter, except 0 on the incoming weights and bias of every
    ReLU unit whose pre-activation lies within `margin` of its kink on some
    input. There the function has no derivative: a unit whose whole input
    layer is dead keeps pre-activation = bias = 0, and its bias then never
    moves. Directions along the other parameters shift no pre-activation by
    more than the step, so they never cross a kink."""
    _, cache = forward(params, arch, feats, mode="eval")
    mask = type(params)(values=np.ones(params.n), layout=params.layout)
    for j, (_, pre, _) in enumerate(cache.trunk):
        near = np.any(np.abs(pre) < margin, axis=0)
        mask.view(f"dense{j}.W")[near, :] = 0.0
        mask.view(f"dense{j}.b")[near] = 0.0
    return mask.values


def directional_fd(fun, vectors, directions, step: float) -> float:
    """Central difference of fun() along `directions`, perturbing the
    parameter `vectors` in place and restoring them afterwards."""
    saved = [v.copy() for v in vectors]
    try:
        for v, d in zip(vectors, directions):
            v += step * d
        up = fun()
        for v, s, d in zip(vectors, saved, directions):
            v[...] = s - step * d
        down = fun()
    finally:
        for v, s in zip(vectors, saved):
            v[...] = s
    return (up - down) / (2.0 * step)


def random_directions(masks, rng, count: int) -> list[list[np.ndarray]]:
    """Unit-norm directions over the concatenation of the parameter vectors,
    zero where the per-vector mask is zero."""
    out = []
    for _ in range(count):
        parts = [rng.normal(size=mask.size) * mask for mask in masks]
        norm = math.sqrt(sum(float(p @ p) for p in parts))
        out.append([p / norm for p in parts])
    return out


def check_directional(grads, vectors, fun, directions, scale: float = 1.0,
                      step: float = 1e-6, rtol: float = 1e-5, label: str = "gradient") -> list[str]:
    """g . d must match the central difference of fun / scale along each d."""
    bad = []
    gnorm = math.sqrt(sum(float(g @ g) for g in grads))
    for k, d in enumerate(directions):
        analytic = sum(float(g @ dv) for g, dv in zip(grads, d))
        numeric = directional_fd(fun, vectors, d, step) / scale
        if abs(analytic - numeric) > rtol * max(abs(analytic), abs(numeric)) + 1e-7 * gnorm:
            bad.append(f"{label} direction {k}: analytic {analytic!r} vs "
                       f"finite difference {numeric!r}")
    return bad


# ---------------------------------------------------------------------------
# toy game


def check_ascent(j_start: float, j_end: float, j_star: float, tol: float = 1e-9) -> list[str]:
    bad = []
    if not j_end > j_start:
        bad.append(f"exact J did not rise: {j_start!r} -> {j_end!r}")
    if j_end > j_star + tol:
        bad.append(f"exact J {j_end!r} exceeds the bound J* = {j_star!r}")
    return bad


def check_nash(improvements, tol: float = 1e-9) -> list[str]:
    """At mu = 0 the objective is linear in each agent's own policy, so the
    best deterministic deviation is never worse than the current policy."""
    bad = [f"agent {m}: negative best improvement {v!r}"
           for m, v in enumerate(improvements) if v < -tol]
    return bad
