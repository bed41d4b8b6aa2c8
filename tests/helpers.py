"""Shared test helpers: finite-difference oracles and random parameter
points. Not named conftest.py: perfbench/tests has a conftest of its own, and
one pytest run collects both directories."""

import functools
from dataclasses import replace

import numpy as np

from rislab import cli
from rislab import policy as pol
from rislab.oracle import (ToyGame, deterministic_assignments, enumerate_exact_J,
                           enumerate_trajectories, onehot_policy, own_history)
from rislab.policy import PolicyParams, n_params, param_layout
from rislab.risk import gradient_weight
from rislab.training import NashReport, _apply_update


def env_config(**kw):
    """The paper profile's EnvConfig with `kw` replaced: the environment of
    the scenarios tests build by hand."""
    return replace(cli.env_config(cli.profile_config("paper")), **kw)


def desk_controller(cls, head_sizes, history_len, rng, params=None):
    """A `cls` controller with the desk profile's dropout rates."""
    desk = cli.profile_config("desk")
    return cls(head_sizes, history_len, rng, desk.dropout_lstm, desk.dropout_dense,
               params=params)


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


LSTM_STATES = ("i", "f", "g", "o", "c", "tc", "h")


def lstm_states(cache, arch):
    """Per LSTM layer, its gates and states as (H, S, width) views of the
    pass's wave block, keyed by LSTM_STATES: layer j's slot t is wave j + t,
    and each of the block's seven n-row segments [i | f | g | o | c | tc | h]
    holds the layers in order."""
    sizes, h = arch.lstm_sizes, arch.history_len
    n = sum(sizes)
    states, start = [], 0
    for j, width in enumerate(sizes):
        states.append({name: cache.waves[j:j + h, k * n + start:k * n + start + width]
                       .swapaxes(1, 2) for k, name in enumerate(LSTM_STATES)})
        start += width
    return states


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def loop_backward(params, arch, rows, actions, weights, drop_lstm=None,
                  trunk_masks=None):
    """Reference gradient of sum_s w_s sum_m log pi_m(a_sm | rows[s]) by plain
    per-row, per-step BPTT: one (H, F) history at a time, gates from the
    textbook sigmoid and tanh, no batching and no fused buffers. `drop_lstm`
    (S, h) and `trunk_masks` (per dense layer, (S, width)) replay the dropout
    masks of a train-mode pass; None means no dropout."""
    view = params.view
    grad = PolicyParams(values=np.zeros(params.n), layout=params.layout)
    n_dense = len(arch.trunk_sizes)
    for s, x in enumerate(rows):
        # forward, keeping every step's operands
        seq, layers = list(x), []
        for j, size in enumerate(arch.lstm_sizes):
            w, u, b = view(f"lstm{j}.W"), view(f"lstm{j}.U"), view(f"lstm{j}.b")
            h_prev, c_prev, steps = np.zeros(size), np.zeros(size), []
            for x_t in seq:
                z = w @ x_t + u @ h_prev + b
                i, f = _sigmoid(z[:size]), _sigmoid(z[size:2 * size])
                g, o = np.tanh(z[2 * size:3 * size]), _sigmoid(z[3 * size:])
                c = f * c_prev + i * g
                steps.append((x_t, h_prev, c_prev, i, f, g, o, c))
                h_prev, c_prev = o * np.tanh(c), c
            layers.append(steps)
            seq = [st[6] * np.tanh(st[7]) for st in steps]
        z = seq[-1] * (1.0 if drop_lstm is None else drop_lstm[s])
        trunk = []
        for j in range(n_dense):
            pre = view(f"dense{j}.W") @ z + view(f"dense{j}.b")
            trunk.append((z, pre))
            z = np.maximum(pre, 0.0) * (1.0 if trunk_masks is None else trunk_masks[j][s])

        # heads, then the dense trunk in reverse
        dz = np.zeros_like(z)
        for m in range(len(arch.head_sizes)):
            logits = view(f"head{m}.W") @ z + view(f"head{m}.b")
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            dlogits = -weights[s] * probs
            dlogits[actions[m][s]] += weights[s]
            grad.view(f"head{m}.W")[...] += np.outer(dlogits, z)
            grad.view(f"head{m}.b")[...] += dlogits
            dz += view(f"head{m}.W").T @ dlogits
        for j in reversed(range(n_dense)):
            layer_in, pre = trunk[j]
            dpre = dz * (1.0 if trunk_masks is None else trunk_masks[j][s]) * (pre > 0.0)
            grad.view(f"dense{j}.W")[...] += np.outer(dpre, layer_in)
            grad.view(f"dense{j}.b")[...] += dpre
            dz = view(f"dense{j}.W").T @ dpre
        dz = dz * (1.0 if drop_lstm is None else drop_lstm[s])

        # the LSTM stack in reverse: the top layer's dh is nonzero at the
        # final slot only, each lower layer's is the input gradient above it
        dh_seq = [np.zeros_like(dz) for _ in layers[-1]]
        dh_seq[-1] = dz
        for j in reversed(range(len(layers))):
            w, u = view(f"lstm{j}.W"), view(f"lstm{j}.U")
            dh_next = np.zeros(u.shape[1])
            dc_next = np.zeros(u.shape[1])
            dx_seq = [None] * len(layers[j])
            for t in reversed(range(len(layers[j]))):
                x_t, h_prev, c_prev, i, f, g, o, c = layers[j][t]
                dh = dh_seq[t] + dh_next
                dc = dc_next + dh * o * (1.0 - np.tanh(c) ** 2)
                dgates = np.concatenate([dc * g * i * (1.0 - i),
                                         dc * c_prev * f * (1.0 - f),
                                         dc * i * (1.0 - g ** 2),
                                         dh * np.tanh(c) * o * (1.0 - o)])
                grad.view(f"lstm{j}.W")[...] += np.outer(dgates, x_t)
                grad.view(f"lstm{j}.U")[...] += np.outer(dgates, h_prev)
                grad.view(f"lstm{j}.b")[...] += dgates
                dh_next, dc_next = u.T @ dgates, dc * f
                dx_seq[t] = w.T @ dgates
            dh_seq = dx_seq
    return grad.values


def stochastic_toy_game(seed):
    """A 2x2 game over two states with random rates, random non-dyadic
    transition probabilities and a random initial state, horizon 2."""
    joints = [(b, p) for b in range(2) for p in range(2)]
    rng = np.random.default_rng(seed)
    rates = {(s, j): float(rng.uniform(0, 3)) for s in "ab" for j in joints}
    transitions = {}
    for s, other in (("a", "b"), ("b", "a")):
        for j in joints:
            stay = float(rng.uniform(0.05, 0.95))
            transitions[(s, j)] = ((stay, s), (1 - stay, other))
    q = float(rng.uniform(0.1, 0.9))
    return ToyGame(n_beams=2, n_phases=2, n_ris=1, horizon=2, rates=rates,
                   initial=((q, "a"), (1 - q, "b")), transitions=transitions,
                   frozen=False)


def policy_table(policy_fns) -> list:
    """Wrap each policy in a lazy table of its outputs keyed by history, so
    every policy runs once per history. Build one per oracle call: the
    parameters behind a policy may change between calls."""
    return [functools.cache(fn) for fn in policy_fns]


def walk_coefficients(game, policy_fns, mu):
    """The exact gradient's coefficient of each reached (history, joint)
    node in walk form: P(tau) * w(R_tau) summed over the trajectory slots
    at the node, trajectory by trajectory, keyed in first-visit order."""
    trajs = enumerate_trajectories(game, policy_fns)
    mean = sum(t.prob * t.ret for t in trajs)
    weights = gradient_weight(np.array([t.ret for t in trajs]), mean, mu)
    buckets: dict = {}
    for traj, weight in zip(trajs, weights):
        w = traj.prob * weight
        for _state, joint, _rate, hist in traj.steps:
            key = (hist, joint)
            buckets[key] = buckets.get(key, 0.0) + w
    return buckets


def revealed_state_game():
    """Single agent, two persistent states revealed by the first slot's
    rate: state up pays action 0, state down pays action 1. T=2."""
    rates = {("up", (0,)): 1.0, ("up", (1,)): 0.0,
             ("down", (0,)): 0.0, ("down", (1,)): 1.0}
    return ToyGame(n_beams=2, n_phases=1, n_ris=0, horizon=2, rates=rates,
                   initial=((0.5, "up"), (0.5, "down")),
                   transitions={(s, (a,)): ((1.0, s),)
                                for s in ("up", "down") for a in (0, 1)},
                   frozen=False)


def reference_exact_gradient(game, controller, mu):
    """The exact enumerated gradient in its per-history form: one
    single-history forward per (agent, history) drives the enumeration,
    then each net runs a batched forward and backward over the reached
    (history, joint) nodes, weighted by P(tau) * w(R_tau)."""
    buckets = walk_coefficients(game, policy_table([controller.policy_fn(m)
                                                     for m in range(controller.n_agents)]), mu)
    keys = list(buckets.keys())
    coefs = np.array([buckets[k] for k in keys])

    grads = []
    for net, (arch, params, agents) in enumerate(controller.net_heads()):
        feats = np.stack([controller.encode(*controller.window(
            [joint for joint, _ in h], [rate for _, rate in h]), net) for h, _ in keys])
        _, cache = pol.forward(params, arch, feats, mode="eval")
        acts = [np.array([joint[m] for _, joint in keys]) for m in agents]
        grads.append(pol.backward(params, arch, cache, acts, coefs))
    return grads


def reference_exact_ascent(game, controller, mu, steps, learning_rate, trace_every=50):
    """training.exact_ascent driven by reference_exact_gradient, its trace
    scored through per-history policy_fn calls."""
    trace = []
    for k in range(steps):
        _apply_update(controller, reference_exact_gradient(game, controller, mu),
                      learning_rate, grad_clip=0.0)
        if (k + 1) % trace_every == 0 or k + 1 == steps:
            trace.append(enumerate_exact_J(
                game, [controller.policy_fn(m) for m in range(controller.n_agents)], mu))
    return trace


def reference_nash_check(game, policy_fns, mu):
    """training.nash_check in its walk form: every deterministic deviation
    of each agent is scored by its own enumerate_exact_J walk, the others'
    policies memoized by policy_table across all walks."""
    fixed = policy_table(policy_fns)
    j_now = enumerate_exact_J(game, fixed, mu)
    per_agent = []
    for m, actions in enumerate(game.action_sets):
        def score(choose):
            pols = list(fixed)
            pols[m] = onehot_policy(len(actions), choose)
            return enumerate_exact_J(game, pols, mu)

        trees = deterministic_assignments(score, lambda hist: own_history(hist, m), actions)
        per_agent.append(max(j for j, _ in trees) - j_now)
    return NashReport(j_current=j_now, best_improvement=max(per_agent),
                      per_agent=per_agent)
