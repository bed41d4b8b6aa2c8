"""Trainer tests: collection determinism, estimator identities against the
enumeration oracle, replay uniformity, the training loop's contracts, and
both theorem harnesses."""

import copy
import dataclasses
import math
import pickle
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from helpers import (
    counted_walks,
    desk_controller,
    fd_gradient,
    reference_exact_ascent,
    reference_exact_gradient,
    reference_nash_check,
    revealed_state_game,
    stochastic_toy_game,
)

from rislab import policy as pol
from rislab import training as tr
from rislab.cli import ExperimentConfig
from rislab.environment import HistoryBuffer
from rislab.oracle import (
    TrajectoryTable,
    enumerate_exact_J,
    frozen_toy_game,
    joint_onehot_policies,
    optimal_policy,
    own_history,
    uniform_policies,
)
from rislab.risk import gradient_weight
from rislab.training import (
    CentralizedController,
    DistributedController,
    DivergenceError,
    ToyGameEnvironment,
    TrainingSample,
    collect_episode,
    estimate_gradient,
    exact_ascent,
    exact_policy_gradient,
    make_controller,
    nash_check,
    slot_windows,
    theorem1_harness,
    train,
)

RATES = {(0, 0): 0.3, (0, 1): 0.6, (1, 0): 0.2, (1, 1): 2.0}


def toy_game(horizon=2):
    return frozen_toy_game(RATES, n_beams=2, n_phases=2, n_ris=1, horizon=horizon)


def toy_config(**kw):
    base = dict(mode="distributed", mu=0.0, horizon=2, history_len=4,
                learning_rate=0.1, minibatch=16, seed_episodes=16,
                offline_epochs=3, max_updates=40, convergence_window=10 ** 6,
                dropout_lstm=0.0, dropout_dense=0.0, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


def randomize(controller, rng, scale=0.6):
    for vec in controller.parameter_vectors():
        vec[:] = rng.uniform(-scale, scale, size=vec.size)


def buffers_from_history(history, n_agents, capacity):
    # the per-agent windows that collect_episode would have filled
    buffers = [HistoryBuffer(capacity) for _ in range(n_agents)]
    for joint, rate in history:
        for m, buf in enumerate(buffers):
            buf.push(joint[m], rate)
    return buffers


# ---------------------------------------------------------------------------
# collection


def test_collect_episode_horizon_one():
    cfg = toy_config(horizon=1)
    ctrl = make_controller(cfg, (2, 2), np.random.default_rng(0))
    env = ToyGameEnvironment(toy_game(1), seed=1)
    buffers = [HistoryBuffer(cfg.history_len) for _ in range(2)]
    record, sample = collect_episode(env, ctrl, buffers, 1, np.random.default_rng(2))
    assert len(record.rates) == len(record.distributions) == 1
    assert sample.actions.shape == sample.log_probs.shape == (1, 2)
    assert sample.rates_norm.shape == (1,)
    assert record.episodic_return == pytest.approx(record.rates[0])
    # the toy's rates are already normalized
    assert sample.episodic_return == record.episodic_return


def test_collect_episode_keeps_the_behaviour_log_probs():
    # a sampled slot stores the floored log-prob of each drawn action under
    # the distributions it was drawn from; a forced slot stores -log|A_m|
    cfg = toy_config()
    ctrl = make_controller(cfg, (2, 3), np.random.default_rng(11))
    randomize(ctrl, np.random.default_rng(12))
    env = ToyGameEnvironment(frozen_toy_game({(a, b): 0.1 * (a + b) for a in range(2)
                                              for b in range(3)},
                                             n_beams=2, n_phases=3, n_ris=1, horizon=2),
                             seed=13)
    buffers = [HistoryBuffer(cfg.history_len) for _ in range(2)]
    record, sample = collect_episode(env, ctrl, buffers, 2, np.random.default_rng(14))
    assert sample.log_probs.shape == (2, 2) and sample.log_probs.dtype == float
    for t, dists in enumerate(record.distributions):
        for m, d in enumerate(dists):
            assert sample.log_probs[t, m] == pol.log_prob(d, sample.actions[t, m])
    _, forced = collect_episode(env, ctrl, buffers, 2, np.random.default_rng(14),
                                forced_actions=[(1, 2), (0, 0)])
    np.testing.assert_array_equal(forced.log_probs, [[-math.log(2), -math.log(3)]] * 2)


def test_collect_episode_deterministic_with_onehot_policies():
    cfg = toy_config()
    env = ToyGameEnvironment(toy_game(), seed=3)

    class Pinned(DistributedController):
        def distributions(self, buffers):
            return [np.array([0.0, 1.0]), np.array([1.0, 0.0])]

    ctrl = desk_controller(Pinned, (2, 2), cfg.history_len, np.random.default_rng(1))
    returns = set()
    for _ in range(3):
        buffers = [HistoryBuffer(cfg.history_len) for _ in range(2)]
        record, _ = collect_episode(env, ctrl, buffers, 2, np.random.default_rng(9))
        returns.add(record.episodic_return)
    assert len(returns) == 1  # frozen env + pinned actions: nothing random
    assert returns.pop() == pytest.approx(2 * RATES[(1, 0)])


def test_collect_episode_updates_all_buffers_identically():
    cfg = toy_config()
    ctrl = make_controller(cfg, (2, 2), np.random.default_rng(4))
    env = ToyGameEnvironment(toy_game(), seed=5)
    buffers = [HistoryBuffer(cfg.history_len) for _ in range(2)]
    collect_episode(env, ctrl, buffers, 2, np.random.default_rng(6))
    np.testing.assert_array_equal(buffers[0].rates, buffers[1].rates)


def test_training_sample_entry_reconstruction():
    # a 3-slot start window holding one entry, then a 2-slot episode: slot t
    # reads entries t .. t+2 of the start window followed by the episode
    sample = TrainingSample(start_actions=np.array([[-1, -1], [-1, -1], [1, 0]]),
                            start_rates=np.array([0.0, 0.0, 0.5]),
                            actions=np.array([[1, 0], [0, 1]]),
                            rates_norm=np.array([0.3, 0.6]),
                            log_probs=np.log([[0.5, 0.5], [0.5, 0.5]]))
    assert sample.start_entries == (((1, 0.5),), ((0, 0.5),))
    actions, rates = slot_windows([sample])
    assert actions.shape == (2, 1, 3, 2) and rates.shape == (2, 1, 3)
    np.testing.assert_array_equal(actions[0, 0], [[-1, -1], [-1, -1], [1, 0]])
    np.testing.assert_array_equal(rates[0, 0], [0.0, 0.0, 0.5])
    np.testing.assert_array_equal(actions[1, 0], [[-1, -1], [1, 0], [1, 0]])
    np.testing.assert_array_equal(rates[1, 0], [0.0, 0.5, 0.3])
    assert sample.episodic_return == pytest.approx(0.9)


def test_distributed_policy_fn_runs_only_its_own_net(monkeypatch):
    # policy_fn(m) must equal the joint distributions()[m] exactly while
    # running agent m's net alone: one forward per call, not one per agent
    from rislab import policy as pol

    ctrl = desk_controller(DistributedController, (3, 2, 2), 4, np.random.default_rng(36))
    randomize(ctrl, np.random.default_rng(37))
    history = (((2, 0, 1), 0.4), ((0, 1, 1), 1.3), ((1, 1, 0), 0.2),
               ((2, 1, 0), 0.9), ((0, 0, 1), 0.7))
    calls = []
    forward = pol.forward

    def counting(*args, **kwargs):
        calls.append(args[0])
        return forward(*args, **kwargs)

    monkeypatch.setattr(pol, "forward", counting)
    for cut in (0, 2, len(history)):
        hist = history[:cut]
        joint = ctrl.distributions(buffers_from_history(hist, ctrl.n_agents, 4))
        for m in range(ctrl.n_agents):
            calls.clear()
            got = ctrl.policy_fn(m)(hist)
            np.testing.assert_array_equal(got, joint[m])
            assert len(calls) == 1 and calls[0] is ctrl.nets[m][1]


def test_controller_over_given_params_shares_their_arrays():
    # a one-agent learner built over a team net reads and steps the team's
    # own parameter arrays; params that do not fit the net are refused
    team = desk_controller(DistributedController, (3, 2), 4, np.random.default_rng(38))
    learner = desk_controller(DistributedController, (2,), 4, None, params=[team.nets[1][1]])
    assert learner.nets[0][1] is team.nets[1][1]
    assert learner.nets[0][0] == team.nets[1][0]
    with pytest.raises(ValueError):
        desk_controller(DistributedController, (3,), 4, None, params=[team.nets[1][1]])


@pytest.mark.parametrize("kind", [CentralizedController, DistributedController])
def test_policy_fn_equals_joint_distributions(kind):
    # the oracle-facing policy_fn(m) and the collection-facing
    # distributions()[m] are the same function of the history, bit for bit
    ctrl = desk_controller(kind, (3, 2, 2), 4, np.random.default_rng(38))
    randomize(ctrl, np.random.default_rng(39))
    history = (((1, 1, 0), 0.8), ((2, 0, 1), 0.1), ((0, 1, 1), 1.7),
               ((1, 0, 0), 0.5), ((2, 1, 1), 0.3))
    for cut in (0, 1, 3, len(history)):
        hist = history[:cut]
        joint = ctrl.distributions(buffers_from_history(hist, ctrl.n_agents, 4))
        for m in range(ctrl.n_agents):
            np.testing.assert_array_equal(ctrl.policy_fn(m)(hist), joint[m])


def reference_input(history, head_sizes, agents, history_len):
    # plain loop: per slot of the last H, each agent's one-hot at the sum of
    # the head sizes before it in the group, the rate last, zero rows in front
    width = sum(head_sizes[m] for m in agents) + 1
    out = np.zeros((history_len, width))
    window = history[-history_len:]
    pad = history_len - len(window)
    for k, (joint, rate) in enumerate(window):
        for j, m in enumerate(agents):
            out[pad + k, sum(head_sizes[a] for a in agents[:j]) + joint[m]] = 1.0
        out[pad + k, width - 1] = rate
    return out


@pytest.mark.parametrize("kind", [CentralizedController, DistributedController])
def test_one_encoder_behind_every_entry_point(kind, monkeypatch):
    # distributions(buffers), policy_fn(m)(hist) and the gathered slot-t
    # windows of an estimate_gradient batch feed their nets the same
    # encoding of one history, bit for bit, and all equal a plain loop; the
    # per-history ask feeds it as a one-row batch; the 6-slot history
    # overruns H = 4
    from rislab import policy as pol

    heads, history_len, horizon = (3, 2, 2), 4, 3
    ctrl = desk_controller(kind, heads, history_len, np.random.default_rng(45))
    assert ctrl.groups == ([(0, 1, 2)] if kind is CentralizedController
                           else [(0,), (1,), (2,)])
    history = (((2, 0, 1), 0.4), ((0, 1, 1), 1.3), ((1, 1, 0), 0.2),
               ((2, 1, 0), 0.9), ((0, 0, 1), 0.7), ((1, 0, 1), 0.05))
    inputs = []
    forward = pol.forward

    def recording(params, arch, history, **kwargs):
        inputs.append(history)
        return forward(params, arch, history, **kwargs)

    monkeypatch.setattr(pol, "forward", recording)
    batch, wants = [], []
    for cut in (0, 1, 4, len(history)):
        hist = history[:cut]
        want = [reference_input(hist, heads, agents, history_len) for agents in ctrl.groups]
        inputs.clear()
        ctrl.distributions(buffers_from_history(hist, ctrl.n_agents, history_len))
        for m in range(ctrl.n_agents):
            ctrl.policy_fn(m)(hist)
        policy_nets = [next(k for k, g in enumerate(ctrl.groups) if m in g)
                       for m in range(ctrl.n_agents)]
        assert len(inputs) == len(ctrl.groups) + ctrl.n_agents
        for net_input, net in zip(inputs[:len(ctrl.groups)], range(len(ctrl.groups))):
            np.testing.assert_array_equal(net_input, want[net])
        for net_input, net in zip(inputs[len(ctrl.groups):], policy_nets):
            np.testing.assert_array_equal(net_input, want[net][None])
        # a sample whose slot-`slot` window is this history: the start window
        # holds all but its last `slot` entries, the episode the rest
        slot = min(cut, 2)
        start, episode = hist[:cut - slot], hist[cut - slot:]
        episode += (((0, 0, 0), 0.1),) * (horizon - slot)
        batch.append(TrainingSample(
            *ctrl.window([j for j, _ in start], [r for _, r in start]),
            actions=np.array([j for j, _ in episode]),
            rates_norm=np.array([r for _, r in episode]),
            log_probs=np.zeros((horizon, ctrl.n_agents))))
        wants.append((slot, want))
    inputs.clear()
    estimate_gradient(ctrl, batch, mu=0.0, mode="eval")
    assert len(inputs) == len(ctrl.groups)
    for net, net_input in enumerate(inputs):
        assert net_input.shape[:3] == (horizon, len(batch), history_len)
        for k, (slot, want) in enumerate(wants):
            np.testing.assert_array_equal(net_input[slot, k], want[net])


@st.composite
def head_histories(draw, count=1):
    """(head sizes, H, histories): 1-4 agents with 1-6 actions each,
    H in {4, 8}, and `count` global histories of 0 .. 2H+1 entries."""
    heads = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    history_len = draw(st.sampled_from([4, 8]))
    entry = st.tuples(st.tuples(*[st.integers(0, n - 1) for n in heads]),
                      st.floats(0.0, 10.0, allow_nan=False))
    hists = [tuple(draw(st.lists(entry, max_size=2 * history_len + 1)))
             for _ in range(count)]
    return heads, history_len, hists


def history_window(ctrl, hist):
    return ctrl.window([joint for joint, _ in hist], [rate for _, rate in hist])


@pytest.mark.parametrize("kind", [CentralizedController, DistributedController])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=head_histories())
def test_fuzz_encoded_window_equals_plain_loop(kind, case):
    heads, history_len, (hist,) = case
    ctrl = desk_controller(kind, heads, history_len, np.random.default_rng(0))
    actions, rates = history_window(ctrl, hist)
    assert actions.shape == (history_len, len(heads)) and rates.shape == (history_len,)
    for net, agents in enumerate(ctrl.groups):
        np.testing.assert_array_equal(ctrl.encode(actions, rates, net),
                                      reference_input(hist, heads, agents, history_len))


@pytest.mark.parametrize("kind", [CentralizedController, DistributedController])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=head_histories(count=3))
def test_fuzz_stacked_encode_equals_per_window_encodes(kind, case):
    heads, history_len, hists = case
    ctrl = desk_controller(kind, heads, history_len, np.random.default_rng(0))
    windows = [history_window(ctrl, hist) for hist in hists]
    actions = np.stack([a for a, _ in windows])
    rates = np.stack([r for _, r in windows])
    for net in range(len(ctrl.groups)):
        stacked = ctrl.encode(actions, rates, net)
        for row, window in zip(stacked, windows):
            np.testing.assert_array_equal(row, ctrl.encode(*window, net))


@pytest.mark.parametrize("kind", [CentralizedController, DistributedController])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=head_histories(), extra=st.integers(0, 3))
def test_fuzz_buffers_hold_the_window_of_their_history(kind, case, extra):
    # buffers of H or more slots, pushed in step with a history, give the
    # window of that history
    heads, history_len, (hist,) = case
    ctrl = desk_controller(kind, heads, history_len, np.random.default_rng(0))
    buffers = buffers_from_history(hist, len(heads), history_len + extra)
    got = ctrl.window(np.stack([buf.actions for buf in buffers], axis=1), buffers[0].rates)
    for a, b in zip(got, history_window(ctrl, hist)):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# gradient estimator


def test_estimate_gradient_single_sample_is_reinforce():
    # mu = 0, one sample: gradient = R * grad log Pi, compared against a
    # direct per-slot backward accumulation
    from rislab import policy as pol

    cfg = toy_config()
    ctrl = make_controller(cfg, (2, 2), np.random.default_rng(7))
    randomize(ctrl, np.random.default_rng(8))
    env = ToyGameEnvironment(toy_game(), seed=9)
    buffers = [HistoryBuffer(cfg.history_len) for _ in range(2)]
    _, sample = collect_episode(env, ctrl, buffers, 2, np.random.default_rng(10))
    grads = estimate_gradient(ctrl, [sample], mu=0.0, mode="eval")
    ret = sample.episodic_return
    actions, rates = slot_windows([sample])
    for m, (arch, params) in enumerate(ctrl.nets):
        want = np.zeros(params.n)
        for t in range(2):
            feats = ctrl.encode(actions[t, 0], rates[t, 0], m)
            _, cache = pol.forward(params, arch, feats, mode="eval")
            want += pol.backward(params, arch, cache,
                                 [sample.actions[t][m]], ret)
        np.testing.assert_allclose(grads[m], want, rtol=1e-12)


def test_estimate_gradient_batch_of_identical_samples():
    cfg = toy_config()
    ctrl = make_controller(cfg, (2, 2), np.random.default_rng(11))
    randomize(ctrl, np.random.default_rng(12))
    env = ToyGameEnvironment(toy_game(), seed=13)
    buffers = [HistoryBuffer(cfg.history_len) for _ in range(2)]
    _, sample = collect_episode(env, ctrl, buffers, 2, np.random.default_rng(14))
    one = estimate_gradient(ctrl, [sample], mu=0.4, mode="eval")
    many = estimate_gradient(ctrl, [sample] * 8, mu=0.4, mode="eval")
    for a, b in zip(one, many):
        np.testing.assert_allclose(a, b, rtol=1e-12)


@pytest.mark.parametrize("mode", ["distributed", "centralized"])
def test_estimate_gradient_matches_per_slot_passes_with_dropout(mode):
    # reference: one train-mode forward/backward per net and slot, net by net
    # and slot by slot from the same seed, i.e. the dropout draws the single
    # stacked pass per net must reproduce
    from rislab import policy as pol

    horizon, mu = 3, 0.4
    cfg = toy_config(mode=mode, horizon=horizon, dropout_lstm=0.2, dropout_dense=0.4)
    ctrl = make_controller(cfg, (2, 2), np.random.default_rng(40))
    randomize(ctrl, np.random.default_rng(41))
    env = ToyGameEnvironment(toy_game(horizon), seed=42)
    buffers = [HistoryBuffer(cfg.history_len) for _ in range(2)]
    rng = np.random.default_rng(43)
    batch = [collect_episode(env, ctrl, buffers, horizon, rng)[1] for _ in range(6)]
    grads = estimate_gradient(ctrl, batch, mu, rng=np.random.default_rng(44))

    returns = [s.episodic_return for s in batch]
    weights = np.array([gradient_weight(r, float(np.mean(returns)), mu) for r in returns])
    groups = [(0, 1)] if mode == "centralized" else [(0,), (1,)]
    nets = [(arch, params, agents) for (arch, params), agents in zip(ctrl.nets, groups)]
    rng = np.random.default_rng(44)
    actions, rates = slot_windows(batch)
    assert len(grads) == len(nets)
    for net, ((arch, params, agents), got) in enumerate(zip(nets, grads)):
        want = np.zeros(params.n)
        for t in range(horizon):
            feats = ctrl.encode(actions[t], rates[t], net)
            _, cache = pol.forward(params, arch, feats, mode="train", rng=rng)
            acts = [np.array([s.actions[t][m] for s in batch]) for m in agents]
            want += pol.backward(params, arch, cache, acts, weights)
        np.testing.assert_allclose(got, want / len(batch), rtol=1e-12)


def test_estimate_gradient_rejects_empty_batch():
    cfg = toy_config()
    ctrl = make_controller(cfg, (2, 2), np.random.default_rng(15))
    with pytest.raises(ValueError):
        estimate_gradient(ctrl, [], mu=0.0)


def history_dependent(ctrl, game):
    """Whether every agent plays a different distribution at every history:
    at H = 4 a net's trunk is one unit wide, and a dead ReLU makes its
    policy ignore the history."""
    hists = TrajectoryTable(game).histories
    return all(len({ctrl.policy_fn(m)(h).tobytes() for h in hists}) == len(hists)
               for m in range(ctrl.n_agents))


def lstm_blocks(ctrl, grads):
    """Per net, the LSTM layers' slice of a gradient."""
    return [np.concatenate([pol.PolicyParams(values=g, layout=params.layout).view(name).ravel()
                            for name, _ in params.layout if name.startswith("lstm")])
            for (_, params), g in zip(ctrl.nets, grads)]


# At seeds 16 and 17 a dead ReLU cuts every net's policy off its history, so
# the LSTM block of the gradient is 0; at seeds 6 and 11 every net's policy
# depends on the history, so the comparison reaches the LSTM.
@pytest.mark.parametrize("seed,reaches_lstm", [(16, False), (6, True)],
                         ids=["seed16", "seed6"])
def test_exact_gradient_matches_fd_of_exact_J(seed, reaches_lstm):
    # Eq-12-weighted exact-expectation gradient == d/dtheta of the exact
    # surrogate objective (the executable core of the gradient proposition)
    game = toy_game()
    cfg = toy_config()
    rng = np.random.default_rng(seed)
    ctrl = make_controller(cfg, (2, 2), rng)
    randomize(ctrl, rng)
    assert history_dependent(ctrl, game) == reaches_lstm
    mu = 0.7
    grads = exact_policy_gradient(game, ctrl, mu)
    if reaches_lstm:
        assert all(np.any(block != 0) for block in lstm_blocks(ctrl, grads))
    exact = np.concatenate(grads)
    vecs = ctrl.parameter_vectors()
    sizes = [v.size for v in vecs]
    joined = np.concatenate([v.copy() for v in vecs])

    def j_of(theta):
        pos = 0
        for v, n in zip(vecs, sizes):
            v[:] = theta[pos:pos + n]
            pos += n
        return enumerate_exact_J(game, [ctrl.policy_fn(m) for m in range(2)], mu)

    fd = fd_gradient(j_of, joined, step=1e-4)
    j_of(joined)
    rel = np.linalg.norm(fd - exact) / np.linalg.norm(exact)
    assert rel < 1e-6


@pytest.mark.parametrize("seed,reaches_lstm", [(17, False), (11, True)],
                         ids=["seed17", "seed11"])
def test_exact_gradient_centralized_mode(seed, reaches_lstm):
    game = toy_game()
    cfg = toy_config(mode="centralized")
    rng = np.random.default_rng(seed)
    ctrl = make_controller(cfg, (2, 2), rng)
    randomize(ctrl, rng)
    assert history_dependent(ctrl, game) == reaches_lstm
    mu = 0.3
    grads = exact_policy_gradient(game, ctrl, mu)
    if reaches_lstm:
        assert all(np.any(block != 0) for block in lstm_blocks(ctrl, grads))
    exact = np.concatenate(grads)
    vec = ctrl.parameter_vectors()[0]
    joined = vec.copy()

    def j_of(theta):
        vec[:] = theta
        return enumerate_exact_J(game, [ctrl.policy_fn(m) for m in range(2)], mu)

    fd = fd_gradient(j_of, joined, step=1e-4)
    j_of(joined)
    rel = np.linalg.norm(fd - exact) / np.linalg.norm(exact)
    assert rel < 1e-6


@pytest.mark.parametrize("mode,game,seed", [("distributed", toy_game(), 6),
                                            ("centralized", toy_game(), 11),
                                            ("distributed", stochastic_toy_game(501), 6),
                                            ("distributed", stochastic_toy_game(500), 6),
                                            ("centralized", stochastic_toy_game(502), 11)])
def test_exact_gradient_bitwise_equals_per_history_reference(mode, game, seed):
    # one batched forward per net over the game tree reads the same
    # probabilities as single-history forwards at toy sizes, and its rows
    # are the reference's reached nodes in the reference's order
    rng = np.random.default_rng(seed)
    ctrl = make_controller(toy_config(mode=mode), (2, 2), rng)
    randomize(ctrl, rng)
    assert history_dependent(ctrl, game)
    for mu in (0.0, 0.7):
        got = exact_policy_gradient(game, ctrl, mu)
        want = reference_exact_gradient(game, ctrl, mu)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


def assert_views_bound(ctrl):
    """Every named view of every net reads its slice of the net's current
    vector, and the forward reads the same numbers as over fresh views."""
    hist = np.random.default_rng(40).normal(size=(3, ctrl.history_len, 1))
    for arch, params in ctrl.nets:
        pos = 0
        for name, shape in pol.param_layout(arch):
            size = math.prod(shape)
            view = params.view(name)
            assert np.shares_memory(view, params.values)
            np.testing.assert_array_equal(view, params.values[pos:pos + size].reshape(shape))
            pos += size
        feats = np.repeat(hist, arch.input_size, axis=-1)
        fresh = pol.PolicyParams(values=params.values.copy(), layout=params.layout)
        for got, want in zip(pol.forward(params, arch, feats)[0],
                             pol.forward(fresh, arch, feats)[0]):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("cls", [DistributedController, CentralizedController])
def test_param_views_follow_every_update_copy_and_rebind(cls):
    # the views are built once per vector, so every way the parameters
    # change or travel must leave them reading the live vector
    rng = np.random.default_rng(41)
    ctrl = desk_controller(cls, (3, 2), 4, rng)
    assert_views_bound(ctrl)
    tr._apply_update(ctrl, [rng.normal(size=v.size) for v in ctrl.parameter_vectors()],
                     learning_rate=0.5, grad_clip=0.0)
    assert_views_bound(ctrl)
    randomize(ctrl, rng)
    assert_views_bound(ctrl)

    for twin in (copy.deepcopy(ctrl), pickle.loads(pickle.dumps(ctrl))):
        assert_views_bound(twin)
        for (_, mine), (_, other) in zip(ctrl.nets, twin.nets):
            np.testing.assert_array_equal(mine.values, other.values)
            assert not np.shares_memory(mine.values, other.values)
        randomize(twin, rng)  # moves the twin's views, not the original's
        assert_views_bound(twin)
        assert_views_bound(ctrl)

    _, params = ctrl.nets[0]
    old = params.values
    params.values = rng.uniform(-1.0, 1.0, size=params.n)
    assert not any(np.shares_memory(params.view(name), old) for name, _ in params.layout)
    assert_views_bound(ctrl)


def test_exact_ascent_bitwise_equals_per_history_reference():
    game = toy_game()
    rng = np.random.default_rng(6)
    ctrl = make_controller(toy_config(), (2, 2), rng)
    randomize(ctrl, rng)
    assert history_dependent(ctrl, game)
    ref = copy.deepcopy(ctrl)
    trace = exact_ascent(game, ctrl, mu=0.0, steps=300, learning_rate=0.5, trace_every=50)
    want = reference_exact_ascent(game, ref, mu=0.0, steps=300, learning_rate=0.5,
                                  trace_every=50)
    assert trace == want
    for a, b in zip(ctrl.parameter_vectors(), ref.parameter_vectors()):
        np.testing.assert_array_equal(a, b)


def test_exact_ascent_on_a_stochastic_toy_bitwise_equals_per_history_reference():
    game = stochastic_toy_game(501)
    rng = np.random.default_rng(6)
    ctrl = make_controller(toy_config(), (2, 2), rng)
    randomize(ctrl, rng)
    ref = copy.deepcopy(ctrl)
    trace = exact_ascent(game, ctrl, mu=0.7, steps=60, learning_rate=0.5, trace_every=20)
    want = reference_exact_ascent(game, ref, mu=0.7, steps=60, learning_rate=0.5,
                                  trace_every=20)
    assert trace == want
    for a, b in zip(ctrl.parameter_vectors(), ref.parameter_vectors()):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("mode,nets", [("distributed", 2), ("centralized", 1)])
def test_exact_ascent_runs_one_eval_forward_per_net_per_step(monkeypatch, mode, nets):
    modes, per_call = [], []
    forward, gradient = pol.forward, tr.exact_policy_gradient

    def counted_forward(*args, **kwargs):
        modes.append(kwargs.get("mode", "eval"))
        return forward(*args, **kwargs)

    def counted_gradient(*args, **kwargs):
        start = len(modes)
        out = gradient(*args, **kwargs)
        per_call.append(modes[start:])
        return out

    monkeypatch.setattr(pol, "forward", counted_forward)
    monkeypatch.setattr(tr, "exact_policy_gradient", counted_gradient)
    rng = np.random.default_rng(43)
    ctrl = make_controller(toy_config(mode=mode), (2, 2), rng)
    exact_ascent(toy_game(), ctrl, mu=0.0, steps=6, learning_rate=0.5, trace_every=3)
    assert per_call == [["eval"] * nets] * 6
    # plus one forward per net at each of the 2 trace points
    assert modes == ["eval"] * nets * (6 + 2)


def test_estimator_unbiased_at_mu_zero():
    # sample-mean gradient over fresh rollouts vs the exact enumerated
    # gradient of E[R]: 3-sigma projection bounds
    game = toy_game()
    cfg = toy_config()
    rng = np.random.default_rng(18)
    ctrl = make_controller(cfg, (2, 2), rng)
    randomize(ctrl, rng, scale=0.4)
    exact = np.concatenate(exact_policy_gradient(game, ctrl, mu=0.0))

    env = ToyGameEnvironment(game, seed=19)
    collect_rng = np.random.default_rng(20)
    chunks = []
    for _ in range(60):
        batch = []
        for _ in range(50):
            buffers = [HistoryBuffer(cfg.history_len) for _ in range(2)]
            _, sample = collect_episode(env, ctrl, buffers, 2, collect_rng)
            batch.append(sample)
        # mu=0 keeps the weight equal to R regardless of the batch mean
        g = np.concatenate(estimate_gradient(ctrl, batch, mu=0.0, mode="eval"))
        chunks.append(g)
    chunks = np.asarray(chunks)
    proj_rng = np.random.default_rng(21)
    for _ in range(3):
        u = proj_rng.normal(size=exact.size)
        u /= np.linalg.norm(u)
        samples = chunks @ u
        mean = samples.mean()
        sigma = samples.std(ddof=1) / np.sqrt(len(samples))
        assert abs(mean - float(exact @ u)) < 3 * sigma + 1e-9


# ---------------------------------------------------------------------------
# replay store


def replay_of(n, n_agents):
    # samples with empty 1-slot start windows, told apart by their one rate
    return [TrainingSample(start_actions=np.full((1, n_agents), -1), start_rates=np.zeros(1),
                           actions=np.zeros((1, n_agents), dtype=int),
                           rates_norm=np.array([float(k)]), log_probs=np.zeros((1, n_agents)))
            for k in range(n)]


def test_replay_uniform_minibatch_chisquare():
    n = 60
    replay = replay_of(n, 2)
    rng = np.random.default_rng(22)
    counts = np.zeros(n)
    draws = 20_000
    for _ in range(draws):
        for s in tr._minibatch(replay, 5, rng):
            counts[int(s.rates_norm[0])] += 1
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.01


def test_replay_returns_all_when_small():
    replay = replay_of(3, 1)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    batch = tr._minibatch(replay, 10, rng)
    assert batch == replay and batch is not replay
    assert rng.bit_generator.state == state  # no draw when every sample fits
    assert tr._minibatch([], 1, rng) == []


# ---------------------------------------------------------------------------
# training loop


def test_train_zero_learning_rate_keeps_parameters():
    cfg = toy_config(learning_rate=0.0, max_updates=10)
    ctrl = make_controller(cfg, (2, 2), np.random.default_rng(23))
    before = [v.copy() for v in ctrl.parameter_vectors()]
    train(ToyGameEnvironment(toy_game(), seed=24), ctrl, cfg)
    for a, b in zip(before, ctrl.parameter_vectors()):
        np.testing.assert_array_equal(a, b)


def test_train_reproducible_curves():
    def run():
        cfg = toy_config(max_updates=25)
        ctrl = make_controller(cfg, (2, 2), np.random.default_rng(cfg.seed))
        res = train(ToyGameEnvironment(toy_game(), seed=cfg.seed), ctrl, cfg)
        return [(row.update, row.j_estimate, row.mean_rate, row.rate_variance,
                 row.grad_norm, row.clamps) for row in res.curves]

    assert run() == run()


def test_train_curve_counts_collection_clamps():
    # +-60 head biases put action 1 of every agent below the 1e-12 floor.
    # The seed sweep forces it in half of its slots, but a forced slot runs
    # no policy: it records the sweep's behaviour log-prob, -log|A_m| per
    # head, draws nothing from the rng and raises no clamp. The sampled
    # online slots never draw action 1, so every row counts 0.
    cfg = toy_config(learning_rate=0.0, max_updates=3)
    ctrl = make_controller(cfg, (2, 2), np.random.default_rng(5))
    for _, params in ctrl.nets:
        params.view("head0.b")[...] = [60.0, -60.0]
    res = train(ToyGameEnvironment(toy_game(), seed=6), ctrl, cfg)
    assert [row.clamps for row in res.curves] == [0] * len(res.curves)

    buffers = [HistoryBuffer(cfg.history_len) for _ in range(2)]
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    record, sample = collect_episode(ToyGameEnvironment(toy_game(), seed=6), ctrl, buffers,
                                     2, rng, forced_actions=[(1, 1), (0, 1)])
    np.testing.assert_array_equal(sample.log_probs, [[-math.log(2), -math.log(2)]] * 2)
    assert record.distributions == [None, None]
    assert rng.bit_generator.state == state


def test_train_curve_counts_a_floored_sample_in_its_own_row(monkeypatch):
    # The same +-60 head biases; the sampler is forced to draw action 1 once,
    # for agent 0 at slot 0 of the second online episode (the fifth draw).
    # Only the row of the update that follows that episode counts it.
    from rislab import policy as pol

    original, draws = pol.sample_action, []

    def forced(distribution, rng):
        draws.append(original(distribution, rng))
        return 1 if len(draws) == 5 else draws[-1]

    monkeypatch.setattr(pol, "sample_action", forced)
    cfg = toy_config(learning_rate=0.0, max_updates=4)
    ctrl = make_controller(cfg, (2, 2), np.random.default_rng(5))
    for _, params in ctrl.nets:
        params.view("head0.b")[...] = [60.0, -60.0]
    res = train(ToyGameEnvironment(toy_game(), seed=6), ctrl, cfg)
    assert len(draws) == 4 * cfg.max_updates
    expected = [0] * (cfg.offline_epochs + cfg.max_updates)
    expected[cfg.offline_epochs + 1] = 1
    assert [row.clamps for row in res.curves] == expected


@pytest.mark.parametrize("mode, nets", [("distributed", 2), ("centralized", 1)])
def test_train_forwards_only_in_updates(monkeypatch, mode, nets):
    # the seed sweep runs no policy, and each update makes one forward per net
    from rislab import policy as pol

    original, calls = pol.forward, []

    def spy(params, arch, history, mode="eval", rng=None):
        calls.append(mode)
        return original(params, arch, history, mode=mode, rng=rng)

    monkeypatch.setattr(pol, "forward", spy)
    for epochs in (0, 3):
        calls.clear()
        cfg = toy_config(mode=mode, offline_epochs=epochs, max_updates=0)
        ctrl = make_controller(cfg, (2, 2), np.random.default_rng(8))
        train(ToyGameEnvironment(toy_game(), seed=9), ctrl, cfg)
        assert calls == ["train"] * (epochs * nets)


def test_train_improves_toy_objective():
    cfg = toy_config(learning_rate=0.3, max_updates=400, seed=3)
    ctrl = make_controller(cfg, (2, 2), np.random.default_rng(cfg.seed))
    game = toy_game()
    pols = [ctrl.policy_fn(m) for m in range(2)]
    j_before = enumerate_exact_J(game, pols, 0.0)
    train(ToyGameEnvironment(game, seed=cfg.seed), ctrl, cfg)
    j_after = enumerate_exact_J(game, pols, 0.0)
    assert j_after > j_before + 0.5


def test_train_convergence_rule_stops_early():
    cfg = toy_config(learning_rate=0.0, max_updates=500,
                     convergence_window=10, convergence_tol=1e-3)
    ctrl = make_controller(cfg, (2, 2), np.random.default_rng(25))
    res = train(ToyGameEnvironment(toy_game(), seed=26), ctrl, cfg)
    assert res.converged
    assert res.updates < 500


def test_train_divergence_guard():
    cfg = toy_config(learning_rate=1e9, max_updates=50, grad_clip=0.0)
    ctrl = make_controller(cfg, (2, 2), np.random.default_rng(27))
    with pytest.raises(DivergenceError):
        train(ToyGameEnvironment(toy_game(), seed=28), ctrl, cfg)


def test_exact_ascent_divergence_guard():
    game = toy_game()
    cfg = toy_config()
    rng = np.random.default_rng(30)
    ctrl = make_controller(cfg, (2, 2), rng)
    randomize(ctrl, rng)
    with pytest.raises(DivergenceError):
        exact_ascent(game, ctrl, mu=0.0, steps=5, learning_rate=1e9)


def test_exact_ascent_monotone_at_small_rate():
    game = toy_game()
    cfg = toy_config()
    rng = np.random.default_rng(29)
    ctrl = make_controller(cfg, (2, 2), rng)
    randomize(ctrl, rng)
    trace = exact_ascent(game, ctrl, mu=0.0, steps=200, learning_rate=1e-3,
                         trace_every=1)
    diffs = np.diff(np.asarray(trace))
    assert np.all(diffs >= -1e-12)


# ---------------------------------------------------------------------------
# theorem harnesses


def test_theorem1_bitwise_equivalence():
    game = toy_game()
    cfg = toy_config(minibatch=8)
    report = theorem1_harness(lambda: ToyGameEnvironment(game, seed=31),
                              (2, 2), cfg, n_updates=30)
    assert report.max_param_divergence == 0.0
    assert report.factorization_gap <= 1e-12
    assert report.diverged_at is None


def test_theorem1_negative_control_detects_seed_change(monkeypatch):
    # a different action stream for the per-agent learners from update 5 on
    # must break bit-identity, and only from there
    game = toy_game()
    cfg = toy_config(minibatch=8)
    from rislab import training as tr

    original = tr.collect_episode
    calls = {"n": 0}

    def perturbed(env, controller, buffers, horizon, rng, forced_actions=None):
        # each update collects for the central server, then for the per-agent learners
        update, per_agent = divmod(calls["n"], 2)
        calls["n"] += 1
        if per_agent and update >= 5:
            rng = np.random.default_rng([cfg.seed + 999, update])
        return original(env, controller, buffers, horizon, rng, forced_actions)

    monkeypatch.setattr(tr, "collect_episode", perturbed)
    report = theorem1_harness(lambda: ToyGameEnvironment(game, seed=31),
                              (2, 2), cfg, n_updates=12)
    assert calls["n"] == 24
    assert report.max_param_divergence > 0.0
    assert report.diverged_at is not None and report.diverged_at > 5


def test_agent_view_keeps_the_agents_own_columns():
    # an agent sees its own action and log-prob columns and the shared rates
    sample = TrainingSample(start_actions=np.array([[-1, -1, -1], [2, 0, 1]]),
                            start_rates=np.array([0.0, 0.4]),
                            actions=np.array([[1, 0, 3], [0, 1, 2]]),
                            rates_norm=np.array([0.3, 0.6]),
                            log_probs=np.array([[-0.1, -0.2, -0.3], [-0.4, -0.5, -0.6]]))
    for m in range(3):
        view = tr._agent_view(sample, m)
        for name in ("start_actions", "actions", "log_probs"):
            np.testing.assert_array_equal(getattr(view, name), getattr(sample, name)[:, [m]])
        assert view.start_rates is sample.start_rates
        assert view.rates_norm is sample.rates_norm


def test_theorem1_requires_distributed_mode():
    cfg = toy_config(mode="centralized")
    with pytest.raises(ValueError):
        theorem1_harness(lambda: ToyGameEnvironment(toy_game(), seed=0),
                         (2, 2), cfg)


def test_nash_check_single_agent_at_optimum():
    game = frozen_toy_game({(0,): 1.0, (1,): 2.0}, n_beams=2, n_phases=1,
                           n_ris=0, horizon=1)

    def pinned(hist):
        return np.array([0.0, 1.0])

    report = nash_check(game, [pinned], mu=0.0)
    assert report.best_improvement == pytest.approx(0.0, abs=1e-12)


def test_nash_check_detects_perturbed_profile():
    game = toy_game()

    def good0(hist):
        return np.array([0.02, 0.98])

    def good1(hist):
        return np.array([0.02, 0.98])

    def bad1(hist):
        return np.array([0.6, 0.4])

    near = nash_check(game, [good0, good1], mu=0.0)
    off = nash_check(game, [good0, bad1], mu=0.0)
    assert off.best_improvement > near.best_improvement
    assert off.best_improvement > 0.1


def test_nash_check_converged_profile_certificate():
    game = toy_game()
    cfg = toy_config()
    ctrl = make_controller(cfg, (2, 2), np.random.default_rng(32))
    randomize(ctrl, np.random.default_rng(33), scale=0.3)
    exact_ascent(game, ctrl, mu=0.0, steps=1500, learning_rate=0.5,
                 trace_every=1500)
    pols = [ctrl.policy_fn(m) for m in range(2)]
    report = nash_check(game, pols, mu=0.0)
    assert report.best_improvement <= 1e-3 * abs(report.j_current)


def counted(policy_fns, calls):
    """The policies, each appending (agent, history) to `calls` per call."""
    def wrap(m, fn):
        def inner(hist):
            calls.append((m, hist))
            return fn(hist)
        return inner

    return [wrap(m, fn) for m, fn in enumerate(policy_fns)]


def controller_policies(game, mode, seed):
    rng = np.random.default_rng(seed)
    ctrl = make_controller(toy_config(mode=mode), (2, 2), rng)
    randomize(ctrl, rng)
    return [ctrl.policy_fn(m) for m in range(2)]


def nash_profiles():
    """(game, policies) pairs: trained-net profiles on the toy and on
    stochastic toys, the single-agent frozen game, a perturbed profile,
    one-hot profiles whose zeros cut whole subtrees, and a game whose rates
    hide one agent's action from the other."""
    toy = toy_game()
    single = frozen_toy_game({(0,): 1.0, (1,): 2.0}, n_beams=2, n_phases=1,
                             n_ris=0, horizon=1)
    stochastic = stochastic_toy_game(502)
    shared_rate = frozen_toy_game({(0, 0): 1.0, (0, 1): 1.0, (1, 0): 0.0, (1, 1): 2.0},
                                  n_beams=2, n_phases=2, n_ris=1, horizon=2)

    def sticky_phase(hist):
        """0.9 on the phase just played."""
        return np.array([0.5, 0.5]) if not hist else np.eye(2)[hist[-1][0][1]] * 0.8 + 0.1

    return {
        "toy_distributed": (toy, controller_policies(toy, "distributed", 6)),
        "toy_centralized": (toy, controller_policies(toy, "centralized", 11)),
        "st500": (stochastic_toy_game(500), controller_policies(toy, "distributed", 6)),
        "st501": (stochastic_toy_game(501), controller_policies(toy, "centralized", 11)),
        "st502": (stochastic, controller_policies(toy, "distributed", 16)),
        "single_agent": (single, [lambda hist: np.array([0.0, 1.0])]),
        "perturbed": (toy, [lambda hist: np.array([0.02, 0.98]),
                            lambda hist: np.array([0.6, 0.4])]),
        "onehot_toy": (toy, joint_onehot_policies(
            toy, lambda hist: (0, 1) if not hist else (hist[-1][0][1], 1))),
        "onehot_stochastic": (stochastic, joint_onehot_policies(
            stochastic, lambda hist: (1, 0) if not hist else (0, int(hist[-1][1] > 1.5)))),
        # beam 0 pays 1.0 whatever the phase, so the beam agent's own history
        # hides the phase the other agent keys its next phase on
        "shared_rate": (shared_rate, [lambda hist: np.array([0.5, 0.5]), sticky_phase]),
    }


@pytest.mark.parametrize("name", list(nash_profiles()))
def test_nash_check_bitwise_equals_walk_reference(name):
    # the table scores j_current and every deviation exactly as the walk
    # does, and asks each policy once at every history of the table, in
    # first-visit order
    game, policies = nash_profiles()[name]
    histories = TrajectoryTable(game).histories
    for mu in (0.0, 0.7):
        calls = []
        got = nash_check(game, counted(policies, calls), mu)
        want = reference_nash_check(game, policies, mu)
        assert got.j_current == want.j_current
        assert got.per_agent == want.per_agent
        assert got.best_improvement == want.best_improvement
        assert calls == [(m, hist) for hist in histories for m in range(len(policies))]


def test_nash_check_certifies_a_closed_loop_optimum():
    # the optimum's one-hot policies play, off its support, the joint action
    # of the longest prefix it holds, so a deviation of one of several
    # agents finds the others' policies defined
    games = [revealed_state_game()] + [stochastic_toy_game(seed) for seed in (500, 501, 502)]
    for game, mu in product(games, (0.0, 0.8)):
        best = optimal_policy(game, mu, closed_loop=True)
        policies = best.policy_fns(game)
        off = ((best.tree[()], -1.0),)   # a rate the game never pays: the root's prefix
        assert tuple(int(np.argmax(fn(off))) for fn in policies) == best.tree[()]
        report = nash_check(game, policies, mu)
        assert report.j_current == best.j_star
        assert report.best_improvement == 0.0
        assert report == reference_nash_check(game, policies, mu)


def certificate_games():
    return {"toy": toy_game(), **{f"st{seed}": stochastic_toy_game(seed)
                                  for seed in (500, 501, 502)}}


@pytest.mark.parametrize("mode", ["distributed", "centralized"])
@pytest.mark.parametrize("name", list(certificate_games()))
def test_policy_fn_at_equals_stacked_calls(mode, name):
    # the batched ask is one forward over the stacked windows, bit for bit
    # the per-history calls stacked in the same order
    game = certificate_games()[name]
    histories = game.table.histories
    for seed in (6, 11, 16):
        for fn in controller_policies(game, mode, seed):
            stacked = np.stack([fn(hist) for hist in histories])
            got = fn.at(histories)
            assert got.shape == stacked.shape
            assert got.tobytes() == stacked.tobytes()


@pytest.mark.parametrize("name", list(certificate_games()))
def test_one_hot_stack_scores_as_separate_profiles(name):
    # k deterministic policies of one agent, its (k, n_histories, n_actions)
    # one-hot stack beside the other agent's dists, score bit for bit as k
    # separate objective calls and as the walk of k plain one-hot callables;
    # a -1 pick takes the all-zero row, so its subtree scores 0
    game = certificate_games()[name]
    table = game.table
    index = {hist: h for h, hist in enumerate(table.histories)}
    rng = np.random.default_rng(len(name))
    dists = [rng.dirichlet(np.ones(len(a)), size=len(index)) for a in game.action_sets]
    for m, actions in enumerate(game.action_sets):
        picks = rng.integers(-1, len(actions), size=(6, len(index)))
        stack = np.eye(len(actions) + 1, len(actions))[picks]
        profile = dists[:m] + [stack] + dists[m + 1:]
        assert table.probabilities(profile).shape == (len(picks), len(table.ret))
        for mu in (0.0, 0.7):
            scores = table.objective(profile, mu)
            assert len(scores) == len(picks)
            for onehots, score in zip(stack, scores):
                single = dists[:m] + [onehots] + dists[m + 1:]
                assert score == table.objective(single, mu)
                fns = [lambda hist, d=d: d[index[hist]] for d in single]
                assert score == enumerate_exact_J(game, fns, mu)


@pytest.mark.parametrize("mode,seed", [("distributed", 6), ("centralized", 11),
                                       ("distributed", 16)])
@pytest.mark.parametrize("name", list(certificate_games()))
def test_nash_check_batched_ask_equals_walk_reference(mode, seed, name):
    # unwrapped controller policies take the batched ask
    game = certificate_games()[name]
    policies = controller_policies(game, mode, seed)
    for mu in (0.0, 0.7):
        assert nash_check(game, policies, mu) == reference_nash_check(game, policies, mu)


@pytest.mark.parametrize("mode", ["distributed", "centralized"])
def test_certificate_asks_each_agent_in_one_forward(mode, monkeypatch):
    # the toy has 5 histories: per-history asks made 10 forwards
    game = toy_game()
    policies = controller_policies(game, mode, 6)
    game.table  # built before counting; the table runs no forward
    calls = []
    forward = pol.forward
    monkeypatch.setattr(pol, "forward",
                        lambda *args, **kw: calls.append(args[2].shape) or forward(*args, **kw))
    nash_check(game, policies, 0.0)
    assert len(calls) == 2
    assert all(shape[0] == len(game.table.histories) for shape in calls)


def test_nash_check_names_a_missing_agent():
    game = stochastic_toy_game(500)
    with pytest.raises(ValueError, match="1 policies for 2 agents"):
        nash_check(game, uniform_policies(game)[:1], 0.0)
    dists = [np.full((len(game.table.histories), 2), 0.5)]
    with pytest.raises(ValueError, match="1 dists arrays for 2 agents"):
        game.table.objective(dists, 0.0)


def test_one_walk_per_game(monkeypatch):
    # GameTree, the certificates and the optimum share the game's table;
    # a replaced copy is a new game with a table of its own
    calls = counted_walks(monkeypatch)
    game = stochastic_toy_game(501)
    ctrl = make_controller(toy_config(), (2, 2), np.random.default_rng(6))
    tree = tr.GameTree(game, ctrl)
    policies = [ctrl.policy_fn(m) for m in range(2)]
    for mu in (0.0, 0.3, 0.7, 0.9):
        nash_check(game, policies, mu)
    optimal_policy(game, 0.8, closed_loop=True)
    assert len(calls) == 1
    assert tree.table is game.table
    twin = dataclasses.replace(game)
    assert twin.table is not game.table
    assert len(calls) == 2
    assert twin.table.histories == game.table.histories
