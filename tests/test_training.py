"""Trainer tests: collection determinism, estimator identities against the
enumeration oracle, replay uniformity, the training loop's contracts, and
both theorem harnesses."""

import math

import numpy as np
import pytest
from scipy import stats

from helpers import fd_gradient

from rislab.environment import HistoryBuffer
from rislab.oracle import (
    enumerate_exact_J,
    frozen_toy_game,
    optimal_policy,
    own_history,
)
from rislab.risk import gradient_weight
from rislab.training import (
    CentralizedController,
    DistributedController,
    DivergenceError,
    ReplayStore,
    ToyGameEnvironment,
    TrainConfig,
    TrainingSample,
    collect_episode,
    estimate_gradient,
    exact_ascent,
    exact_policy_gradient,
    make_controller,
    nash_check,
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
    return TrainConfig(**base)


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
    assert record.horizon == 1
    assert record.episodic_return == pytest.approx(record.rates[0])
    assert sample.actions[0] == tuple(record.actions[0].as_tuple())


def test_collect_episode_deterministic_with_onehot_policies():
    cfg = toy_config()
    env = ToyGameEnvironment(toy_game(), seed=3)

    class Pinned(DistributedController):
        def distributions(self, buffers):
            return [np.array([0.0, 1.0]), np.array([1.0, 0.0])]

    ctrl = Pinned((2, 2), cfg.history_len, np.random.default_rng(1))
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
    rates0 = [r for _, r in buffers[0].entries()]
    rates1 = [r for _, r in buffers[1].entries()]
    assert rates0 == rates1


def test_training_sample_entry_reconstruction():
    sample = TrainingSample(start_entries=(((1, 0.5),), ((0, 0.5),)),
                            actions=((1, 0), (0, 1)), rates_norm=(0.3, 0.6))
    assert sample.entries_at(0, 0) == ((1, 0.5),)
    assert sample.entries_at(0, 2) == ((1, 0.5), (1, 0.3), (0, 0.6))
    assert sample.entries_at(1, 1) == ((0, 0.5), (0, 0.3))
    assert sample.episodic_return == pytest.approx(0.9)


def test_distributed_policy_fn_runs_only_its_own_net(monkeypatch):
    # policy_fn(m) must equal the joint distributions()[m] exactly while
    # running agent m's net alone: one forward per call, not one per agent
    from rislab import policy as pol

    ctrl = DistributedController((3, 2, 2), 4, np.random.default_rng(36))
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


@pytest.mark.parametrize("kind", [CentralizedController, DistributedController])
def test_policy_fn_equals_joint_distributions(kind):
    # the oracle-facing policy_fn(m) and the collection-facing
    # distributions()[m] are the same function of the history, bit for bit
    ctrl = kind((3, 2, 2), 4, np.random.default_rng(38))
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
    # distributions(buffers)'s net input, sample_input(sample, t, m) and
    # encode_history(hist, m) are the same encoding of one history, bit for
    # bit, and all equal a plain loop; the 6-slot history overruns H = 4
    from rislab import policy as pol

    heads, history_len = (3, 2, 2), 4
    ctrl = kind(heads, history_len, np.random.default_rng(45))
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
    for cut in (0, 1, 4, len(history)):
        hist = history[:cut]
        inputs.clear()
        ctrl.distributions(buffers_from_history(hist, ctrl.n_agents, history_len))
        assert len(inputs) == len(ctrl.groups)
        slot = min(cut, 2)
        sample = TrainingSample(
            start_entries=tuple(tuple((joint[m], rate) for joint, rate in hist[:cut - slot])
                                for m in range(ctrl.n_agents)),
            actions=tuple(joint for joint, _ in hist[cut - slot:]),
            rates_norm=tuple(rate for _, rate in hist[cut - slot:]))
        for net_input, agents in zip(inputs, ctrl.groups):
            want = reference_input(hist, heads, agents, history_len)
            np.testing.assert_array_equal(net_input, want)
            for m in agents:
                np.testing.assert_array_equal(ctrl.sample_input(sample, slot, m), want)
                np.testing.assert_array_equal(ctrl.encode_history(hist, m), want)


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
    for m, (arch, params) in enumerate(ctrl.nets):
        want = np.zeros(params.n)
        for t in range(2):
            feats = ctrl.sample_input(sample, t, m)
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
    assert len(grads) == len(nets)
    for (arch, params, agents), got in zip(nets, grads):
        want = np.zeros(params.n)
        for t in range(horizon):
            feats = np.stack([ctrl.sample_input(s, t, agents[0]) for s in batch])
            _, cache = pol.forward(params, arch, feats, mode="train", rng=rng)
            acts = [np.array([s.actions[t][m] for s in batch]) for m in agents]
            want += pol.backward(params, arch, cache, acts, weights)
        np.testing.assert_allclose(got, want / len(batch), rtol=1e-12)


def test_estimate_gradient_rejects_empty_batch():
    cfg = toy_config()
    ctrl = make_controller(cfg, (2, 2), np.random.default_rng(15))
    with pytest.raises(ValueError):
        estimate_gradient(ctrl, [], mu=0.0)


def test_exact_gradient_matches_fd_of_exact_J():
    # Eq-12-weighted exact-expectation gradient == d/dtheta of the exact
    # surrogate objective (the executable core of the gradient proposition)
    game = toy_game()
    cfg = toy_config()
    rng = np.random.default_rng(16)
    ctrl = make_controller(cfg, (2, 2), rng)
    randomize(ctrl, rng)
    mu = 0.7
    exact = np.concatenate(exact_policy_gradient(game, ctrl, mu))
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


def test_exact_gradient_centralized_mode():
    game = toy_game()
    cfg = toy_config(mode="centralized")
    rng = np.random.default_rng(17)
    ctrl = make_controller(cfg, (2, 2), rng)
    randomize(ctrl, rng)
    mu = 0.3
    exact = np.concatenate(exact_policy_gradient(game, ctrl, mu))
    vec = ctrl.parameter_vectors()[0]
    joined = vec.copy()

    def j_of(theta):
        vec[:] = theta
        return enumerate_exact_J(game, [ctrl.policy_fn(m) for m in range(2)], mu)

    fd = fd_gradient(j_of, joined, step=1e-4)
    j_of(joined)
    rel = np.linalg.norm(fd - exact) / np.linalg.norm(exact)
    assert rel < 1e-6


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


def test_replay_uniform_minibatch_chisquare():
    store = ReplayStore()
    n = 60
    for k in range(n):
        store.add(TrainingSample(start_entries=((), ()), actions=((0, 0),),
                                 rates_norm=(float(k),)))
    rng = np.random.default_rng(22)
    counts = np.zeros(n)
    draws = 20_000
    for _ in range(draws):
        for s in store.minibatch(5, rng):
            counts[int(s.rates_norm[0])] += 1
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.01


def test_replay_returns_all_when_small():
    store = ReplayStore()
    for k in range(3):
        store.add(TrainingSample(start_entries=((),), actions=((0,),),
                                 rates_norm=(float(k),)))
    batch = store.minibatch(10, np.random.default_rng(0))
    assert len(batch) == 3
    with pytest.raises(ValueError):
        ReplayStore().minibatch(1, np.random.default_rng(0))


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
    record, _ = collect_episode(ToyGameEnvironment(toy_game(), seed=6), ctrl, buffers,
                                2, rng, forced_actions=[(1, 1), (0, 1)])
    assert record.log_probs == [[-math.log(2), -math.log(2)]] * 2
    assert rng.bit_generator.state == state


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
