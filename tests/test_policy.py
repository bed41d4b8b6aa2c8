"""Policy-network tests: finite-difference gradient oracles, sampling
conventions, dropout behavior, and checkpoint round-trips."""

import numpy as np
import pytest

from rislab.policy import (
    PROB_FLOOR,
    ForwardCache,
    PolicyArchitecture,
    PolicyParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    log_prob,
    n_params,
    param_layout,
    sample_action,
    save_checkpoint,
)


from helpers import (LSTM_STATES, differentiable_at, fd_gradient, loop_backward,
                     lstm_states, max_rel_err, random_params)


def tiny_arch(kind="distributed", heads=(2,), f=3, h=4, p1=0.0, p2=0.0):
    return PolicyArchitecture(kind=kind, history_len=h, input_size=f,
                              head_sizes=heads, dropout_lstm=p1, dropout_dense=p2)


# ---------------------------------------------------------------------------
# architecture / init


def test_arch_layer_sizes():
    cent = tiny_arch(kind="centralized", heads=(3, 2), h=16)
    assert cent.lstm_sizes == (16, 8, 4)
    assert cent.trunk_sizes == (4, 4, 4)
    dist = tiny_arch(kind="distributed", heads=(5,), h=16)
    assert dist.lstm_sizes == (16, 4)
    assert dist.trunk_sizes == (4, 4)


def test_arch_rejects_bad_history_and_heads():
    with pytest.raises(ValueError):
        tiny_arch(h=6)
    with pytest.raises(ValueError):
        tiny_arch(heads=(0,))
    with pytest.raises(ValueError):
        tiny_arch(kind="distributed", heads=(2, 2))


def test_init_deterministic_under_seed():
    arch = tiny_arch()
    a = init_params(arch, np.random.default_rng(5))
    b = init_params(arch, np.random.default_rng(5))
    np.testing.assert_array_equal(a.values, b.values)


def test_init_param_count_closed_form():
    # independent dimension arithmetic for H=16 distributed, 8 actions,
    # input = one-hot(8) + rate = 9 features
    arch = PolicyArchitecture(kind="distributed", history_len=16, input_size=9,
                              head_sizes=(8,))
    lstm0 = 4 * 16 * 9 + 4 * 16 * 16 + 4 * 16      # gates x (in + rec + bias)
    lstm1 = 4 * 4 * 16 + 4 * 4 * 4 + 4 * 4
    dense = (4 * 4 + 4) + (4 * 4 + 4)              # two H/4-wide trunk layers
    head = 8 * 4 + 8
    want = lstm0 + lstm1 + dense + head
    assert n_params(arch) == want
    params = init_params(arch, np.random.default_rng(0))
    assert params.n == want


def test_init_forget_gate_bias_is_one():
    arch = tiny_arch(h=8)
    params = init_params(arch, np.random.default_rng(1))
    for j, h in enumerate(arch.lstm_sizes):
        b = params.view(f"lstm{j}.b")
        assert np.all(b[h:2 * h] == 1.0)
        assert np.all(b[:h] == 0.0) and np.all(b[2 * h:] == 0.0)


def test_param_views_share_memory():
    arch = tiny_arch()
    params = init_params(arch, np.random.default_rng(2))
    params.view("head0.b")[0] = 123.0
    name_pos = dict((n, s) for n, s in param_layout(arch))
    assert 123.0 in params.values


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_params_gives_uniform_heads():
    arch = tiny_arch(kind="centralized", heads=(3, 4), f=2, h=4)
    params = PolicyParams(values=np.zeros(n_params(arch)), layout=param_layout(arch))
    dists, _ = forward(params, arch, np.random.default_rng(0).normal(size=(4, 2)))
    np.testing.assert_allclose(dists[0], np.full(3, 1 / 3), atol=1e-15)
    np.testing.assert_allclose(dists[1], np.full(4, 1 / 4), atol=1e-15)


def test_forward_eval_deterministic():
    arch = tiny_arch()
    params = init_params(arch, np.random.default_rng(3))
    hist = np.random.default_rng(4).normal(size=(4, 3))
    d1, _ = forward(params, arch, hist, mode="eval")
    d2, _ = forward(params, arch, hist, mode="eval")
    np.testing.assert_array_equal(d1[0], d2[0])


def test_forward_heads_sum_to_one():
    arch = tiny_arch(kind="centralized", heads=(4, 3), f=5, h=8)
    params = init_params(arch, np.random.default_rng(6))
    params.values *= 40.0  # drive softmax toward saturation
    hist = np.random.default_rng(7).normal(size=(8, 5))
    dists, _ = forward(params, arch, hist)
    for d in dists:
        assert abs(d.sum() - 1.0) < 1e-12
        assert np.all(d >= 0.0)


@pytest.mark.parametrize("kind,heads,h", [("distributed", (3,), 4),
                                           ("centralized", (3, 2), 4),
                                           ("centralized", (3, 2), 8)])
def test_forward_matches_scalar_loop_reference(kind, heads, h):
    # independent scalar-loop LSTM + dense forward, no shared code; on the
    # 3-layer net every cached gate and state of a layer is checked, so a
    # wave kernel's not-started layers and tail waves are covered too;
    # nonzero biases, since with zero ones a layer run early stays at 0
    arch = tiny_arch(kind=kind, heads=heads, f=2, h=h)
    rng = np.random.default_rng(8)
    params = random_params(arch, rng)
    hist = rng.normal(size=(h, 2))

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    x_seq = hist
    layers = []
    for j, hsz in enumerate(arch.lstm_sizes):
        w = params.view(f"lstm{j}.W")
        u = params.view(f"lstm{j}.U")
        b = params.view(f"lstm{j}.b")
        h_prev = np.zeros(hsz)
        c_prev = np.zeros(hsz)
        steps = {k: [] for k in "ifgoch"}
        for t in range(h):
            z = w @ x_seq[t] + u @ h_prev + b
            i, f, g, o = (sig(z[:hsz]), sig(z[hsz:2 * hsz]),
                          np.tanh(z[2 * hsz:3 * hsz]), sig(z[3 * hsz:]))
            c_prev = f * c_prev + i * g
            h_prev = o * np.tanh(c_prev)
            for k, v in zip("ifgoch", (i, f, g, o, c_prev, h_prev)):
                steps[k].append(v)
        layers.append({k: np.array(v) for k, v in steps.items()})
        x_seq = layers[-1]["h"]
    z = x_seq[-1]
    for j in range(len(arch.trunk_sizes)):
        z = np.maximum(params.view(f"dense{j}.W") @ z + params.view(f"dense{j}.b"), 0.0)
    got, cache = forward(params, arch, hist, mode="eval")
    for m in range(len(heads)):
        logits = params.view(f"head{m}.W") @ z + params.view(f"head{m}.b")
        want = np.exp(logits - logits.max())
        np.testing.assert_allclose(got[m], want / want.sum(), rtol=1e-10)
    # the cached per-slot gates and states are the loop's, slot by slot
    for states, ref in zip(lstm_states(cache, arch), layers):
        for k in "ifgoch":
            np.testing.assert_allclose(states[k][:, 0, :], ref[k],
                                       rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(states["tc"][:, 0, :], np.tanh(ref["c"]),
                                   rtol=1e-12, atol=1e-15)


def test_forward_shape_mismatch_raises():
    arch = tiny_arch()
    params = init_params(arch, np.random.default_rng(0))
    with pytest.raises(ValueError):
        forward(params, arch, np.zeros((5, 3)))
    with pytest.raises(ValueError):
        forward(params, arch, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        forward(params, arch, np.zeros((1, 1, 1, 4, 3)))


def test_train_mode_requires_rng_when_dropping():
    arch = tiny_arch(p1=0.2)
    params = init_params(arch, np.random.default_rng(0))
    with pytest.raises(ValueError):
        forward(params, arch, np.zeros((4, 3)), mode="train")


@pytest.mark.parametrize("kind, heads", [("distributed", (3,)), ("centralized", (3, 2))])
def test_stacked_forward_equals_consecutive_batch_calls(kind, heads):
    # a (G, S, H, F) stack runs as one batch of G*S rows, with the dropout
    # masks that G consecutive (S, H, F) calls draw from the same rng
    arch = tiny_arch(kind=kind, heads=heads, f=3, h=4, p1=0.2, p2=0.4)
    params = init_params(arch, np.random.default_rng(16))
    stack = np.random.default_rng(17).normal(size=(3, 5, 4, 3))
    got, cache = forward(params, arch, stack, mode="train", rng=np.random.default_rng(18))
    rng = np.random.default_rng(18)
    for g in range(3):
        want, ref = forward(params, arch, stack[g], mode="train", rng=rng)
        rows = slice(5 * g, 5 * g + 5)
        for p, w in zip(got, want):
            np.testing.assert_allclose(p[g], w, rtol=1e-12)
        np.testing.assert_array_equal(cache.drop_lstm[rows], ref.drop_lstm)
        for (_, _, mask), (_, _, ref_mask) in zip(cache.trunk, ref.trunk):
            np.testing.assert_array_equal(mask[rows], ref_mask)


def test_dropout_expectation_matches_eval():
    # inverted dropout: the train-mode mean over many masks approaches the
    # eval output; mid-range activations keep the nonlinearity near-linear
    arch = tiny_arch(kind="distributed", heads=(4,), f=3, h=8, p1=0.2, p2=0.4)
    rng = np.random.default_rng(9)
    params = init_params(arch, rng)
    hist = rng.normal(size=(8, 3)) * 0.5
    eval_dist, _ = forward(params, arch, hist, mode="eval")
    batch = np.broadcast_to(hist, (10_000, 8, 3))
    train_dists, _ = forward(params, arch, batch, mode="train",
                             rng=np.random.default_rng(10))
    mean_dist = train_dists[0].mean(axis=0)
    assert np.max(np.abs(mean_dist - eval_dist[0])) < 0.02


def test_forward_ignores_entries_older_than_window():
    # the network consumes exactly H slots; anything older is invisible
    arch = tiny_arch()
    params = init_params(arch, np.random.default_rng(11))
    tail = np.random.default_rng(12).normal(size=(4, 3))
    d1, _ = forward(params, arch, tail)
    longer = np.vstack([np.random.default_rng(13).normal(size=(3, 3)), tail])
    d2, _ = forward(params, arch, longer[-4:])
    np.testing.assert_array_equal(d1[0], d2[0])


# ---------------------------------------------------------------------------
# sampling / log-prob


def test_sample_degenerate_distribution():
    rng = np.random.default_rng(0)
    assert all(sample_action(np.array([1.0, 0.0, 0.0]), rng) == 0 for _ in range(20))


def test_sample_uniform_frequencies():
    rng = np.random.default_rng(1)
    dist = np.full(4, 0.25)
    draws = np.array([sample_action(dist, rng) for _ in range(100_000)])
    freqs = np.bincount(draws, minlength=4) / draws.size
    np.testing.assert_allclose(freqs, 0.25, atol=0.01)


def test_sample_boundary_convention():
    class FixedU:
        def random(self):
            return 0.3

    assert sample_action(np.array([0.3, 0.7]), FixedU()) == 1


def test_log_prob_uniform_and_deterministic():
    assert log_prob(np.full(8, 1 / 8), 5) == pytest.approx(np.log(1 / 8))
    assert log_prob(np.array([0.0, 1.0]), 1) == pytest.approx(0.0)


def test_log_prob_zero_support_raises():
    with pytest.raises(ValueError):
        log_prob(np.array([1.0, 0.0]), 1)


def test_log_prob_floors_tiny_probability():
    assert log_prob(np.array([1.0 - 1e-14, 1e-14]), 1) == np.log(PROB_FLOOR)


def test_episode_log_prob_factorizes():
    # joint log-prob of a T=2, M=3 trajectory = sum of the 6 per-head terms
    arch = tiny_arch(kind="centralized", heads=(2, 3, 2), f=4, h=4)
    params = init_params(arch, np.random.default_rng(14))
    rng = np.random.default_rng(15)
    total = 0.0
    accum = []
    for _ in range(2):  # slots
        hist = rng.normal(size=(4, 4))
        dists, _ = forward(params, arch, hist)
        for d in dists:
            a = sample_action(d, rng)
            accum.append(log_prob(d, a))
            total += np.log(d[a])
    assert sum(accum) == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_weight_zero_gradient():
    arch = tiny_arch()
    params = init_params(arch, np.random.default_rng(16))
    _, cache = forward(params, arch, np.random.default_rng(17).normal(size=(4, 3)))
    g = backward(params, arch, cache, [1], 0.0)
    assert np.all(g == 0.0)


def test_backward_linear_in_weight():
    arch = tiny_arch()
    params = init_params(arch, np.random.default_rng(18))
    _, cache = forward(params, arch, np.random.default_rng(19).normal(size=(4, 3)))
    g1 = backward(params, arch, cache, [0], 1.0)
    g2 = backward(params, arch, cache, [0], 2.0)
    np.testing.assert_array_equal(g2, 2.0 * g1)


def assert_lstm_gradients_clear_floor(params, arch, got):
    """Every LSTM layer's recurrent gradient clears max_rel_err's comparison
    floor, so the finite-difference check reaches the LSTM stack. Width-1
    trunks, dead ReLUs and dropout often cut the gradient to the stack, so
    the FD tests use seeds where this holds."""
    grad = PolicyParams(values=got, layout=params.layout)
    floor = 1e-5 * max(1.0, float(np.max(np.abs(got))))
    for j in range(len(arch.lstm_sizes)):
        assert np.max(np.abs(grad.view(f"lstm{j}.U"))) > floor


@pytest.mark.parametrize("kind,heads", [("distributed", (2,)), ("centralized", (2, 3))])
def test_backward_matches_finite_differences_eval(kind, heads):
    arch = tiny_arch(kind=kind, heads=heads, f=3, h=4)
    rng = np.random.default_rng({"distributed": 27, "centralized": 54}[kind])
    params = random_params(arch, rng)
    hist = rng.normal(size=(4, 3))
    actions = [int(rng.integers(0, n)) for n in heads]
    _, cache = forward(params, arch, hist)
    assert differentiable_at(cache)
    got = backward(params, arch, cache, actions, 1.0)
    assert_lstm_gradients_clear_floor(params, arch, got)

    def score(values):
        d, _ = forward(PolicyParams(values=values, layout=params.layout), arch, hist)
        return sum(float(np.log(d[m][actions[m]])) for m in range(len(heads)))

    fd = fd_gradient(score, params.values)
    assert max_rel_err(fd, got) < 1e-4


def test_backward_matches_finite_differences_with_dropout():
    # fixed-seed masks make the dropped network a deterministic function
    seed = 40
    arch = tiny_arch(kind="distributed", heads=(3,), f=2, h=4, p1=0.3, p2=0.3)
    rng = np.random.default_rng(seed)
    params = random_params(arch, rng)
    hist = rng.normal(size=(4, 2))
    _, cache = forward(params, arch, hist, mode="train", rng=np.random.default_rng(seed))
    got = backward(params, arch, cache, [2], 1.5)
    assert_lstm_gradients_clear_floor(params, arch, got)

    def score(values):
        d, _ = forward(PolicyParams(values=values, layout=params.layout), arch,
                       hist, mode="train", rng=np.random.default_rng(seed))
        return 1.5 * float(np.log(d[0][2]))

    fd = fd_gradient(score, params.values)
    assert max_rel_err(fd, got) < 1e-4


def test_backward_batched_equals_sum_of_samples():
    arch = tiny_arch(kind="centralized", heads=(3, 2), f=4, h=8)
    rng = np.random.default_rng(22)
    params = init_params(arch, rng)
    batch = rng.normal(size=(5, 8, 4))
    acts = [rng.integers(0, n, size=5) for n in (3, 2)]
    weights = rng.normal(size=5)
    _, cache = forward(params, arch, batch)
    got = backward(params, arch, cache, acts, weights)
    want = np.zeros(params.n)
    for s in range(5):
        _, c1 = forward(params, arch, batch[s])
        want += backward(params, arch, c1, [a[s] for a in acts], weights[s])
    np.testing.assert_allclose(got, want, atol=1e-12 * max(1.0, np.max(np.abs(want))))


@pytest.mark.parametrize("mode", ["eval", "train"])
@pytest.mark.parametrize("shape", [(16, 3), (5, 16, 3), (2, 3, 16, 3)])
@pytest.mark.parametrize("kind,heads", [("distributed", (3,)), ("centralized", (2, 3))])
def test_backward_matches_per_row_loop_bptt(kind, heads, shape, mode):
    # the batched kernel against plain per-row, per-step BPTT: every layer
    # below the top takes a dh at each slot, the top layer at the final slot
    arch = tiny_arch(kind=kind, heads=heads, f=3, h=16, p1=0.2, p2=0.2)
    rng = np.random.default_rng(91)
    params = random_params(arch, rng)
    hist = rng.normal(size=shape)
    rows = hist.reshape(-1, 16, 3)
    actions = [rng.integers(0, n, size=len(rows)) for n in heads]
    weights = rng.normal(size=len(rows))
    _, cache = forward(params, arch, hist, mode=mode, rng=np.random.default_rng(93))
    got = backward(params, arch, cache, actions, weights)
    assert_lstm_gradients_clear_floor(params, arch, got)
    masks = [mask for _, _, mask in cache.trunk]
    want = loop_backward(params, arch, rows, actions, weights, cache.drop_lstm,
                         None if mode == "eval" else masks)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_forward_cache_layout():
    # the dense trunk and the heads stay row-major whatever the LSTM layout;
    # the wave block holds every gate and state once: slot t of layer j is
    # wave j + t, and each of the seven n-row segments [i | f | g | o | c |
    # tc | h] holds the layers in order, as lstm_states reads it
    arch = tiny_arch(kind="centralized", heads=(3, 2), f=3, h=8, p1=0.2, p2=0.2)
    params = init_params(arch, np.random.default_rng(93))
    _, cache = forward(params, arch, np.random.default_rng(94).normal(size=(2, 5, 8, 3)),
                       mode="train", rng=np.random.default_rng(95))
    for layer_in, pre, mask in cache.trunk:
        assert pre.shape == mask.shape == (10, 2)
        assert layer_in.shape[0] == 10
    assert cache.drop_lstm.shape == (10, 2)
    assert [p.shape for p in cache.head_probs] == [(10, 3), (10, 2)]
    n = sum(arch.lstm_sizes)
    assert cache.waves.shape == (8 + 2, 7 * n, 10)
    assert cache.inputs.shape == (8, 3 + 1, 10)
    segments = cache.waves.reshape(8 + 2, 7, n, 10)
    start = 0
    for j, (states, width) in enumerate(zip(lstm_states(cache, arch), arch.lstm_sizes)):
        for k, name in enumerate(LSTM_STATES):
            view = states[name]
            assert view.shape == (8, 10, width)
            for t in range(8):
                np.testing.assert_array_equal(view[t], segments[j + t, k, start:start + width].T)
        start += width
    # the trunk reads the top layer's final slot
    np.testing.assert_array_equal(cache.trunk[0][0],
                                  lstm_states(cache, arch)[-1]["h"][-1] * cache.drop_lstm)


def test_lstm_views_share_one_block_per_pass():
    # every gate and state of every layer lives in the pass's one wave
    # block; separate per-layer or per-gate buffers fault their pages back
    # in on every pass
    arch = tiny_arch(kind="centralized", heads=(3, 2), f=3, h=8)
    params = init_params(arch, np.random.default_rng(96))
    hist = np.random.default_rng(97).normal(size=(6, 8, 3))
    _, first = forward(params, arch, hist)
    _, second = forward(params, arch, hist)
    for cache, other in ((first, second), (second, first)):
        assert cache.waves.base is None and cache.waves.flags.c_contiguous
        for states in lstm_states(cache, arch):
            for view in states.values():
                assert np.shares_memory(view, cache.waves)
                assert not np.shares_memory(view, other.waves)


def test_backward_rejects_foreign_cache():
    arch = tiny_arch()
    small = init_params(arch, np.random.default_rng(23))
    _, cache = forward(small, arch, np.zeros((4, 3)))
    bigger = init_params(tiny_arch(h=8), np.random.default_rng(24))
    with pytest.raises(ValueError):
        backward(bigger, tiny_arch(h=8), cache, [0], 1.0)


def test_score_function_zero_mean_single_head():
    # sum_a pi(a) grad log pi(a) = 0, enumerated exactly over a head
    arch = tiny_arch(kind="distributed", heads=(4,), f=3, h=4)
    rng = np.random.default_rng(25)
    params = random_params(arch, rng)
    hist = rng.normal(size=(4, 3))
    dists, cache = forward(params, arch, hist)
    total = np.zeros(params.n)
    for a in range(4):
        total += dists[0][a] * backward(params, arch, cache, [a], 1.0)
    assert np.max(np.abs(total)) < 1e-8


def test_score_function_zero_mean_joint_heads():
    # independence across heads: E_joint[grad log Pi] = sum of per-head
    # zero-mean terms, so the joint enumeration must also vanish
    from itertools import product

    arch = tiny_arch(kind="centralized", heads=(3, 2), f=3, h=4)
    rng = np.random.default_rng(26)
    params = random_params(arch, rng)
    hist = rng.normal(size=(4, 3))
    dists, cache = forward(params, arch, hist)
    total = np.zeros(params.n)
    for joint in product(range(3), range(2)):
        p = dists[0][joint[0]] * dists[1][joint[1]]
        total += p * backward(params, arch, cache, list(joint), 1.0)
    assert np.max(np.abs(total)) < 1e-8


def test_gradient_check_random_triples():
    # smaller sweep of the acceptance property (50 triples live there)
    rng = np.random.default_rng(27)
    for trial in range(10):
        kind = "distributed" if trial % 2 else "centralized"
        heads = (int(rng.integers(2, 4)),) if kind == "distributed" else \
            tuple(int(rng.integers(2, 4)) for _ in range(2))
        arch = tiny_arch(kind=kind, heads=heads, f=int(rng.integers(2, 4)), h=4)
        params = random_params(arch, rng)
        hist = rng.normal(size=(4, arch.input_size))
        actions = [int(rng.integers(0, n)) for n in heads]
        _, cache = forward(params, arch, hist)
        assert differentiable_at(cache)
        got = backward(params, arch, cache, actions, 1.0)

        def score(values, _a=actions, _h=hist, _arch=arch, _lay=params.layout):
            d, _ = forward(PolicyParams(values=values, layout=_lay), _arch, _h)
            return sum(float(np.log(d[m][_a[m]])) for m in range(len(_a)))

        fd = fd_gradient(score, params.values)
        assert max_rel_err(fd, got) < 1e-4


@pytest.mark.parametrize("history_len", [4, 8])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("kind,heads", [("distributed", (3,)), ("centralized", (2, 3))])
def test_backward_matches_finite_differences_batched_train(kind, heads, batch,
                                                            history_len):
    # a weighted batch in train mode: the stacked weight gradients, the
    # recurrent term skipped at t = 0 and per-sample dropout masks at S > 1
    seed = {4: 45, 8: 6}[history_len]
    arch = tiny_arch(kind=kind, heads=heads, f=3, h=history_len, p1=0.3, p2=0.3)
    rng = np.random.default_rng(seed)
    params = random_params(arch, rng)
    hist = rng.normal(size=(batch, history_len, 3))
    actions = [rng.integers(0, n, size=batch) for n in heads]
    weights = rng.normal(size=batch)
    _, cache = forward(params, arch, hist, mode="train", rng=np.random.default_rng(seed))
    assert differentiable_at(cache)
    got = backward(params, arch, cache, actions, weights)
    assert_lstm_gradients_clear_floor(params, arch, got)

    def score(values):
        d, _ = forward(PolicyParams(values=values, layout=params.layout), arch,
                       hist, mode="train", rng=np.random.default_rng(seed))
        return sum(float(weights @ np.log(d[m][np.arange(batch), actions[m]]))
                   for m in range(len(heads)))

    fd = fd_gradient(score, params.values)
    assert max_rel_err(fd, got) < 1e-4


@pytest.mark.parametrize("kind,heads", [("distributed", (3,)), ("centralized", (2, 3))])
def test_saturated_gates_raise_no_floating_point_error(kind, heads):
    # LSTM pre-activations around 1e3 saturate every gate; the activation
    # must neither overflow nor leave [0, 1], and gradients stay finite
    arch = tiny_arch(kind=kind, heads=heads, f=3, h=8, p1=0.2, p2=0.2)
    rng = np.random.default_rng(79)
    params = random_params(arch, rng)
    for j in range(len(arch.lstm_sizes)):
        for part in "WUb":
            params.view(f"lstm{j}.{part}")[...] *= 2000.0
    hist = rng.normal(size=(5, 8, 3))
    z0 = hist[:, 0, :] @ params.view("lstm0.W").T + params.view("lstm0.b")
    assert np.max(np.abs(z0)) > 1e3
    actions = [rng.integers(0, n, size=5) for n in heads]
    with np.errstate(all="raise"):
        for mode in ("eval", "train"):
            dists, cache = forward(params, arch, hist, mode=mode,
                                   rng=np.random.default_rng(80))
            grad = backward(params, arch, cache, actions, np.ones(5))
            for states in lstm_states(cache, arch):
                for gate in "ifo":
                    assert np.all((states[gate] >= 0.0) & (states[gate] <= 1.0))
                assert np.all(np.abs(states["g"]) <= 1.0)
            assert all(np.all(np.isfinite(d)) for d in dists)
            assert np.all(np.isfinite(grad))


def test_forward_cache_unchanged_by_later_forward():
    # each pass owns its buffers: a later forward of the same shape must not
    # rewrite an earlier cache, or its backward would differ
    arch = tiny_arch(kind="centralized", heads=(3, 2), f=3, h=8, p1=0.2, p2=0.2)
    rng = np.random.default_rng(81)
    params = random_params(arch, rng)
    acts = [rng.integers(0, n, size=4) for n in (3, 2)]
    _, cache = forward(params, arch, rng.normal(size=(4, 8, 3)), mode="train",
                       rng=np.random.default_rng(82))
    arrays = [cache.inputs, cache.waves, cache.drop_lstm, cache.trunk_out, *cache.head_probs]
    for states in lstm_states(cache, arch):
        arrays += list(states.values())
    for layer_in, pre, mask in cache.trunk:
        arrays += [layer_in, pre, mask]
    saved = [a.copy() for a in arrays]
    grad = backward(params, arch, cache, acts, 1.0)
    forward(params, arch, rng.normal(size=(4, 8, 3)), mode="train",
            rng=np.random.default_rng(83))
    for a, b in zip(arrays, saved):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(backward(params, arch, cache, acts, 1.0), grad)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    arch = tiny_arch(kind="centralized", heads=(3, 2), f=4, h=8, p1=0.2, p2=0.4)
    params = init_params(arch, np.random.default_rng(27))
    path = tmp_path / "check.bin"
    save_checkpoint(path, params, arch)
    loaded, arch2 = load_checkpoint(path)
    assert arch2 == arch
    np.testing.assert_array_equal(loaded.values, params.values)
    # a second save of the loaded state is byte-identical
    path2 = tmp_path / "check2.bin"
    save_checkpoint(path2, loaded, arch2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError):
        load_checkpoint(path)
