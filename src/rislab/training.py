"""Training loop for the beam/phase controllers: offline pre-training on a
seed set of rollouts, then the online collect/replay/ascend loop, plus the
executable checks behind the two convergence theorems.

Returns used by the objective and the gradient weights are normalized rates
(rate / (bandwidth * rate_norm_max)) summed over the T-slot episode, which
keeps the risk sensitivity mu in [0, 1) meaningful regardless of the link
budget's absolute scale. Learning-curve columns report the same units.

Every history a net reads, from buffers, replay samples or oracle tuples,
is one array window (Controller.window) and reaches the net through one
vectorized Controller.encode.

A `config` is the experiment config, cli.ExperimentConfig, which declares,
defaults and validates every knob; each function names the fields it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import policy as pol
from .environment import ActionProfile, HistoryBuffer
from .oracle import ToyGame, own_history, walk_sum
from .risk import gradient_weight, surrogate_return


DIVERGENCE_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """Parameter magnitudes exploded; training aborted."""


# ---------------------------------------------------------------------------
# controllers


class Controller:
    """Maps per-agent history windows to per-agent action distributions and
    owns the trainable parameter vectors.

    The controller is a list of nets over agent groups: `nets[k]`, an
    (arch, params) pair, reads the histories of the agents in `groups[k]`
    and computes their heads, in group order. A distributed controller has
    one group per agent (2 LSTM + 2 dense + head, fed by the agent's own
    action/rate window); a centralized one has a single group of all agents
    (3 LSTM + 3 dense + M heads, fed by every agent's action and the rate).
    Subclasses only name their `kind`. A history window is (H, M) joint
    actions, -1 in slots not yet filled, plus (H,) rates, newest last."""

    kind: str

    def __init__(self, head_sizes, history_len: int, rng: np.random.Generator | None,
                 dropout_lstm: float, dropout_dense: float, params=None):
        """`params`, one PolicyParams per group, makes the nets share those
        arrays instead of drawing fresh ones from `rng`."""
        self.head_sizes = tuple(head_sizes)
        self.history_len = history_len
        agents = range(len(self.head_sizes))
        self.groups = ([tuple(agents)] if self.kind == "centralized"
                       else [(m,) for m in agents])
        # per agent: one-hot rows of its actions, then the all-zero row -1
        self._onehot = [np.eye(n + 1, n) for n in self.head_sizes]
        self.nets = []
        for net, group in enumerate(self.groups):
            sizes = tuple(self.head_sizes[m] for m in group)
            arch = pol.PolicyArchitecture(
                kind=self.kind, history_len=history_len, input_size=sum(sizes) + 1,
                head_sizes=sizes, dropout_lstm=dropout_lstm, dropout_dense=dropout_dense)
            if params is None:
                self.nets.append((arch, pol.init_params(arch, rng)))
            elif params[net].layout != pol.param_layout(arch):
                raise ValueError(f"params of net {net} do not fit its architecture")
            else:
                self.nets.append((arch, params[net]))

    @property
    def n_agents(self) -> int:
        return len(self.head_sizes)

    def window(self, actions=(), rates=()):
        """The H-slot window of a history of n joint actions, (n, M) ints,
        and their (n,) rates, oldest first: the last H entries, with -1
        actions and 0 rates padding the front. Returns new arrays."""
        h = self.history_len
        kept = min(len(rates), h)
        window = np.full((h, self.n_agents), -1), np.zeros(h)
        if kept:
            window[0][-kept:] = actions[-kept:]
            window[1][-kept:] = rates[-kept:]
        return window

    def windows(self, histories):
        """The stacked windows of global (joint, rate) history tuples, each
        unzipped into window(joints, rates): (n, H, M) actions and (n, H)
        rates, in the order given."""
        actions, rates = zip(*(self.window(*zip(*hist)) for hist in histories))
        return np.stack(actions), np.stack(rates)

    def encode(self, actions, rates, net: int) -> np.ndarray:
        """Input of net `net` for windows of any batch shape, (..., H, M)
        actions and (..., H) rates: per group agent in group order, one
        gather from its one-hot table, whose row -1 is all zeros, then the
        shared rate."""
        return np.concatenate([self._onehot[m].take(actions[..., m], axis=0)
                               for m in self.groups[net]] + [rates[..., None]], axis=-1)

    def distributions(self, buffers):
        """Per-agent action distributions given every agent's HistoryBuffer."""
        actions, rates = self.window(np.array([buf.actions for buf in buffers]).T,
                                     buffers[0].rates)
        out = []
        for net, (arch, params) in enumerate(self.nets):
            dists, _ = pol.forward(params, arch, self.encode(actions, rates, net),
                                   mode="eval")
            out.extend(dists)
        return out

    def net_heads(self) -> list:
        """(arch, params, agents) per net, `agents` being the agents whose
        heads the net computes, in head order."""
        return [(arch, params, agents)
                for (arch, params), agents in zip(self.nets, self.groups)]

    def parameter_vectors(self) -> list[np.ndarray]:
        return [params.values for _, params in self.nets]

    def policy_fn(self, agent: int):
        """Oracle-compatible callable: global (joint, rate) history tuple to
        this agent's distribution, asked as the one-history batch of `at`.
        `at(histories)` returns the (n_histories, n_actions) distributions
        from one eval forward, over the stacked windows, of only the net with
        the agent's head, so each row equals distributions(...)[agent] bitwise."""
        net = next(k for k, group in enumerate(self.groups) if agent in group)
        arch, params = self.nets[net]
        head = self.groups[net].index(agent)

        def at(histories):
            dists, _ = pol.forward(params, arch, self.encode(*self.windows(histories), net),
                                   mode="eval")
            return dists[head]

        def fn(history):
            return at((history,))[0]

        fn.at = at
        return fn


# Each subclass binds `distributions` in its own __dict__ because
# perfbench/spans.py wraps the method there, class by class.


class DistributedController(Controller):
    """One net per agent, fed by the agent's own action/rate window."""

    kind = "distributed"
    distributions = Controller.distributions


class CentralizedController(Controller):
    """One joint net over all agents, fed by the global history."""

    kind = "centralized"
    distributions = Controller.distributions


def make_controller(config, head_sizes, rng) -> Controller:
    """A fresh controller; reads `mode`, `history_len`, `dropout_lstm` and
    `dropout_dense`."""
    cls = CentralizedController if config.mode == "centralized" else DistributedController
    return cls(head_sizes, config.history_len, rng,
               dropout_lstm=config.dropout_lstm, dropout_dense=config.dropout_dense)


class ToyGameEnvironment:
    """Environment facade over a ToyGame so the training loop and harnesses
    can drive tabulated games; rates are already normalized."""

    def __init__(self, game: ToyGame, seed: int = 0):
        self.game = game
        self.rng = np.random.default_rng(seed)
        self.state = self._draw(game.initial)

    def _draw(self, outcomes):
        """One state of a [(probability, state), ...] distribution."""
        states = [s for _, s in outcomes]
        probs = np.array([p for p, _ in outcomes])
        return states[int(self.rng.choice(len(states), p=probs))]

    def step(self, profile: ActionProfile):
        joint = profile.as_tuple()
        reward = self.game.rate(self.state, joint)
        self.state = self._draw(self.game.step(self.state, joint))
        return reward, self.state

    def rate_norm(self, reward: float) -> float:
        return reward


# ---------------------------------------------------------------------------
# episode collection and replay


@dataclass(frozen=True, eq=False)
class TrainingSample:
    """Replay unit: the controller's history window at the episode start,
    (H, M) actions with -1 in slots not yet filled and (H,) rates, plus the
    episode's (T, M) joint actions, (T,) normalized rates and (T, M)
    behaviour log-probs: the floored log-prob of each sampled action, or
    -log|A_m| per head in a forced sweep slot."""

    start_actions: np.ndarray
    start_rates: np.ndarray
    actions: np.ndarray
    rates_norm: np.ndarray
    log_probs: np.ndarray

    @property
    def episodic_return(self) -> float:
        return float(sum(self.rates_norm))

    @property
    def start_entries(self) -> tuple:
        """Per agent, the filled (action, rate) pairs of the start window,
        oldest first. Read-only: perfbench/checks.py::own_inputs reads it
        in its reference encoder, which is independent of `encode`."""
        rates = self.start_rates.tolist()
        return tuple(tuple((a, r) for a, r in zip(column.tolist(), rates) if a >= 0)
                     for column in self.start_actions.T)


@dataclass(frozen=True, eq=False)
class EpisodeRecord:
    """What collect_episode observes beyond its replay sample: the T slot
    rates in bits/s and, per slot, the per-agent distributions the actions
    were drawn from (None in a forced slot)."""

    rates: list
    distributions: list

    @property
    def episodic_return(self) -> float:
        """The episode's return in bits/s; the sample's is normalized."""
        return float(sum(self.rates))


def _minibatch(replay: list, size: int, rng: np.random.Generator) -> list:
    """Uniform draw of `size` distinct samples; all of them when the replay
    holds no more."""
    if len(replay) <= size:
        return list(replay)
    return [replay[int(i)] for i in rng.choice(len(replay), size=size, replace=False)]


def collect_episode(env, controller: Controller, buffers, horizon: int,
                    rng: np.random.Generator, forced_actions=None):
    """Roll the controller for T slots: sample actions from the current
    policy, step the environment, and push each agent's action with the
    shared reward onto its window. Returns the EpisodeRecord and the replay
    sample.

    `forced_actions` (one joint tuple per slot) replaces the policy; used to
    seed the replay with a systematic sweep of the action space. Forced
    slots run no forward and draw nothing from `rng`; the sample carries
    the sweep's behaviour log-probability, -log|A_m| per head, and the
    record no distributions.
    """
    start = controller.window(np.array([buf.actions for buf in buffers]).T,
                              buffers[0].rates)
    sweep_lps = [-math.log(n) for n in controller.head_sizes]
    joints, rates, rates_norm, log_probs, slot_dists = [], [], [], [], []
    for t in range(horizon):
        if forced_actions is None:
            dists = controller.distributions(buffers)
            acts = [pol.sample_action(d, rng) for d in dists]
            lps = [pol.log_prob(d, a) for d, a in zip(dists, acts)]
        else:
            dists, acts, lps = None, list(forced_actions[t]), sweep_lps
        reward, _state = env.step(ActionProfile(ap_beam=acts[0], ris_phases=tuple(acts[1:])))
        norm = env.rate_norm(reward)
        for m, buf in enumerate(buffers):
            buf.push(acts[m], norm)
        joints.append(acts)
        rates.append(reward)
        rates_norm.append(norm)
        log_probs.append(lps)
        slot_dists.append(dists)
    sample = TrainingSample(*start, actions=np.array(joints),
                            rates_norm=np.array(rates_norm, dtype=float),
                            log_probs=np.array(log_probs, dtype=float))
    return EpisodeRecord(rates=rates, distributions=slot_dists), sample


# ---------------------------------------------------------------------------
# gradient estimation


def slot_windows(batch):
    """Every slot's window of every sample: slot t reads entries t .. t+H-1
    of the start window followed by the episode. Returns (T, S, H, M)
    actions and (T, S, H) rates."""
    actions = np.stack([np.concatenate([s.start_actions, s.actions]) for s in batch])
    rates = np.stack([np.concatenate([s.start_rates, s.rates_norm]) for s in batch])
    idx = np.arange(len(batch[0].rates_norm))[:, None] + np.arange(len(batch[0].start_rates))
    return actions[:, idx].swapaxes(0, 1), rates[:, idx].swapaxes(0, 1)


def estimate_gradient(controller: Controller, batch, mu: float,
                      rng: np.random.Generator | None = None,
                      mode: str = "train") -> list[np.ndarray]:
    """Sample-mean score-function gradient: (1/S) sum_s grad log Pi^(s) *
    weight(R_s, batch mean, mu), one vector per parameter block.

    Each net makes one forward and one backward pass over one (T, S, H, F)
    stack, encoded from the slot windows right before its forward and
    dropped with its cache; the weights are tiled over the slots. The
    stacked forward draws its dropout masks slot by slot, so `rng` yields
    the masks of T per-slot passes, net by net."""
    if not batch:
        raise ValueError("batch must be nonempty")
    returns = np.array([s.episodic_return for s in batch])
    weights = gradient_weight(returns, float(returns.mean()), mu)
    horizon = len(batch[0].rates_norm)
    tiled = np.tile(weights, horizon)
    actions = np.array([s.actions for s in batch])  # (S, T, M)
    windows = slot_windows(batch)
    grads = []
    for net, (arch, params, agents) in enumerate(controller.net_heads()):
        _, cache = pol.forward(params, arch, controller.encode(*windows, net),
                               mode=mode, rng=rng)
        acts = [actions[:, :, m].T.ravel() for m in agents]
        grads.append(pol.backward(params, arch, cache, acts, tiled) / len(batch))
        del cache  # free it, and the input it holds, before the next net's forward
    return grads


class GameTree:
    """An enumerable game's trajectory table (game.table, an
    oracle.TrajectoryTable) with each of a controller's nets' inputs at
    every row, encoded once from the stacked node windows. Softmax
    policies reach every node, so one eval forward per net over the rows
    gives the policy at every history of the table, and its cache serves
    the gradient's backward too. The rows depend on the game and the
    controller's encoding, not on its parameters, so one tree serves every
    step of an ascent."""

    def __init__(self, game: ToyGame, controller: Controller):
        self.table = game.table
        actions, rates = controller.windows(hist for hist, _ in self.table.nodes)
        self.feats = [controller.encode(actions, rates, net)
                      for net in range(len(controller.nets))]

    def forward(self, controller: Controller):
        """One eval forward per net over every row. Returns the caches, one
        per net, and the profile's dists for the table: per agent, its
        distribution at each history, read at the history's first row."""
        caches, dists = [], [None] * controller.n_agents
        for (arch, params, agents), feats in zip(controller.net_heads(), self.feats):
            out, cache = pol.forward(params, arch, feats, mode="eval")
            caches.append(cache)
            for head, m in enumerate(agents):
                dists[m] = out[head][self.table.first]
        return caches, dists


def exact_policy_gradient(game: ToyGame, controller: Controller, mu: float,
                          tree: GameTree | None = None) -> list[np.ndarray]:
    """Exact expectation of the score-function gradient on an enumerable
    game: sum over all trajectories of Pi(T) * grad log Pi * weight(R, E[R]).

    Each net runs one eval forward over the rows of the game's tree (built
    here unless `tree` is given). The trajectory probabilities, E[R] and
    the per-row coefficients, the sum of Pi(T) * weight over the
    trajectory slots at each (history, joint action) row, are array sums on
    the tree's trajectory table, in the walk's order; one weighted backward
    per net runs through the same cache."""
    if tree is None:
        tree = GameTree(game, controller)
    table = tree.table
    caches, dists = tree.forward(controller)
    prob = table.probabilities(dists)
    weights = gradient_weight(table.ret, walk_sum(prob * table.ret), mu)
    coefs = table.coefficients(prob * weights)
    return [pol.backward(params, arch, cache, [table.actions[m] for m in agents], coefs)
            for (arch, params, agents), cache in zip(controller.net_heads(), caches)]


def exact_ascent(game: ToyGame, controller: Controller, mu: float,
                 steps: int, learning_rate: float,
                 trace_every: int = 50) -> list[float]:
    """Gradient ascent driven by the exact enumerated gradient; returns the
    exact objective sampled every `trace_every` steps. This is the update
    rule itself with its expectation computed in closed form, used to reach
    convergence on toys. It takes the unclipped step, as theorem1_harness does.
    The game's tree is built once: a step is one forward and one backward
    per net over its rows, and a trace point one more forward per net,
    scored on the tree's trajectory table."""
    tree = GameTree(game, controller)
    trace = []
    for k in range(steps):
        _apply_update(controller, exact_policy_gradient(game, controller, mu, tree=tree),
                      learning_rate, grad_clip=0.0)
        if (k + 1) % trace_every == 0 or k + 1 == steps:
            trace.append(tree.table.objective(tree.forward(controller)[1], mu))
    return trace


# ---------------------------------------------------------------------------
# the training loop


@dataclass
class CurveRow:
    """One update of train(). j_estimate, mean_rate and rate_variance are
    the surrogate, mean and variance of the replayed minibatch's logged
    returns, which forced-sweep and older episodes fill: they describe the
    replay the update read, not the current policy."""

    update: int
    j_estimate: float
    mean_rate: float
    rate_variance: float
    grad_norm: float
    clamps: int


@dataclass
class TrainResult:
    curves: list
    converged: bool
    updates: int
    clip_events: int
    replay_size: int


def _apply_update(controller: Controller, grads, learning_rate: float,
                  grad_clip: float):
    """The one parameter step: ascend every net by `learning_rate` times its
    gradient block, all blocks scaled together when their global norm
    exceeds `grad_clip` (0 disables the clip). Returns (norm, clipped);
    raises DivergenceError when a parameter leaves the finite range."""
    norm = math.sqrt(sum(float(g @ g) for g in grads))
    clipped = False
    scale = learning_rate
    if grad_clip > 0 and norm > grad_clip:
        scale *= grad_clip / norm
        clipped = True
    for vec, g in zip(controller.parameter_vectors(), grads):
        vec += scale * g
        if not np.all(np.isfinite(vec)) or np.max(np.abs(vec)) > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"parameter magnitude exceeded {DIVERGENCE_LIMIT:g} "
                f"(gradient norm {norm:.3g})")
    return norm, clipped


def train(env, controller: Controller, config) -> TrainResult:
    """Algorithm phases: collect a seed replay set by a forced sweep of the
    joint action space, pre-train offline over it, then run the online
    collect/update loop until t_end or until the windowed surrogate-return
    average stalls. Every update is estimate_gradient then _apply_update.
    A row's `clamps` counts the sampled per-head log-probs at the floor in
    the episode collected just before it (0 offline: the sweep samples none);
    its j_estimate, mean_rate and rate_variance describe the replayed
    minibatch, not the policy, and the convergence stop reads j_estimate.
    Reads `seed`, `history_len`, `horizon`, `seed_episodes`, `offline_epochs`,
    `max_updates`, `minibatch`, `mu`, `learning_rate`, `grad_clip`,
    `convergence_window` and `convergence_tol`."""
    rng_collect = np.random.default_rng([config.seed, 1])
    rng_batch = np.random.default_rng([config.seed, 2])
    rng_dropout = np.random.default_rng([config.seed, 3])
    buffers = [HistoryBuffer(config.history_len) for _ in range(controller.n_agents)]
    replay: list[TrainingSample] = []
    curves: list[CurveRow] = []
    clip_events = 0
    update = 0
    j_history: list[float] = []

    def do_update(clamps: int):
        nonlocal update, clip_events
        batch = _minibatch(replay, config.minibatch, rng_batch)
        grads = estimate_gradient(controller, batch, config.mu, rng=rng_dropout)
        norm, clipped = _apply_update(controller, grads, config.learning_rate,
                                      config.grad_clip)
        clip_events += clipped
        returns = np.array([s.episodic_return for s in batch])
        j_est = surrogate_return(returns, config.mu)
        j_history.append(j_est)
        update += 1
        curves.append(CurveRow(update=update, j_estimate=j_est,
                               mean_rate=float(returns.mean()),
                               rate_variance=float(returns.var()),
                               grad_norm=norm, clamps=clamps))

    # Phase II: seed replay + offline epochs. A systematic sweep of the
    # joint action space gives the offline phase balanced per-action return
    # evidence.
    sweep = list(product(*[range(n) for n in controller.head_sizes]))
    rng_collect.shuffle(sweep)
    for k in range(config.seed_episodes):
        forced = [sweep[(k * config.horizon + t) % len(sweep)]
                  for t in range(config.horizon)]
        _, sample = collect_episode(env, controller, buffers,
                                    config.horizon, rng_collect,
                                    forced_actions=forced)
        replay.append(sample)
    for _ in range(config.offline_epochs):
        do_update(clamps=0)

    # Phase III: online loop
    converged = False
    while update < config.offline_epochs + config.max_updates:
        _, sample = collect_episode(env, controller, buffers,
                                    config.horizon, rng_collect)
        replay.append(sample)
        do_update(int(np.count_nonzero(sample.log_probs <= np.log(pol.PROB_FLOOR))))
        w = config.convergence_window
        if len(j_history) >= 2 * w:
            recent = float(np.mean(j_history[-w:]))
            previous = float(np.mean(j_history[-2 * w:-w]))
            if abs(recent - previous) < config.convergence_tol * (abs(previous) + 1e-12):
                converged = True
                break
    return TrainResult(curves=curves, converged=converged, updates=update,
                       clip_events=clip_events, replay_size=len(replay))


# ---------------------------------------------------------------------------
# Theorem 1 harness: central driver vs per-agent drivers


@dataclass
class Theorem1Report:
    updates: int
    max_param_divergence: float
    factorization_gap: float
    diverged_at: int | None


def _seeded(seed, *tags) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _agent_view(sample: TrainingSample, agent: int) -> TrainingSample:
    """What one agent observes of a sample: its own action column and the
    shared rates."""
    return TrainingSample(start_actions=sample.start_actions[:, [agent]],
                          start_rates=sample.start_rates,
                          actions=sample.actions[:, [agent]], rates_norm=sample.rates_norm,
                          log_probs=sample.log_probs[:, [agent]])


def theorem1_harness(env_factory, head_sizes, config, n_updates: int = 100) -> Theorem1Report:
    """Run the same seeded history stream through (a) a central server that
    updates every agent's net from the joint samples and (b) independent
    per-agent learners, each updating its own net from its own view of the
    samples, and compare parameter trajectories bitwise. Both sides collect
    with collect_episode, differentiate with estimate_gradient and step with
    _apply_update. Also checks that the one-pass slot-major joint gradient
    equals the per-agent gradients exactly. Reads `mode` (distributed only),
    `seed`, `history_len`, `horizon`, `minibatch`, `mu` and `learning_rate`."""
    if config.mode != "distributed":
        raise ValueError("the equivalence harness drives distributed controllers")

    def build():
        return DistributedController(head_sizes, config.history_len,
                                     _seeded(config.seed, 0),
                                     dropout_lstm=0.0, dropout_dense=0.0)

    central, team = build(), build()
    # each learner is a one-agent controller over its agent's net in the team
    learners = [DistributedController((size,), config.history_len, None, dropout_lstm=0.0,
                                      dropout_dense=0.0, params=[params])
                for size, (_, params) in zip(head_sizes, team.nets)]
    env_c, env_d = env_factory(), env_factory()
    bufs_c = [HistoryBuffer(config.history_len) for _ in head_sizes]
    bufs_d = [HistoryBuffer(config.history_len) for _ in head_sizes]
    replay_c, replays_d = [], [[] for _ in head_sizes]

    max_div = 0.0
    fact_gap = 0.0
    diverged_at = None
    for step in range(n_updates):
        _, sample = collect_episode(env_c, central, bufs_c, config.horizon,
                                    _seeded(config.seed, 10, step))
        replay_c.append(sample)
        _, sample = collect_episode(env_d, team, bufs_d, config.horizon,
                                    _seeded(config.seed, 10, step))
        for m, replay in enumerate(replays_d):
            replay.append(_agent_view(sample, m))

        # central server: one gradient call over every agent's net
        batch_c = _minibatch(replay_c, config.minibatch, _seeded(config.seed, 20, step))
        grads_central = estimate_gradient(central, batch_c, config.mu, mode="eval")
        # per-agent learners: each runs its own update routine on its view
        grads_agents = [
            estimate_gradient(learner, _minibatch(replay, config.minibatch,
                                                  _seeded(config.seed, 20, step)),
                              config.mu, mode="eval")[0]
            for learner, replay in zip(learners, replays_d)]

        # factorization identity on the central batch: joint one-pass slot-major
        # accumulation vs the agent-major vectors above
        returns = np.array([s.episodic_return for s in batch_c])
        weights = gradient_weight(returns, float(returns.mean()), config.mu)
        joint = [np.zeros(params.n) for _, params in central.nets]
        actions, rates = slot_windows(batch_c)
        for t in range(config.horizon):
            for m, (arch, params) in enumerate(central.nets):
                feats = central.encode(actions[t], rates[t], m)
                _, cache = pol.forward(params, arch, feats, mode="eval")
                acts = [np.array([s.actions[t][m] for s in batch_c])]
                joint[m] += pol.backward(params, arch, cache, acts, weights)
        for m in range(len(head_sizes)):
            gap = float(np.max(np.abs(joint[m] / len(batch_c) - grads_central[m])))
            fact_gap = max(fact_gap, gap)

        # Theorem 1 is stated for the unclipped step: train()'s clip scales
        # by the norm over every agent's block, which couples the agents.
        _apply_update(central, grads_central, config.learning_rate, grad_clip=0.0)
        for learner, g in zip(learners, grads_agents):
            _apply_update(learner, [g], config.learning_rate, grad_clip=0.0)

        step_div = max(float(np.max(np.abs(a - b)))
                       for a, b in zip(central.parameter_vectors(),
                                       team.parameter_vectors()))
        max_div = max(max_div, step_div)
        if step_div > 0 and diverged_at is None:
            diverged_at = step + 1
    return Theorem1Report(updates=n_updates, max_param_divergence=max_div,
                          factorization_gap=fact_gap, diverged_at=diverged_at)


# ---------------------------------------------------------------------------
# Theorem 2 harness: unilateral-deviation sweep


@dataclass
class NashReport:
    j_current: float
    best_improvement: float
    per_agent: list


def nash_check(game: ToyGame, policy_fns, mu: float) -> NashReport:
    """For each agent, sweep every deterministic policy over the agent's own
    observation nodes (its action/rate pairs) while the others keep playing
    their current policies, and report the largest exact-objective
    improvement. Callers judge the certificate themselves, typically
    best_improvement <= eps * |j_current| for a tolerance eps of their own.

    Every profile is scored on the game's trajectory table (game.table,
    built once per game). A policy with a batched form `at`, such as
    Controller.policy_fn's, is asked once, over all of the table's
    histories: one eval forward of its net. Plain callables are asked once
    at every history, in first-visit order, so each policy must be defined
    at all of them. An agent's deviations are its one-hot stack beside the
    others' dists, all scored in one batched evaluation."""
    if len(policy_fns) != game.n_agents:
        raise ValueError(f"{len(policy_fns)} policies for {game.n_agents} agents")
    table = game.table
    plain = [m for m, fn in enumerate(policy_fns) if not hasattr(fn, "at")]
    asked = [[policy_fns[m](hist) for m in plain] for hist in table.histories]
    dists = [fn.at(table.histories) if hasattr(fn, "at") else None for fn in policy_fns]
    for m, col in zip(plain, zip(*asked)):
        dists[m] = np.array(col, dtype=float)
    j_now = table.objective(dists, mu)
    per_agent = []
    for m, actions in enumerate(game.action_sets):
        own = [own_history(hist, m) for hist in table.histories]
        picks = np.array(list(table.deterministic_picks(own, table.actions[m], len(actions))))
        deviations = dists[:m] + [np.eye(len(actions) + 1, len(actions))[picks]] + dists[m + 1:]
        per_agent.append(max(table.objective(deviations, mu)) - j_now)
    best_improvement = max(per_agent)
    return NashReport(j_current=j_now, best_improvement=best_improvement,
                      per_agent=per_agent)
