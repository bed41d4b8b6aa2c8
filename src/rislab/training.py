"""Training loop for the beam/phase controllers: offline pre-training on a
seed set of rollouts, then the online collect/replay/ascend loop, plus the
executable checks behind the two convergence theorems.

Returns used by the objective and the gradient weights are normalized rates
(rate / (bandwidth * rate_norm_max)) summed over the T-slot episode, which
keeps the risk sensitivity mu in [0, 1) meaningful regardless of the link
budget's absolute scale. Learning-curve columns report the same units.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import policy as pol
from .environment import ActionProfile, EpisodeRecord, HistoryBuffer
from .oracle import ToyGame
from .risk import gradient_weight, surrogate_return


DIVERGENCE_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """Parameter magnitudes exploded; training aborted."""


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "distributed"              # "centralized" | "distributed"
    mu: float = 0.0
    horizon: int = 2                       # T
    history_len: int = 16                  # H
    learning_rate: float = 0.01
    minibatch: int = 32                    # S_b
    seed_episodes: int = 32                # initial replay content
    offline_epochs: int = 20
    max_updates: int = 500
    convergence_window: int = 50
    convergence_tol: float = 1e-3
    eq14_literal: bool = False
    dropout_lstm: float = 0.2
    dropout_dense: float = 0.4
    grad_clip: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("centralized", "distributed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")
        if not 1 <= self.minibatch:
            raise ValueError("minibatch must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError("mu must lie in [0, 1)")


# ---------------------------------------------------------------------------
# controllers


class Controller:
    """Maps per-agent history buffers to per-agent action distributions and
    owns the trainable parameter vectors.

    The controller is a list of nets over agent groups: `nets[k]`, an
    (arch, params) pair, reads the histories of the agents in `groups[k]`
    and computes their heads, in group order. A distributed controller has
    one group per agent (2 LSTM + 2 dense + head, fed by the agent's own
    action/rate window); a centralized one has a single group of all agents
    (3 LSTM + 3 dense + M heads, fed by every agent's action and the rate).
    Subclasses only name their `kind`."""

    kind: str

    def __init__(self, head_sizes, history_len: int, rng: np.random.Generator,
                 dropout_lstm: float = 0.2, dropout_dense: float = 0.4):
        self.head_sizes = tuple(head_sizes)
        self.history_len = history_len
        agents = range(len(self.head_sizes))
        self.groups = ([tuple(agents)] if self.kind == "centralized"
                       else [(m,) for m in agents])
        # column of each agent's one-hot action in its group's net input
        self._offsets = [0] * len(self.head_sizes)
        self.nets = []
        for group in self.groups:
            sizes = tuple(self.head_sizes[m] for m in group)
            for k, m in enumerate(group):
                self._offsets[m] = sum(sizes[:k])
            arch = pol.PolicyArchitecture(
                kind=self.kind, history_len=history_len, input_size=sum(sizes) + 1,
                head_sizes=sizes, dropout_lstm=dropout_lstm, dropout_dense=dropout_dense)
            self.nets.append((arch, pol.init_params(arch, rng)))

    @property
    def n_agents(self) -> int:
        return len(self.head_sizes)

    def encode(self, windows, agents) -> np.ndarray:
        """Net input of one group: `windows` holds one sequence of (action,
        rate) entries per agent in `agents`. Each of the H rows carries every
        agent's one-hot action at that agent's column offset, then the shared
        rate; only the last H entries are kept, and missing leading slots are
        zero rows."""
        last = agents[-1]
        width = self._offsets[last] + self.head_sizes[last] + 1
        out = np.zeros((self.history_len, width))
        for window, m in zip(windows, agents):
            window = window[-self.history_len:]
            pad = self.history_len - len(window)
            for k, (action, rate) in enumerate(window):
                out[pad + k, self._offsets[m] + action] = 1.0
                out[pad + k, -1] = rate
        return out

    def distributions(self, buffers):
        """Per-agent action distributions given every agent's HistoryBuffer."""
        windows = [buf.entries() for buf in buffers]
        out = []
        for (arch, params), agents in zip(self.nets, self.groups):
            feats = self.encode([windows[m] for m in agents], agents)
            dists, _ = pol.forward(params, arch, feats, mode="eval")
            out.extend(dists)
        return out

    def _group_of(self, agent: int) -> tuple:
        return next(agents for agents in self.groups if agent in agents)

    def sample_input(self, sample, slot: int, agent: int) -> np.ndarray:
        """Input, at `slot` of a replay sample, of the net that computes
        `agent`'s head; memoized on the sample."""
        agents = self._group_of(agent)
        return sample.cached_input(
            (agents, slot, self.history_len),
            lambda: self.encode([sample.entries_at(m, slot) for m in agents], agents))

    def encode_history(self, history, agent: int) -> np.ndarray:
        """Input, given the global (joint, rate) history tuple, of the net
        that computes `agent`'s head."""
        agents = self._group_of(agent)
        return self.encode([[(joint[m], rate) for joint, rate in history]
                            for m in agents], agents)

    def net_heads(self) -> list:
        """(arch, params, agents) per net, `agents` being the agents whose
        heads the net computes, in head order."""
        return [(arch, params, agents)
                for (arch, params), agents in zip(self.nets, self.groups)]

    def parameter_vectors(self) -> list[np.ndarray]:
        return [params.values for _, params in self.nets]

    def policy_fn(self, agent: int):
        """Oracle-compatible callable: global (joint, rate) history tuple
        to this agent's distribution. Runs only the net that computes the
        agent's head, so it equals distributions(...)[agent] bitwise."""
        agents = self._group_of(agent)
        arch, params = self.nets[self.groups.index(agents)]
        head = agents.index(agent)

        def fn(history):
            dists, _ = pol.forward(params, arch, self.encode_history(history, agent),
                                   mode="eval")
            return dists[head]

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


def make_controller(config: TrainConfig, head_sizes, rng) -> Controller:
    cls = CentralizedController if config.mode == "centralized" else DistributedController
    return cls(head_sizes, config.history_len, rng,
               dropout_lstm=config.dropout_lstm, dropout_dense=config.dropout_dense)


class ToyGameEnvironment:
    """Environment facade over a ToyGame so the training loop and harnesses
    can drive tabulated games; rates are already normalized."""

    def __init__(self, game: ToyGame, seed: int = 0):
        self.game = game
        self.rng = np.random.default_rng(seed)
        self.reset(seed)

    def reset(self, seed: int | None = None):
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        states = [s for _, s in self.game.initial]
        probs = np.array([p for p, _ in self.game.initial])
        self.state = states[int(self.rng.choice(len(states), p=probs))]
        return self.state

    def step(self, profile: ActionProfile):
        joint = profile.as_tuple()
        reward = self.game.rate(self.state, joint)
        outcomes = self.game.step(self.state, joint)
        states = [s for _, s in outcomes]
        probs = np.array([p for p, _ in outcomes])
        self.state = states[int(self.rng.choice(len(states), p=probs))]
        return reward, self.state

    def rate_norm(self, reward: float) -> float:
        return reward


# ---------------------------------------------------------------------------
# episode collection and replay


@dataclass(frozen=True)
class TrainingSample:
    """Replay unit: per-agent history snapshots at the episode start plus the
    T subsequent joint actions and normalized rates. Encoded network inputs
    are immutable per sample, so they are memoized on first use."""

    start_entries: tuple     # per agent: tuple of (action, rate) pairs
    actions: tuple           # (T, M) nested tuples
    rates_norm: tuple        # length T
    _encoded: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def episodic_return(self) -> float:
        return float(sum(self.rates_norm))

    def entries_at(self, agent: int, slot: int):
        extra = tuple((self.actions[t][agent], self.rates_norm[t])
                      for t in range(slot))
        return self.start_entries[agent] + extra

    def cached_input(self, key, build):
        if key not in self._encoded:
            self._encoded[key] = build()
        return self._encoded[key]


class ReplayStore:
    """Growing set of immutable samples with uniform minibatch draws."""

    def __init__(self):
        self._samples: list[TrainingSample] = []

    def add(self, sample: TrainingSample) -> None:
        self._samples.append(sample)

    def __len__(self) -> int:
        return len(self._samples)

    def minibatch(self, size: int, rng: np.random.Generator) -> list[TrainingSample]:
        if not self._samples:
            raise ValueError("replay store is empty")
        if len(self._samples) <= size:
            return list(self._samples)
        idx = rng.choice(len(self._samples), size=size, replace=False)
        return [self._samples[int(i)] for i in idx]


def collect_episode(env, controller: Controller, buffers, horizon: int,
                    rng: np.random.Generator, forced_actions=None):
    """Roll the controller for T slots: sample actions from the current
    policy, step the environment, and append the shared reward to every
    agent's window. Returns the EpisodeRecord and the replay sample.

    `forced_actions` (one joint tuple per slot) replaces the policy; used to
    seed the replay with a systematic sweep of the action space. Forced
    slots run no forward and draw nothing from `rng`; their records carry
    the sweep's behaviour log-probability, -log|A_m| per head.
    """
    start_entries = tuple(tuple(buf.entries()) for buf in buffers)
    sweep_lps = [-math.log(n) for n in controller.head_sizes]
    actions_out, rates, rates_norm, log_probs = [], [], [], []
    for t in range(horizon):
        if forced_actions is None:
            dists = controller.distributions(buffers)
            acts = [pol.sample_action(d, rng) for d in dists]
            lps = [pol.log_prob(d, a) for d, a in zip(dists, acts)]
        else:
            acts, lps = list(forced_actions[t]), list(sweep_lps)
        profile = ActionProfile(ap_beam=acts[0], ris_phases=tuple(acts[1:]))
        reward, _state = env.step(profile)
        norm = env.rate_norm(reward)
        for m, buf in enumerate(buffers):
            buf.push(acts[m], norm)
        actions_out.append(profile)
        rates.append(reward)
        rates_norm.append(norm)
        log_probs.append(lps)
    record = EpisodeRecord(actions=actions_out, rates=rates,
                           rates_norm=rates_norm, log_probs=log_probs)
    sample = TrainingSample(
        start_entries=start_entries,
        actions=tuple(tuple(a.as_tuple()) for a in actions_out),
        rates_norm=tuple(rates_norm))
    return record, sample


# ---------------------------------------------------------------------------
# gradient estimation


def estimate_gradient(controller: Controller, batch, mu: float,
                      eq14_literal: bool = False,
                      rng: np.random.Generator | None = None,
                      mode: str = "train") -> list[np.ndarray]:
    """Sample-mean score-function gradient: (1/S) sum_s grad log Pi^(s) *
    weight(R_s, batch mean, mu), one vector per parameter block.

    Each net makes one forward and one backward pass: the inputs of all T
    slots form one (T, S, H, F) stack and the weights are tiled over the
    slots. The stacked forward draws its dropout masks slot by slot, so
    `rng` yields the masks of T per-slot passes, net by net."""
    if not batch:
        raise ValueError("batch must be nonempty")
    returns = np.array([s.episodic_return for s in batch])
    r_mean = float(returns.mean())
    weights = np.array([gradient_weight(r, r_mean, mu, eq14_literal)
                        for r in returns])
    horizon = len(batch[0].rates_norm)
    tiled = np.tile(weights, horizon)
    grads = []
    for arch, params, agents in controller.net_heads():
        feats = np.array([[controller.sample_input(s, t, agents[0]) for s in batch]
                          for t in range(horizon)])
        _, cache = pol.forward(params, arch, feats, mode=mode, rng=rng)
        acts = [np.array([s.actions[t][m] for t in range(horizon) for s in batch])
                for m in agents]
        grads.append(pol.backward(params, arch, cache, acts, tiled) / len(batch))
        del cache  # free it before the next net's forward
    return grads


def exact_policy_gradient(game: ToyGame, controller: Controller, mu: float,
                          eq14_literal: bool = False) -> list[np.ndarray]:
    """Exact expectation of the score-function gradient on an enumerable
    game: sum over all trajectories of Pi(T) * grad log Pi * weight(R, E[R]).

    Trajectory/slot terms are grouped by (observed history, joint action), so
    each parameter block needs a single batched forward/backward pass.
    """
    from .oracle import enumerate_trajectories, policy_table

    policy_fns = policy_table([controller.policy_fn(m)
                               for m in range(controller.n_agents)])
    trajs = enumerate_trajectories(game, policy_fns)
    mean = sum(t.prob * t.ret for t in trajs)
    buckets: dict = {}
    for traj in trajs:
        w = traj.prob * gradient_weight(traj.ret, mean, mu, eq14_literal)
        for _state, joint, _rate, hist in traj.steps:
            key = (hist, joint)
            buckets[key] = buckets.get(key, 0.0) + w
    keys = list(buckets.keys())
    coefs = np.array([buckets[k] for k in keys])

    grads = []
    for arch, params, agents in controller.net_heads():
        feats = np.stack([controller.encode_history(h, agents[0]) for h, _ in keys])
        _, cache = pol.forward(params, arch, feats, mode="eval")
        acts = [np.array([joint[m] for _, joint in keys]) for m in agents]
        grads.append(pol.backward(params, arch, cache, acts, coefs))
    return grads


def exact_ascent(game: ToyGame, controller: Controller, mu: float,
                 steps: int, learning_rate: float,
                 trace_every: int = 50) -> list[float]:
    """Gradient ascent driven by the exact enumerated gradient; returns the
    exact objective sampled every `trace_every` steps. This is the update
    rule itself with its expectation computed in closed form, used to reach
    convergence on toys."""
    from .oracle import enumerate_exact_J

    trace = []
    for k in range(steps):
        grads = exact_policy_gradient(game, controller, mu)
        for vec, g in zip(controller.parameter_vectors(), grads):
            vec += learning_rate * g
        if (k + 1) % trace_every == 0 or k + 1 == steps:
            trace.append(enumerate_exact_J(
                game, [controller.policy_fn(m) for m in range(controller.n_agents)], mu))
    return trace


# ---------------------------------------------------------------------------
# the training loop


@dataclass
class CurveRow:
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


def _apply_update(controller: Controller, grads, config: TrainConfig):
    norm = math.sqrt(sum(float(g @ g) for g in grads))
    clipped = False
    scale = config.learning_rate
    if config.grad_clip > 0 and norm > config.grad_clip:
        scale *= config.grad_clip / norm
        clipped = True
    for vec, g in zip(controller.parameter_vectors(), grads):
        vec += scale * g
        if not np.all(np.isfinite(vec)) or np.max(np.abs(vec)) > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"parameter magnitude exceeded {DIVERGENCE_LIMIT:g} "
                f"(gradient norm {norm:.3g})")
    return norm, clipped


def train(env, controller: Controller, config: TrainConfig,
          buffers=None) -> TrainResult:
    """Algorithm phases: collect a seed replay set under the initial policy,
    pre-train offline over it, then run the online collect/update loop until
    t_end or until the windowed surrogate-return average stalls."""
    rng_collect = np.random.default_rng([config.seed, 1])
    rng_batch = np.random.default_rng([config.seed, 2])
    rng_dropout = np.random.default_rng([config.seed, 3])
    buffers = buffers or [HistoryBuffer(config.history_len)
                          for _ in range(controller.n_agents)]
    store = ReplayStore()
    curves: list[CurveRow] = []
    clip_events = 0
    update = 0
    j_history: list[float] = []
    clamps_seen = pol.clamp_events.value

    def do_update():
        nonlocal update, clip_events, clamps_seen
        batch = store.minibatch(config.minibatch, rng_batch)
        grads = estimate_gradient(controller, batch, config.mu,
                                  config.eq14_literal, rng=rng_dropout)
        norm, clipped = _apply_update(controller, grads, config)
        clip_events += clipped
        returns = np.array([s.episodic_return for s in batch])
        j_est = surrogate_return(returns, config.mu)
        j_history.append(j_est)
        update += 1
        # probability-floor clamps since the previous row, collection included
        clamps = pol.clamp_events.value - clamps_seen
        clamps_seen = pol.clamp_events.value
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
        store.add(sample)
    for _ in range(config.offline_epochs):
        do_update()

    # Phase III: online loop
    converged = False
    while update < config.offline_epochs + config.max_updates:
        _, sample = collect_episode(env, controller, buffers,
                                    config.horizon, rng_collect)
        store.add(sample)
        do_update()
        w = config.convergence_window
        if len(j_history) >= 2 * w:
            recent = float(np.mean(j_history[-w:]))
            previous = float(np.mean(j_history[-2 * w:-w]))
            if abs(recent - previous) < config.convergence_tol * (abs(previous) + 1e-12):
                converged = True
                break
    return TrainResult(curves=curves, converged=converged, updates=update,
                       clip_events=clip_events, replay_size=len(store))


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
    """What one agent observes of a sample: its own entries and actions
    and the shared rates."""
    return TrainingSample(start_entries=(sample.start_entries[agent],),
                          actions=tuple((joint[agent],) for joint in sample.actions),
                          rates_norm=sample.rates_norm)


def theorem1_harness(env_factory, head_sizes, config: TrainConfig,
                     n_updates: int = 100) -> Theorem1Report:
    """Run the same seeded history stream through (a) a central server that
    updates every agent's net from the joint samples and (b) independent
    per-agent learners, each updating its own net from its own view of the
    samples, and compare parameter trajectories bitwise. Both sides collect
    with collect_episode and differentiate with estimate_gradient. Also
    checks that the one-pass slot-major joint gradient equals the per-agent
    gradients exactly."""
    if config.mode != "distributed":
        raise ValueError("the equivalence harness drives distributed controllers")

    def build():
        return DistributedController(head_sizes, config.history_len,
                                     _seeded(config.seed, 0),
                                     dropout_lstm=0.0, dropout_dense=0.0)

    central, team = build(), build()
    learners = []
    for m, net in enumerate(team.nets):
        learner = copy.copy(team)
        learner.head_sizes, learner.nets, learner.groups = (head_sizes[m],), [net], [(0,)]
        learners.append(learner)
    env_c, env_d = env_factory(), env_factory()
    bufs_c = [HistoryBuffer(config.history_len) for _ in head_sizes]
    bufs_d = [HistoryBuffer(config.history_len) for _ in head_sizes]
    store_c, stores_d = ReplayStore(), [ReplayStore() for _ in head_sizes]

    max_div = 0.0
    fact_gap = 0.0
    diverged_at = None
    for step in range(n_updates):
        _, sample = collect_episode(env_c, central, bufs_c, config.horizon,
                                    _seeded(config.seed, 10, step))
        store_c.add(sample)
        _, sample = collect_episode(env_d, team, bufs_d, config.horizon,
                                    _seeded(config.seed, 10, step))
        for m, store in enumerate(stores_d):
            store.add(_agent_view(sample, m))

        # central server: one gradient call over every agent's net
        batch_c = store_c.minibatch(config.minibatch, _seeded(config.seed, 20, step))
        grads_central = estimate_gradient(central, batch_c, config.mu,
                                          config.eq14_literal, mode="eval")
        # per-agent learners: each runs its own update routine on its view
        grads_agents = [
            estimate_gradient(learner, store.minibatch(config.minibatch,
                                                      _seeded(config.seed, 20, step)),
                              config.mu, config.eq14_literal, mode="eval")[0]
            for learner, store in zip(learners, stores_d)]

        # factorization identity on the central batch: joint one-pass slot-major
        # accumulation vs the agent-major vectors above
        returns = np.array([s.episodic_return for s in batch_c])
        weights = np.array([gradient_weight(r, float(returns.mean()), config.mu,
                                            config.eq14_literal) for r in returns])
        joint = [np.zeros(params.n) for _, params in central.nets]
        for t in range(config.horizon):
            for m, (arch, params) in enumerate(central.nets):
                feats = np.stack([central.sample_input(s, t, m) for s in batch_c])
                _, cache = pol.forward(params, arch, feats, mode="eval")
                acts = [np.array([s.actions[t][m] for s in batch_c])]
                joint[m] += pol.backward(params, arch, cache, acts, weights)
        for m in range(len(head_sizes)):
            gap = float(np.max(np.abs(joint[m] / len(batch_c) - grads_central[m])))
            fact_gap = max(fact_gap, gap)

        for vec, g in zip(central.parameter_vectors(), grads_central):
            vec += config.learning_rate * g
        for learner, g in zip(learners, grads_agents):
            learner.parameter_vectors()[0] += config.learning_rate * g

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
    best_improvement <= eps * |j_current| for a tolerance eps of their own."""
    from .oracle import (deterministic_assignments, enumerate_exact_J,
                         onehot_policy, own_history, policy_table)

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
    best_improvement = max(per_agent)
    return NashReport(j_current=j_now, best_improvement=best_improvement,
                      per_agent=per_agent)
