"""Brute-force ground truth on desk-scale games: exhaustive trajectory
enumeration for the exact risk-sensitive objective, open- and closed-loop
optimal policies, the greedy readout of a trained profile, policy RMSE, and
forward-cost benchmarks.

Toy games carry explicit rate/transition tables, so every probability here
is computed by full enumeration, independent of the training stack. Policies
enter as plain callables mapping the global episode history, a tuple of
(joint-action tuple, rate) pairs, to the agent's probability vector; an
agent's own view is the projection own_history(hist, m).

enumerate_trajectories is the one walk over the game tree. An open-loop
sequence, a closed-loop tree and a Nash deviation are one-hot policies
scored through it; deterministic_assignments enumerates them over the
nodes each one reaches. policy_table memoizes plain callables per oracle
call, so a policy held fixed runs once per history it is asked about.
tree_nodes lists the (history, joint) nodes that full-support policies
reach, so a trained net can price all of them in one batched forward
(training.GameTree) and the walk then reads its policies from that pass.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from itertools import product

import numpy as np

ENUMERABILITY_BOUND = 10_000_000


class EnumerabilityError(ValueError):
    """Game too large for exhaustive enumeration."""


# ---------------------------------------------------------------------------
# toy games


@dataclass(frozen=True)
class ToyGame:
    """Explicitly tabulated identical-payoff game.

    rates[(state, joint)] is the shared reward; transitions[(state, joint)]
    lists (probability, next_state); initial lists (probability, state).
    Joint actions are tuples (beam, phase_1, ..., phase_G).
    """

    n_beams: int
    n_phases: int
    n_ris: int
    horizon: int
    rates: dict
    initial: tuple
    transitions: dict
    frozen: bool = True

    def __post_init__(self):
        if min(self.n_beams, self.horizon) < 1 or self.n_phases < 1 or self.n_ris < 0:
            raise ValueError("bad toy-game dimensions")
        total = sum(p for p, _ in self.initial)
        if abs(total - 1.0) > 1e-9:
            raise ValueError("initial state probabilities must sum to 1")

    @property
    def n_agents(self) -> int:
        return 1 + self.n_ris

    @property
    def action_sets(self) -> tuple:
        return (tuple(range(self.n_beams)),) + \
            (tuple(range(self.n_phases)),) * self.n_ris

    @property
    def joint_actions(self) -> list:
        return list(product(*self.action_sets))

    def states(self) -> set:
        return {s for _, s in self.initial} | {s for s, _ in self.rates.keys()}

    def check_enumerable(self) -> None:
        size = (self.n_beams ** self.horizon
                * self.n_phases ** (self.n_ris * self.horizon)
                * max(len(self.states()), 1))
        if size > ENUMERABILITY_BOUND:
            raise EnumerabilityError(f"{size} trajectories exceed the bound")

    def rate(self, state, joint) -> float:
        return self.rates[(state, joint)]

    def step(self, state, joint):
        if self.frozen:
            return ((1.0, state),)
        return self.transitions[(state, joint)]


def frozen_toy_game(rate_of_joint: dict, n_beams: int, n_phases: int,
                    n_ris: int, horizon: int) -> ToyGame:
    """Single-state game whose reward depends on the joint action only."""
    rates = {("s0", joint): float(r) for joint, r in rate_of_joint.items()}
    return ToyGame(n_beams=n_beams, n_phases=n_phases, n_ris=n_ris,
                   horizon=horizon, rates=rates, initial=((1.0, "s0"),),
                   transitions={}, frozen=True)


# ---------------------------------------------------------------------------
# trajectory enumeration


@dataclass
class Trajectory:
    prob: float
    ret: float
    steps: list          # per slot: (state, joint, rate, global history before)


def own_history(hist, agent: int) -> tuple:
    """Project the global (joint, rate) history onto one agent's view."""
    return tuple((joint[agent], rate) for joint, rate in hist)


def uniform_policies(game: ToyGame) -> list:
    sizes = [len(s) for s in game.action_sets]

    def make(n):
        return lambda hist: np.full(n, 1.0 / n)

    return [make(n) for n in sizes]


def policy_table(policy_fns) -> list:
    """Wrap each policy in a lazy table of its outputs keyed by history, so
    every policy runs once per history. Build one per oracle call: the
    parameters behind a policy may change between calls."""
    return [functools.cache(fn) for fn in policy_fns]


def tree_nodes(game: ToyGame) -> list:
    """Every (global history, joint action) node of the game tree that
    full-support policies reach, in the order enumerate_trajectories first
    visits them: depth first, slot by slot along each trajectory. Uniform
    policies reach every node that any profile reaches."""
    nodes = {}
    for traj in enumerate_trajectories(game, uniform_policies(game)):
        for _state, joint, _rate, hist in traj.steps:
            nodes.setdefault((hist, joint))
    return list(nodes)


def onehot_policy(n_actions: int, choose):
    """Deterministic policy playing action choose(hist)."""

    def fn(hist):
        out = np.zeros(n_actions)
        out[choose(hist)] = 1.0
        return out

    return fn


def joint_onehot_policies(game: ToyGame, joint_at) -> list:
    """Deterministic policies playing the joint action joint_at(hist)."""
    return [onehot_policy(len(actions), lambda hist, m=m: joint_at(hist)[m])
            for m, actions in enumerate(game.action_sets)]


def enumerate_trajectories(game: ToyGame, policy_fns) -> list[Trajectory]:
    """Every trajectory with its exact probability under the given policies.

    Policies receive the global history: the episode's (joint action, rate)
    pairs so far, oldest first.
    """
    game.check_enumerable()
    out: list[Trajectory] = []
    joints = game.joint_actions

    def rec(t, state, hist, prob, ret, steps):
        if t == game.horizon:
            out.append(Trajectory(prob=prob, ret=ret, steps=steps))
            return
        dists = [np.asarray(policy_fns[m](hist), dtype=float)
                 for m in range(game.n_agents)]
        for joint in joints:
            p_joint = prob
            for m, a in enumerate(joint):
                p_joint *= float(dists[m][a])
            if p_joint == 0.0:
                continue
            r = game.rate(state, joint)
            new_hist = hist + ((joint, r),)
            new_steps = steps + [(state, joint, r, hist)]
            for p_s, nxt in game.step(state, joint):
                if p_s == 0.0:
                    continue
                rec(t + 1, nxt, new_hist, p_joint * p_s, ret + r, new_steps)

    for p0, s0 in game.initial:
        if p0 > 0.0:
            rec(0, s0, (), p0, 0.0, [])
    return out


def enumerate_exact_J(game: ToyGame, policy_fns, mu: float) -> float:
    """Exact surrogate objective E[R] - (mu/2) Var[R] by full enumeration."""
    trajs = enumerate_trajectories(game, policy_fns)
    mean = sum(t.prob * t.ret for t in trajs)
    second = sum(t.prob * t.ret ** 2 for t in trajs)
    return mean - 0.5 * mu * (second - mean ** 2)


# ---------------------------------------------------------------------------
# optimal policies


@dataclass
class OptimalPolicy:
    j_star: float
    sequence: tuple | None = None      # open-loop joint actions, one per slot
    tree: dict | None = None           # closed-loop: history node -> joint
    closed_loop: bool = False

    def policy_fns(self, game: ToyGame) -> list:
        """One-hot policies that play this optimum."""
        if self.closed_loop:
            return joint_onehot_policies(game, lambda hist: self.tree[hist])
        return joint_onehot_policies(game, lambda hist: self.sequence[len(hist)])


class _Unassigned(LookupError):
    """A deterministic assignment was asked for a node (the only argument)
    it does not cover."""


def deterministic_assignments(score, node_of, choices):
    """Yield (score, assignment) for every complete deterministic assignment
    node -> choice, depth first, choices tried in the given order.

    score(choose) evaluates the policies that play choose(hist), the choice
    at node node_of(hist). choose raises at a node the assignment does not
    cover yet; that node then takes each choice in turn. So every assignment
    covers exactly the nodes reachable under it. The yielded dict is live:
    copy it to keep it.
    """
    tree = {}
    branches = 0

    def choose(hist):
        node = node_of(hist)
        if node not in tree:
            raise _Unassigned(node)
        return tree[node]

    def extend():
        nonlocal branches
        try:
            value = score(choose)
        except _Unassigned as gap:
            (node,) = gap.args
        else:
            yield value, tree
            return
        for choice in choices:
            branches += 1
            if branches > ENUMERABILITY_BOUND:
                raise EnumerabilityError("deterministic policy space exceeds the bound")
            tree[node] = choice
            yield from extend()
            del tree[node]

    yield from extend()


def optimal_policy(game: ToyGame, mu: float, closed_loop: bool = False) -> OptimalPolicy:
    """Exhaustive argmax of the exact objective; ties break to the first
    assignment enumerated, for open loop the lexicographically smallest
    action sequence.

    Open-loop (default): a joint action per slot, all (A * B^G)^T sequences.
    Closed-loop (stochastic toys): a joint action per reachable global
    (joint action, rate) history.
    """
    closed_loop = closed_loop and not game.frozen

    def score(choose):
        return enumerate_exact_J(game, joint_onehot_policies(game, choose), mu)

    best = None
    for j, tree in deterministic_assignments(score, (lambda hist: hist) if closed_loop else len,
                                             game.joint_actions):
        if best is None or j > best[0] + 1e-15:
            best = (j, dict(tree))
    if closed_loop:
        return OptimalPolicy(j_star=best[0], tree=best[1], closed_loop=True)
    return OptimalPolicy(j_star=best[0], sequence=tuple(best[1][t] for t in range(game.horizon)))


# ---------------------------------------------------------------------------
# greedy readout and policy distance


def uniform_histories(game: ToyGame) -> list:
    """Every global history a slot starts from under uniform policies, i.e.
    every history a full-support profile can reach, shortest first."""
    return sorted({hist for hist, _ in tree_nodes(game)}, key=lambda h: (len(h), str(h)))


def greedy_sequence(game: ToyGame, policy_fns) -> tuple:
    """The joint actions played on a frozen single-state game when every
    agent takes the argmax of its policy in each slot."""
    if not game.frozen or len(game.initial) != 1:
        raise ValueError("greedy readout needs a frozen single-state game")
    (_, state), = game.initial
    hist = ()
    for _ in range(game.horizon):
        joint = tuple(int(np.argmax(fn(hist))) for fn in policy_fns)
        hist += ((joint, game.rate(state, joint)),)
    return tuple(joint for joint, _ in hist)


def policy_rmse_multi(policies_a, policies_b, histories_per_agent) -> float:
    """Pooled RMSE across agents (each agent contributes its own histories)."""
    deltas = []
    for pa, pb, hists in zip(policies_a, policies_b, histories_per_agent):
        for hist in hists:
            da = np.asarray(pa(hist), dtype=float)
            db = np.asarray(pb(hist), dtype=float)
            if da.shape != db.shape:
                raise ValueError("action-space mismatch")
            deltas.append(da - db)
    stacked = np.concatenate(deltas)
    return 100.0 * float(np.sqrt(np.mean(stacked ** 2)))


# ---------------------------------------------------------------------------
# complexity benchmarks


@dataclass
class BenchRow:
    kind: str
    param: str
    value: int
    seconds: float


@dataclass
class BenchReport:
    rows: list
    exponents: dict      # (kind, param) -> fitted log-log slope


def _episode_nets(kind: str, history_len: int, n_agents: int, n_actions: int,
                  rng: np.random.Generator) -> list:
    """(arch, params, history) per net of a fresh controller."""
    from .training import TrainConfig, make_controller

    config = TrainConfig(mode=kind, history_len=history_len,
                         dropout_lstm=0.0, dropout_dense=0.0)
    nets = make_controller(config, (n_actions,) * n_agents, rng).nets
    return [(a, p, rng.normal(size=(a.history_len, a.input_size))) for a, p in nets]


def _episode_seconds(nets: list, horizon: int, repeats: int) -> float:
    from .policy import forward

    start = time.perf_counter()
    for _ in range(repeats):
        for _slot in range(horizon):
            for a, p, h in nets:
                forward(p, a, h, mode="eval")
    return (time.perf_counter() - start) / repeats


def complexity_bench(kinds=("centralized", "distributed"),
                     horizons=(1, 2, 4, 8), history_lens=(8, 16, 32),
                     action_counts=(4, 8, 16), agent_counts=(2, 3, 5),
                     repeats: int = 8, seed: int = 0) -> BenchReport:
    """Measure per-episode feedforward cost against each driver parameter and
    fit log-log growth exponents. Each point is the best of 3 timings, and
    the 3 rounds run every point of a sweep in turn, so a drift in host
    speed reaches every point alike instead of bending the fit."""
    rng = np.random.default_rng(seed)
    base = dict(history_len=16, n_agents=3, n_actions=8, horizon=2)
    sweeps = [("T", "horizon", horizons), ("H", "history_len", history_lens),
              ("B", "n_actions", action_counts), ("M", "n_agents", agent_counts)]
    rows = []
    exponents = {}
    for kind in kinds:
        for label, key, values in sweeps:
            points = []
            for v in values:
                cfg = dict(base)
                cfg[key] = v
                horizon = cfg.pop("horizon")
                points.append((horizon, _episode_nets(kind=kind, rng=rng, **cfg)))
            times = [math.inf] * len(values)
            for _ in range(3):
                for k, (horizon, nets) in enumerate(points):
                    times[k] = min(times[k], _episode_seconds(nets, horizon, repeats))
            rows += [BenchRow(kind=kind, param=label, value=v, seconds=secs)
                     for v, secs in zip(values, times)]
            if len(values) >= 2:
                slope = np.polyfit(np.log(np.asarray(values, dtype=float)),
                                   np.log(np.asarray(times)), 1)[0]
                exponents[(kind, label)] = float(slope)
    return BenchReport(rows=rows, exponents=exponents)
