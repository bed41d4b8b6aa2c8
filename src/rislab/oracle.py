"""Brute-force ground truth on desk-scale games: exhaustive trajectory
enumeration for the exact risk-sensitive objective, open- and closed-loop
optimal policies, the greedy readout of a trained profile, and policy RMSE.

Toy games carry explicit rate/transition tables, so every probability here
is computed by full enumeration, independent of the training stack. Policies
enter as plain callables mapping the global episode history, a tuple of
(joint-action tuple, rate) pairs, to the agent's probability vector; an
agent's own view is the projection own_history(hist, m).

enumerate_trajectories is the reference walk over the game tree, and it
defines the TrajectoryTable: one walk under uniform policies, kept as
arrays. A game builds its table once, on first use (ToyGame.table), and
every exact oracle reads that one. Each scores profiles on the table with
the walk's arithmetic in the walk's order, so every probability, moment
and objective equals the walk's bit for bit; tests and perfbench compare
the two. A profile is one form, per agent its distribution at every
history of the table; a deterministic policy is the one-hot distribution
of its pick. The trainer side (training.GameTree, exact_policy_gradient,
exact_ascent) scores a controller's profile; optimal_policy and
training.nash_check score the deterministic policies that
TrajectoryTable.deterministic_picks enumerates as one batch of one-hot
profiles. nash_check asks each policy at every history of the table, so a
policy it certifies must be defined at all of them: once if it has a
batched form `at(histories)`, the (n_histories, n_actions) stack of its
calls (a controller's policy_fn: one forward of its net), else per history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    Joint actions are tuples (beam, phase_1, ..., phase_G). The game's
    trajectory table is built on first use and kept (so a game is not
    edited after construction; build a new one instead, e.g. with
    dataclasses.replace).
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
        for name, row in [("initial state", self.initial), *(
                (f"transition {key}", row) for key, row in self.transitions.items())]:
            if not all(p >= 0.0 for p, _ in row) or abs(sum(p for p, _ in row) - 1.0) > 1e-9:
                raise ValueError(f"{name} probabilities must be nonnegative and sum to 1")

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

    def check_enumerable(self) -> None:
        """Bound the trajectories of any profile: each slot branches over
        every joint action and then over the transition's next states."""
        fan_out = 1 if self.frozen else max(map(len, self.transitions.values()), default=1)
        size = (sum(p > 0.0 for p, _ in self.initial)
                * (math.prod(map(len, self.action_sets)) * fan_out) ** self.horizon)
        if size > ENUMERABILITY_BOUND:
            raise EnumerabilityError(f"{size} trajectories exceed the bound")

    @cached_property
    def table(self) -> TrajectoryTable:
        """The game's TrajectoryTable: one walk per game, whoever asks."""
        return TrajectoryTable(self)

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
    chance: tuple        # initial state's probability, then each slot's transition's


def own_history(hist, agent: int) -> tuple:
    """Project the global (joint, rate) history onto one agent's view."""
    return tuple((joint[agent], rate) for joint, rate in hist)


def uniform_policies(game: ToyGame) -> list:
    sizes = [len(s) for s in game.action_sets]

    def make(n):
        return lambda hist: np.full(n, 1.0 / n)

    return [make(n) for n in sizes]


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

    def rec(t, state, hist, prob, ret, steps, chance):
        if t == game.horizon:
            out.append(Trajectory(prob=prob, ret=ret, steps=steps, chance=chance))
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
                rec(t + 1, nxt, new_hist, p_joint * p_s, ret + r, new_steps,
                    chance + (p_s,))

    for p0, s0 in game.initial:
        if p0 > 0.0:
            rec(0, s0, (), p0, 0.0, [], (p0,))
    return out


def _surrogate(mean: float, second: float, mu: float) -> float:
    # Python floats: `mean ** 2` is pow(), which can differ from mean * mean
    return mean - 0.5 * mu * (second - mean ** 2)


def enumerate_exact_J(game: ToyGame, policy_fns, mu: float) -> float:
    """Exact surrogate objective E[R] - (mu/2) Var[R] by full enumeration."""
    trajs = enumerate_trajectories(game, policy_fns)
    mean = sum(t.prob * t.ret for t in trajs)
    second = sum(t.prob * t.ret ** 2 for t in trajs)
    return _surrogate(mean, second, mu)


def walk_sum(terms):
    """Sums over the last axis in order, as the walk's Python sum() adds:
    cumsum accumulates left to right, a pairwise np.sum would not."""
    return np.cumsum(terms, axis=-1)[..., -1].tolist()


class TrajectoryTable:
    """One enumerate_trajectories walk under uniform policies, as arrays:
    every trajectory a full-support profile reaches, in walk order, over
    the rows: the (global history, joint action) nodes those profiles
    reach, in the order the walk first visits them (depth first, slot by
    slot along each trajectory). Uniform policies reach every node that
    any profile reaches.

    A profile enters as `dists`, per agent an (..., n_histories, n_actions)
    array: its distribution at each history, in first-visit order; batch
    axes broadcast across agents, so k deterministic policies are a one-hot
    stack np.eye(n + 1, n)[picks], -1 picking the all-zero row. The table
    repeats the walk's arithmetic in the walk's order, so its probabilities,
    sums and objective equal the walk's bit for bit; a trajectory the
    profile does not reach gets probability exactly 0."""

    def __init__(self, game: ToyGame):
        trajs = enumerate_trajectories(game, uniform_policies(game))
        rows = {}
        for traj in trajs:
            for _state, joint, _rate, hist in traj.steps:
                rows.setdefault((hist, joint), len(rows))
        self.nodes = list(rows)
        first = {}
        for k, (hist, _) in enumerate(self.nodes):
            first.setdefault(hist, k)
        self.histories = list(first)
        self.first = np.array(list(first.values()))           # history -> its first row
        index = {hist: h for h, hist in enumerate(first)}
        self.hist = np.array([index[hist] for hist, _ in self.nodes])   # row -> history
        # history -> the row of the node it extends, -1 at the root
        self.parent = [rows[hist[:-1], hist[-1][0]] if hist else -1
                       for hist in self.histories]
        self.actions = np.array([joint for _, joint in self.nodes]).T  # (agents, rows)
        self.path = np.array([[rows[hist, joint] for _s, joint, _r, hist in traj.steps]
                              for traj in trajs])             # (trajectories, slots)
        self.path_hist, self.path_actions = self.hist[self.path], self.actions[:, self.path]
        self.chance = np.array([traj.chance for traj in trajs])
        self.ret = np.array([traj.ret for traj in trajs])
        self.ret_sq = np.array([traj.ret ** 2 for traj in trajs])  # pow(), as the walk squares

    def probabilities(self, dists) -> np.ndarray:
        """Each trajectory's probability, multiplied left to right as the
        walk does: the initial state's, then per slot each agent's of its
        action and the transition's. Shape (batch axes..., trajectories)."""
        if len(dists) != len(self.actions):
            raise ValueError(f"{len(dists)} dists arrays for {len(self.actions)} agents")
        factors = [d[..., self.path_hist, a] for d, a in zip(dists, self.path_actions)]
        prob = self.chance[:, 0]
        for t in range(self.path.shape[1]):
            for f in factors:
                prob = prob * f[..., t]
            prob = prob * self.chance[:, t + 1]
        return prob

    def objective(self, dists, mu: float):
        """E[R] - (mu/2) Var[R] under the profile: enumerate_exact_J's
        float, or a list of k floats for a profile with one batch axis of k."""
        prob = self.probabilities(dists)
        mean, second = walk_sum(prob * self.ret), walk_sum(prob * self.ret_sq)
        if prob.ndim == 1:
            return _surrogate(mean, second, mu)
        return [_surrogate(m, s, mu) for m, s in zip(mean, second)]

    def coefficients(self, weights) -> np.ndarray:
        """Per row, the sum of the per-trajectory `weights` over the slots
        at it, added trajectory by trajectory, then slot by slot, from 0."""
        return np.bincount(self.path.ravel(), np.repeat(weights, self.path.shape[1]),
                           minlength=len(self.nodes))

    def deterministic_picks(self, keys, plays, n_choices: int):
        """Yield every deterministic assignment node -> choice that covers
        exactly the nodes it reaches, as the (n_histories,) array of its
        pick at each history, -1 at the histories it does not reach.

        keys[h] is history h's node and plays[row] the choice the row plays.
        The root is reached; another history is reached when the row it
        extends plays the pick at that row's history, whatever the other
        agents play. Depth first over the histories in first-visit order:
        the first reached history whose node has no choice yet takes each
        choice in turn."""
        n = len(self.histories)
        row_hist, plays = self.hist.tolist(), np.asarray(plays).tolist()
        picks, chosen, branches = [-1] * n, {}, 0

        def extend(start):
            nonlocal branches
            for h in range(start, n):
                parent, picks[h] = self.parent[h], -1
                if parent >= 0 and picks[row_hist[parent]] != plays[parent]:
                    continue
                if keys[h] in chosen:
                    picks[h] = chosen[keys[h]]
                    continue
                for choice in range(n_choices):
                    branches += 1
                    if branches > ENUMERABILITY_BOUND:
                        raise EnumerabilityError("deterministic policy space exceeds the bound")
                    chosen[keys[h]] = picks[h] = choice
                    yield from extend(h + 1)
                del chosen[keys[h]]
                return
            yield np.array(picks)

        yield from extend(0)


# ---------------------------------------------------------------------------
# optimal policies


@dataclass
class OptimalPolicy:
    j_star: float
    sequence: tuple | None = None      # open-loop joint actions, one per slot
    tree: dict | None = None           # closed-loop: history node -> joint
    closed_loop: bool = False

    def policy_fns(self, game: ToyGame) -> list:
        """One-hot policies that play this optimum, defined at every
        history: off its support, a closed-loop optimum plays the joint
        action of the longest prefix its tree holds (the root always is),
        so nash_check certifies it for any number of agents."""
        if self.closed_loop:
            return joint_onehot_policies(game, self._tree_joint)
        return joint_onehot_policies(game, lambda hist: self.sequence[len(hist)])

    def _tree_joint(self, hist):
        while hist not in self.tree:
            hist = hist[:-1]
        return self.tree[hist]


def optimal_policy(game: ToyGame, mu: float, closed_loop: bool = False) -> OptimalPolicy:
    """Exhaustive argmax of the exact objective; ties break to the first
    candidate enumerated, for open loop the lexicographically smallest
    action sequence.

    Open-loop (default): a joint action per slot, all (A * B^G)^T sequences.
    Closed-loop (stochastic toys): a joint action per reachable global
    (joint action, rate) history. The game's trajectory table enumerates
    the candidates (TrajectoryTable.deterministic_picks) and scores them all
    at once, each as the one-hot profile of the joint action it plays at
    each history, so every j_star is the walk's enumerate_exact_J bit for bit.
    """
    closed_loop = closed_loop and not game.frozen
    table = game.table
    joints = game.joint_actions
    index = {joint: k for k, joint in enumerate(joints)}
    plays = np.array([index[joint] for _, joint in table.nodes])
    keys = table.histories if closed_loop else [len(hist) for hist in table.histories]
    picks = np.array(list(table.deterministic_picks(keys, plays, len(joints))))
    acts = np.array(joints + [(-1,) * game.n_agents])[picks]  # pick -1 -> all -1
    scores = table.objective([np.eye(len(actions) + 1, len(actions))[acts[..., m]]
                              for m, actions in enumerate(game.action_sets)], mu)
    best = 0
    for k, j in enumerate(scores):
        if j > scores[best] + 1e-15:
            best = k
    chosen = {key: joints[p] for key, p in zip(keys, picks[best].tolist()) if p >= 0}
    if closed_loop:
        return OptimalPolicy(j_star=scores[best], tree=chosen, closed_loop=True)
    return OptimalPolicy(j_star=scores[best],
                         sequence=tuple(chosen[t] for t in range(game.horizon)))


# ---------------------------------------------------------------------------
# greedy readout and policy distance


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
