"""Oracle tests: enumeration exactness, the trajectory table against the
walk, brute-force optima including the two-arm risk threshold, the greedy
readout, the tests' finite-difference oracle, and RMSE fixtures."""

import zlib

import numpy as np
import pytest

from helpers import (fd_gradient, policy_table, revealed_state_game, stochastic_toy_game,
                     walk_coefficients)

from rislab.oracle import (
    EnumerabilityError,
    OptimalPolicy,
    ToyGame,
    TrajectoryTable,
    complexity_bench,
    deterministic_assignments,
    enumerate_exact_J,
    enumerate_trajectories,
    frozen_toy_game,
    greedy_sequence,
    joint_onehot_policies,
    optimal_policy,
    policy_rmse_multi,
    uniform_histories,
    uniform_policies,
    walk_sum,
)
from rislab.risk import gradient_weight


def two_by_two_game(horizon=2):
    """A=2, B=2, G=1: joint (a, b) rates with one clearly best pair."""
    rates = {(0, 0): 0.3, (0, 1): 0.6, (1, 0): 0.2, (1, 1): 2.0}
    return frozen_toy_game(rates, n_beams=2, n_phases=2, n_ris=1, horizon=horizon)


def two_arm_game(p_hi=0.5, hi=4.0, lo=0.0, steady=1.5):
    """Single agent, two arms: arm 0 is a coin flip between hi and lo,
    arm 1 pays `steady` deterministically. T=1, state drawn initially."""
    rates = {("up", (0,)): hi, ("down", (0,)): lo,
             ("up", (1,)): steady, ("down", (1,)): steady}
    return ToyGame(n_beams=2, n_phases=1, n_ris=0, horizon=1, rates=rates,
                   initial=((p_hi, "up"), (1 - p_hi, "down")),
                   transitions={("up", (0,)): ((0.5, "up"), (0.5, "down")),
                                ("down", (0,)): ((0.5, "up"), (0.5, "down")),
                                ("up", (1,)): ((0.5, "up"), (0.5, "down")),
                                ("down", (1,)): ((0.5, "up"), (0.5, "down"))},
                   frozen=False)


def dead_branch_game():
    """2x2 over two states with a zero-probability initial state and
    zero-probability transitions, which the walk skips. T=2."""
    joints = [(b, p) for b in range(2) for p in range(2)]
    rates = {(s, j): 0.25 + 0.5 * j[0] + 0.3 * j[1] + (0.7 if s == "b" else 0.0)
             for s in "ab" for j in joints}
    transitions = {(s, j): ((0.0, "a"), (1.0, "b")) if j[1] == 0 else ((0.3, "a"), (0.7, "b"))
                   for s in "ab" for j in joints}
    return ToyGame(n_beams=2, n_phases=2, n_ris=1, horizon=2, rates=rates,
                   initial=((0.0, "b"), (1.0, "a")), transitions=transitions,
                   frozen=False)


# ---------------------------------------------------------------------------
# enumeration


def test_trajectory_probabilities_sum_to_one():
    game = two_by_two_game()
    trajs = enumerate_trajectories(game, uniform_policies(game))
    assert len(trajs) == 16
    assert sum(t.prob for t in trajs) == pytest.approx(1.0, abs=1e-10)


def test_exact_J_deterministic_policies():
    game = two_by_two_game()

    def onehot(n, k):
        return lambda hist: np.eye(n)[k]

    # both agents pinned to the best joint action: J = 2 slots * 2.0, var 0
    j = enumerate_exact_J(game, [onehot(2, 1), onehot(2, 1)], mu=0.9)
    assert j == pytest.approx(4.0, rel=1e-12)


def test_exact_J_direct_substitution():
    # uniform coin between returns 0 and 2: J = 1 - 0.4 = 0.6 at mu = 0.8
    rates = {(0,): 0.0, (1,): 1.0}
    game = frozen_toy_game(rates, n_beams=2, n_phases=1, n_ris=0, horizon=2)

    # policy chooses action 0 or 1 on slot 0 and then repeats it: returns 0 or 2
    def sticky(hist):
        if not hist:
            return np.array([0.5, 0.5])
        last_joint, _rate = hist[-1]
        return np.eye(2)[last_joint[0]]

    j = enumerate_exact_J(game, [sticky], mu=0.8)
    assert j == pytest.approx(0.6, rel=1e-12)


def test_exact_J_mu_zero_is_plain_expectation():
    game = two_by_two_game()
    pols = uniform_policies(game)
    trajs = enumerate_trajectories(game, pols)
    want = sum(t.prob * t.ret for t in trajs)
    assert enumerate_exact_J(game, pols, mu=0.0) == pytest.approx(want, rel=1e-12)


def test_exact_J_matches_monte_carlo():
    game = two_by_two_game()
    rng = np.random.default_rng(0)

    # a mildly history-dependent stochastic policy
    def beam_policy(hist):
        p = 0.3 + 0.4 * (len(hist) % 2)
        return np.array([p, 1 - p])

    def phase_policy(hist):
        return np.array([0.25, 0.75])

    pols = [beam_policy, phase_policy]
    exact = enumerate_exact_J(game, pols, mu=0.0)
    n = 200_000
    rets = np.zeros(n)
    for s in range(n):
        hist = ()
        total = 0.0
        for _ in range(game.horizon):
            acts = tuple(int(rng.random() >= pols[m](hist)[0]) for m in range(2))
            r = game.rate("s0", acts)
            hist = hist + ((acts, r),)
            total += r
        rets[s] = total
    sigma = rets.std() / np.sqrt(n)
    assert abs(rets.mean() - exact) < 3 * sigma + 1e-12


def test_enumerability_bound_enforced():
    rates = {tuple([a] + [b] * 4): 1.0 for a in range(8) for b in range(8)}
    game = frozen_toy_game({k: 1.0 for k in rates}, n_beams=8, n_phases=8,
                           n_ris=4, horizon=4)
    with pytest.raises(EnumerabilityError):
        enumerate_trajectories(game, uniform_policies(game))


def history_policies(game, seed):
    """Per agent, a full-support policy that depends on the whole history:
    a Dirichlet draw seeded by the agent, the seed and the history."""
    def make(m, n):
        def fn(hist):
            key = zlib.crc32(repr((seed, m, hist)).encode())
            return np.random.default_rng(key).dirichlet(np.ones(n))
        return fn

    return [make(m, len(a)) for m, a in enumerate(game.action_sets)]


def onehot_of(policies):
    """The argmax of each policy as a one-hot policy, zeros elsewhere."""
    return [lambda hist, fn=fn: np.eye(len(fn(())))[int(np.argmax(fn(hist)))]
            for fn in policies]


# r ** 2, which is pow(), and r * r differ in the last bit for both rates
POW_RATES = {(0,): 2.759, (1,): 4.536}

TABLE_GAMES = {"toy": two_by_two_game(), "st500": stochastic_toy_game(500),
               "st501": stochastic_toy_game(501), "st502": stochastic_toy_game(502),
               "two_arm": two_arm_game(), "revealed": revealed_state_game(),
               "dead_branch": dead_branch_game(),
               "pow": frozen_toy_game(POW_RATES, n_beams=2, n_phases=1, n_ris=0, horizon=1)}


@pytest.mark.parametrize("name", list(TABLE_GAMES))
@pytest.mark.parametrize("profile", ["full_support", "onehot", "mixed"])
def test_trajectory_table_equals_the_walk_bitwise(name, profile):
    # the table's probabilities, objective and gradient coefficients equal
    # the walk's bit for bit, under full-support policies and under
    # one-hot ones that put zero probability on whole subtrees
    game = TABLE_GAMES[name]
    table = TrajectoryTable(game)
    policies = history_policies(game, seed=len(name))
    if profile != "full_support":
        policies[:1 if profile == "mixed" else None] = onehot_of(
            policies[:1 if profile == "mixed" else None])
    dists = [np.array([fn(hist) for hist in table.histories]) for fn in policies]
    walk = enumerate_trajectories(game, policies)
    prob = table.probabilities(dists)
    assert prob.shape == (len(enumerate_trajectories(game, uniform_policies(game))),)
    assert [p for p in prob.tolist() if p] == [t.prob for t in walk if t.prob]
    for mu in (0.0, 0.7):
        assert table.objective(dists, mu) == enumerate_exact_J(game, policies, mu)
        mean = walk_sum(prob * table.ret)
        assert mean == sum(t.prob * t.ret for t in walk)
        buckets = walk_coefficients(game, policies, mu)
        weights = gradient_weight(table.ret, mean, mu)
        np.testing.assert_array_equal(table.coefficients(prob * weights),
                                      [buckets.get(node, 0.0) for node in table.nodes])


# ---------------------------------------------------------------------------
# optimal policies


def test_optimal_single_action():
    game = frozen_toy_game({(0,): 1.2}, n_beams=1, n_phases=1, n_ris=0, horizon=3)
    best = optimal_policy(game, mu=0.5)
    assert best.sequence == ((0,),) * 3
    assert best.j_star == pytest.approx(3.6, rel=1e-12)


def test_optimal_frozen_game_repeats_best_pair():
    game = two_by_two_game()
    best = optimal_policy(game, mu=0.0)
    assert best.sequence == ((1, 1), (1, 1))
    assert best.j_star == pytest.approx(4.0)


def test_optimal_tie_breaks_lexicographically():
    rates = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}
    game = frozen_toy_game(rates, n_beams=2, n_phases=2, n_ris=1, horizon=2)
    best = optimal_policy(game, mu=0.3)
    assert best.sequence == ((0, 0), (0, 0))


def test_two_arm_risk_threshold():
    # arm 0: mean 2, variance 4; arm 1: 1.5 steady.
    # J0(mu) = 2 - 2 mu, J1 = 1.5: the optimum switches at mu* = 0.25
    game = two_arm_game()
    lo = optimal_policy(game, mu=0.1)
    hi = optimal_policy(game, mu=0.5)
    assert lo.sequence == ((0,),)
    assert hi.sequence == ((1,),)
    at_star_minus = optimal_policy(game, mu=0.25 - 1e-6)
    assert at_star_minus.sequence == ((0,),)


def test_optimal_dominates_random_policies():
    game = two_by_two_game()
    best = optimal_policy(game, mu=0.4)
    rng = np.random.default_rng(1)
    for _ in range(200):
        probs = [rng.dirichlet(np.ones(2)) for _ in range(2)]
        pols = [lambda h, p=p: p for p in probs]
        assert enumerate_exact_J(game, pols, mu=0.4) <= best.j_star + 1e-12


def test_closed_loop_beats_open_loop_when_history_helps():
    # two persistent states revealed by the first slot's rate: adapting the
    # second action beats any fixed sequence
    game = revealed_state_game()
    open_best = optimal_policy(game, mu=0.0)
    closed_best = optimal_policy(game, mu=0.0, closed_loop=True)
    assert open_best.j_star == pytest.approx(1.0)   # guess right half the time
    assert closed_best.j_star == pytest.approx(1.5)  # slot 1 reveals the state
    assert closed_best.closed_loop
    # each optimum hands out one-hot policies that score its j_star
    for best in (open_best, closed_best):
        assert enumerate_exact_J(game, best.policy_fns(game), 0.0) == best.j_star



def test_optimum_scores_its_j_star_with_risk_on_stochastic_toys():
    # non-dyadic transition probabilities and mu > 0: the optimum's j_star is
    # the exact objective of its own one-hot policies, bit for bit, because
    # optimal_policy scores every candidate through enumerate_exact_J
    for seed in range(4):
        game = stochastic_toy_game(500 + seed)
        for mu in (0.25, 0.8, 1.3):
            for closed_loop in (False, True):
                best = optimal_policy(game, mu, closed_loop=closed_loop)
                assert enumerate_exact_J(game, best.policy_fns(game), mu) == best.j_star

def test_deterministic_assignments_cover_reachable_nodes_only():
    # one joint action at the root, then one per observed first-slot rate:
    # 2 * 2^2 closed-loop trees of 3 nodes each, and 2^2 sequences
    game = revealed_state_game()

    def score(choose):
        return enumerate_exact_J(game, joint_onehot_policies(game, choose), 0.0)

    trees = [dict(t) for _, t in deterministic_assignments(score, lambda h: h,
                                                           game.joint_actions)]
    assert len(trees) == 8
    assert len({tuple(sorted(t.items())) for t in trees}) == 8
    for tree in trees:
        root = tree[()]
        assert set(tree) == {()} | {((root, r),) for r in (0.0, 1.0)}
    sequences = [dict(t) for _, t in deterministic_assignments(score, len,
                                                               game.joint_actions)]
    assert sequences == [{0: a, 1: b} for a in game.joint_actions
                         for b in game.joint_actions]


def test_policy_table_runs_each_policy_once_per_history():
    game = two_by_two_game(horizon=3)
    calls = []

    def counted(hist):
        calls.append(hist)
        return np.array([0.3, 0.7])

    table = policy_table([counted, counted])
    first = enumerate_exact_J(game, table, mu=0.2)
    assert len(calls) == 2 * len(set(calls)) == 2 * (1 + 4 + 16)
    assert enumerate_exact_J(game, table, mu=0.2) == first
    assert len(calls) == 2 * 21


# ---------------------------------------------------------------------------
# finite differences (the tests' helper, checked against closed forms)


def test_fd_constant_function_zero():
    grad = fd_gradient(lambda v: 7.0, np.ones(5), step=1e-4)
    np.testing.assert_array_equal(grad, 0.0)


def test_fd_quadratic_analytic():
    theta = np.array([0.5, -1.5, 2.0])
    grad = fd_gradient(lambda v: float(v @ v), theta, step=1e-5)
    np.testing.assert_allclose(grad, 2 * theta, atol=1e-8)


# ---------------------------------------------------------------------------
# greedy readout


def test_uniform_histories_cover_every_slot_start_once():
    game = two_by_two_game(horizon=2)
    hists = uniform_histories(game)
    # the empty start, then one history per first joint action
    assert hists[0] == ()
    assert len(hists) == 1 + 4 and len(set(hists)) == len(hists)
    assert [len(h) for h in hists] == [0, 1, 1, 1, 1]


def test_tree_nodes_list_every_node_in_first_visit_order():
    game = two_by_two_game(horizon=2)
    nodes = TrajectoryTable(game).nodes
    joints = game.joint_actions
    # the root with its first joint, then that joint's 4 second-slot nodes, ...
    want = []
    for first in joints:
        want.append(((), first))
        want += [(((first, game.rate("s0", first)),), second) for second in joints]
    assert nodes == want
    stochastic = stochastic_toy_game(502)
    reached = {(hist, joint) for traj in enumerate_trajectories(
        stochastic, uniform_policies(stochastic)) for _s, joint, _r, hist in traj.steps}
    assert len(TrajectoryTable(stochastic).nodes) == len(reached) == 4 + 2 * 4 * 4


def test_greedy_sequence_follows_argmax_and_history():
    game = two_by_two_game(horizon=2)
    # slot 0 picks (0, 1); slot 1 reads that slot's rate, 0.6, off the history
    pols = joint_onehot_policies(
        game, lambda hist: (0, 1) if not hist else ((1, 1) if hist[-1][1] == 0.6 else (0, 0)))
    assert greedy_sequence(game, pols) == ((0, 1), (1, 1))
    assert greedy_sequence(game, optimal_policy(game, 0.0).policy_fns(game)) == ((1, 1),) * 2
    with pytest.raises(ValueError):
        greedy_sequence(two_arm_game(), uniform_policies(two_arm_game()))


# ---------------------------------------------------------------------------
# policy RMSE


def test_rmse_identical_policies_zero():
    pol = lambda h: np.array([0.4, 0.6])
    assert policy_rmse_multi([pol], [pol], [[(), ((0, 1.0),)]]) == 0.0


def test_rmse_onehot_vs_uniform_closed_form():
    a = lambda h: np.array([1.0, 0.0])
    b = lambda h: np.array([0.5, 0.5])
    assert policy_rmse_multi([a], [b], [[()]]) == pytest.approx(50.0, rel=1e-12)


def test_rmse_shape_mismatch():
    a = lambda h: np.array([1.0, 0.0])
    b = lambda h: np.array([0.5, 0.25, 0.25])
    with pytest.raises(ValueError):
        policy_rmse_multi([a], [b], [[()]])


def test_rmse_multi_pools_agents():
    a0 = lambda h: np.array([1.0, 0.0])
    b0 = lambda h: np.array([0.5, 0.5])
    same = lambda h: np.array([0.3, 0.7])
    got = policy_rmse_multi([a0, same], [b0, same], [[()], [()]])
    # deltas: (0.5, -0.5, 0, 0) -> rms = sqrt(0.125) = 35.355%
    assert got == pytest.approx(100 * np.sqrt(0.125), rel=1e-12)


# ---------------------------------------------------------------------------
# complexity bench (smoke level; trend asserted in acceptance)


def test_complexity_bench_smoke():
    report = complexity_bench(kinds=("distributed",), horizons=(1, 2),
                              history_lens=(8, 16), action_counts=(4,),
                              agent_counts=(2,), repeats=1, seed=0)
    assert all(row.seconds > 0 for row in report.rows)
    assert ("distributed", "T") in report.exponents
