"""Fingerprint of the numbers rislab's trainer, oracles and CLI produce.

Prints one `<output> <sha256 prefix>` line per output:

- desk `train()` parameters, learning curves and run counters
  (updates, clip events, replay size, convergence) for both controller
  kinds at two seeds, and `cli._rollout_stats` of each trained controller;
- toy `exact_policy_gradient`, `exact_ascent` (trace and parameters) and
  `nash_check` for both kinds, the open- and closed-loop `optimal_policy`
  at two risk levels, and `nash_check` of each open-loop optimum's one-hot
  profile, whose zeros cut whole subtrees, on the built-in toy and on a
  fixed non-frozen two-state game, so state transitions are pinned too;
- `theorem1_harness` on the toy at seed 31, as acceptance criterion c03 runs it;
- every file `rislab train` / `evaluate` / `compare` writes, for the toy
  profile and a reduced desk budget in both modes, and `rislab train` /
  `compare` on the toy profile with a centralized controller and a short
  budget, with the manifest lines (which carry the config hash) stripped;
- `config_hash()` of the desk, paper and toy profiles, so a config change
  that would alter every manifest shows;
- channel-layer streams: a 300-step paper-profile `Environment` run
  (rewards and states) at two seeds, the rates of every paper joint action
  at one state, and desk streams with no RIS and with one RIS;
- policy kernels, pinned directly rather than through trained parameters:
  `policy.forward` (eval, and train from a fixed rng) and `policy.backward`
  of every net of a fresh desk controller of each kind, on one history
  (S = 1) and on a (T, S) stack, and the `Controller.distributions` stream
  of a 40-episode rollout of each untrained controller.

A change meant to keep every number bitwise equal is checked by running the
script on the change and on an export of its parent, then diffing:

    git archive <parent> | (mkdir -p ../parent && tar -x -C ../parent)
    python tools/fingerprint.py > change.txt
    python tools/fingerprint.py --root ../parent > parent.txt
    diff parent.txt change.txt && echo identical

`--root` names the tree whose `src/rislab` is imported; it defaults to the
tree holding this script. A run takes about ten seconds on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

SEEDS = (5, 11)
PAPER_STEPS = 300
KINDS = ("distributed", "centralized")
DESK_BUDGET = {"seed_episodes": 60, "offline_epochs": 10, "max_updates": 30,
               "convergence_window": 10}
CLI_DESK_CONFIG = """version 1
train.seed_episodes 40
train.offline_epochs 8
train.max_updates 12
eval.episodes 20
eval.warmup 4
eval.obstacle_counts 0,1
"""
CLI_TOY_CENTRALIZED_CONFIG = """version 1
train.mode centralized
train.max_updates 100
train.polish_steps 100
"""


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def params_of(ctrl) -> np.ndarray:
    return np.concatenate(ctrl.parameter_vectors())


def desk_lines(cli, training):
    for kind in KINDS:
        for seed in SEEDS:
            cfg = replace(cli.profile_config("desk"), mode=kind, seed=seed, **DESK_BUDGET)
            env, heads = cli.build_environment(cfg)
            ctrl = training.make_controller(cfg, heads, np.random.default_rng(cfg.seed))
            res = training.train(env, ctrl, cfg)
            curves = [(c.update, c.j_estimate, c.mean_rate, c.rate_variance,
                       c.grad_norm, c.clamps) for c in res.curves]
            tag = f"desk.{kind}.seed{seed}"
            yield f"{tag}.params", digest(params_of(ctrl))
            yield f"{tag}.curves", digest(curves)
            yield f"{tag}.counters", digest(res.updates, res.clip_events, res.replay_size,
                                            res.converged)
            norm, bits, hist = cli._rollout_stats(env, ctrl, cfg, 30, seed)
            yield f"{tag}.rollout_stats", digest(norm, bits, *hist)


def stochastic_game(oracle):
    """A 2x2 game over two states, horizon 2: rates, transition
    probabilities (non-dyadic, depending on the joint action) and the
    initial state drawn once from a fixed seed."""
    rng = np.random.default_rng(2024)
    joints = list(product(range(2), range(2)))
    rates = {(s, j): float(rng.uniform(0.0, 3.0)) for s in "ab" for j in joints}
    transitions = {}
    for s, other in (("a", "b"), ("b", "a")):
        for j in joints:
            stay = float(rng.uniform(0.05, 0.95))
            transitions[(s, j)] = ((stay, s), (1.0 - stay, other))
    q = float(rng.uniform(0.1, 0.9))
    return oracle.ToyGame(n_beams=2, n_phases=2, n_ris=1, horizon=2, rates=rates,
                          initial=((q, "a"), (1.0 - q, "b")), transitions=transitions,
                          frozen=False)


def toy_lines(cli, oracle, training):
    games = [("toy", cli.builtin_toy_game),
             ("toy.stochastic", lambda cfg: stochastic_game(oracle))]
    for prefix, make_game in games:
        for kind in KINDS:
            cfg = replace(cli.profile_config("toy"), mode=kind, seed=7)
            game = make_game(cfg)
            heads = tuple(len(s) for s in game.action_sets)
            rng = np.random.default_rng(cfg.seed)
            ctrl = training.make_controller(cfg, heads, rng)
            for vec in ctrl.parameter_vectors():
                vec[:] = rng.uniform(-0.6, 0.6, size=vec.size)
            grads = training.exact_policy_gradient(game, ctrl, 0.7)
            yield f"{prefix}.{kind}.exact_gradient", digest(*grads)
            trace = training.exact_ascent(game, ctrl, 0.0, steps=200, learning_rate=0.5,
                                          trace_every=20)
            yield f"{prefix}.{kind}.exact_ascent", digest(trace, params_of(ctrl))
            policies = [ctrl.policy_fn(m) for m in range(ctrl.n_agents)]
            for mu in (0.0, 0.8):
                report = training.nash_check(game, policies, mu)
                yield f"{prefix}.{kind}.nash_check.mu{mu}", digest(
                    report.j_current, report.best_improvement, report.per_agent)
        game = make_game(cli.profile_config("toy"))
        for closed_loop, loop in ((False, "open"), (True, "closed")):
            for mu in (0.0, 0.8):
                best = oracle.optimal_policy(game, mu, closed_loop=closed_loop)
                tree = None if best.tree is None else sorted(best.tree.items())
                yield f"{prefix}.optimal.{loop}.mu{mu}", digest(
                    best.j_star, best.sequence, tree, best.closed_loop)
                if not closed_loop:
                    report = training.nash_check(game, best.policy_fns(game), mu)
                    yield f"{prefix}.optimal.{loop}.mu{mu}.nash_check", digest(
                        report.j_current, report.best_improvement, report.per_agent)

    cfg = replace(cli.profile_config("toy"), seed=31)
    game = cli.builtin_toy_game(cfg)
    report = training.theorem1_harness(lambda: training.ToyGameEnvironment(game, seed=31),
                                       (2, 2), cfg, n_updates=100)
    yield "theorem1_harness.seed31", digest(report.updates, report.max_param_divergence,
                                            report.factorization_gap, report.diverged_at)


def stream_digest(environment, env, steps: int, seed: int) -> str:
    """Rewards and next states of `steps` slots of `env` under uniformly
    drawn joint actions."""
    scn, rng = env.scenario, np.random.default_rng([seed, 1])
    parts = []
    for _ in range(steps):
        joint = [int(rng.integers(n)) for n in scn.head_sizes]
        reward, s = env.step(environment.ActionProfile(joint[0], tuple(joint[1:])))
        parts += [reward, s.user_cell, s.orientation, s.chain_blocked, s.scatter_gains,
                  s.scatter_aod, s.scatter_aoa, s.scatter_elev]
    return digest(*parts)


def channel_lines(cli, channel, environment):
    paper = cli.profile_config("paper")
    for seed in SEEDS:
        env = environment.Environment(cli.build_scenario(paper), seed=seed)
        yield f"paper.stream.seed{seed}", stream_digest(environment, env, PAPER_STEPS, seed)
    scn = cli.build_scenario(paper)
    state = environment.initial_state(scn, np.random.default_rng(SEEDS[0]))
    rates = [channel.achievable_rate(environment.build_channel(
                 scn, state, environment.ActionProfile(joint[0], tuple(joint[1:]))), scn.budget)
             for joint in product(*map(range, scn.head_sizes))]
    yield f"paper.joint_rates.{len(rates)}", digest(rates)
    desk, grid = cli.profile_config("desk"), environment.desk_grid()
    for n_ris in (0, 1):
        sub = replace(grid, ris_cells=grid.ris_cells[:n_ris])
        env = environment.Environment(cli.build_scenario(desk, grid=sub), seed=SEEDS[0])
        yield f"desk.stream.ris{n_ris}", stream_digest(environment, env, PAPER_STEPS, SEEDS[0])


def kernel_lines(cli, environment, policy, training):
    for kind in KINDS:
        cfg = replace(cli.profile_config("desk"), mode=kind, seed=SEEDS[0])
        env, heads = cli.build_environment(cfg)
        ctrl = training.make_controller(cfg, heads, np.random.default_rng(cfg.seed))
        rng = np.random.default_rng([cfg.seed, 4])
        for net, (arch, params, agents) in enumerate(ctrl.net_heads()):
            for tag, lead in (("S1", ()), ("stack", (cfg.horizon, 8))):
                window = lead + (cfg.history_len,)
                actions = np.stack([rng.integers(-1, n, size=window) for n in heads], axis=-1)
                feats = ctrl.encode(actions, rng.uniform(0.0, 1.0, size=window), net)
                picks = [rng.integers(0, heads[m], size=lead) for m in agents]
                weights = rng.normal(size=lead)
                for mode in ("eval", "train"):
                    dists, cache = policy.forward(params, arch, feats, mode=mode,
                                                  rng=np.random.default_rng([cfg.seed, 5]))
                    grad = policy.backward(params, arch, cache,
                                           [p.ravel() for p in picks], weights.ravel())
                    yield f"kernel.{kind}.net{net}.{tag}.{mode}", digest(*dists, grad)
        buffers = [environment.HistoryBuffer(cfg.history_len) for _ in heads]
        rng = np.random.default_rng([cfg.seed, 6])
        parts = []
        for _ in range(40):
            record, _ = training.collect_episode(env, ctrl, buffers, cfg.horizon, rng)
            parts += [d for slot in record.distributions for d in slot] + record.rates
        yield f"kernel.{kind}.distributions_stream", digest(*parts)


def config_lines(cli):
    for name in ("desk", "paper", "toy"):
        yield f"config_hash.{name}", cli.profile_config(name).config_hash()


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".csv":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"# manifest"))
    return digest(data)


def cli_lines(cli, workdir: Path):
    config = {}
    for kind in KINDS:
        config[kind] = workdir / f"desk_{kind}.cfg"
        config[kind].write_text(CLI_DESK_CONFIG + f"train.mode {kind}\n")
    toy_centralized = workdir / "toy_centralized.cfg"
    toy_centralized.write_text(CLI_TOY_CENTRALIZED_CONFIG)
    runs = [("toy", ["--profile", "toy", "--seed", "3"], ["evaluate", "compare"])]
    runs += [(f"desk.{kind}", ["--profile", "desk", "--config", str(config[kind]),
                               "--seed", "9"], ["evaluate"]) for kind in KINDS]
    runs += [("toy_centralized", ["--profile", "toy", "--config", str(toy_centralized),
                                  "--seed", "3"], ["compare"])]
    for tag, args, commands in runs:
        ckpt = workdir / tag / "train"
        outs = {"train": ckpt}
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["train", *args, "--out", str(ckpt)])]
            for command in commands:
                outs[command] = workdir / tag / command
                codes.append(cli.main([command, *args, "--out", str(outs[command]),
                                       "--checkpoint", str(ckpt)]))
        yield f"cli.{tag}.exit_codes", digest(codes)
        for command, out in outs.items():
            for path in sorted(out.iterdir()):
                yield f"cli.{tag}.{command}.{path.name}", file_digest(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                        help="tree whose src/rislab is fingerprinted")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    from rislab import channel, cli, environment, oracle, policy, training

    with tempfile.TemporaryDirectory() as tmp:
        for name, value in [*desk_lines(cli, training), *toy_lines(cli, oracle, training),
                            *cli_lines(cli, Path(tmp)), *config_lines(cli),
                            *channel_lines(cli, channel, environment),
                            *kernel_lines(cli, environment, policy, training)]:
            print(name, value, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
