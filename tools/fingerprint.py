"""Fingerprint of the numbers rislab's trainer, oracles and CLI produce.

Prints one `<output> <sha256 prefix>` line per output:

- desk `train()` parameters, learning curves and run counters
  (updates, clip events, replay size, convergence) for both controller
  kinds at two seeds, and `cli._rollout_stats` of each trained controller;
- toy `exact_ascent` (trace and parameters) and `nash_check` for both kinds;
- `theorem1_harness` on the toy at seed 31, as acceptance criterion c03 runs it;
- every file `rislab train` / `evaluate` / `compare` writes, for the toy
  profile and a reduced desk budget in both modes, with the manifest lines
  (which carry the config hash) stripped;
- `config_hash()` of the desk, paper and toy profiles, so a config change
  that would alter every manifest shows.

A change meant to keep every number bitwise equal is checked by running the
script on the change and on an export of its parent, then diffing:

    git archive <parent> | (mkdir -p ../parent && tar -x -C ../parent)
    python tools/fingerprint.py > change.txt
    python tools/fingerprint.py --root ../parent > parent.txt
    diff parent.txt change.txt && echo identical

`--root` names the tree whose `src/rislab` is imported; it defaults to the
tree holding this script. A run takes under ten seconds on one core.
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
from pathlib import Path

import numpy as np

SEEDS = (5, 11)
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
            tc = cli.train_config(cfg)
            ctrl = training.make_controller(tc, heads, np.random.default_rng(cfg.seed))
            res = training.train(env, ctrl, tc)
            curves = [(c.update, c.j_estimate, c.mean_rate, c.rate_variance,
                       c.grad_norm, c.clamps) for c in res.curves]
            tag = f"desk.{kind}.seed{seed}"
            yield f"{tag}.params", digest(params_of(ctrl))
            yield f"{tag}.curves", digest(curves)
            yield f"{tag}.counters", digest(res.updates, res.clip_events, res.replay_size,
                                            res.converged)
            norm, bits, hist = cli._rollout_stats(env, ctrl, cfg, 30, seed)
            yield f"{tag}.rollout_stats", digest(norm, bits, *hist)


def toy_lines(cli, training):
    for kind in KINDS:
        cfg = replace(cli.profile_config("toy"), mode=kind, seed=7)
        game = cli.builtin_toy_game(cfg)
        heads = tuple(len(s) for s in game.action_sets)
        rng = np.random.default_rng(cfg.seed)
        ctrl = training.make_controller(cli.train_config(cfg), heads, rng)
        for vec in ctrl.parameter_vectors():
            vec[:] = rng.uniform(-0.6, 0.6, size=vec.size)
        grads = training.exact_policy_gradient(game, ctrl, 0.7)
        yield f"toy.{kind}.exact_gradient", digest(*grads)
        trace = training.exact_ascent(game, ctrl, 0.0, steps=200, learning_rate=0.5,
                                      trace_every=20)
        yield f"toy.{kind}.exact_ascent", digest(trace, params_of(ctrl))
        policies = [ctrl.policy_fn(m) for m in range(ctrl.n_agents)]
        for mu in (0.0, 0.8):
            report = training.nash_check(game, policies, mu)
            yield f"toy.{kind}.nash_check.mu{mu}", digest(
                report.j_current, report.best_improvement, report.per_agent)

    cfg = replace(cli.profile_config("toy"), seed=31)
    game = cli.builtin_toy_game(cfg)
    report = training.theorem1_harness(lambda: training.ToyGameEnvironment(game, seed=31),
                                       (2, 2), cli.train_config(cfg), n_updates=100)
    yield "theorem1_harness.seed31", digest(report.updates, report.max_param_divergence,
                                            report.factorization_gap, report.diverged_at)


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
    runs = [("toy", ["--profile", "toy", "--seed", "3"], ["compare"])]
    runs += [(f"desk.{kind}", ["--profile", "desk", "--config", str(config[kind]),
                               "--seed", "9"], []) for kind in KINDS]
    for tag, args, extra in runs:
        ckpt = workdir / tag / "train"
        outs = {"train": ckpt}
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["train", *args, "--out", str(ckpt)])]
            for command in ["evaluate", *extra]:
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
    from rislab import cli, training

    with tempfile.TemporaryDirectory() as tmp:
        for name, value in [*desk_lines(cli, training), *toy_lines(cli, training),
                            *cli_lines(cli, Path(tmp)), *config_lines(cli)]:
            print(name, value, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
