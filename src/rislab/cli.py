"""Experiment runner: scenario/config loading, dataset generation and
ingestion, training, evaluation sweeps, oracle comparisons, and benchmark
tables, all emitted as CSV plus gnuplot scripts.

ExperimentConfig declares, defaults and validates every knob, the trainer's too:
each field names its config-file key, its default gives its type, and
`_RANGES` holds its range. Config files are flat `key value` lines; every
emitted metric CSV starts with a manifest comment carrying the config hash
and seed, and all writes go through a temp-file rename so reruns are atomic
and byte-identical under a fixed (config, seed).

Exit codes: 0 success, 2 config error, 3 training divergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import (
    NONNEGATIVE,
    POSITIVE,
    ArrayGeometry,
    LinkBudget,
    build_beam_codebook,
    build_phase_codebook,
    default_phase_directions,
)
from .environment import (
    EnvConfig,
    Environment,
    HistoryBuffer,
    MarkovBlockage,
    add_random_obstacles,
    desk_grid,
    generate_dataset,
    ingest_dataset,
    load_scenario,
    robustness_grid,
    save_scenario,
    Scenario,
)
from .oracle import (
    complexity_bench,
    frozen_toy_game,
    greedy_sequence,
    optimal_policy,
    policy_rmse_multi,
)
from .policy import load_checkpoint, save_checkpoint
from .training import (
    DivergenceError,
    GameTree,
    ToyGameEnvironment,
    collect_episode,
    exact_ascent,
    make_controller,
    train,
)


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def _config_errors():
    """Report a ValueError raised while objects are built from config values
    or read from input files (scenario, dataset, checkpoint) as a
    ConfigError. Training and evaluation run outside it: an error there is
    a bug and keeps its traceback."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def dbm(value: float) -> float:
    """dBm to watts."""
    return 10.0 ** (value / 10.0) / 1000.0


# ---------------------------------------------------------------------------
# experiment configuration


def _knob(key: str, default):
    """A field read from config-file key `key`; `load_config` parses its
    value by the type of `default` (a tuple takes comma-separated ints)."""
    return field(default=default, metadata={"key": key})


# (rule, predicate, fields): knob ranges checked when the config is made, so
# the error names the file key before any object is built from the value.
# The knobs left out (sizes, probabilities, dropout rates) are checked by the
# objects built from them. nan and inf fail every rule.
_RANGES = (
    ("finite", math.isfinite, ("tx_power_dbm", "noise_dbm_hz", "phase_lo", "phase_hi")),
    (*POSITIVE, ("fc_hz", "bandwidth_hz", "quant_step", "rate_norm_max")),
    (*NONNEGATIVE,
     ("exponent_los", "exponent_nlos", "scatter_var", "orientation_jitter",
      "learning_rate", "convergence_tol", "grad_clip")),
    (">= 0", lambda v: v >= 0,
     ("seed", "seed_episodes", "offline_epochs", "max_updates", "polish_steps",
      "eval_episodes", "eval_warmup")),
    (">= 1", lambda v: v >= 1,
     ("horizon", "minibatch", "convergence_window", "n_trajectories", "trajectory_len")),
)


@dataclass(frozen=True)
class ExperimentConfig:
    profile: str = "desk"
    seed: int = _knob("seed", 0)

    # channel
    fc_hz: float = _knob("channel.fc_hz", 73e9)
    bandwidth_hz: float = _knob("channel.bandwidth_hz", 1e9)
    tx_power_dbm: float = _knob("channel.tx_power_dbm", 46.0)
    noise_dbm_hz: float = _knob("channel.noise_dbm_hz", -174.0)
    n_ap: int = _knob("channel.n_ap", 8)
    n_ue: int = _knob("channel.n_ue", 4)
    ris_h: int = _knob("channel.ris_h", 4)
    ris_v: int = _knob("channel.ris_v", 4)
    n_rays: int = _knob("channel.n_rays", 3)
    exponent_los: float = _knob("channel.exponent_los", 2.0)
    exponent_nlos: float = _knob("channel.exponent_nlos", 9.5)
    scatter_var: float = _knob("channel.scatter_var", 0.01)

    # codebooks
    n_beams: int = _knob("codebook.n_beams", 8)
    n_phases: int = _knob("codebook.n_phases", 5)
    quant_step: float = _knob("codebook.quant_step", math.pi / 5)
    phase_lo: float = _knob("codebook.phase_lo", -math.pi / 2)
    phase_hi: float = _knob("codebook.phase_hi", math.pi / 2)

    # environment
    scenario: str = _knob("env.scenario", "builtin:desk")
    p_block: float = _knob("env.p_block", 0.35)
    p_unblock: float = _knob("env.p_unblock", 0.25)
    rate_norm_max: float = _knob("env.rate_norm_max", 0.9)
    orientation_jitter: float = _knob("env.orientation_jitter", math.pi / 12)

    # training
    mode: str = _knob("train.mode", "distributed")
    mu: float = _knob("train.mu", 0.0)
    horizon: int = _knob("train.horizon", 2)
    history_len: int = _knob("train.history_len", 16)
    learning_rate: float = _knob("train.learning_rate", 0.1)
    minibatch: int = _knob("train.minibatch", 64)
    seed_episodes: int = _knob("train.seed_episodes", 300)
    offline_epochs: int = _knob("train.offline_epochs", 300)
    max_updates: int = _knob("train.max_updates", 800)
    convergence_window: int = _knob("train.convergence_window", 50)
    convergence_tol: float = _knob("train.convergence_tol", 1e-3)
    dropout_lstm: float = _knob("train.dropout_lstm", 0.2)
    dropout_dense: float = _knob("train.dropout_dense", 0.4)
    grad_clip: float = _knob("train.grad_clip", 10.0)
    polish_steps: int = _knob("train.polish_steps", 2000)  # exact-ascent phase, toy only

    # datasets / evaluation
    n_trajectories: int = _knob("dataset.trajectories", 20)
    trajectory_len: int = _knob("dataset.length", 56)
    eval_episodes: int = _knob("eval.episodes", 200)
    eval_warmup: int = _knob("eval.warmup", 20)
    obstacle_counts: tuple = _knob("eval.obstacle_counts", (0, 1, 2, 3))

    def __post_init__(self):
        if self.mode not in ("centralized", "distributed"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.mu < 1.0:
            raise ConfigError("mu must lie in [0, 1)")
        for rule, holds, names in _RANGES:
            for name in names:
                if not holds(getattr(self, name)):
                    key = self.__dataclass_fields__[name].metadata["key"]
                    raise ConfigError(f"{key} must be {rule}, not {getattr(self, name)!r}")
        if self.offline_epochs > 0 and self.seed_episodes == 0:
            raise ConfigError("offline_epochs >= 1 needs seed_episodes >= 1: "
                              "the offline updates draw from the seed episodes")
        if self.eval_warmup + self.eval_episodes == 0:
            raise ConfigError("eval.warmup + eval.episodes must be >= 1: the policy "
                              "histogram averages over their episodes")

    def config_hash(self) -> str:
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            parts.append(f"{f.name}={getattr(self, f.name)!r}")
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:12]


PROFILES = {
    "desk": {},
    "paper": {
        "profile": "paper",
        "n_ap": 128, "n_ue": 64, "ris_h": 8, "ris_v": 8,
        "noise_dbm_hz": -88.0, "exponent_nlos": 4.0, "rate_norm_max": 20.0,
        "p_block": 0.1, "p_unblock": 0.4, "scatter_var": 0.1,
        "learning_rate": 0.01, "n_phases": 11, "minibatch": 32,
        "seed_episodes": 32, "offline_epochs": 20,
    },
    "toy": {
        "profile": "toy",
        "n_beams": 2, "n_phases": 2, "history_len": 4, "horizon": 2,
        "mode": "distributed", "learning_rate": 0.3, "minibatch": 16,
        "seed_episodes": 16, "offline_epochs": 5, "max_updates": 1500,
        "convergence_window": 10 ** 9, "dropout_lstm": 0.0,
        "dropout_dense": 0.0,
    },
}

# synthetic frozen toy: one clearly-best joint action, the compare benchmark
TOY_RATES = {(0, 0): 0.3, (0, 1): 0.6, (1, 0): 0.2, (1, 1): 2.0}

# config-file key -> field, for every field but `profile`
_KEYS = {f.metadata["key"]: f for f in fields(ExperimentConfig) if f.metadata}


def _parse_value(key: str, raw: str, lineno: int):
    default = _KEYS[key].default
    try:
        if isinstance(default, tuple):
            return tuple(int(v) for v in raw.split(","))
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"config line {lineno}: bad value for {key}: {exc}") from None


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Strict flat key/value config; unknown keys fail with their line."""
    cfg = base or ExperimentConfig()
    with open(path) as fh:
        lines = fh.read().splitlines()
    overrides = {}
    version_seen = False
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(None, 1)
        if len(parts) != 2:
            raise ConfigError(f"config line {lineno}: expected 'key value'")
        key, raw = parts
        if key == "version":
            if raw.strip() != "1":
                raise ConfigError(f"config line {lineno}: unsupported version {raw!r}")
            version_seen = True
            continue
        if key == "profile":
            if raw not in PROFILES:
                raise ConfigError(f"config line {lineno}: unknown profile {raw!r}")
            cfg = replace(cfg, **PROFILES[raw])
            continue
        if key not in _KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        overrides[_KEYS[key].name] = _parse_value(key, raw, lineno)
    if not version_seen:
        raise ConfigError(f"{path}: missing 'version 1' line")
    return replace(cfg, **overrides)


def profile_config(name: str) -> ExperimentConfig:
    if name not in PROFILES:
        raise ConfigError(f"unknown profile {name!r}")
    return replace(ExperimentConfig(), **PROFILES[name])


# ---------------------------------------------------------------------------
# builders


def build_grid(cfg: ExperimentConfig):
    if cfg.scenario == "builtin:desk":
        return desk_grid()
    if cfg.scenario == "builtin:robust":
        return robustness_grid()
    if cfg.scenario.startswith("builtin:"):
        raise ConfigError(f"unknown builtin scenario {cfg.scenario!r}")
    return load_scenario(cfg.scenario)


def build_scenario(cfg: ExperimentConfig, grid=None) -> Scenario:
    grid = grid if grid is not None else build_grid(cfg)
    n_ris = len(grid.ris_cells)
    geometry = ArrayGeometry(n_ap=cfg.n_ap, n_ue=cfg.n_ue,
                             ris_shapes=((cfg.ris_h, cfg.ris_v),) * n_ris)
    budget = LinkBudget(tx_power=dbm(cfg.tx_power_dbm),
                        bandwidth=cfg.bandwidth_hz,
                        noise_density=dbm(cfg.noise_dbm_hz))
    beams = build_beam_codebook(cfg.n_beams)
    phases = build_phase_codebook((cfg.ris_h, cfg.ris_v), cfg.quant_step,
                                  (cfg.phase_lo, cfg.phase_hi),
                                  default_phase_directions(cfg.n_phases))
    return Scenario(grid=grid, geometry=geometry, budget=budget,
                    beams=beams, phases=phases, cfg=env_config(cfg))


def env_config(cfg: ExperimentConfig) -> EnvConfig:
    return EnvConfig(n_rays=cfg.n_rays, scatter_gain_var=cfg.scatter_var,
                     exponent_los=cfg.exponent_los, exponent_nlos=cfg.exponent_nlos,
                     carrier_freq=cfg.fc_hz,
                     markov=MarkovBlockage(cfg.p_block, cfg.p_unblock),
                     orientation_jitter=cfg.orientation_jitter,
                     rate_norm_max=cfg.rate_norm_max)


def train_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Returns `cfg`, which the trainer reads; perfbench/workloads.py still
    calls this."""
    return cfg


def builtin_toy_game(cfg: ExperimentConfig):
    return frozen_toy_game(TOY_RATES, n_beams=2, n_phases=2, n_ris=1,
                           horizon=cfg.horizon)


def build_environment(cfg: ExperimentConfig, trajectories=None):
    if cfg.profile == "toy":
        game = builtin_toy_game(cfg)
        heads = tuple(len(s) for s in game.action_sets)
        return ToyGameEnvironment(game, seed=cfg.seed), heads
    scn = build_scenario(cfg)
    env = Environment(scn, seed=cfg.seed, trajectories=trajectories)
    return env, scn.head_sizes


# ---------------------------------------------------------------------------
# output helpers


def atomic_write(path, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def manifest_line(cfg: ExperimentConfig) -> str:
    return f"# manifest config_sha256={cfg.config_hash()} seed={cfg.seed}\n"


def write_metric_csv(path, cfg: ExperimentConfig, header: str, rows) -> None:
    lines = [manifest_line(cfg), header + "\n"]
    lines += [",".join(str(v) for v in row) + "\n" for row in rows]
    atomic_write(path, "".join(lines))


def write_gnuplot(path, title: str, data_file: str, using: str,
                  xlabel: str, ylabel: str) -> None:
    atomic_write(path, "\n".join([
        f'set title "{title}"',
        f'set xlabel "{xlabel}"',
        f'set ylabel "{ylabel}"',
        "set datafile separator comma",
        "set key off",
        f'plot "{data_file}" using {using} with linespoints',
        "pause -1",
    ]) + "\n")


def checkpoint_paths(out_dir, mode: str, n_agents: int):
    if mode == "centralized":
        return [os.path.join(out_dir, "checkpoint.bin")]
    return [os.path.join(out_dir, f"checkpoint_agent{m}.bin")
            for m in range(n_agents)]


def save_controller(controller, out_dir) -> list:
    paths = checkpoint_paths(out_dir, controller.kind, controller.n_agents)
    for path, (arch, params) in zip(paths, controller.nets):
        save_checkpoint(path, params, arch)
    return paths


def load_controller(cfg: ExperimentConfig, checkpoint_dir, head_sizes):
    ctrl = make_controller(cfg, head_sizes, np.random.default_rng(cfg.seed))
    paths = checkpoint_paths(checkpoint_dir, ctrl.kind, len(head_sizes))
    for k, path in enumerate(paths):
        params, arch = load_checkpoint(path)
        if arch != ctrl.nets[k][0]:
            raise ConfigError("checkpoint architecture does not match the config")
        ctrl.nets[k] = (arch, params)
    return ctrl


# ---------------------------------------------------------------------------
# commands


def cmd_generate(cfg: ExperimentConfig, out_dir) -> int:
    os.makedirs(out_dir, exist_ok=True)
    with _config_errors():
        grid = build_grid(cfg)
        rng = np.random.default_rng(cfg.seed)
    path = os.path.join(out_dir, "trajectories.csv")
    generate_dataset(grid, cfg.n_trajectories, cfg.trajectory_len, rng, path)
    scn_path = os.path.join(out_dir, "scenario.scn")
    save_scenario(grid, scn_path)
    with open(scn_path, "rb") as fh:
        grid_hash = hashlib.sha256(fh.read()).hexdigest()[:12]
    manifest = {
        "config_sha256": cfg.config_hash(),
        "seed": cfg.seed,
        "grid_sha256": grid_hash,
        "trajectories": cfg.n_trajectories,
        "length": cfg.trajectory_len,
        "rows": cfg.n_trajectories * cfg.trajectory_len,
    }
    atomic_write(os.path.join(out_dir, "trajectories.manifest.json"),
                 json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path} ({manifest['rows']} rows)")
    return 0


def cmd_train(cfg: ExperimentConfig, out_dir, dataset=None) -> int:
    os.makedirs(out_dir, exist_ok=True)
    trajectories = None
    with _config_errors():
        if dataset is not None:
            if cfg.profile == "toy":
                raise ConfigError("the toy profile has no grid to replay a dataset on")
            trajectories = ingest_dataset(dataset, build_grid(cfg))
        env, head_sizes = build_environment(cfg, trajectories=trajectories)
        controller = make_controller(cfg, head_sizes, np.random.default_rng(cfg.seed))
    result = train(env, controller, cfg)
    if cfg.profile == "toy" and cfg.polish_steps > 0:
        exact_ascent(builtin_toy_game(cfg), controller, cfg.mu,
                     steps=cfg.polish_steps, learning_rate=0.5,
                     trace_every=cfg.polish_steps)
    rows = [(r.update, f"{r.j_estimate:.10g}", f"{r.mean_rate:.10g}",
             f"{r.rate_variance:.10g}", f"{r.grad_norm:.10g}", r.clamps)
            for r in result.curves]
    curves = os.path.join(out_dir, "curves.csv")
    write_metric_csv(curves, cfg,
                     "update,J_estimate,mean_rate,rate_variance,grad_norm,clamps",
                     rows)
    write_gnuplot(os.path.join(out_dir, "curves.gp"), "surrogate return",
                  "curves.csv", "1:2", "update", "J estimate")
    paths = save_controller(controller, out_dir)
    replayed = "" if trajectories is None else (
        f"; dataset {trajectories.n_rows} rows, {trajectories.n_clamped} moved "
        f"to the nearest free cell")
    print(f"wrote {curves} ({result.updates} updates, {result.clip_events} clipped, "
          f"converged={result.converged}) and {len(paths)} checkpoint file(s){replayed}")
    return 0


def _rollout_stats(env, controller, cfg: ExperimentConfig, episodes: int,
                   collect_seed: int):
    """Returns, normalized and in bits, of the episodes after the warm-up,
    and the per-agent policy averaged over the windows each episode closes
    with. Eval mode draws nothing, so one episode's closing distributions
    are the next one's slot-0 distributions, which collect_episode keeps."""
    buffers = [HistoryBuffer(cfg.history_len) for _ in range(controller.n_agents)]
    rng = np.random.default_rng([collect_seed, 77])
    dist_sums = [np.zeros(n) for n in controller.head_sizes]
    n_obs = cfg.eval_warmup + episodes
    returns_norm, returns_bits = [], []
    for k in range(n_obs):
        record, sample = collect_episode(env, controller, buffers, cfg.horizon, rng)
        if k > 0:
            for m, d in enumerate(record.distributions[0]):
                dist_sums[m] += d
        if k >= cfg.eval_warmup:
            returns_norm.append(sample.episodic_return)
            returns_bits.append(record.episodic_return)
    for m, d in enumerate(controller.distributions(buffers)):
        dist_sums[m] += d
    hist = [s / n_obs for s in dist_sums]
    return np.asarray(returns_norm), np.asarray(returns_bits), hist


def cmd_evaluate(cfg: ExperimentConfig, out_dir, checkpoint_dir) -> int:
    os.makedirs(out_dir, exist_ok=True)
    with _config_errors():
        env, head_sizes = build_environment(cfg)
        controller = load_controller(cfg, checkpoint_dir, head_sizes)

    returns_norm, returns_bits, hist = _rollout_stats(
        env, controller, cfg, cfg.eval_episodes, cfg.seed)

    ep_rows = [(k, f"{rn:.10g}", f"{rb:.10g}")
               for k, (rn, rb) in enumerate(zip(returns_norm, returns_bits))]
    write_metric_csv(os.path.join(out_dir, "episodes.csv"), cfg,
                     "episode,R_T_norm,R_T_bits", ep_rows)
    write_gnuplot(os.path.join(out_dir, "episodes.gp"), "episodic return",
                  "episodes.csv", "1:2", "episode", "R_T (normalized)")

    summary = [(f"{cfg.mu:.10g}", cfg.horizon, f"{returns_norm.mean():.10g}",
                f"{returns_norm.var():.10g}", f"{returns_bits.mean():.10g}",
                f"{returns_bits.var():.10g}")] if returns_norm.size else []
    write_metric_csv(os.path.join(out_dir, "summary.csv"), cfg,
                     "mu,T,mean_RT_norm,var_RT_norm,mean_RT_bits,var_RT_bits", summary)

    hist_rows = [(m, a, f"{hist[m][a]:.10g}")
                 for m in range(len(hist)) for a in range(hist[m].size)]
    write_metric_csv(os.path.join(out_dir, "policy_hist.csv"), cfg,
                     "agent,action,mean_probability", hist_rows)
    write_gnuplot(os.path.join(out_dir, "policy_hist.gp"), "average policy",
                  "policy_hist.csv", "2:3", "action index", "mean probability")

    rob_rows = []
    if cfg.profile != "toy" and cfg.obstacle_counts:
        # common random numbers across obstacle counts: same env seed and
        # same rollout stream, so the deviation isolates the obstacle effect
        base_mean = None
        for k in cfg.obstacle_counts:
            grid = build_grid(cfg)
            if k > 0:
                grid = add_random_obstacles(grid, k, np.random.default_rng([cfg.seed, 5, k]))
            scn = build_scenario(cfg, grid=grid)
            env_k = Environment(scn, seed=cfg.seed + 1000)
            rn, _rb, _h = _rollout_stats(env_k, controller, cfg,
                                         max(cfg.eval_episodes // 2, 20),
                                         cfg.seed + 1000)
            mean_k = float(rn.mean())
            if base_mean is None:
                base_mean = mean_k
            deviation = 0.0 if base_mean == 0 else 100.0 * abs(mean_k - base_mean) / base_mean
            rob_rows.append((k, f"{mean_k:.10g}", f"{deviation:.6g}"))
        write_metric_csv(os.path.join(out_dir, "robustness.csv"), cfg,
                         "n_obstacles,mean_RT_norm,rate_deviation_pct", rob_rows)
        write_gnuplot(os.path.join(out_dir, "robustness.gp"),
                      "rate deviation vs obstacles", "robustness.csv", "1:3",
                      "number of 3x3 obstacles", "deviation (%)")
    print(f"wrote evaluation tables to {out_dir}")
    return 0


def cmd_compare(cfg: ExperimentConfig, out_dir, checkpoint_dir) -> int:
    os.makedirs(out_dir, exist_ok=True)
    with _config_errors():
        game = builtin_toy_game(cfg)
        heads = tuple(len(s) for s in game.action_sets)
        if checkpoint_dir is None:
            controller = make_controller(cfg, heads, np.random.default_rng(cfg.seed))
        else:
            controller = load_controller(cfg, checkpoint_dir, heads)
    # one eval forward per net prices every history the readouts ask about
    tree = GameTree(game, controller)
    _, dists = tree.forward(controller)
    policies = [dict(zip(tree.table.histories, d)).__getitem__ for d in dists]
    best = optimal_policy(game, cfg.mu)
    rmse = policy_rmse_multi(policies, best.policy_fns(game),
                             [tree.table.histories] * game.n_agents)
    j_policy = tree.table.objective(dists, cfg.mu)
    gap = 0.0 if best.j_star == 0 else 100.0 * (best.j_star - j_policy) / abs(best.j_star)
    greedy = greedy_sequence(game, policies)
    rows = [(f"{rmse:.6g}", f"{j_policy:.10g}", f"{best.j_star:.10g}",
             f"{gap:.6g}", greedy == best.sequence)]
    write_metric_csv(os.path.join(out_dir, "compare.csv"), cfg,
                     "rmse_pct,J_policy,J_optimal,gap_pct,greedy_matches_optimal",
                     rows)
    print(f"wrote {os.path.join(out_dir, 'compare.csv')} "
          f"(rmse {rmse:.3g}%, gap {gap:.3g}%)")
    return 0


def cmd_bench(cfg: ExperimentConfig, out_dir) -> int:
    os.makedirs(out_dir, exist_ok=True)
    report = complexity_bench(seed=cfg.seed)
    rows = [(r.kind, r.param, r.value, f"{r.seconds:.6e}") for r in report.rows]
    write_metric_csv(os.path.join(out_dir, "bench.csv"), cfg,
                     "kind,param,value,seconds", rows)
    exp_rows = [(kind, param, f"{slope:.4f}")
                for (kind, param), slope in sorted(report.exponents.items())]
    write_metric_csv(os.path.join(out_dir, "bench_exponents.csv"), cfg,
                     "kind,param,fitted_exponent", exp_rows)
    print(f"wrote benchmark tables to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rislab",
        description="indoor mmWave RIS control experiments")
    parser.add_argument("command",
                        choices=["generate", "train", "evaluate", "compare", "bench"])
    parser.add_argument("--profile", default="desk", choices=sorted(PROFILES))
    parser.add_argument("--config", default=None, help="key/value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--checkpoint", default=None,
                        help="checkpoint directory (evaluate/compare)")
    parser.add_argument("--dataset", default=None,
                        help="trajectory CSV to replay during training")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = profile_config(args.profile)
        if args.config:
            cfg = load_config(args.config, base=cfg)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.command == "generate":
            return cmd_generate(cfg, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.out, dataset=args.dataset)
        if args.command == "evaluate":
            if not args.checkpoint:
                raise ConfigError("evaluate needs --checkpoint")
            return cmd_evaluate(cfg, args.out, args.checkpoint)
        if args.command == "compare":
            return cmd_compare(cfg, args.out, args.checkpoint)
        if args.command == "bench":
            return cmd_bench(cfg, args.out)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
