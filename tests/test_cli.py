"""CLI tests: config parsing strictness, command pipelines, determinism of
emitted metric files, and exit codes."""

import json
import os
import struct
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import rislab
from helpers import counted_walks
from rislab.cli import (
    ConfigError,
    ExperimentConfig,
    PROFILES,
    TOY_RATES,
    build_environment,
    build_grid,
    build_scenario,
    builtin_toy_game,
    cmd_compare,
    cmd_evaluate,
    cmd_generate,
    cmd_train,
    complexity_bench,
    dbm,
    load_config,
    load_controller,
    main,
    profile_config,
    save_controller,
)
from rislab.cli import _rollout_stats
from rislab.environment import HistoryBuffer
from rislab.training import (CentralizedController, DistributedController,
                             collect_episode, make_controller)
from dataclasses import replace


def small_cfg(**kw):
    base = replace(profile_config("desk"), max_updates=10, offline_epochs=2,
                   seed_episodes=8, minibatch=8, eval_episodes=12,
                   eval_warmup=2, obstacle_counts=(0, 1),
                   n_trajectories=3, trajectory_len=4, history_len=8)
    return replace(base, **kw)


def toy_cfg(**kw):
    base = replace(profile_config("toy"), max_updates=60, offline_epochs=2,
                   seed_episodes=8, minibatch=8, polish_steps=150)
    return replace(base, **kw)


# ---------------------------------------------------------------------------
# config parsing


def test_dbm_conversion():
    assert dbm(30.0) == pytest.approx(1.0)
    assert dbm(46.0) == pytest.approx(39.81, rel=1e-3)


def test_profiles_exist():
    assert set(PROFILES) == {"desk", "paper", "toy"}
    paper = profile_config("paper")
    assert paper.n_ap == 128 and paper.n_ue == 64
    assert paper.ris_h == paper.ris_v == 8
    assert paper.noise_dbm_hz == -88.0


def test_load_config_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("version 1\n"
                    "profile desk\n"
                    "train.mu 0.4\n"
                    "channel.n_ap 16\n"
                    "seed 9\n"
                    "eval.obstacle_counts 0,2\n")
    cfg = load_config(path)
    assert cfg.mu == 0.4
    assert cfg.n_ap == 16
    assert cfg.seed == 9
    assert cfg.obstacle_counts == (0, 2)


def test_load_config_unknown_key_names_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("version 1\ntrain.mu 0.2\ntrain.lr 0.1\n")
    with pytest.raises(ConfigError, match="line 3"):
        load_config(path)


def test_load_config_rejects_retired_eq14_key(tmp_path):
    path = tmp_path / "old.cfg"
    path.write_text("version 1\ntrain.mu 0.2\ntrain.eq14_literal true\n")
    with pytest.raises(ConfigError, match="line 3: unknown key 'train.eq14_literal'"):
        load_config(path)


def test_load_config_bad_value_names_line(tmp_path):
    path = tmp_path / "bad2.cfg"
    path.write_text("version 1\nchannel.n_ap eight\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_load_config_requires_version(tmp_path):
    path = tmp_path / "nover.cfg"
    path.write_text("train.mu 0.2\n")
    with pytest.raises(ConfigError, match="version"):
        load_config(path)


# the config-file format: one key per field but `profile`, which is
# selected by its own line
FILE_KEYS = (
    "channel.fc_hz", "channel.bandwidth_hz", "channel.tx_power_dbm",
    "channel.noise_dbm_hz", "channel.n_ap", "channel.n_ue", "channel.ris_h",
    "channel.ris_v", "channel.n_rays", "channel.exponent_los",
    "channel.exponent_nlos", "channel.scatter_var",
    "codebook.n_beams", "codebook.n_phases", "codebook.quant_step",
    "codebook.phase_lo", "codebook.phase_hi",
    "env.scenario", "env.p_block", "env.p_unblock", "env.rate_norm_max",
    "env.orientation_jitter",
    "train.mode", "train.mu", "train.horizon", "train.history_len",
    "train.learning_rate", "train.minibatch", "train.seed_episodes",
    "train.offline_epochs", "train.max_updates", "train.convergence_window",
    "train.convergence_tol", "train.dropout_lstm", "train.dropout_dense",
    "train.grad_clip", "train.polish_steps",
    "dataset.trajectories", "dataset.length",
    "eval.episodes", "eval.warmup", "eval.obstacle_counts",
    "seed",
)


def test_file_keys_are_pinned_and_round_trip(tmp_path):
    # every field but `profile` has its own key, renaming a field keeps its
    # key, and each key parses back to its field's value
    keyed = {f.metadata["key"]: f.name for f in fields(ExperimentConfig)
             if f.name != "profile"}
    assert sorted(keyed) == sorted(FILE_KEYS)
    base = ExperimentConfig()
    lines = ["version 1"]
    for key, name in keyed.items():
        value = getattr(base, name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} {value!r}" if isinstance(value, float) else f"{key} {value}")
    path = tmp_path / "all.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert load_config(path) == base


def test_import_loads_no_test_only_dependency():
    # scipy costs about 0.3 s and 25 MB on import; neither it nor
    # hypothesis may be pulled in by the package
    src = os.path.dirname(os.path.dirname(rislab.__file__))
    code = ("import sys, rislab.cli; "
            "print(sorted({'scipy', 'hypothesis'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_config_hash_changes_with_values():
    a = ExperimentConfig()
    b = replace(a, mu=0.31)
    assert a.config_hash() != b.config_hash()


def test_build_scenario_desk():
    scn = build_scenario(profile_config("desk"))
    assert scn.geometry.n_ap == 8
    assert scn.n_agents == 3
    assert scn.head_sizes == (8, 5, 5)


# ---------------------------------------------------------------------------
# commands


def test_generate_writes_csv_and_manifest(tmp_path):
    cfg = small_cfg(seed=3)
    out = tmp_path / "gen"
    assert cmd_generate(cfg, out) == 0
    lines = (out / "trajectories.csv").read_text().strip().splitlines()
    assert lines[0] == "traj_id,t,x,y"
    assert len(lines) == 1 + 3 * 4
    manifest = (out / "trajectories.manifest.json").read_text()
    assert cfg.config_hash() in manifest
    assert '"rows": 12' in manifest


def test_generate_deterministic(tmp_path):
    cfg = small_cfg(seed=4)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cmd_generate(cfg, out1)
    cmd_generate(cfg, out2)
    assert (out1 / "trajectories.csv").read_bytes() == (out2 / "trajectories.csv").read_bytes()
    assert (out1 / "trajectories.manifest.json").read_bytes() == \
        (out2 / "trajectories.manifest.json").read_bytes()


def test_train_emits_curves_and_checkpoints(tmp_path):
    cfg = small_cfg(seed=5)
    out = tmp_path / "run"
    assert cmd_train(cfg, out) == 0
    lines = (out / "curves.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest config_sha256=")
    assert lines[1] == "update,J_estimate,mean_rate,rate_variance,grad_norm,clamps"
    assert len(lines) == 2 + 12  # offline 2 + online 10
    for m in range(3):
        assert (out / f"checkpoint_agent{m}.bin").exists()
    assert (out / "curves.gp").exists()


def test_train_summary_counts_clipped_rows(tmp_path, capsys):
    cfg = toy_cfg(seed=17, grad_clip=0.5, polish_steps=0)
    out = tmp_path / "run"
    assert cmd_train(cfg, out) == 0
    rows = (out / "curves.csv").read_text().splitlines()[2:]
    clipped = sum(float(row.split(",")[4]) > cfg.grad_clip for row in rows)
    assert 0 < clipped < len(rows)
    assert f"({len(rows)} updates, {clipped} clipped, " in capsys.readouterr().out


def test_train_centralized_single_checkpoint(tmp_path):
    cfg = small_cfg(mode="centralized", seed=6)
    out = tmp_path / "cent"
    assert cmd_train(cfg, out) == 0
    assert (out / "checkpoint.bin").exists()


def test_train_curves_deterministic(tmp_path):
    cfg = small_cfg(seed=7)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cmd_train(cfg, out1)
    cmd_train(cfg, out2)
    assert (out1 / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()
    assert (out1 / "checkpoint_agent0.bin").read_bytes() == \
        (out2 / "checkpoint_agent0.bin").read_bytes()


def test_evaluate_emits_tables(tmp_path):
    cfg = small_cfg(seed=8)
    run = tmp_path / "run"
    cmd_train(cfg, run)
    out = tmp_path / "eval"
    assert cmd_evaluate(cfg, out, run) == 0
    for name in ("episodes.csv", "summary.csv", "policy_hist.csv",
                 "robustness.csv", "episodes.gp", "robustness.gp"):
        assert (out / name).exists(), name
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[1] == "mu,T,mean_RT_norm,var_RT_norm,mean_RT_bits,var_RT_bits"
    assert len(summary) == 3
    episodes = (out / "episodes.csv").read_text().splitlines()
    assert len(episodes) == 2 + cfg.eval_episodes


@pytest.mark.parametrize("mode", ["distributed", "centralized"])
def test_rollout_stats_equals_a_loop_that_closes_every_episode(mode):
    # _rollout_stats takes each episode's closing distributions from the next
    # episode's slot 0; a loop that calls distributions() after every
    # episode, as evaluation used to, gives the same arrays bit for bit
    cfg = small_cfg(mode=mode)
    env, heads = build_environment(cfg)
    controller = make_controller(cfg, heads, np.random.default_rng(3))
    got = _rollout_stats(env, controller, cfg, cfg.eval_episodes, 5)

    env, _ = build_environment(cfg)
    buffers = [HistoryBuffer(cfg.history_len) for _ in heads]
    rng = np.random.default_rng([5, 77])
    sums = [np.zeros(n) for n in heads]
    returns_norm, returns_bits = [], []
    for k in range(cfg.eval_warmup + cfg.eval_episodes):
        record, sample = collect_episode(env, controller, buffers, cfg.horizon, rng)
        for m, d in enumerate(controller.distributions(buffers)):
            sums[m] += d
        if k >= cfg.eval_warmup:
            returns_norm.append(sample.episodic_return)
            returns_bits.append(record.episodic_return)
    np.testing.assert_array_equal(got[0], returns_norm)
    np.testing.assert_array_equal(got[1], returns_bits)
    for hist, total in zip(got[2], sums):
        np.testing.assert_array_equal(hist, total / (cfg.eval_warmup + cfg.eval_episodes))


def test_evaluate_zero_episodes_headers_only(tmp_path):
    cfg = small_cfg(seed=9, eval_episodes=0, obstacle_counts=())
    run = tmp_path / "run"
    cmd_train(cfg, run)
    out = tmp_path / "eval0"
    assert cmd_evaluate(cfg, out, run) == 0
    episodes = (out / "episodes.csv").read_text().splitlines()
    assert len(episodes) == 2  # manifest + header only
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 2


def test_evaluate_deterministic(tmp_path):
    cfg = small_cfg(seed=10)
    run = tmp_path / "run"
    cmd_train(cfg, run)
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    cmd_evaluate(cfg, out1, run)
    cmd_evaluate(cfg, out2, run)
    for name in ("episodes.csv", "summary.csv", "policy_hist.csv", "robustness.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_evaluate_architecture_mismatch_fails(tmp_path):
    cfg = small_cfg(seed=11)
    run = tmp_path / "run"
    cmd_train(cfg, run)
    bad = replace(cfg, history_len=16)
    with pytest.raises(ConfigError):
        cmd_evaluate(bad, tmp_path / "bad", run)


def test_evaluate_centralized_checkpoint_round_trip(tmp_path):
    # train writes the one joint net, evaluate reads it back, and the loaded
    # controller saves to the same bytes
    cfg = small_cfg(mode="centralized", seed=15)
    run = tmp_path / "run"
    assert cmd_train(cfg, run) == 0
    out = tmp_path / "eval"
    assert cmd_evaluate(cfg, out, run) == 0
    hist = (out / "policy_hist.csv").read_text().splitlines()
    assert {row.split(",")[0] for row in hist[2:]} == {"0", "1", "2"}
    _, heads = build_environment(cfg)
    ctrl = load_controller(cfg, run, heads)
    assert ctrl.kind == "centralized" and len(ctrl.nets) == 1
    again = tmp_path / "again"
    again.mkdir()
    assert len(save_controller(ctrl, again)) == 1
    assert (again / "checkpoint.bin").read_bytes() == (run / "checkpoint.bin").read_bytes()


def test_evaluate_centralized_architecture_mismatch_fails(tmp_path):
    cfg = small_cfg(mode="centralized", seed=16)
    run = tmp_path / "run"
    cmd_train(cfg, run)
    bad = replace(cfg, history_len=16)
    with pytest.raises(ConfigError):
        cmd_evaluate(bad, tmp_path / "bad", run)


def test_compare_uniform_policy_is_50_percent(tmp_path):
    # untrained (zero-parameter-free) uniform policy vs the one-hot optimum
    # over 2 actions: RMSE 50%
    cfg = toy_cfg(seed=12)
    out = tmp_path / "cmp"
    assert cmd_compare(cfg, out, None) == 0
    row = (out / "compare.csv").read_text().splitlines()[2].split(",")
    rmse = float(row[0])
    assert rmse == pytest.approx(50.0, abs=1.0)


def test_compare_after_toy_training(tmp_path):
    cfg = toy_cfg(seed=13)
    run = tmp_path / "toyrun"
    assert cmd_train(cfg, run) == 0
    out = tmp_path / "cmp"
    assert cmd_compare(cfg, out, run) == 0
    row = (out / "compare.csv").read_text().splitlines()[2].split(",")
    rmse, gap, greedy_ok = float(row[0]), float(row[3]), row[4]
    assert rmse < 10.0
    assert gap < 5.0
    assert greedy_ok == "True"


def test_compare_walks_the_game_at_most_twice(tmp_path, monkeypatch):
    # the bound the optimum's table and the controller's objective once held;
    # both now read one table, which test_compare_walks_the_game_once pins
    calls = counted_walks(monkeypatch)
    assert cmd_compare(toy_cfg(seed=3), tmp_path / "cmp", None) == 0
    assert 1 <= len(calls) <= 2


def test_compare_walks_the_game_once(tmp_path, monkeypatch):
    # the controller's objective, the readouts' histories and the optimum
    # all read the game's one table, whichever entry point builds the game
    calls = counted_walks(monkeypatch)
    assert cmd_compare(toy_cfg(seed=3), tmp_path / "cmp", None) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["compare", "--profile", "toy", "--out", str(tmp_path / "main")]) == 0
    assert len(calls) == 1


def test_complexity_bench_times_the_controllers_slot_step(monkeypatch):
    # a point is 5 rounds of `repeats` episodes, each T slot steps of the
    # swept kind's controller; the subclasses' attribute is wrapped, as the
    # benchmark's tracer wraps it
    calls = {}
    for cls in (CentralizedController, DistributedController):
        def counted(self, buffers, step=cls.__dict__["distributions"], kind=cls.kind):
            calls[kind] = calls.get(kind, 0) + 1
            return step(self, buffers)
        monkeypatch.setattr(cls, "distributions", counted)
    report = complexity_bench(kinds=("distributed",), horizons=(1, 3), history_lens=(),
                              action_counts=(), agent_counts=(), repeats=2, seed=0)
    assert calls == {"distributed": 5 * 2 * (1 + 3)}
    assert [(r.kind, r.param, r.value) for r in report.rows] == [
        ("distributed", "T", 1), ("distributed", "T", 3)]


def test_compare_round_trip_identical(tmp_path):
    cfg = toy_cfg(seed=14)
    run = tmp_path / "toyrun"
    cmd_train(cfg, run)
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    cmd_compare(cfg, out1, run)
    cmd_compare(cfg, out2, run)
    assert (out1 / "compare.csv").read_bytes() == (out2 / "compare.csv").read_bytes()


def test_toy_game_rates_fixture():
    game = builtin_toy_game(profile_config("toy"))
    assert game.rate("s0", (1, 1)) == TOY_RATES[(1, 1)]
    assert game.n_agents == 2


# ---------------------------------------------------------------------------
# entry point exit codes


def test_main_config_error_exit_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("version 1\nnope 3\n")
    code = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2


def test_main_missing_checkpoint_exit_2(tmp_path):
    code = main(["evaluate", "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("command, line, extra", [
    ("train", "train.mu 1.5", []),
    ("train", "train.mode banana", []),
    ("train", "train.history_len 6", []),
    ("train", "env.p_block 2", []),
    ("train", "codebook.n_beams 1", []),
    ("train", "channel.n_rays 0", []),
    ("train", "seed -3", []),
    ("train", "env.scenario {tmp}/bad.scn", []),
    ("train", "", ["--dataset", "{tmp}/bad.csv"]),
    ("evaluate", "", ["--checkpoint", "{tmp}/ckpt"]),
    ("evaluate", "", ["--checkpoint", "{tmp}/short"]),
    ("evaluate", "", ["--checkpoint", "{tmp}/nokind"]),
    ("evaluate", "", ["--checkpoint", "{tmp}/list"]),
    ("generate", "dataset.trajectories 0", []),
    ("generate", "train.mu 1.5", []),
    ("bench", "", ["--seed", "-3"]),
    ("train", "", ["--profile", "toy", "--dataset", "{tmp}/bad.csv"]),
    ("train", "", ["--dataset", "{tmp}/inf.csv"]),
    ("train", "", ["--dataset", "{tmp}/nan.csv"]),
    ("train", "train.seed_episodes 0\ntrain.offline_epochs 2", []),
    ("train", "train.seed_episodes -1", []),
    ("train", "train.offline_epochs -1", []),
    ("train", "train.max_updates -1", []),
    ("train", "channel.fc_hz 0", []),
    ("train", "channel.exponent_los nan", []),
    ("train", "channel.scatter_var nan", []),
    ("train", "env.orientation_jitter nan", []),
    ("train", "env.rate_norm_max 0", []),
    ("train", "channel.tx_power_dbm nan", []),
    ("train", "channel.bandwidth_hz inf", []),
    ("train", "train.learning_rate nan", []),
    ("train", "train.convergence_window 0", []),
    ("train", "train.grad_clip -1", []),
    ("evaluate", "eval.warmup -5\neval.episodes 3", ["--checkpoint", "{tmp}/ckpt"]),
    ("evaluate", "eval.warmup 0\neval.episodes 0", ["--checkpoint", "{tmp}/ckpt"]),
    ("train", "channel.noise_dbm_hz nan", []),
    ("train", "channel.scatter_var inf", []),
    ("train", "env.orientation_jitter -1", []),
    ("train", "codebook.quant_step inf", []),
    ("train", "codebook.phase_lo -inf", []),
    ("train", "codebook.phase_hi inf", []),
    ("train", "train.convergence_tol nan", []),
    ("train", "train.polish_steps -1", []),
    ("evaluate", "", ["--checkpoint", "{tmp}/float_history_len"]),
    ("evaluate", "", ["--checkpoint", "{tmp}/float_input_size"]),
    ("evaluate", "", ["--checkpoint", "{tmp}/float_head_sizes"]),
    ("generate", "eval.obstacle_counts -1,0", []),
])
def test_main_rejected_input_exits_2_with_one_line(tmp_path, capsys, command, line, extra):
    # a ValueError raised while the CLI builds objects from config values or
    # reads an input file is a config error: exit 2 and one line, no traceback
    (tmp_path / "bad.scn").write_text("version 1\ncell_size 0.5\nap 0 0\n"
                                      "presence rows\n1 1\n1 1\nmask\n.x\n..\n")
    (tmp_path / "bad.csv").write_text("traj_id,t,x,y\n0,0,a,1\n")
    (tmp_path / "inf.csv").write_text("traj_id,t,x,y\n0,0,0.5,0.5\n0,1,inf,1\n")
    (tmp_path / "nan.csv").write_text("traj_id,t,x,y\n0,0,0.5,0.5\n0,1,1,nan\n")
    def checkpoint(header):
        return b"RLPC" + struct.pack("<HI", 1, len(header)) + header

    for name, data in [("ckpt", b"not a checkpoint"), ("short", b"RLPC\x01\x00"),
                       ("nokind", checkpoint(b'{"history_len": 16}')),
                       ("list", checkpoint(b"[]"))]:
        (tmp_path / name).mkdir()
        (tmp_path / name / "checkpoint_agent0.bin").write_bytes(data)
    # the desk controller's own checkpoints, one size written as a float:
    # the architecture checks pass it, and it compares equal to the config's
    cfg = profile_config("desk")
    ctrl = make_controller(cfg, build_scenario(cfg).head_sizes, np.random.default_rng(0))
    for key in ("history_len", "input_size", "head_sizes"):
        path = tmp_path / f"float_{key}" / "checkpoint_agent0.bin"
        path.parent.mkdir()
        save_controller(ctrl, path.parent)
        data = path.read_bytes()
        (length,) = struct.unpack("<I", data[6:10])
        header = json.loads(data[10:10 + length])
        header[key] = np.asarray(header[key], dtype=float).tolist()
        path.write_bytes(checkpoint(json.dumps(header).encode()) + data[10 + length:])
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(f"version 1\n{line.format(tmp=tmp_path)}\n")
    code = main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o"),
                 *(arg.format(tmp=tmp_path) for arg in extra)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_train_summary_reports_the_dataset_counters(tmp_path, capsys):
    # rows off the grid or on an obstacle move to the nearest free cell, and
    # the summary line says how many did
    path = tmp_path / "walk.csv"
    path.write_text("traj_id,t,x,y\n"
                    "0,0,-3.0,1.5\n"    # left of the grid
                    "0,1,1.5,1.5\n"
                    "0,2,99.0,99.0\n"   # far corner
                    "0,3,1.5,1.5\n")
    assert cmd_train(small_cfg(seed=4), tmp_path / "run", dataset=path) == 0
    assert "; dataset 4 rows, 2 moved to the nearest free cell" in capsys.readouterr().out


def test_main_generate_runs(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("version 1\ndataset.trajectories 2\ndataset.length 3\n")
    code = main(["generate", "--config", str(cfgfile), "--seed", "1",
                 "--out", str(tmp_path / "gen")])
    assert code == 0
    assert (tmp_path / "gen" / "trajectories.csv").exists()


def test_main_trains_a_scenario_without_ris(tmp_path):
    # a scenario file with no `ris` line: the AP beam is the only agent, and
    # the phase codebook comes from the configured panel shape
    scn = tmp_path / "bare.scn"
    scn.write_text("version 1\ncell_size 1.0\nap 0 0\nmask\n...\n...\n")
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(f"version 1\nenv.scenario {scn}\ntrain.max_updates 4\n"
                       "train.offline_epochs 1\ntrain.seed_episodes 4\n"
                       "train.minibatch 4\ntrain.history_len 4\n")
    code = main(["train", "--config", str(cfgfile), "--seed", "2",
                 "--out", str(tmp_path / "run")])
    assert code == 0
    lines = (tmp_path / "run" / "curves.csv").read_text().splitlines()
    assert lines[1].startswith("update,") and len(lines) > 2
    assert build_scenario(load_config(cfgfile, base=profile_config("desk"))).n_agents == 1


def test_evaluate_skips_obstacle_counts_that_do_not_fit(tmp_path, capsys):
    # the desk grid has room for one 3x3 block: counts 2 and 3 write no row
    cfg = small_cfg(seed=8, eval_episodes=4, obstacle_counts=(0, 1, 2, 3))
    run = tmp_path / "run"
    cmd_train(cfg, run)
    capsys.readouterr()
    assert cmd_evaluate(cfg, tmp_path / "eval", run) == 0
    rows = (tmp_path / "eval" / "robustness.csv").read_text().splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == ["0", "1"]
    assert capsys.readouterr().out.rstrip().endswith(
        "; skipped obstacle counts 2,3: the blocks do not fit")
