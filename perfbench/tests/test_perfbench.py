"""Tests of the benchmark itself: a tiny run of every workload, and one
corrupted output per check showing that the check rejects it.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
from rislab import cli, environment, training
from workloads import RolloutDesk, SweepPaper, ToyExact, TrainDesk

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "train_desk": lambda: TrainDesk(3, seed_episodes=4, offline=1, online=1,
                                    fd_episodes=2, fd_directions=2),
    "rollout_desk": lambda: RolloutDesk(3, chunks=1, rate_checks=2),
    "sweep_paper": lambda: SweepPaper(3, slots=2, rate_checks=2, channel_checks=1,
                                      max_joints=3),
    "toy_exact": lambda: ToyExact(3, steps=2, certificates=1, fd_directions=2),
}


def one_round(wl):
    ctx = wl.build(0)
    wl.before(ctx)
    return ctx, run.run_round(wl, ctx)[0]


def benchmark_names(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_its_checks_and_reports_every_metric(name):
    wl = TINY[name]()
    tracer = spans.Tracer()
    result = run.measure(wl, 0.0, tracer)
    assert result["failed"] == 0
    assert result["attempted"] == 2 * wl.ops
    layer = run.per_layer(result, tracer, run.round_peak_mb(wl))
    assert {k: m["unit"] for k, m in layer.items()} == benchmark_names("per_layer")
    e2e = run.end_to_end(result, setup_s=0.1)
    assert {k: m["unit"] for k, m in e2e.items()} == benchmark_names("end_to_end")
    assert all(m["value"] > 0 for m in e2e.values())


def test_tracer_sees_the_layers_each_workload_drives():
    tracer = spans.Tracer()
    wl = TINY["toy_exact"]()
    ctx = wl.build(0)
    with tracer.installed():
        run.run_round(wl, ctx, tracer)
    layer = tracer.layer_metrics(1)
    assert layer["training.exact_policy_gradient.calls"] == wl.steps
    assert layer["training.nash_check.calls"] == wl.certificates
    assert layer["oracle.enumerate_trajectories.trajectories"] > 0
    assert layer["environment.env_step.calls"] == 0
    # uninstalled again: the package's own functions are back
    assert training.estimate_gradient.__module__ == "rislab.training"


def test_distribution_check_rejects_non_probability_vectors():
    assert checks.check_distributions([np.array([0.25, 0.75])]) == []
    assert checks.check_distributions([np.array([0.5, 0.6])])
    assert checks.check_distributions([np.array([1.2, -0.2])])
    assert checks.check_rates_finite([1.0, 0.0]) == []
    assert checks.check_rates_finite([1.0, np.nan])
    assert checks.check_rates_finite([-1.0])


def test_rate_check_rejects_a_perturbed_rate():
    wl = TINY["rollout_desk"]()
    ctx, records = one_round(wl)
    assert wl.check(ctx, records) == []
    scn = ctx["env"].scenario
    before, actions, reward = ctx["rec"].steps[0]
    h = environment.build_channel(scn, before, actions).h
    assert checks.check_rate(h, scn.budget, reward) == []
    assert checks.check_rate(h, scn.budget, reward * (1 + 1e-6))


def test_sweep_check_rejects_a_perturbed_rate():
    wl = TINY["sweep_paper"]()
    ctx, (rates, kept) = one_round(wl)
    assert wl.check(ctx, (rates, kept)) == []
    bad = rates.copy()
    bad.flat[next(iter(kept))] *= 1 + 1e-6
    assert wl.check(ctx, (bad, kept))


@pytest.mark.parametrize("profile", ["desk", "paper"])
def test_channel_check_rejects_a_perturbed_entry(profile):
    scn = cli.build_scenario(cli.profile_config(profile))
    env = environment.Environment(scn, seed=5)
    for _ in range(3):  # a few slots in, so blockage chains have moved
        env.step(environment.ActionProfile(ap_beam=1, ris_phases=(2, 0)))
    env.state.chain_blocked[:] = [True, False, True]
    actions = environment.ActionProfile(ap_beam=2, ris_phases=(1, 3))
    h = environment.build_channel(scn, env.state, actions).h
    assert checks.check_channel(scn, env.state, 2, (1, 3), h) == []
    bad = h.copy()
    bad[1, 0] += 1e-6 * np.max(np.abs(h))
    assert checks.check_channel(scn, env.state, 2, (1, 3), bad)


def _perturbing(fn, rel):
    def wrapped(*args, **kwargs):
        grads = fn(*args, **kwargs)
        rng = np.random.default_rng(0)
        norm = np.sqrt(sum(float(g @ g) for g in grads))
        return [g + rel * norm * rng.normal(size=g.size) / np.sqrt(g.size) for g in grads]

    return wrapped


def test_train_check_rejects_a_perturbed_gradient(monkeypatch):
    wl = TINY["train_desk"]()
    ctx, result = one_round(wl)
    assert wl.check(ctx, result) == []
    monkeypatch.setattr(training, "estimate_gradient",
                        _perturbing(training.estimate_gradient, 1e-3))
    assert any("estimate_gradient" in msg for msg in wl.check(ctx, result))


def test_toy_checks_reject_a_perturbed_gradient_and_a_bad_ascent(monkeypatch):
    wl = TINY["toy_exact"]()
    ctx, out = one_round(wl)
    assert wl.check(ctx, out) == []
    assert wl.check(ctx, dict(out, j_end=ctx["j_start"] - 1e-3))
    assert wl.check(ctx, dict(out, j_end=4.0 + 1e-6))
    monkeypatch.setattr(training, "exact_policy_gradient",
                        _perturbing(training.exact_policy_gradient, 1e-3))
    assert any("exact gradient" in msg for msg in wl.check(ctx, out))


def test_ascent_and_nash_checks():
    assert checks.check_ascent(1.0, 2.0, 4.0) == []
    assert checks.check_ascent(2.0, 1.0, 4.0)
    assert checks.check_ascent(1.0, 4.5, 4.0)
    assert checks.check_nash([0.0, 1e-3]) == []
    assert checks.check_nash([0.0, -1e-6])


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toy_exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
