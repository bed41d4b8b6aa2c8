"""The four benchmark workloads.

Each workload repeats whole rounds of one fixed piece of work. A round
builds its inputs from (workload seed, round index), runs the timed work
through rislab's public functions only, then checks the outputs.

- `build(r)`: construction (scenario or game, environment, controller);
  this is what `setup_s` times.
- `before(ctx)`: untimed reference figures some checks need.
- `chunks(ctx)`: the timed work of one round, as callables run in order;
  the runner times each and calibrates between them. The last one returns
  the round's output.
- `check(ctx, out)`: failure messages, empty on a pass.
- `info(ctx, out, chunk_s)`: named figures for the report, given each
  chunk's time in reference-speed seconds.
- `counts(out)`: counts the traced run reports beside the spans.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import numpy as np

from rislab import cli, environment, oracle, policy, training

import checks


def _round_seed(seed: int, r: int) -> int:
    return seed * 1000 + r


class Workload:
    op = None          # name of the unit counted by `ops`, for the report's rate
    mix = "desk"       # the calibration loop shaped like this workload's work

    def before(self, ctx) -> None:
        pass

    def info(self, ctx, out, chunk_s) -> dict:
        return {}

    def counts(self, out) -> dict:
        return {}


class TrainDesk(Workload):
    """One distributed-controller train() on the desk profile: seed sweep,
    offline updates, online updates, with the convergence stop disabled so
    every round makes the same number of updates."""

    name = "train_desk"
    op = "updates"

    def __init__(self, seed: int, seed_episodes: int = 80, offline: int = 20,
                 online: int = 5, fd_episodes: int = 8, fd_directions: int = 3):
        self.seed = seed
        self.cfg = replace(cli.profile_config("desk"), mode="distributed", mu=0.5,
                           seed_episodes=seed_episodes, offline_epochs=offline,
                           max_updates=online, convergence_window=10 ** 9)
        self.ops = offline + online
        self.fd_episodes = fd_episodes
        self.fd_directions = fd_directions

    def build(self, r: int):
        cfg = replace(self.cfg, seed=_round_seed(self.seed, r))
        env, heads = cli.build_environment(cfg)
        tc = cli.train_config(cfg)
        ctrl = training.make_controller(tc, heads, np.random.default_rng(cfg.seed))
        return {"cfg": cfg, "env": env, "tc": tc, "ctrl": ctrl}

    def chunks(self, ctx):
        return [lambda: training.train(ctx["env"], ctx["ctrl"], ctx["tc"])]

    def check(self, ctx, result) -> list[str]:
        cfg, ctrl = ctx["cfg"], ctx["ctrl"]
        bad = []
        if result.updates != self.ops:
            bad.append(f"{result.updates} updates, budget {self.ops}")
        rows = np.array([(c.j_estimate, c.mean_rate, c.rate_variance, c.grad_norm)
                         for c in result.curves])
        if len(result.curves) != self.ops or not np.all(np.isfinite(rows)):
            bad.append("curve rows missing or not finite")
        if not all(np.all(np.isfinite(v)) for v in ctrl.parameter_vectors()):
            bad.append("parameters not finite")
        batch = self._minibatch(ctx)
        grads = training.estimate_gradient(ctrl, batch, cfg.mu, mode="eval")
        weights = checks.surrogate_weights([s.episodic_return for s in batch], cfg.mu)
        inputs = checks.own_inputs(ctrl, batch)
        masks = [checks.smooth_mask(params, arch, np.concatenate(inputs[m]), policy.forward)
                 for m, (arch, params) in enumerate(ctrl.nets)]
        rng = np.random.default_rng([cfg.seed, 91])
        bad += checks.check_directional(
            grads, ctrl.parameter_vectors(),
            lambda: checks.weighted_log_policy(ctrl, batch, inputs, weights, policy.forward),
            checks.random_directions(masks, rng, self.fd_directions),
            scale=len(batch), label="estimate_gradient")
        return bad

    def _minibatch(self, ctx):
        """Episodes the benchmark collects itself from the trained policy;
        the first two fill the history windows and are dropped."""
        cfg, ctrl = ctx["cfg"], ctx["ctrl"]
        buffers = [environment.HistoryBuffer(cfg.history_len) for _ in ctrl.head_sizes]
        rng = np.random.default_rng([cfg.seed, 90])
        samples = [training.collect_episode(ctx["env"], ctrl, buffers, cfg.horizon, rng)[1]
                   for _ in range(self.fd_episodes + 2)]
        return samples[2:]

    def info(self, ctx, result, chunk_s) -> dict:
        return {"replay_size": (result.replay_size, "count"),
                "clamps_in_curves": (sum(c.clamps for c in result.curves), "count")}

    def counts(self, result) -> dict:
        return {"training.replay_size": result.replay_size}


class _Recorder:
    """Keeps every distribution the controller returns and every
    (state before, actions, reward) the environment steps through."""

    def __init__(self, env, ctrl):
        self.dists, self.steps = [], []
        step = env.step

        def recorded_step(actions):
            before = env.state
            reward, state = step(actions)
            self.steps.append((before, actions, reward))
            return reward, state

        def recorded_distributions(buffers):
            # class lookup at call time, so a traced round sees the wrapper
            out = type(ctrl).distributions(ctrl, buffers)
            self.dists.extend(out)
            return out

        env.step = recorded_step
        ctrl.distributions = recorded_distributions


def _sample_indices(n: int, k: int, rng) -> list[int]:
    return sorted(int(i) for i in rng.choice(n, size=min(k, n), replace=False))


EPISODES_PER_CHUNK = 20


class RolloutDesk(Workload):
    """Evaluation rollouts of a centralized controller on the desk scenario,
    on the path `rislab evaluate` takes: collect_episode per episode, then
    one more distributions() call on the updated windows. A round is
    `chunks` chunks of EPISODES_PER_CHUNK episodes."""

    name = "rollout_desk"
    op = "slots"

    def __init__(self, seed: int, chunks: int = 4, rate_checks: int = 8):
        self.seed = seed
        self.cfg = replace(cli.profile_config("desk"), mode="centralized")
        self.n_chunks = chunks
        self.ops = chunks * EPISODES_PER_CHUNK * self.cfg.horizon
        self.rate_checks = rate_checks

    def build(self, r: int):
        cfg = replace(self.cfg, seed=_round_seed(self.seed, r))
        env, heads = cli.build_environment(cfg)
        ctrl = training.make_controller(cli.train_config(cfg), heads,
                                        np.random.default_rng(cfg.seed))
        buffers = [environment.HistoryBuffer(cfg.history_len) for _ in heads]
        return {"cfg": cfg, "env": env, "ctrl": ctrl, "buffers": buffers,
                "rng": np.random.default_rng([cfg.seed, 77]), "records": [],
                "rec": _Recorder(env, ctrl)}

    def chunks(self, ctx):
        cfg, env, ctrl, buffers = ctx["cfg"], ctx["env"], ctx["ctrl"], ctx["buffers"]

        def chunk():
            for _ in range(EPISODES_PER_CHUNK):
                record, _ = training.collect_episode(env, ctrl, buffers, cfg.horizon,
                                                     ctx["rng"])
                ctrl.distributions(buffers)
                ctx["records"].append(record)
            return ctx["records"]

        return [chunk] * self.n_chunks

    def check(self, ctx, records) -> list[str]:
        rec, scn = ctx["rec"], ctx["env"].scenario
        bad = checks.check_distributions(rec.dists)
        bad += checks.check_rates_finite([r for record in records for r in record.rates])
        if len(rec.steps) != self.ops:
            bad.append(f"{len(rec.steps)} environment steps, expected {self.ops}")
        rng = np.random.default_rng([ctx["cfg"].seed, 78])
        for i in _sample_indices(len(rec.steps), self.rate_checks, rng):
            before, actions, reward = rec.steps[i]
            h = environment.build_channel(scn, before, actions).h
            bad += checks.check_rate(h, scn.budget, reward)
        return bad


class SweepPaper(Workload):
    """Every joint action of the paper profile (8 beams x 11^2 phase
    profiles), each held for a few slots from one common environment seed.
    No policy runs; the channel layer works at 128 x 64 with 8 x 8 panels."""

    name = "sweep_paper"
    op = "slots"
    mix = "paper"

    def __init__(self, seed: int, slots: int = 2, rate_checks: int = 16,
                 channel_checks: int = 4, max_joints: int | None = None):
        self.seed = seed
        self.cfg = cli.profile_config("paper")
        scn = cli.build_scenario(self.cfg)
        self.joints = list(product(range(len(scn.beams)),
                                   *[range(len(scn.phases))] * scn.geometry.n_ris))
        self.joints = self.joints[:max_joints]
        self.slots = slots
        self.ops = len(self.joints) * slots
        self.rate_checks = rate_checks
        self.channel_checks = channel_checks

    def build(self, r: int):
        seed = _round_seed(self.seed, r)
        scn = cli.build_scenario(self.cfg)
        env = environment.Environment(scn, seed=seed)
        rng = np.random.default_rng([seed, 79])
        picks = _sample_indices(self.ops, max(self.rate_checks, self.channel_checks), rng)
        return {"seed": seed, "env": env, "picks": set(picks),
                "channel_picks": picks[:self.channel_checks],
                "rates": np.empty((len(self.joints), self.slots)), "kept": {}}

    def chunks(self, ctx):
        """One chunk per AP beam."""
        env, seed, picks, rates, kept = (ctx[k] for k in ("env", "seed", "picks", "rates", "kept"))

        def sweep(js):
            for j in js:
                joint = self.joints[j]
                env.reset(seed)
                actions = environment.ActionProfile(ap_beam=joint[0], ris_phases=tuple(joint[1:]))
                for t in range(self.slots):
                    if j * self.slots + t in picks:
                        kept[j * self.slots + t] = (env.state, actions)
                    rates[j, t], _ = env.step(actions)
            return rates, kept

        beams = sorted({joint[0] for joint in self.joints})
        return [lambda b=b: sweep([j for j, joint in enumerate(self.joints) if joint[0] == b])
                for b in beams]

    def check(self, ctx, out) -> list[str]:
        rates, kept = out
        scn = ctx["env"].scenario
        bad = checks.check_rates_finite(rates.ravel())
        for i, (state, actions) in sorted(kept.items()):
            h = environment.build_channel(scn, state, actions).h
            bad += checks.check_rate(h, scn.budget, rates.flat[i])
            if i in ctx["channel_picks"]:
                bad += checks.check_channel(scn, state, actions.ap_beam,
                                            actions.ris_phases, h)
        return bad

    def info(self, ctx, out, chunk_s) -> dict:
        rates, _ = out
        scn = ctx["env"].scenario
        first = np.sort(rates[:, 0])
        distinct = 1 + int(np.sum(np.diff(first) > 1e-9 * np.abs(first[1:])))
        return {"max_rate_norm": (float(rates.max()) / (scn.budget.bandwidth
                                                        * scn.cfg.rate_norm_max), "1"),
                "distinct_slot0_rates": (distinct, "count"),
                "joint_actions": (len(self.joints), "count")}


class ToyExact(Workload):
    """Exact enumerated-gradient ascent on the built-in toy game, then
    repeated Nash certificates of the resulting policies, all at mu = 0."""

    name = "toy_exact"

    def __init__(self, seed: int, steps: int = 20, certificates: int = 4,
                 fd_directions: int = 3):
        self.seed = seed
        self.cfg = replace(cli.profile_config("toy"), mu=0.0)
        self.steps = steps
        self.certificates = certificates
        self.ops = steps + certificates
        self.fd_directions = fd_directions

    def build(self, r: int):
        cfg = replace(self.cfg, seed=_round_seed(self.seed, r))
        game = cli.builtin_toy_game(cfg)
        heads = tuple(len(s) for s in game.action_sets)
        rng = np.random.default_rng(cfg.seed)
        ctrl = training.make_controller(cli.train_config(cfg), heads, rng)
        # The default init feeds the empty history to the dense layers as
        # exactly 0, a ReLU kink where finite differences are one-sided, so
        # the ascent starts from a random point off the kinks instead.
        for vec in ctrl.parameter_vectors():
            vec[:] = rng.uniform(-0.6, 0.6, size=vec.size)
        return {"cfg": cfg, "game": game, "ctrl": ctrl}

    def _policies(self, ctrl):
        return [ctrl.policy_fn(m) for m in range(ctrl.n_agents)]

    def _gradient_check(self, ctx, tag: int, label: str) -> list[str]:
        game, ctrl, mu = ctx["game"], ctx["ctrl"], ctx["cfg"].mu
        grads = training.exact_policy_gradient(game, ctrl, mu)
        histories = {h for traj in oracle.enumerate_trajectories(game, self._policies(ctrl))
                     for *_, h in traj.steps}
        masks = []
        for m, (arch, params) in enumerate(ctrl.nets):
            feats = np.stack([checks.encode_own([(joint[m], rate) for joint, rate in h],
                                                ctrl.head_sizes[m], ctrl.history_len)
                              for h in histories])
            masks.append(checks.smooth_mask(params, arch, feats, policy.forward))
        rng = np.random.default_rng([ctx["cfg"].seed, tag])
        return checks.check_directional(
            grads, ctrl.parameter_vectors(),
            lambda: oracle.enumerate_exact_J(game, self._policies(ctrl), mu),
            checks.random_directions(masks, rng, self.fd_directions), label=label)

    def before(self, ctx) -> None:
        ctx["j_start"] = oracle.enumerate_exact_J(ctx["game"], self._policies(ctx["ctrl"]),
                                                  ctx["cfg"].mu)
        ctx["fd_before"] = self._gradient_check(ctx, 81, "exact gradient before ascent")

    def chunks(self, ctx):
        game, ctrl, mu = ctx["game"], ctx["ctrl"], ctx["cfg"].mu

        def ascent():
            ctx["j_end"] = training.exact_ascent(game, ctrl, mu, steps=self.steps,
                                                 learning_rate=0.5, trace_every=self.steps)[-1]

        def certificates():
            policies = self._policies(ctrl)
            reports = [training.nash_check(game, policies, mu)
                       for _ in range(self.certificates)]
            return {"j_end": ctx["j_end"], "reports": reports}

        return [ascent, certificates]

    def check(self, ctx, out) -> list[str]:
        game = ctx["game"]
        j_star = game.horizon * max(game.rates.values())
        bad = list(ctx["fd_before"])
        bad += self._gradient_check(ctx, 82, "exact gradient after ascent")
        bad += checks.check_ascent(ctx["j_start"], out["j_end"], j_star)
        for report in out["reports"]:
            bad += checks.check_nash(report.per_agent)
        return bad

    def info(self, ctx, out, chunk_s) -> dict:
        return {"exact_steps_per_s": (self.steps / chunk_s[0], "steps/s"),
                "certificates_per_s": (self.certificates / chunk_s[1], "checks/s")}


WORKLOADS = {w.name: w for w in (TrainDesk, RolloutDesk, SweepPaper, ToyExact)}
