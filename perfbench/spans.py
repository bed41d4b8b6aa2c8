"""Span tracer for the traced benchmark run.

While installed, the tracer replaces the public functions of each rislab
module with wrappers that record one span per call: name, start, end and
the index of the enclosing span. rislab calls these functions through
module attributes (`pol.forward`, `env_step`, the function-level
`from .oracle import ...`), so the wrappers see every call the package
makes. Nothing under src/ is edited; uninstalling restores the originals.

Spans stay in memory and are written once, when the run ends. A layer's
self time is its span time minus the time of the child spans it covers.
The runner closes each timed chunk with `end_chunk(scale)`, which folds
the chunk's per-layer seconds into the report in reference-speed seconds,
the unit of the end-to-end times. The tracer also times its own
bookkeeping inside every span, so the report can give the share of a
traced round that went to tracing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from rislab import channel, environment, oracle, policy, training

# (module or class, attribute, span name); a leg builder is imported into
# environment's namespace, which is where build_channel looks it up
_TARGETS = [
    (policy, "backward", "policy.backward"),
    (training, "estimate_gradient", "training.estimate_gradient"),
    (training, "collect_episode", "training.collect_episode"),
    (training.DistributedController, "distributions", "training.distributions"),
    (training.CentralizedController, "distributions", "training.distributions"),
    (training, "exact_policy_gradient", "training.exact_policy_gradient"),
    (training, "nash_check", "training.nash_check"),
    (environment, "env_step", "environment.env_step"),
    (environment, "build_channel", "environment.build_channel"),
    (environment, "channel_ap_to_ue", "channel.leg"),
    (environment, "channel_ap_to_ris", "channel.leg"),
    (environment, "channel_ris_to_ue", "channel.leg"),
    (environment, "cascaded_channel", "channel.cascade"),
    (environment, "achievable_rate", "channel.achievable_rate"),
    (channel, "achievable_rate", "channel.achievable_rate"),
    (oracle, "enumerate_exact_J", "oracle.enumerate_exact_J"),
]

# spans whose calls, seconds and self seconds are reported; the counts that
# ride on a span are listed with it
LAYERS = {
    "policy.forward_train": ("calls", "s", "rows"),
    "policy.forward_eval": ("calls", "s"),
    "policy.backward": ("calls", "s"),
    "training.estimate_gradient": ("calls", "s", "self_s"),
    "training.collect_episode": ("calls", "s", "self_s"),
    "training.distributions": ("calls", "s", "self_s"),
    "training.exact_policy_gradient": ("calls", "s"),
    "training.nash_check": ("calls", "s"),
    "environment.env_step": ("calls", "s", "self_s"),
    "environment.build_channel": ("calls", "s", "self_s"),
    "channel.leg": ("calls", "s"),
    "channel.cascade": ("calls", "s"),
    "channel.achievable_rate": ("calls", "s"),
    "oracle.enumerate_trajectories": ("calls", "s", "trajectories"),
    "oracle.enumerate_exact_J": ("calls", "s"),
}


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self.totals: dict[str, list] = {}    # name -> [calls, s, self s], reference speed
        self.counts: dict[str, float] = {}   # "<name>.<count>" -> sum
        self.own_s = 0.0                     # wall seconds spent in _enter/_exit
        self.chunk_wall_s = 0.0              # wall seconds of the traced chunks
        self._chunk: dict[str, list] = {}    # like totals, wall seconds of the open chunk
        self._stack: list[list] = []         # open spans: [index, child seconds, entry time]

    def _enter(self, name: str) -> None:
        entered = time.perf_counter()
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0, entered])
        self.spans.append((self._name_ids[name], time.perf_counter(), 0.0, parent))

    def _exit(self, name: str) -> None:
        end = time.perf_counter()
        index, child, entered = self._stack.pop()
        name_id, start, _, parent = self.spans[index]
        self.spans[index] = (name_id, start, end, parent)
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        entry = self._chunk.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        self.own_s += (start - entered) + (time.perf_counter() - end)

    def end_chunk(self, scale: float, wall_s: float) -> None:
        """Fold the chunk just timed into the totals, its seconds times
        `scale` (the chunk's reference-speed factor)."""
        for name, (calls, seconds, self_s) in self._chunk.items():
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += seconds * scale
            entry[2] += self_s * scale
        self._chunk = {}
        self.chunk_wall_s += wall_s

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def _wrap(self, name, fn):
        def wrapped(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name)

        return wrapped

    def _wrap_forward(self, fn):
        def wrapped(params, arch, history, mode="eval", rng=None):
            name = "policy.forward_train" if mode == "train" else "policy.forward_eval"
            if mode == "train":
                self.count("policy.forward_train.rows",
                           history.shape[0] if history.ndim == 3 else 1)
            self._enter(name)
            try:
                return fn(params, arch, history, mode=mode, rng=rng)
            finally:
                self._exit(name)

        return wrapped

    def _wrap_enumerate(self, fn):
        def wrapped(game, policy_fns):
            self._enter("oracle.enumerate_trajectories")
            try:
                out = fn(game, policy_fns)
            finally:
                self._exit("oracle.enumerate_trajectories")
            self.count("oracle.enumerate_trajectories.trajectories", len(out))
            return out

        return wrapped

    @contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in _TARGETS]
        saved += [(policy, "forward", policy.forward),
                  (oracle, "enumerate_trajectories", oracle.enumerate_trajectories)]
        try:
            for owner, attr, name in _TARGETS:
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
            policy.forward = self._wrap_forward(policy.forward)
            oracle.enumerate_trajectories = self._wrap_enumerate(oracle.enumerate_trajectories)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round means of every reported layer figure (0 when unreached);
        seconds are reference-speed seconds."""
        out = {}
        for name, fields in LAYERS.items():
            calls, seconds, self_s = self.totals.get(name, (0, 0.0, 0.0))
            for f in fields:
                value = {"calls": calls, "s": seconds, "self_s": self_s}.get(f)
                if value is None:
                    value = self.counts.get(f"{name}.{f}", 0.0)
                out[f"{name}.{f}"] = value / rounds
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
