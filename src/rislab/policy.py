"""Tiny recurrent policy networks, implemented from scratch on numpy.

Two layouts are supported: a joint controller (3 stacked LSTM layers sized
H, H/2, H/4, a 3-layer rectified dense trunk, and one softmax head per
agent) and a per-agent controller (2 LSTM layers sized H, H/4, a 2-layer
rectified dense trunk, and a single softmax head). The final-slot hidden
state of the LSTM stack feeds the trunk. Inverted dropout is applied after
the LSTM stack (p_lstm) and after each rectified dense layer (p_dense) in
train mode only.

Forward accepts a single history (H, F), a batch (S, H, F), or a stack of
G batches (G, S, H, F) that it runs as one batch of G*S rows while drawing
dropout masks as G consecutive batch calls would. Backward
computes the exact gradient of weight * sum_heads log pi(selected action)
through the cached forward pass, including the dropout masks, so central
finite differences on a fixed-seed forward reproduce it.

Each LSTM layer is one fused kernel, laid out batch last: a slot's gates
are one (4h, S) block and its c, tanh(c) and h are (h, S) blocks, so every
per-gate operation runs over a contiguous slab and the recurrent term is a
single (4h, h) @ (h, S) product. The input projection W x + b of all H
slots is one batched matmul over the (H, F, S) sequence ahead of the time
loop, which then adds only U h_{t-1} (absent at t = 0, where h = 0). The
four gates [i | f | g | o] are activated by one tanh over the whole (4h, S)
pre-activation: sigmoid(z) = 1/2 + 1/2 tanh(z/2), so the i/f/o rows of W, U
and b are halved once per call and a fixed per-row affine (x 1/2 + 1/2 on
i/f/o, identity on g) finishes them. tanh saturates instead of
overflowing, so large pre-activations need no masking. Gates and states
are written in place into one (H, 7 * sum of layer widths, S) block per
pass, which the cache keeps: with one large block, glibc's malloc sizes its
heap-trim threshold from that block, so the heap keeps the pass's memory
for the next pass instead of returning it and faulting it back in page by
page. Backward mirrors the forward: its reverse loop carries only the
(h, S) dh and dc and fills one (H, 4h, S) buffer of pre-activation
gradients, from which dW, dU and the input gradient are batched matmuls
over the slots and db is one sum. The dense trunk and the heads stay
row-major, (S, width).

Parameters live in one flat float64 vector with named slices, so the
optimizer, the checkpoint format, and finite-difference probes all see the
same layout.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

PROB_FLOOR = 1e-12

CHECKPOINT_MAGIC = b"RLPC"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# architecture and parameters


@dataclass(frozen=True)
class PolicyArchitecture:
    kind: str                      # "centralized" | "distributed"
    history_len: int               # H, divisible by 4
    input_size: int                # features per history slot
    head_sizes: tuple[int, ...]    # one action-space size per softmax head
    dropout_lstm: float = 0.2      # applied once, after the LSTM stack
    dropout_dense: float = 0.4     # applied after each rectified dense layer

    def __post_init__(self):
        if self.kind not in ("centralized", "distributed"):
            raise ValueError(f"unknown controller kind {self.kind!r}")
        if self.history_len < 4 or self.history_len % 4 != 0:
            raise ValueError("history length must be a positive multiple of 4")
        if self.input_size < 1:
            raise ValueError("input size must be >= 1")
        if not self.head_sizes or any(a < 1 for a in self.head_sizes):
            raise ValueError("every head needs at least one action")
        if self.kind == "distributed" and len(self.head_sizes) != 1:
            raise ValueError("a distributed controller has exactly one head")
        if not (0.0 <= self.dropout_lstm < 1.0 and 0.0 <= self.dropout_dense < 1.0):
            raise ValueError("dropout probabilities must lie in [0, 1)")

    @property
    def lstm_sizes(self) -> tuple[int, ...]:
        h = self.history_len
        if self.kind == "centralized":
            return (h, h // 2, h // 4)
        return (h, h // 4)

    @property
    def trunk_sizes(self) -> tuple[int, ...]:
        # rectified dense layers between the LSTM stack and the head
        # projections; the per-agent net's third dense layer is its head
        width = self.history_len // 4
        n = 3 if self.kind == "centralized" else 2
        return (width,) * n


def param_layout(arch: PolicyArchitecture) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) slices of the flat parameter vector."""
    layout = []
    fan = arch.input_size
    for j, h in enumerate(arch.lstm_sizes):
        layout.append((f"lstm{j}.W", (4 * h, fan)))
        layout.append((f"lstm{j}.U", (4 * h, h)))
        layout.append((f"lstm{j}.b", (4 * h,)))
        fan = h
    for j, width in enumerate(arch.trunk_sizes):
        layout.append((f"dense{j}.W", (width, fan)))
        layout.append((f"dense{j}.b", (width,)))
        fan = width
    for m, actions in enumerate(arch.head_sizes):
        layout.append((f"head{m}.W", (actions, fan)))
        layout.append((f"head{m}.b", (actions,)))
    return layout


@dataclass
class PolicyParams:
    """Flat float64 parameter vector with named views per layer slice."""

    values: np.ndarray
    layout: list = field(repr=False, default=None)
    _offsets: dict = field(repr=False, default=None)

    def __post_init__(self):
        if self._offsets is None:
            offsets, pos = {}, 0
            for name, shape in self.layout:
                end = pos + int(np.prod(shape))
                offsets[name] = (pos, end, shape)
                pos = end
            if pos != self.values.size:
                raise ValueError(f"layout wants {pos} values, got {self.values.size}")
            object.__setattr__(self, "_offsets", offsets)

    @property
    def n(self) -> int:
        return self.values.size

    def view(self, name: str) -> np.ndarray:
        start, end, shape = self._offsets[name]
        return self.values[start:end].reshape(shape)


def n_params(arch: PolicyArchitecture) -> int:
    return sum(int(np.prod(shape)) for _, shape in param_layout(arch))


def init_params(arch: PolicyArchitecture, rng: np.random.Generator) -> PolicyParams:
    """Uniform(-s, s) weights with s = sqrt(6/(fan_in+fan_out)) per matrix;
    LSTM forget-gate biases 1, all other biases 0."""
    layout = param_layout(arch)
    flat = np.zeros(n_params(arch))
    params = PolicyParams(values=flat, layout=layout)
    for name, shape in layout:
        v = params.view(name)
        if name.endswith(".b"):
            if name.startswith("lstm"):
                h = shape[0] // 4
                v[h:2 * h] = 1.0  # forget gate bias
        else:
            s = np.sqrt(6.0 / (shape[0] + shape[1]))
            v[...] = rng.uniform(-s, s, size=shape)
    return params


# ---------------------------------------------------------------------------
# forward


def _softmax(logits):
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


@dataclass
class _LstmLayerCache:
    """One layer's pass, batch last: every gate and state block of a slot is
    a contiguous (rows, S) slab. The i/f/g/o/c/tc/h accessors are (H, S, .)
    views of the same buffers."""

    gates: np.ndarray                  # (H, 4h, S) activated [i | f | g | o]
    cell: np.ndarray                   # (H, h, S) cell state c
    tanh_cell: np.ndarray              # (H, h, S) tanh(c)
    hidden: np.ndarray                 # (H, h, S) hidden state h

    def _gate(self, k: int) -> np.ndarray:
        width = self.cell.shape[1]
        return self.gates[:, k * width:(k + 1) * width].swapaxes(1, 2)

    @property
    def i(self) -> np.ndarray:
        return self._gate(0)

    @property
    def f(self) -> np.ndarray:
        return self._gate(1)

    @property
    def g(self) -> np.ndarray:
        return self._gate(2)

    @property
    def o(self) -> np.ndarray:
        return self._gate(3)

    @property
    def c(self) -> np.ndarray:
        return self.cell.swapaxes(1, 2)

    @property
    def tc(self) -> np.ndarray:
        return self.tanh_cell.swapaxes(1, 2)

    @property
    def h(self) -> np.ndarray:
        return self.hidden.swapaxes(1, 2)


def _lstm_forward(layer_in: np.ndarray, w: np.ndarray, u: np.ndarray,
                  b: np.ndarray, out: np.ndarray) -> _LstmLayerCache:
    """One LSTM layer over a (H, F, S) sequence, starting from h = c = 0, in
    the fused form the module docstring describes. `out`, (H, 7h, S), takes
    the gates, then c, tanh(c) and h, and the returned cache views it."""
    h = u.shape[1]
    # per-row factor over [i | f | g | o]: 1/2 on the sigmoid gates, where
    # sigmoid(z) = 1/2 + 1/2 tanh(z/2), and 1 on the tanh candidate g
    half = np.full((4 * h, 1), 0.5)
    half[2 * h:3 * h] = 1.0
    shift = 1.0 - half
    gates, cell, tanh_cell, hidden = (out[:, :4 * h], out[:, 4 * h:5 * h],
                                      out[:, 5 * h:6 * h], out[:, 6 * h:])
    np.matmul(w * half, layer_in, out=gates)
    gates += b[:, None] * half
    u_half = u * half
    for t in range(len(out)):
        z = gates[t]
        if t > 0:
            z += u_half @ hidden[t - 1]
        np.tanh(z, out=z)
        z *= half
        z += shift
        np.multiply(z[:h], z[2 * h:3 * h], out=cell[t])
        if t > 0:
            cell[t] += z[h:2 * h] * cell[t - 1]
        np.tanh(cell[t], out=tanh_cell[t])
        np.multiply(z[3 * h:], tanh_cell[t], out=hidden[t])
    return _LstmLayerCache(gates=gates, cell=cell, tanh_cell=tanh_cell, hidden=hidden)


def _lstm_backward(lc: _LstmLayerCache, layer_in: np.ndarray, w: np.ndarray,
                   u: np.ndarray, dh_out: np.ndarray, d_w: np.ndarray,
                   d_u: np.ndarray, d_b: np.ndarray, want_dx: bool):
    """BPTT through one layer given dLoss/dh: an (H, h, S) array for every
    slot, or an (h, S) array when only the final slot's h feeds forward.
    Accumulates into d_w, d_u, d_b; returns dLoss/d(layer input), (H, F, S),
    when `want_dx`, else None."""
    h = lc.cell.shape[1]
    i, f, g, o = (lc.gates[:, k * h:(k + 1) * h] for k in range(4))
    # dz starts as the coefficient that turns dc (i, f, g rows) or dh (o rows)
    # into the pre-activation gradient: the gate slope times the gate's partner
    dz = np.subtract(1.0, lc.gates)
    dz *= lc.gates
    dz_i, dz_f, dz_g, dz_o = (dz[:, k * h:(k + 1) * h] for k in range(4))
    np.square(g, out=dz_g)
    np.subtract(1.0, dz_g, out=dz_g)
    dz_i *= g
    dz_f[0] = 0.0
    dz_f[1:] *= lc.cell[:-1]
    dz_g *= i
    dz_o *= lc.tanh_cell
    dc_dh = np.square(lc.tanh_cell)
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o

    steps, _, batch = dz.shape
    dz_ifg = dz[:, :3 * h].reshape(steps, 3, h, batch)
    per_slot = dh_out.ndim == 3
    dh = dh_out[-1] if per_slot else dh_out
    dc = dh * dc_dh[-1]
    for t in range(steps - 1, -1, -1):
        dz_ifg[t] *= dc
        dz_o[t] *= dh
        if t == 0:
            break
        dh = u.T @ dz[t]
        if per_slot:
            dh += dh_out[t - 1]
        dc *= f[t]
        dc += dh * dc_dh[t - 1]

    d_w += np.matmul(dz, layer_in.swapaxes(1, 2)).sum(axis=0)
    d_u += np.matmul(dz[1:], lc.hidden[:-1].swapaxes(1, 2)).sum(axis=0)
    d_b += dz.sum(axis=(0, 2))
    if want_dx:
        return np.matmul(w.T, dz)
    return None


@dataclass
class ForwardCache:
    """Everything needed to rerun the pass bit-exactly and run BPTT."""

    n_params: int
    inputs: np.ndarray                 # (H, F, S); a stack's G*S rows group-major
    lstm: list                         # per-layer _LstmLayerCache, batch last
    drop_lstm: np.ndarray | None       # (S, h) inverted-dropout mask after the stack
    trunk: list                        # per-layer (input, pre, mask), each (S, width)
    trunk_out: np.ndarray              # (S, width)
    head_probs: list                   # per-head (S, actions)


def _dropout_masks(arch: PolicyArchitecture, rng: np.random.Generator,
                   groups: int, batch: int) -> list:
    """Inverted-dropout masks after the LSTM stack and after each rectified
    dense layer (None where the rate is 0), for `groups` stacked batches of
    `batch` rows. They are drawn group by group, each group's layers in
    forward order, so `rng` yields the same masks as `groups` consecutive
    single-batch forwards would draw."""
    layers = [(arch.dropout_lstm, arch.lstm_sizes[-1])]
    layers += [(arch.dropout_dense, width) for width in arch.trunk_sizes]
    uniforms = [[rng.random((batch, width)) if p > 0 else None for p, width in layers]
                for _ in range(groups)]
    return [(np.concatenate([u[k] for u in uniforms]) >= p) / (1 - p) if p > 0 else None
            for k, (p, _) in enumerate(layers)]


def forward(params: PolicyParams, arch: PolicyArchitecture, history: np.ndarray,
            mode: str = "eval", rng: np.random.Generator | None = None):
    """Run the net over an (H, F) history, an (S, H, F) batch or a
    (G, S, H, F) stack of G batches.

    Returns (distributions, cache); distributions is one probability array
    per head, shaped like the input's leading axes plus the head's actions.
    The cache holds the G*S rows of a stack group-major, as one batch. Train
    mode draws fresh inverted dropout masks from `rng`, batch by batch.
    """
    if mode not in ("train", "eval"):
        raise ValueError("mode must be 'train' or 'eval'")
    x = np.asarray(history, dtype=float)
    if not 2 <= x.ndim <= 4:
        raise ValueError(f"history must be (H, F), (S, H, F) or (G, S, H, F), "
                         f"got shape {x.shape}")
    if x.shape[-2:] != (arch.history_len, arch.input_size):
        raise ValueError(f"history shape {x.shape[-2:]} does not match "
                         f"(H={arch.history_len}, F={arch.input_size})")
    dropping = mode == "train" and (arch.dropout_lstm > 0 or arch.dropout_dense > 0)
    if dropping and rng is None:
        raise ValueError("train mode with dropout needs an rng")

    lead = x.shape[:-2]
    rows = x.reshape(-1, arch.history_len, arch.input_size)
    seq = np.ascontiguousarray(rows.transpose(1, 2, 0))  # (H, F, S)
    masks = [None] * (1 + len(arch.trunk_sizes))
    if dropping:
        groups = lead[0] if len(lead) == 2 else 1
        masks = _dropout_masks(arch, rng, groups, len(rows) // groups)

    # one block holds every layer's gates and states (see the module docstring)
    block = np.empty((arch.history_len, 7 * sum(arch.lstm_sizes), len(rows)))
    layer_caches = []
    layer_in, start = seq, 0
    for j, h in enumerate(arch.lstm_sizes):
        cache = _lstm_forward(layer_in, params.view(f"lstm{j}.W"),
                              params.view(f"lstm{j}.U"), params.view(f"lstm{j}.b"),
                              block[:, start:start + 7 * h])
        layer_caches.append(cache)
        layer_in, start = cache.hidden, start + 7 * h

    z = layer_caches[-1].h[-1]  # (S, h) final-slot hidden state of the top layer
    drop_lstm = masks[0]
    if drop_lstm is not None:
        z = z * drop_lstm

    trunk = []
    for j, mask in enumerate(masks[1:]):
        w = params.view(f"dense{j}.W")
        b = params.view(f"dense{j}.b")
        pre = z @ w.T + b
        out = np.maximum(pre, 0.0)
        if mask is not None:
            out = out * mask
        trunk.append((z, pre, mask))
        z = out

    probs = []
    for m in range(len(arch.head_sizes)):
        w = params.view(f"head{m}.W")
        b = params.view(f"head{m}.b")
        probs.append(_softmax(z @ w.T + b))

    cache = ForwardCache(n_params=params.n, inputs=seq, lstm=layer_caches,
                         drop_lstm=drop_lstm, trunk=trunk, trunk_out=z, head_probs=probs)
    return [p.reshape(lead + p.shape[1:]) for p in probs], cache


# ---------------------------------------------------------------------------
# sampling and log-probabilities


def sample_action(distribution: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw: first index whose cumulative strictly exceeds u."""
    cum = np.cumsum(np.asarray(distribution, dtype=float))
    u = rng.random()
    idx = int(np.searchsorted(cum, u, side="right"))
    return min(idx, cum.size - 1)


def log_prob(distribution: np.ndarray, action: int) -> float:
    """Natural log of the selected probability, floored at PROB_FLOOR."""
    p = float(distribution[action])
    if p <= 0.0:
        raise ValueError(f"action {action} has zero probability")
    return float(np.log(max(p, PROB_FLOOR)))


# ---------------------------------------------------------------------------
# backward (BPTT)


def backward(params: PolicyParams, arch: PolicyArchitecture, cache: ForwardCache,
             actions, weight) -> np.ndarray:
    """Exact gradient of weight * sum_heads log pi(selected) w.r.t. params.

    `actions` holds one selected index per head (scalars, or length-S arrays
    for a batched cache, group-major over the G*S rows of a stack); `weight`
    is a scalar or per-row vector. For a batched cache the returned flat
    vector is the sum over rows, which is what the score-function estimator
    accumulates.
    """
    if cache.n_params != params.n:
        raise ValueError("cache was produced under a different parameter layout")
    batch = cache.inputs.shape[2]
    w_vec = np.broadcast_to(np.asarray(weight, dtype=float), (batch,))

    grad = PolicyParams(values=np.zeros(params.n), layout=params.layout,
                        _offsets=params._offsets)

    # heads -> trunk output
    dz = np.zeros_like(cache.trunk_out)
    for m, size in enumerate(arch.head_sizes):
        sel = np.broadcast_to(np.asarray(actions[m], dtype=int), (batch,))
        probs = cache.head_probs[m]
        dlogits = -probs * w_vec[:, None]
        dlogits[np.arange(batch), sel] += w_vec
        grad.view(f"head{m}.W")[...] += dlogits.T @ cache.trunk_out
        grad.view(f"head{m}.b")[...] += dlogits.sum(axis=0)
        dz += dlogits @ params.view(f"head{m}.W")

    # dense trunk, reversed
    for j in reversed(range(len(arch.trunk_sizes))):
        layer_in, pre, mask = cache.trunk[j]
        if mask is not None:
            dz = dz * mask
        dpre = dz * (pre > 0.0)
        grad.view(f"dense{j}.W")[...] += dpre.T @ layer_in
        grad.view(f"dense{j}.b")[...] += dpre.sum(axis=0)
        dz = dpre @ params.view(f"dense{j}.W")

    if cache.drop_lstm is not None:
        dz = dz * cache.drop_lstm

    # LSTM stack, batch last; the top layer receives the trunk gradient at
    # the final slot only
    dz = dz.T
    for j in reversed(range(len(arch.lstm_sizes))):
        layer_in = cache.inputs if j == 0 else cache.lstm[j - 1].hidden
        dz = _lstm_backward(
            cache.lstm[j], layer_in, params.view(f"lstm{j}.W"),
            params.view(f"lstm{j}.U"), dz, grad.view(f"lstm{j}.W"),
            grad.view(f"lstm{j}.U"), grad.view(f"lstm{j}.b"), want_dx=j > 0)

    return grad.values


# ---------------------------------------------------------------------------
# checkpoint io


def save_checkpoint(path, params: PolicyParams, arch: PolicyArchitecture) -> None:
    """Versioned binary: magic, version, JSON header, float64-LE parameters."""
    header = {
        "kind": arch.kind,
        "history_len": arch.history_len,
        "input_size": arch.input_size,
        "head_sizes": list(arch.head_sizes),
        "dropout_lstm": arch.dropout_lstm,
        "dropout_dense": arch.dropout_dense,
        "n_params": int(params.n),
        "seed": -1,  # no longer read; kept so checkpoint bytes stay stable
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<HI", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(params.values.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[PolicyParams, PolicyArchitecture]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a policy checkpoint")
        version, blob_len = struct.unpack("<HI", fh.read(6))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        header = json.loads(fh.read(blob_len).decode())
        raw = fh.read()
    arch = PolicyArchitecture(
        kind=header["kind"], history_len=header["history_len"],
        input_size=header["input_size"], head_sizes=tuple(header["head_sizes"]),
        dropout_lstm=header["dropout_lstm"], dropout_dense=header["dropout_dense"])
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if values.size != header["n_params"] or values.size != n_params(arch):
        raise ValueError(f"{path}: parameter count mismatch")
    return PolicyParams(values=values, layout=param_layout(arch)), arch
