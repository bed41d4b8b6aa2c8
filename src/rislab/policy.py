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

The LSTM stack of L layers runs as one kernel over diagonal waves: in
wave k, layer j handles slot k - j, so H + L - 1 waves cover every layer's
H slots, and each wave serves all layers with one op per step. A wave's
state is batch last: its gates are one (4n, S) block, n being the summed
layer width, with rows gate-major across layers ([i_0 .. i_{L-1} | f | g |
o]), and its c, tanh(c) and h are (n, S) blocks, layer after layer. Every
LSTM weight sits in one stacked matrix A (4n, n + F + 1): the rows of layer
j hold U_j on its own columns and W_j on layer j-1's, so both terms read
the previous wave's hidden block and the whole recurrence is one product
per wave; the remaining columns hold W_0 and the biases, applied to all H
input slots by one batched matmul over the (H, F + 1, S) inputs (features,
then a 1) ahead of the loop. A layer that has not started yet gets i = 0,
which keeps its c and h at 0; after its last slot it runs on through the
tail waves, which nothing reads. The four gates are activated by one tanh
over the wave's pre-activation: sigmoid(z) = 1/2 + 1/2 tanh(z/2), so the
i/f/o rows of A are halved once per call and a fixed per-row affine
(x 1/2 + 1/2 on i/f/o, identity on g) finishes them. tanh saturates
instead of overflowing, so large pre-activations need no masking. Gates
and states are written in place into one (H + L - 1, 7n, S) block per
pass, and the cache keeps that block as the pass's only LSTM state. With
one large block, glibc's malloc sizes its heap-trim threshold from it, so
the heap keeps the pass's memory for the next pass instead of returning
it and faulting it back in page by page. Backward mirrors the forward
with one reverse wave loop that carries only the (n, S) dh and dc: M^T dz
of a wave, M being A's first n columns, is both each layer's recurrent
gradient and the input gradient of the layer above. A layer's not-started
waves (i = 0, c = 0) and its tail waves (no gradient reaches them) get
dz = 0 without special cases. dA is then two batched matmuls over the
waves, plus the bias gradient of the waves past the input. The index maps
between A and the flat parameter vector are built once per architecture.
The dense trunk and the heads stay row-major, (S, width).

Parameters live in one flat float64 vector with named slices, so the
optimizer, the checkpoint format, and finite-difference probes all see the
same layout.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from functools import lru_cache

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
    dropout_lstm: float            # applied once, after the LSTM stack
    dropout_dense: float           # applied after each rectified dense layer

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


@dataclass(frozen=True)
class _WavePlan:
    """Where each LSTM weight of the flat parameter vector sits in the
    stacked matrix A of the wave kernel (see _stack_matrix); built once per
    architecture."""

    starts: tuple          # first row of each layer in an n-row segment, then n
    shape: tuple           # A's, (4n, n + F + 1)
    half: np.ndarray       # (4n, 1): 1/2 on the sigmoid gates i/f/o, 1 on g
    shift: np.ndarray      # (4n, 1): 1 - half
    src: np.ndarray        # flat-vector index of each LSTM weight and bias
    dst: np.ndarray        # its index in the flattened A
    scale: np.ndarray      # half of its row


@lru_cache(maxsize=16)
def _wave_plan(arch: PolicyArchitecture) -> _WavePlan:
    sizes = arch.lstm_sizes
    starts = tuple(int(s) for s in np.cumsum((0,) + sizes))
    n, cols = starts[-1], starts[-1] + arch.input_size + 1
    # each parameter's own flat index, viewed by name
    index = PolicyParams(values=np.arange(n_params(arch)), layout=param_layout(arch))
    src, dst = [], []
    for j, h in enumerate(sizes):
        q, u = np.divmod(np.arange(4 * h), h)  # gate and unit of each row of layer j
        rows = q * n + starts[j] + u
        # U_j reads layer j's own columns, W_j layer j-1's (the input for j = 0)
        for part, col in (("W", starts[j - 1] if j else n), ("U", starts[j]),
                          ("b", cols - 1)):
            block = index.view(f"lstm{j}.{part}").reshape(4 * h, -1)
            src.append(block.ravel())
            dst.append((rows[:, None] * cols + col + np.arange(block.shape[1])).ravel())
    half = np.repeat([0.5, 0.5, 1.0, 0.5], n)[:, None]
    dst = np.concatenate(dst)
    plan = _WavePlan(starts=starts, shape=(4 * n, cols), half=half, shift=1.0 - half,
                     src=np.concatenate(src), dst=dst, scale=half[dst // cols, 0])
    for a in (plan.half, plan.shift, plan.src, plan.dst, plan.scale):
        a.flags.writeable = False
    return plan


def _stack_matrix(values: np.ndarray, plan: _WavePlan, halved: bool) -> np.ndarray:
    """Every LSTM weight in one (4n, n + F + 1) matrix A over gate-major rows.
    Its first n columns are M: the rows of layer j hold U_j on layer j's own
    columns and W_j on layer j-1's, so M @ [h_0 | ... | h_{L-1}] is every
    layer's recurrent and inter-layer term at once. The other columns hold
    W_0, then every bias, and act on a slot's inputs followed by a 1.
    `halved` scales the sigmoid rows by 1/2."""
    a = np.zeros(plan.shape)
    a.ravel()[plan.dst] = values[plan.src] * plan.scale if halved else values[plan.src]
    return a


def _wave_forward(a_half: np.ndarray, plan: _WavePlan, inputs: np.ndarray,
                  waves: np.ndarray) -> None:
    """The whole LSTM stack over an (H, F + 1, S) sequence from h = c = 0,
    one wave at a time as the module docstring describes. Writes every
    wave's activated gates [i | f | g | o], then c, tanh(c) and h, into
    `waves`, (H + L - 1, 7n, S)."""
    starts, half = plan.starts, plan.half
    n, steps = starts[-1], len(inputs)
    gates, cell, tanh_cell, hidden = (waves[:, :4 * n], waves[:, 4 * n:5 * n],
                                      waves[:, 5 * n:6 * n], waves[:, 6 * n:])
    m_half = a_half[:, :n]
    np.matmul(a_half[:, n:], inputs, out=gates[:steps])
    gates[steps:] = a_half[:, -1:]  # past the input: the biases only
    for k in range(len(waves)):
        z = gates[k]
        if k:
            z += m_half @ hidden[k - 1]
        np.tanh(z, out=z)
        z *= half
        z += plan.shift
        if k < len(starts) - 2:
            # layers above k have not started: i = 0 keeps their c = h = 0
            # and zeroes their pre-activation gradients in backward
            z[starts[k + 1]:n] = 0.0
        np.multiply(z[:n], z[2 * n:3 * n], out=cell[k])
        if k:
            cell[k] += z[n:2 * n] * cell[k - 1]
        np.tanh(cell[k], out=tanh_cell[k])
        np.multiply(z[3 * n:], tanh_cell[k], out=hidden[k])


def _wave_backward(a: np.ndarray, plan: _WavePlan, inputs: np.ndarray,
                   waves: np.ndarray, dh_top: np.ndarray) -> np.ndarray:
    """BPTT through the whole stack given dLoss/dh of the top layer's final
    slot, (h, S); returns dLoss/dA. One reverse wave loop carries dh and dc
    for all layers: M^T dz of a wave holds both each layer's recurrent
    gradient and the input gradient of the layer above, and a layer's tail
    waves get dz = 0."""
    starts = plan.starts
    n, steps = starts[-1], len(inputs)
    count, _, batch = waves.shape
    gates = waves[:, :4 * n]
    i, f, g, o, cell, tanh_cell, hidden = (waves[:, k * n:(k + 1) * n] for k in range(7))
    # one block per pass: dz, then dc_dh = o (1 - tanh(c)^2)
    work = np.empty((count, 5 * n, batch))
    dz, dc_dh = work[:, :4 * n], work[:, 4 * n:]
    # dz starts as the coefficient that turns dc (i, f, g rows) or dh (o rows)
    # into the pre-activation gradient: the gate slope times the gate's partner
    np.subtract(1.0, gates, out=dz)
    dz *= gates
    dz_i, dz_f, dz_g, dz_o = (dz[:, k * n:(k + 1) * n] for k in range(4))
    np.square(g, out=dz_g)
    np.subtract(1.0, dz_g, out=dz_g)
    dz_i *= g
    dz_f[0] = 0.0
    dz_f[1:] *= cell[:-1]
    dz_g *= i
    dz_o *= tanh_cell
    np.square(tanh_cell, out=dc_dh)
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o

    m_t = a[:, :n].T
    dz_ifg = dz[:, :3 * n].reshape(count, 3, n, batch)
    dh = np.zeros((n, batch))
    dh[starts[-2]:] = dh_top
    dc = dh * dc_dh[-1]
    for k in range(count - 1, -1, -1):
        dz_ifg[k] *= dc
        dz_o[k] *= dh
        if k == 0:
            break
        dh = m_t @ dz[k]
        dc *= f[k]
        dc += dh * dc_dh[k - 1]

    d_a = np.empty_like(a)
    np.matmul(dz[1:], hidden[:-1].swapaxes(1, 2)).sum(axis=0, out=d_a[:, :n])
    np.matmul(dz[:steps], inputs.swapaxes(1, 2)).sum(axis=0, out=d_a[:, n:])
    d_a[:, -1] += dz[steps:].sum(axis=(0, 2))
    return d_a


@dataclass
class ForwardCache:
    """Everything needed to rerun the pass bit-exactly and run BPTT. The
    LSTM stack's gates and states are held once, in the pass's wave block:
    layer j's slot t is wave j + t, and each of its seven n-row segments
    [i | f | g | o | c | tc | h] holds the layers in order."""

    n_params: int
    inputs: np.ndarray                 # (H, F + 1, S): features, then a 1 for the biases;
                                       # a stack's G*S rows group-major
    waves: np.ndarray                  # (H + L - 1, 7n, S) LSTM gates and states
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
    inputs = np.empty((arch.history_len, arch.input_size + 1, len(rows)))  # (H, F + 1, S)
    inputs[:, :-1] = rows.transpose(1, 2, 0)
    inputs[:, -1] = 1.0
    masks = [None] * (1 + len(arch.trunk_sizes))
    if dropping:
        groups = lead[0] if len(lead) == 2 else 1
        masks = _dropout_masks(arch, rng, groups, len(rows) // groups)

    # one block holds every wave's gates and states (see the module docstring)
    plan = _wave_plan(arch)
    sizes = arch.lstm_sizes
    waves = np.empty((arch.history_len + len(sizes) - 1, 7 * plan.starts[-1], len(rows)))
    _wave_forward(_stack_matrix(params.values, plan, halved=True), plan, inputs, waves)

    z = waves[-1, -sizes[-1]:].T  # (S, h) final-slot hidden state of the top layer
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

    cache = ForwardCache(n_params=params.n, inputs=inputs, waves=waves, drop_lstm=drop_lstm,
                         trunk=trunk, trunk_out=z, head_probs=probs)
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

    # LSTM stack: the top layer receives the trunk gradient at its final slot
    plan = _wave_plan(arch)
    a = _stack_matrix(params.values, plan, halved=False)
    d_a = _wave_backward(a, plan, cache.inputs, cache.waves, dz.T)
    grad.values[plan.src] += d_a.ravel()[plan.dst]

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
        head = fh.read(10)
        if head[:4] != CHECKPOINT_MAGIC or len(head) != 10:
            raise ValueError(f"{path}: not a policy checkpoint")
        version, blob_len = struct.unpack("<HI", head[4:])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        header = json.loads(fh.read(blob_len).decode())
        raw = fh.read()
    try:
        arch = PolicyArchitecture(
            kind=header["kind"], history_len=header["history_len"],
            input_size=header["input_size"], head_sizes=tuple(header["head_sizes"]),
            dropout_lstm=header["dropout_lstm"], dropout_dense=header["dropout_dense"])
        expected = header["n_params"]
    except (KeyError, TypeError) as exc:  # a key missing, or a value of the wrong type
        raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from None
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if values.size != expected or values.size != n_params(arch):
        raise ValueError(f"{path}: parameter count mismatch")
    return PolicyParams(values=values, layout=param_layout(arch)), arch
