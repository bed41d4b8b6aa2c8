"""Factored multi-ray mmWave channel model: steering vectors, free-space
path gains, the per-RIS ray core, beam/phase codebooks, and the log-det
bitrate.

Every link is a sum of L rays, H = sum_l amp_l a_tx,l a_rx,l^H, so the
end-to-end channel direct + sum_g H_ap->ris,g diag(exp(j phi_g)) H_ris->ue,g
has rank at most r = L * (1 + G) for G surfaces. `CascadedChannel` keeps it
in that factored form, h = tx @ core @ rx^H: tx (N_a x r) holds the AP
steering vectors of the direct and AP->RIS rays, rx (N_u x r) the UE
steering vectors of the direct and RIS->UE rays, and the block-diagonal
r x r core holds the ray amplitudes, with one L x L block per RIS
(`ris_core`) that carries the surface's phase profile. The dense matrix
`.h` is formed only when asked for. `environment.build_channel` assembles
it from these pieces; this module holds no other channel assembly.

`achievable_rate` takes its determinant at size min(N_a, N_u, r). When r is
the smallest, Sylvester's identity det(I + X Y) = det(I + Y X) moves the
determinant onto the r x r core; otherwise it goes through the smaller
Gram matrix of the dense channel.

Steering vectors broadcast over an array of L angles, giving one row per
angle. All functions are pure and operate on float64/complex128 numpy
arrays, so any number of threads may call them concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

C_LIGHT = 299_792_458.0  # m/s


class ChannelShapeError(ValueError):
    """A channel that is not a matrix."""


# ---------------------------------------------------------------------------
# domain types


POSITIVE = ("finite and > 0", lambda v: 0 < v < math.inf)
NONNEGATIVE = ("finite and >= 0", lambda v: 0 <= v < math.inf)


def check_ranges(obj, *rules) -> None:
    """Raise ValueError naming the first field of `obj` outside its range;
    each rule is ((range text, predicate), field names). nan fails every
    range."""
    for (text, holds), names in rules:
        for name in names:
            value = getattr(obj, name)
            if not holds(value):
                raise ValueError(f"{type(obj).__name__}.{name} must be {text}, "
                                 f"not {value!r}")


def _check_phase_grid(quantization_step: float, lo: float, hi: float) -> None:
    if not 0 < quantization_step < math.inf:
        raise ValueError(f"quantization_step must be finite and > 0, "
                         f"not {quantization_step!r}")
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"phase_range must be finite with lo < hi, not {(lo, hi)!r}")


@dataclass(frozen=True)
class ArrayGeometry:
    """Antenna counts: AP and UE are ULAs, each RIS is an n_h x n_v UPA."""

    n_ap: int
    n_ue: int
    ris_shapes: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.n_ap < 1 or self.n_ue < 1:
            raise ValueError("antenna counts must be >= 1")
        for n_h, n_v in self.ris_shapes:
            if n_h < 1 or n_v < 1:
                raise ValueError("RIS dimensions must be >= 1")

    @property
    def n_ris(self) -> int:
        return len(self.ris_shapes)


@dataclass(frozen=True)
class BeamCodebook:
    """Discrete AP beam directions, strictly increasing within [-pi, pi]."""

    angles: tuple[float, ...]

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        if a.size < 2:
            raise ValueError("beam codebook needs at least 2 entries")
        if not np.isfinite(a).all():
            raise ValueError(f"beam angles must be finite, not {self.angles!r}")
        if np.any(np.diff(a) <= 0):
            raise ValueError("beam angles must be strictly increasing")
        if np.any(a < -np.pi) or np.any(a > np.pi):
            raise ValueError("beam angles must lie in [-pi, pi]")

    def __len__(self) -> int:
        return len(self.angles)


def build_beam_codebook(n_beams: int) -> BeamCodebook:
    """Uniform beam set {-pi + 2*a*pi/(A-1) | a = 0..A-1}."""
    if n_beams < 2:
        raise ValueError("need at least 2 beams")
    angles = tuple(-np.pi + 2.0 * a * np.pi / (n_beams - 1) for a in range(n_beams))
    return BeamCodebook(angles)


@dataclass(frozen=True)
class PhaseCodebook:
    """Selectable per-surface phase profiles for one RIS.

    Each entry is a vector of N_g phases (radians); its matrix form is the
    unit-modulus diagonal diag(exp(j*phases)). Every phase sits on the grid
    lo + k*quantization_step inside phase_range.
    """

    entries: tuple[tuple[float, ...], ...]
    quantization_step: float
    phase_range: tuple[float, float]

    def __post_init__(self):
        # B >= 2 is required where the codebook acts as an action space
        # (environment validates); single-entry books are legal to build.
        if len(self.entries) < 1:
            raise ValueError("phase codebook needs at least 1 entry")
        lo, hi = self.phase_range
        _check_phase_grid(self.quantization_step, lo, hi)
        for entry in self.entries:
            arr = np.asarray(entry, dtype=float)
            if not np.isfinite(arr).all():
                raise ValueError(f"phase codebook entries must be finite, not {entry!r}")
            if np.any(arr < lo - 1e-12) or np.any(arr > hi + 1e-12):
                raise ValueError("phase outside configured range")
            steps = (arr - lo) / self.quantization_step
            if np.any(np.abs(steps - np.round(steps)) > 1e-9):
                raise ValueError("phase off the quantization grid")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power q (W), bandwidth w (Hz), noise density sigma^2 (W/Hz)."""

    tx_power: float
    bandwidth: float
    noise_density: float

    def __post_init__(self):
        check_ranges(self, (POSITIVE, ("tx_power", "bandwidth", "noise_density")))


@dataclass
class CascadedChannel:
    """End-to-end channel in factored form h = tx @ core @ rx^H.

    tx is N_a x r, core r x r and rx N_u x r; the N_a x N_u matrix `h` is
    formed on first access and kept.
    """

    tx: np.ndarray
    core: np.ndarray
    rx: np.ndarray
    _h: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def h(self) -> np.ndarray:
        if self._h is None:
            self._h = self.tx @ self.core @ self.rx.conj().T
        return self._h


# ---------------------------------------------------------------------------
# steering vectors


@lru_cache(maxsize=64)
def _phase_ramp(n: int) -> np.ndarray:
    """Per-element phase progression of an n-element array (read-only,
    shared by every steering call of that size)."""
    ramp = ((n - 1) / 2.0 - np.arange(n)) * np.pi
    ramp.flags.writeable = False
    return ramp


@lru_cache(maxsize=64)
def _phase_ramp_j(n: int) -> np.ndarray:
    """1j * _phase_ramp(n), read-only. cos(angle) * (1j * ramp) and
    1j * (cos(angle) * ramp) share their imaginary part, cos(angle) * ramp
    rounded once, and both have a zero real part, so their exponentials
    are equal bit for bit."""
    ramp = 1j * _phase_ramp(n)
    ramp.flags.writeable = False
    return ramp


def steering_vector_ula(angle, n: int) -> np.ndarray:
    """ULA response: element k = exp(j * ((n-1)/2 - k) * pi * cos(angle)).

    A scalar angle gives shape (n,); an array of angles of shape S gives
    S + (n,).
    """
    if n < 1:
        raise ValueError("array size must be >= 1")
    out = np.cos(angle)[..., None] * _phase_ramp_j(n)
    return np.exp(out, out=out)


def steering_vector_upa(azimuth, elevation, n_h: int, n_v: int) -> np.ndarray:
    """UPA response: kron of the vertical vector (phase law cos(elevation))
    with the horizontal vector (phase law cos(azimuth)*sin(elevation)).

    Scalar angles give shape (n_h*n_v,); arrays of angles of one shape S
    give S + (n_h*n_v,). The horizontal phase is the outer product with the
    ramp first, then the scaling by sin(elevation): the other order rounds
    differently.
    """
    if n_h < 1 or n_v < 1:
        raise ValueError("array dimensions must be >= 1")
    b_el = np.cos(elevation)[..., None] * _phase_ramp_j(n_v)
    np.exp(b_el, out=b_el)
    phase = np.cos(azimuth)[..., None] * _phase_ramp(n_h)
    phase *= np.sin(elevation)[..., None]
    b_az = phase * 1j
    np.exp(b_az, out=b_az)
    return (b_el[..., :, None] * b_az[..., None, :]).reshape(b_el.shape[:-1] + (n_h * n_v,))


# ---------------------------------------------------------------------------
# path gains


def free_space_gain(distance, carrier_freq: float, exponent):
    """rho = (c / 2 pi f_c)^2 * d^(-nu); broadcasts over distance and exponent."""
    return (C_LIGHT / (2.0 * np.pi * carrier_freq)) ** 2 * distance ** (-exponent)


# ---------------------------------------------------------------------------
# RIS ray core


def ris_core(in_rows: np.ndarray, weights: np.ndarray, out_rows: np.ndarray) -> np.ndarray:
    """L_in x L_out ray core of one RIS: entry (l, m) = b_in,l^H diag(weights) b_out,m
    for the incident and departing UPA steering rows (L, N_g) and the
    surface's unit-modulus reflection weights exp(j*phases) (N_g,).

    Leading axes broadcast: rows (G, L, N_g) and weights (G, N_g) give the
    G cores (G, L_in, L_out) in one batched product, each equal bit for bit
    to its own call."""
    return (in_rows.conj() * weights[..., None, :]) @ out_rows.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# achievable rate


def _require_finite(*arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("channel contains non-finite entries")


@lru_cache(maxsize=64)
def _identity(n: int) -> np.ndarray:
    """Read-only n x n identity."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _dense_gram(mat: np.ndarray) -> np.ndarray:
    """The smaller of H H^H and H^H H."""
    return mat @ mat.conj().T if mat.shape[0] <= mat.shape[1] else mat.conj().T @ mat


def achievable_rate(h, budget: LinkBudget) -> float:
    """Bitrate w * log2 det(I + q/(N_a w sigma^2) * H H^H) in bits/s.

    The determinant is taken at size min(N_a, N_u, r), using a stable
    slogdet. A factored channel whose rank bound r is the smallest gives
    det(I_r + c * core Gr core^H Gt), with Gt = tx^H tx and Gr = rx^H rx;
    otherwise the smaller of the two dense Gram matrices is used (the
    nonzero eigenvalues of H H^H and H^H H coincide).
    """
    if isinstance(h, CascadedChannel):
        _require_finite(h.tx, h.core, h.rx)
        n_a = h.tx.shape[0]
        if h.core.shape[0] < min(n_a, h.rx.shape[0]):
            core_gr = h.core @ (h.rx.conj().T @ h.rx) @ h.core.conj().T
            gram = core_gr @ (h.tx.conj().T @ h.tx)
        else:
            gram = _dense_gram(h.h)
    else:
        mat = np.asarray(h, dtype=complex)
        if mat.ndim != 2:
            raise ChannelShapeError("channel must be a matrix")
        _require_finite(mat)
        n_a = mat.shape[0]
        gram = _dense_gram(mat)
    c = budget.tx_power / (n_a * budget.bandwidth * budget.noise_density)
    scaled = c * gram
    scaled[np.abs(gram) < 1e-300] = 0.0  # flush denormals
    scaled += _identity(gram.shape[0])
    sign, logdet = np.linalg.slogdet(scaled)
    rate = budget.bandwidth * logdet / math.log(2.0)
    return max(rate, 0.0)


# ---------------------------------------------------------------------------
# phase codebook construction


def quantize_phase(phase: float, step: float, lo: float, hi: float) -> float:
    """Wrap to (-pi, pi], clamp into [lo, hi], snap to the grid lo + k*step."""
    wrapped = math.atan2(math.sin(phase), math.cos(phase))
    clamped = min(max(wrapped, lo), hi)
    n_steps = math.floor((hi - lo) / step + 1e-9)
    k = round((clamped - lo) / step)
    k = min(max(k, 0), n_steps)
    return lo + k * step


def build_phase_codebook(panel: tuple[int, int], quantization_step: float,
                         phase_range: tuple[float, float],
                         directions: list[float]) -> PhaseCodebook:
    """One entry per direction: the linear per-surface progression that points
    the reflected beam at that in-plane azimuth, then quantized, for an
    n_h x n_v panel given as `panel = (n_h, n_v)`.

    The profile cancels the departure-side steering phase, so the broadside
    direction (pi/2, zero progression) maps to the all-zero entry.
    """
    if not directions:
        raise ValueError("need at least one steering direction")
    lo, hi = phase_range
    _check_phase_grid(quantization_step, lo, hi)
    n_h, n_v = panel
    if n_h < 1 or n_v < 1:
        raise ValueError("RIS dimensions must be >= 1")
    entries = []
    for d in directions:
        kh = np.arange(n_h)
        row = (kh - (n_h - 1) / 2.0) * np.pi * np.cos(d)
        row[np.abs(row) < 1e-12] = 0.0  # kill cos(pi/2) float dirt at broadside
        profile = np.tile(row, n_v)  # vertical progression is flat in-plane
        quantized = tuple(quantize_phase(p, quantization_step, lo, hi) for p in profile)
        entries.append(quantized)
    return PhaseCodebook(entries=tuple(entries), quantization_step=quantization_step,
                         phase_range=(lo, hi))


def default_phase_directions(n_entries: int) -> list[float]:
    """Uniform azimuth grid spanning the RIS's facing half-plane [0, pi]."""
    if n_entries < 2:
        raise ValueError("need at least 2 directions")
    return list(np.linspace(0.0, np.pi, n_entries))
