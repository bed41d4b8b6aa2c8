"""Multi-ray mmWave channel engine: steering vectors, path gains, cascaded
AP-RIS-UE channels, beam/phase codebooks, and the log-det bitrate.

Every link is a sum of L rays, H = sum_l amp_l a_tx,l a_rx,l^H, so the
end-to-end channel direct + sum_g H_ap->ris,g diag(exp(j phi_g)) H_ris->ue,g
has rank at most r = L * (1 + G) for G surfaces. `CascadedChannel` keeps it
in that factored form, h = tx @ core @ rx^H: tx (N_a x r) holds the AP
steering vectors of the direct and AP->RIS rays, rx (N_u x r) the UE
steering vectors of the direct and RIS->UE rays, and the block-diagonal
r x r core holds the ray amplitudes, with one L x L block per RIS that
carries the surface's phase profile. The dense matrix `.h` is formed only
when asked for.

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
    """Conformability violation between rays, gains, or matrices."""


# ---------------------------------------------------------------------------
# domain types


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

    def ris_elements(self, g: int) -> int:
        n_h, n_v = self.ris_shapes[g]
        return n_h * n_v


@dataclass(frozen=True)
class BeamCodebook:
    """Discrete AP beam directions, strictly increasing within [-pi, pi]."""

    angles: tuple[float, ...]

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        if a.size < 2:
            raise ValueError("beam codebook needs at least 2 entries")
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
    directions: tuple[float, ...] = ()

    def __post_init__(self):
        # B >= 2 is required where the codebook acts as an action space
        # (environment validates); single-entry books are legal to build.
        if len(self.entries) < 1:
            raise ValueError("phase codebook needs at least 1 entry")
        lo, hi = self.phase_range
        if not (self.quantization_step > 0 and lo < hi):
            raise ValueError("need quantization_step > 0 and lo < hi")
        for entry in self.entries:
            arr = np.asarray(entry, dtype=float)
            if np.any(arr < lo - 1e-12) or np.any(arr > hi + 1e-12):
                raise ValueError("phase outside configured range")
            steps = (arr - lo) / self.quantization_step
            if np.any(np.abs(steps - np.round(steps)) > 1e-9):
                raise ValueError("phase off the quantization grid")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Ray:
    """One propagation ray of a link.

    aod/aoa are azimuths at the departure/arrival array; elevation applies on
    whichever end of the link is a UPA (ignored for ULA-ULA links). A blocked
    ray attenuates with the NLoS exponent.
    """

    blocked: bool
    gain: complex
    aod: float
    aoa: float
    elevation: float = np.pi / 2

    def __post_init__(self):
        if not np.isfinite(self.gain):
            raise ValueError("ray gain must be finite")


@dataclass(frozen=True)
class PathGainProfile:
    """Distance/frequency law rho = (c / 2 pi f_c)^2 * d^(-nu)."""

    distance: float
    carrier_freq: float
    exponent_los: float = 2.0
    exponent_nlos: float = 4.0

    def __post_init__(self):
        if self.distance <= 0:
            raise ValueError("distance must be positive")
        if self.carrier_freq <= 0:
            raise ValueError("carrier frequency must be positive")


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power q (W), bandwidth w (Hz), noise density sigma^2 (W/Hz)."""

    tx_power: float
    bandwidth: float
    noise_density: float

    def __post_init__(self):
        if min(self.tx_power, self.bandwidth, self.noise_density) <= 0:
            raise ValueError("link-budget values must be strictly positive")


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


def steering_vector_ula(angle, n: int) -> np.ndarray:
    """ULA response: element k = exp(j * ((n-1)/2 - k) * pi * cos(angle)).

    A scalar angle gives shape (n,); an array of L angles gives (L, n).
    """
    if n < 1:
        raise ValueError("array size must be >= 1")
    return np.exp(1j * np.multiply.outer(np.cos(angle), _phase_ramp(n)))


def steering_vector_upa(azimuth, elevation, n_h: int, n_v: int) -> np.ndarray:
    """UPA response: kron of the vertical vector (phase law cos(elevation))
    with the horizontal vector (phase law cos(azimuth)*sin(elevation)).

    Scalar angles give shape (n_h*n_v,); arrays of L angles give (L, n_h*n_v).
    """
    if n_h < 1 or n_v < 1:
        raise ValueError("array dimensions must be >= 1")
    b_el = np.exp(1j * np.multiply.outer(np.cos(elevation), _phase_ramp(n_v)))
    b_az = np.exp(1j * (np.multiply.outer(np.cos(azimuth), _phase_ramp(n_h))
                        * np.sin(elevation)[..., None]))
    return (b_el[..., :, None] * b_az[..., None, :]).reshape(b_el.shape[:-1] + (n_h * n_v,))


# ---------------------------------------------------------------------------
# path gains


def free_space_gain(distance, carrier_freq: float, exponent):
    """rho = (c / 2 pi f_c)^2 * d^(-nu); broadcasts over distance and exponent."""
    return (C_LIGHT / (2.0 * np.pi * carrier_freq)) ** 2 * distance ** (-exponent)


def path_gain(profile: PathGainProfile, blocked: bool) -> float:
    """Large-scale power gain rho for one ray; NLoS slope when blocked."""
    nu = profile.exponent_nlos if blocked else profile.exponent_los
    return free_space_gain(profile.distance, profile.carrier_freq, nu)


# ---------------------------------------------------------------------------
# link matrices


def multipath(tx_rows: np.ndarray, amps: np.ndarray, rx_rows: np.ndarray) -> np.ndarray:
    """sum_l amps_l tx_l rx_l^H from (L, n_tx) and (L, n_rx) steering rows:
    the n_tx x n_rx matrix of one multi-ray link."""
    return (tx_rows * amps[:, None]).T @ rx_rows.conj()


def _ray_arrays(rays: list[Ray], profile: PathGainProfile):
    """Departure, arrival and elevation angles and the complex amplitudes
    gain_l * sqrt(rho_l) of a ray list, one array each."""
    if not rays:
        raise ChannelShapeError("need at least one ray")
    aod = np.array([r.aod for r in rays], dtype=float)
    aoa = np.array([r.aoa for r in rays], dtype=float)
    elevation = np.array([r.elevation for r in rays], dtype=float)
    amps = np.array([r.gain * math.sqrt(path_gain(profile, r.blocked)) for r in rays],
                    dtype=complex)
    return aod, aoa, elevation, amps


def channel_ris_to_ue(rays: list[Ray], gains: PathGainProfile,
                      geometry: ArrayGeometry, ris_index: int = 0) -> np.ndarray:
    """RIS-side UPA to UE-side ULA multi-ray matrix, shape N_g x N_u."""
    aod, aoa, elevation, amps = _ray_arrays(rays, gains)
    n_h, n_v = geometry.ris_shapes[ris_index]
    return multipath(steering_vector_upa(aod, elevation, n_h, n_v), amps,
                     steering_vector_ula(aoa, geometry.n_ue))


def channel_ap_to_ris(rays: list[Ray], gains: PathGainProfile,
                      geometry: ArrayGeometry, ris_index: int = 0) -> np.ndarray:
    """AP-side ULA to RIS-side UPA multi-ray matrix, shape N_a x N_g."""
    aod, aoa, elevation, amps = _ray_arrays(rays, gains)
    n_h, n_v = geometry.ris_shapes[ris_index]
    return multipath(steering_vector_ula(aod, geometry.n_ap), amps,
                     steering_vector_upa(aoa, elevation, n_h, n_v))


def channel_ap_to_ue(rays: list[Ray], gains: PathGainProfile,
                     geometry: ArrayGeometry) -> np.ndarray:
    """Direct AP to UE multi-ray matrix (ULA both ends), shape N_a x N_u."""
    aod, aoa, _, amps = _ray_arrays(rays, gains)
    return multipath(steering_vector_ula(aod, geometry.n_ap), amps,
                     steering_vector_ula(aoa, geometry.n_ue))


def ris_core(in_rows: np.ndarray, weights: np.ndarray, out_rows: np.ndarray) -> np.ndarray:
    """L_in x L_out ray core of one RIS: entry (l, m) = b_in,l^H diag(weights) b_out,m
    for the incident and departing UPA steering rows (L, N_g) and the
    surface's unit-modulus reflection weights exp(j*phases) (N_g,)."""
    return (in_rows.conj() * weights) @ out_rows.T


def cascaded_channel(ap_ue: np.ndarray,
                     per_ris: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> CascadedChannel:
    """Sum the direct matrix with every AP->RIS -> phase -> RIS->UE product.

    per_ris items are (ap_ris: N_a x N_g, phases: length-N_g radians,
    ris_ue: N_g x N_u). The phase vector is applied as diag(exp(j*phases)).
    """
    ap_ue = np.asarray(ap_ue, dtype=complex)
    if ap_ue.ndim != 2:
        raise ChannelShapeError("ap_ue must be a matrix")
    n_a, n_u = ap_ue.shape
    total = ap_ue.copy()
    for ap_ris, phases, ris_ue in per_ris:
        ap_ris = np.asarray(ap_ris, dtype=complex)
        ris_ue = np.asarray(ris_ue, dtype=complex)
        phases = np.asarray(phases, dtype=float)
        n_g = phases.size
        if ap_ris.shape != (n_a, n_g) or ris_ue.shape != (n_g, n_u):
            raise ChannelShapeError(
                f"RIS leg shapes {ap_ris.shape} x diag({n_g}) x {ris_ue.shape} "
                f"do not compose to {n_a}x{n_u}")
        total += (ap_ris * np.exp(1j * phases)[None, :]) @ ris_ue
    eye = np.eye(n_u, dtype=complex)
    return CascadedChannel(tx=total, core=eye, rx=eye)


# ---------------------------------------------------------------------------
# achievable rate


def _require_finite(*arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("channel contains non-finite entries")


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
    gram = np.where(np.abs(gram) < 1e-300, 0.0, gram)  # flush denormals
    sign, logdet = np.linalg.slogdet(np.eye(gram.shape[0]) + c * gram)
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


def build_phase_codebook(geometry: ArrayGeometry, quantization_step: float,
                         phase_range: tuple[float, float],
                         directions: list[float], ris_index: int = 0) -> PhaseCodebook:
    """One entry per direction: the linear per-surface progression that points
    the reflected beam at that in-plane azimuth, then quantized.

    The profile cancels the departure-side steering phase, so the broadside
    direction (pi/2, zero progression) maps to the all-zero entry.
    """
    if not directions:
        raise ValueError("need at least one steering direction")
    lo, hi = phase_range
    if not (quantization_step > 0 and lo < hi):
        raise ValueError("need quantization_step > 0 and lo < hi")
    n_h, n_v = geometry.ris_shapes[ris_index]
    entries = []
    for d in directions:
        kh = np.arange(n_h)
        row = (kh - (n_h - 1) / 2.0) * np.pi * np.cos(d)
        row[np.abs(row) < 1e-12] = 0.0  # kill cos(pi/2) float dirt at broadside
        profile = np.tile(row, n_v)  # vertical progression is flat in-plane
        quantized = tuple(quantize_phase(p, quantization_step, lo, hi) for p in profile)
        entries.append(quantized)
    return PhaseCodebook(entries=tuple(entries), quantization_step=quantization_step,
                         phase_range=(lo, hi), directions=tuple(directions))


def default_phase_directions(n_entries: int = 11) -> list[float]:
    """Uniform azimuth grid spanning the RIS's facing half-plane [0, pi]."""
    if n_entries < 2:
        raise ValueError("need at least 2 directions")
    return list(np.linspace(0.0, np.pi, n_entries))


def beam_alignment_gain(chosen_angle: float, ray_angle: float, n: int) -> float:
    """Normalized ULA array-factor alignment |a(chosen)^H a(ray)| / n in [0, 1].

    Scales a ray's amplitude by how well the selected transmit beam
    illuminates the ray's geometric departure direction; equals 1 on target.
    """
    inner = np.vdot(steering_vector_ula(chosen_angle, n), steering_vector_ula(ray_angle, n))
    return float(np.abs(inner)) / n
