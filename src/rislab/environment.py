"""Indoor POIPSG environment: occupancy grid with dark areas, random-walk
mobility, stochastic per-ray blockage, and the shared bitrate reward.

Grid convention: cell (x, y) with x the column and y the row; obstacle and
presence arrays are indexed [y, x]. Cell centers sit at ((x+0.5)s, (y+0.5)s)
meters for cell size s. All angles are room-frame bearings from atan2.

Only the user's cell, orientation, blockage chains and scattered rays change
from slot to slot; the AP, the RIS panels and the grid do not. So the
channel is assembled from three parts:

- per scenario, built with it: the dark and RIS-shadow maps, one AP steering
  vector per beam, the (B, N_g) stack of reflection weights exp(j*phases),
  one per codebook entry, and the r x r core template that already holds
  the direct block's identity (the ULA/UPA phase ramps are shared per array
  size in `channel`). Every panel takes every codebook entry, so all G
  panels share one n_h x n_v shape, with n_h * n_v = N_g;
- per user cell, built on the cell's first visit and kept: the LoS bearings,
  distances and static blocked flags, the LoS and NLoS amplitudes of each
  link's LoS ray, the AP-side LoS steering rows and the (G, 2, N_g)
  RIS-side LoS UPA rows (`Scenario.cell_geometry`);
- per slot, for all G panels at once (`build_channel`): the scattered-ray
  rows (one ULA call for the AP side, one UPA call over a (G, 2, L-1)
  block of RIS-side angles), the orientation-dependent UE rows, the beam
  alignment of every AP row in one product, and the G ray cores in one
  batched product, written into a copy of the core template. G = 0 runs
  the same code on empty blocks.

The grid likewise keeps the presence CDF and, per cell on first use, the
mobility candidates and their CDF.

Every stochastic element is driven by an explicit numpy Generator, and the
draw order inside a step is fixed, so a seed pins the full episode stream.
The memoized CDFs reproduce `Generator.choice(p=...)` draw for draw.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    ArrayGeometry,
    BeamCodebook,
    CascadedChannel,
    LinkBudget,
    NONNEGATIVE,
    POSITIVE,
    PhaseCodebook,
    achievable_rate,
    check_ranges,
    free_space_gain,
    ris_core,
    steering_vector_ula,
    steering_vector_upa,
)


def _retired_leg_builder(*args, **kwargs):
    """Placeholder for the retired per-link channel builders, which
    `build_channel` replaced. perfbench's tracer still wraps these four names
    in this namespace for its `channel.leg` and `channel.cascade` spans (which
    read 0), so they stay bound until the benchmark drops those spans; then
    this stub goes too. Nothing calls it."""
    raise NotImplementedError("the per-link channel builders were retired; use build_channel")


channel_ap_to_ue = channel_ap_to_ris = channel_ris_to_ue = _retired_leg_builder
cascaded_channel = _retired_leg_builder


class ScenarioFormatError(ValueError):
    """Malformed scenario geometry file."""


class DatasetFormatError(ValueError):
    """Malformed trajectory CSV."""


# ---------------------------------------------------------------------------
# occupancy grid and dark areas


@dataclass
class OccupancyGrid:
    cell_size: float
    obstacles: np.ndarray            # bool, shape (height, width)
    presence: np.ndarray             # float, shape (height, width), sums to 1
    ap_cell: tuple[int, int]
    ris_cells: tuple[tuple[int, int], ...]
    # cell -> (candidate cells, CDF or None), filled by `moves`
    _moves: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.cell_size) and self.cell_size > 0):
            raise ValueError("cell_size must be positive and finite")
        self.obstacles = np.asarray(self.obstacles, dtype=bool)
        pres = np.asarray(self.presence, dtype=float).copy()
        if pres.shape != self.obstacles.shape:
            raise ValueError("presence and obstacle shapes differ")
        if not np.isfinite(pres).all():
            raise ValueError("presence probabilities must be finite")
        if np.any(pres < 0):
            raise ValueError("presence probabilities must be nonnegative")
        pres[self.obstacles] = 0.0
        total = pres.sum()
        if not 0 < total < math.inf:
            raise ValueError("presence mass must be positive and finite on free cells")
        self.presence = pres / total
        for cell in (self.ap_cell, *self.ris_cells):
            if not self.in_bounds(cell) or self.is_obstacle(cell):
                raise ValueError(f"node cell {cell} must be a free in-bounds cell")
        self._presence_cdf = _choice_cdf(self.presence.ravel())

    @property
    def width(self) -> int:
        return self.obstacles.shape[1]

    @property
    def height(self) -> int:
        return self.obstacles.shape[0]

    def in_bounds(self, cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def is_obstacle(self, cell) -> bool:
        return bool(self.obstacles[cell[1], cell[0]])

    def center(self, cell) -> tuple[float, float]:
        return ((cell[0] + 0.5) * self.cell_size, (cell[1] + 0.5) * self.cell_size)

    def free_cells(self) -> list[tuple[int, int]]:
        ys, xs = np.nonzero(~self.obstacles)
        return [(int(x), int(y)) for x, y in zip(xs, ys)]

    def sample_cell(self, rng: np.random.Generator) -> tuple[int, int]:
        """A cell drawn from the presence distribution, with the draw of
        rng.choice(width * height, p=presence.ravel())."""
        idx = _choice_index(self._presence_cdf, rng)
        return (idx % self.width, idx // self.width)

    def moves(self, cell) -> tuple[list[tuple[int, int]], np.ndarray | None]:
        """The free in-bounds cells of the 8-neighborhood plus stay, and the
        CDF of their presence weights (None when they carry no mass).
        Memoized per cell."""
        key = (cell[0], cell[1])
        out = self._moves.get(key)
        if out is None:
            x, y = key
            candidates = [(int(x + ox), int(y + oy)) for ox, oy in _NEIGHBORHOOD
                          if self.in_bounds((x + ox, y + oy))
                          and not self.is_obstacle((x + ox, y + oy))]
            weights = [self.presence[cy, cx] for cx, cy in candidates]
            total = float(sum(weights))
            cdf = _choice_cdf(np.asarray(weights) / total) if total > 0.0 else None
            out = self._moves[key] = (candidates, cdf)
        return out


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF Generator.choice(len(p), p=p) searches."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _choice_index(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One draw of Generator.choice from its CDF: one rng.random() consumed."""
    return int(cdf.searchsorted(rng.random(), side="right"))


@dataclass
class DarkAreaMap:
    dark: np.ndarray  # bool, shape (height, width)

    def at(self, cell) -> bool:
        return bool(self.dark[cell[1], cell[0]])


def traverse_cells(p0, p1, cell_size: float) -> list[tuple[int, int]]:
    """Grid cells crossed by the open segment p0 -> p1 (both in meters),
    endpoints' cells included. Exact corner crossings step diagonally and do
    not visit the two side cells."""
    x0, y0 = p0[0] / cell_size, p0[1] / cell_size
    x1, y1 = p1[0] / cell_size, p1[1] / cell_size
    cx, cy = int(math.floor(x0)), int(math.floor(y0))
    ex, ey = int(math.floor(x1)), int(math.floor(y1))
    cells = [(cx, cy)]
    dx, dy = x1 - x0, y1 - y0
    step_x = 1 if dx > 0 else -1
    step_y = 1 if dy > 0 else -1
    t_max_x = ((cx + (step_x > 0)) - x0) / dx if dx != 0 else math.inf
    t_max_y = ((cy + (step_y > 0)) - y0) / dy if dy != 0 else math.inf
    t_dx = abs(1.0 / dx) if dx != 0 else math.inf
    t_dy = abs(1.0 / dy) if dy != 0 else math.inf
    while (cx, cy) != (ex, ey):
        if abs(t_max_x - t_max_y) < 1e-12:  # corner: advance both axes
            cx += step_x
            cy += step_y
            t_max_x += t_dx
            t_max_y += t_dy
        elif t_max_x < t_max_y:
            cx += step_x
            t_max_x += t_dx
        else:
            cy += step_y
            t_max_y += t_dy
        cells.append((cx, cy))
        if len(cells) > 4 * (abs(ex - cells[0][0]) + abs(ey - cells[0][1]) + 2):
            raise RuntimeError("line traversal failed to terminate")
    return cells


def segment_blocked(grid: OccupancyGrid, from_cell, to_cell) -> bool:
    """True when the center-to-center segment crosses any obstacle cell
    other than the source cell itself."""
    if from_cell == to_cell:
        return False
    cells = traverse_cells(grid.center(from_cell), grid.center(to_cell), grid.cell_size)
    return any(grid.is_obstacle(c) for c in cells[1:])


def compute_dark_areas(grid: OccupancyGrid, source: tuple[int, int] | None = None) -> DarkAreaMap:
    """Per-cell LoS test from the AP (or any source cell)."""
    src = grid.ap_cell if source is None else source
    dark = np.zeros((grid.height, grid.width), dtype=bool)
    for y in range(grid.height):
        for x in range(grid.width):
            dark[y, x] = segment_blocked(grid, src, (x, y))
    return DarkAreaMap(dark=dark)


# ---------------------------------------------------------------------------
# mobility


_NEIGHBORHOOD = [(-1, -1), (0, -1), (1, -1), (-1, 0), (0, 0), (1, 0),
                 (-1, 1), (0, 1), (1, 1)]


def mobility_step(grid: OccupancyGrid, position, rng: np.random.Generator):
    """Draw the next cell among the 8-neighborhood plus stay, weighted by the
    presence probability of each reachable candidate; the draw is that of
    rng.choice(len(candidates), p=weights / weights.sum()). A neighborhood
    without presence mass keeps the cell and draws nothing."""
    candidates, cdf = grid.moves(position)
    if cdf is None:
        x, y = position
        return (x, y)
    return candidates[_choice_index(cdf, rng)]


# ---------------------------------------------------------------------------
# blockage


@dataclass(frozen=True)
class MarkovBlockage:
    p_block: float
    p_unblock: float

    def __post_init__(self):
        for p in (self.p_block, self.p_unblock):
            if not 0.0 <= p <= 1.0:
                raise ValueError("transition probabilities must lie in [0, 1]")


def blockage_step(flags: np.ndarray, markov: MarkovBlockage,
                  rng: np.random.Generator) -> np.ndarray:
    """Advance the two-state self-blockage chains one slot."""
    flags = np.asarray(flags, dtype=bool)
    u = rng.random(flags.shape)
    blocked = np.where(flags, u >= markov.p_unblock, u < markov.p_block)
    return blocked


# ---------------------------------------------------------------------------
# actions and histories


@dataclass(frozen=True)
class ActionProfile:
    ap_beam: int
    ris_phases: tuple[int, ...]

    def as_tuple(self) -> tuple[int, ...]:
        return (self.ap_beam, *self.ris_phases)


class HistoryBuffer:
    """Sliding window of one agent's last `capacity` (own action, normalized
    rate) pairs, newest last: `actions` (C,) int, -1 in slots not yet filled,
    and `rates` (C,) float, 0 there; push shifts both in place. A controller
    reads agent 0's `rates` as the shared rate, so all agents' buffers must
    be pushed in step with the same rate, as collect_episode does."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.actions = np.full(capacity, -1)
        self.rates = np.zeros(capacity)

    def push(self, action: int, rate_norm: float) -> None:
        self.actions[:-1], self.actions[-1] = self.actions[1:], action
        self.rates[:-1], self.rates[-1] = self.rates[1:], rate_norm


# ---------------------------------------------------------------------------
# scenario bundle and environment state


@dataclass(frozen=True)
class EnvConfig:
    n_rays: int
    scatter_gain_var: float
    exponent_los: float
    exponent_nlos: float
    carrier_freq: float
    markov: MarkovBlockage
    orientation_jitter: float
    rate_norm_max: float             # history inputs are r/(w * this)

    def __post_init__(self):
        if self.n_rays < 1:
            raise ValueError("need at least one ray per link")
        check_ranges(self, (POSITIVE, ("carrier_freq", "rate_norm_max")),
                     (NONNEGATIVE, ("scatter_gain_var", "exponent_los", "exponent_nlos",
                                    "orientation_jitter")))


@dataclass
class Scenario:
    """Static world description: geometry, budget, codebooks, shadow maps,
    and the per-cell LoS tables built from them on first use (so a scenario
    is not edited after construction; build a new one instead)."""

    grid: OccupancyGrid
    geometry: ArrayGeometry
    budget: LinkBudget
    beams: BeamCodebook
    phases: PhaseCodebook
    cfg: EnvConfig

    def __post_init__(self):
        if self.geometry.n_ris != len(self.grid.ris_cells):
            raise ValueError("geometry and grid disagree on the RIS count")
        if len(self.phases) < 2:
            raise ValueError("phase codebook must offer at least 2 actions")
        # every panel takes every codebook entry, so all share one shape
        n_g = len(self.phases.entries[0])
        if any(len(entry) != n_g for entry in self.phases.entries):
            raise ValueError("phase codebook entries differ in length")
        shapes = self.geometry.ris_shapes
        for g, (n_h, n_v) in enumerate(shapes):
            if (n_h, n_v) != shapes[0]:
                raise ValueError(f"RIS panel {g} is {n_h}x{n_v}, panel 0 is "
                                 f"{shapes[0][0]}x{shapes[0][1]}")
            if n_h * n_v != n_g:
                raise ValueError(f"RIS panel {g} has {n_h * n_v} elements, the phase "
                                 f"codebook's entries have {n_g}")
        # (n_h, n_v) of every panel; without panels, any shape of n_g elements
        self._panel = shapes[0] if shapes else (n_g, 1)
        self.dark = compute_dark_areas(self.grid)
        self.ris_shadow = [compute_dark_areas(self.grid, source=cell)
                           for cell in self.grid.ris_cells]
        self.ap_ris_blocked = [segment_blocked(self.grid, self.grid.ap_cell, cell)
                               for cell in self.grid.ris_cells]
        n_ris, n_rays = self.geometry.n_ris, self.cfg.n_rays
        n_links = 1 + 2 * n_ris
        # links leaving the AP (direct, AP->RIS g) and reaching the UE
        # (direct, RIS g->UE); chain m blocks link _to_ue[m]
        self._from_ap = np.array([0, *range(1, n_links, 2)])
        self._to_ue = np.array([0, *range(2, n_links, 2)])
        # links 1.. whose RIS-side angle is the arrival (AP->RIS g), by row
        self._incident = (np.arange(2 * n_ris) % 2 == 0)[:, None]
        self._beams_conj = [steering_vector_ula(angle, self.geometry.n_ap).conj()
                            for angle in self.beams.angles]
        self._weights = np.exp(1j * np.array(self.phases.entries, dtype=float))
        # core of every slot before its RIS blocks: the direct block's
        # identity; and the flat core index of each RIS block entry (g, l, m)
        r = n_rays * (1 + n_ris)
        self._core = np.zeros((r, r), dtype=complex)
        self._core[:n_rays, :n_rays] = np.eye(n_rays)
        self._core.flags.writeable = False
        panels = np.arange(1, 1 + n_ris)
        self._ris_block_index = np.arange(r * r).reshape(
            1 + n_ris, n_rays, 1 + n_ris, n_rays)[panels, :, panels, :].ravel()
        self._cells: dict[tuple[int, int], CellGeometry] = {}

    @property
    def n_agents(self) -> int:
        return 1 + self.geometry.n_ris

    @property
    def head_sizes(self) -> tuple[int, ...]:
        return (len(self.beams),) + (len(self.phases),) * self.geometry.n_ris

    def bearing(self, from_cell, to_cell) -> float:
        fx, fy = self.grid.center(from_cell)
        tx, ty = self.grid.center(to_cell)
        return math.atan2(ty - fy, tx - fx)

    def distance(self, from_cell, to_cell) -> float:
        fx, fy = self.grid.center(from_cell)
        tx, ty = self.grid.center(to_cell)
        return max(math.hypot(tx - fx, ty - fy), 0.5 * self.grid.cell_size)

    def cell_geometry(self, user) -> CellGeometry:
        """The static LoS part of every link for a user in `user`, built on
        the cell's first request and kept."""
        key = (user[0], user[1])
        out = self._cells.get(key)
        if out is None:
            out = self._cells[key] = _cell_geometry(self, key)
        return out


@dataclass(frozen=True)
class CellGeometry:
    """What the channel of a user cell keeps from slot to slot: the LoS ray
    of every link, links numbered ap_ue, then (ap_ris, ris_ue) per RIS."""

    los_blocked: np.ndarray          # (n_links,) bool: dark cell, AP-RIS wall, RIS shadow
    los_amps: np.ndarray             # (n_links, 2) amplitude under the LoS, NLoS exponent
    ue_bearings: tuple[float, ...]   # room-frame bearings user -> AP, user -> RIS g
    tx_rows: np.ndarray              # (1 + G, N_a) AP rows of the direct, AP->RIS rays
    ris_rows: np.ndarray             # (G, 2, N_g) UPA rows of each RIS's incident, departing ray


def _cell_geometry(scn: Scenario, user: tuple[int, int]) -> CellGeometry:
    grid, cfg = scn.grid, scn.cfg
    ap = grid.ap_cell
    blocked = [scn.dark.at(user)]
    aod = [scn.bearing(ap, user)]
    ue_bearings = [scn.bearing(user, ap)]
    dist = [scn.distance(ap, user)]
    ris_az = []
    for g, ris in enumerate(grid.ris_cells):
        blocked += [scn.ap_ris_blocked[g], scn.ris_shadow[g].at(user)]
        aod.append(scn.bearing(ap, ris))
        ue_bearings.append(scn.bearing(user, ris))
        dist += [scn.distance(ap, ris), scn.distance(ris, user)]
        ris_az.append((scn.bearing(ris, ap), scn.bearing(ris, user)))
    ris_az = np.array(ris_az, dtype=float).reshape(-1, 2)
    nu = np.array([cfg.exponent_los, cfg.exponent_nlos])
    return CellGeometry(
        los_blocked=np.array(blocked),
        los_amps=np.sqrt(free_space_gain(np.array(dist)[:, None], cfg.carrier_freq, nu)),
        ue_bearings=tuple(ue_bearings),
        tx_rows=steering_vector_ula(np.array(aod), scn.geometry.n_ap),
        ris_rows=steering_vector_upa(ris_az, np.full(ris_az.shape, np.pi / 2), *scn._panel))


@dataclass
class EnvState:
    user_cell: tuple[int, int]
    orientation: float
    chain_blocked: np.ndarray        # bool, [ap_ue, ris0_ue, ris1_ue, ...]
    scatter_gains: np.ndarray        # complex, (n_links, L-1)
    scatter_aod: np.ndarray          # (n_links, L-1)
    scatter_aoa: np.ndarray
    scatter_elev: np.ndarray


def _draw_scatter(scn: Scenario, rng: np.random.Generator):
    """Scattered-ray gains, AoDs, AoAs and elevations, each (n_links, L-1).
    A draw of shape (2, ...) is two draws of shape (...) in a row, so the
    real and imaginary gain parts come from one call, and so do the AoDs
    and AoAs, which share their bounds."""
    shape = (1 + 2 * scn.geometry.n_ris, scn.cfg.n_rays - 1)  # ap_ue, (ap_ris, ris_ue) per g
    sigma = math.sqrt(scn.cfg.scatter_gain_var / 2.0)
    parts = rng.normal(scale=sigma, size=(2, *shape))
    aod, aoa = rng.uniform(-np.pi, np.pi, size=(2, *shape))
    elev = rng.uniform(np.pi / 2 - 0.5, np.pi / 2 + 0.5, size=shape)
    return parts[0] + 1j * parts[1], aod, aoa, elev


def initial_state(scn: Scenario, rng: np.random.Generator,
                  user_cell=None) -> EnvState:
    if user_cell is None:
        user_cell = scn.grid.sample_cell(rng)
    orientation = float(rng.uniform(-np.pi, np.pi))
    chains = np.zeros(1 + scn.geometry.n_ris, dtype=bool)
    gains, aod, aoa, elev = _draw_scatter(scn, rng)
    return EnvState(user_cell=user_cell, orientation=orientation,
                    chain_blocked=chains, scatter_gains=gains,
                    scatter_aod=aod, scatter_aoa=aoa, scatter_elev=elev)


def _wrap(angle: float) -> float:
    return math.atan2(math.sin(angle), math.cos(angle))


def build_channel(scn: Scenario, state: EnvState, actions: ActionProfile) -> CascadedChannel:
    """Assemble the end-to-end channel for the current state and actions.

    Links are numbered ap_ue, then (ap_ris, ris_ue) per RIS, as in the
    state's scatter arrays. Each has a LoS-capable ray (gain 1, elevation
    pi/2) and n_rays - 1 scattered rays that always take the NLoS exponent;
    rays leaving the AP are scaled by the beam-alignment factor
    |a(beam)^H a(aod)| / N_a. The result is factored over the rays: tx
    holds the AP steering rows of the direct and AP->RIS rays, rx the UE
    rows of the direct and RIS->UE rays, and the core their amplitudes and,
    per RIS, the phase-carrying ray core.

    The LoS rays' static part (blocked flags, amplitudes, AP and RIS rows)
    comes from the user cell's `CellGeometry`, and the beam vectors,
    reflection weights and core template from the scenario. Per slot this
    assembles the scattered rows, the UE rows (they turn with the
    orientation), the beam alignment of every AP row in one product, and
    the cores of all G panels in one batched product. Each step is
    elementwise or per panel, so the result equals a panel-by-panel
    assembly bit for bit.
    """
    if not 0 <= actions.ap_beam < len(scn.beams):
        raise IndexError(f"beam index {actions.ap_beam} outside codebook")
    if len(actions.ris_phases) != scn.geometry.n_ris:
        raise IndexError("one phase index per RIS required")
    for b in actions.ris_phases:
        if not 0 <= b < len(scn.phases):
            raise IndexError(f"phase index {b} outside codebook")

    geo, n_rays = scn.geometry, scn.cfg.n_rays
    cell = scn.cell_geometry(state.user_cell)
    from_ap, to_ue = scn._from_ap, scn._to_ue

    # (n_links, n_rays) ray amplitudes, LoS ray first; a chain blocks the
    # LoS ray of its link to the UE
    blocked = cell.los_blocked.copy()
    blocked[to_ue] |= state.chain_blocked
    amps = np.empty((len(blocked), n_rays), dtype=complex)
    amps[:, 0] = np.where(blocked, cell.los_amps[:, 1], cell.los_amps[:, 0])
    np.multiply(state.scatter_gains, cell.los_amps[:, 1:], out=amps[:, 1:])

    tx_rows = np.empty((len(from_ap), n_rays, geo.n_ap), dtype=complex)
    tx_rows[:, 0] = cell.tx_rows
    tx_rows[:, 1:] = steering_vector_ula(state.scatter_aod.take(from_ap, axis=0), geo.n_ap)
    tx_rows = tx_rows.reshape(-1, geo.n_ap)
    aoa = np.empty((len(to_ue), n_rays))
    aoa[:, 0] = [_wrap(b - state.orientation) for b in cell.ue_bearings]
    aoa[:, 1:] = state.scatter_aoa.take(to_ue, axis=0)
    rx_rows = steering_vector_ula(aoa.ravel(), geo.n_ue)
    align = np.abs(tx_rows @ scn._beams_conj[actions.ap_beam]) / geo.n_ap
    tx_amps = amps.take(from_ap, axis=0).ravel() * align
    rx_amps = amps.take(to_ue, axis=0)
    rx_amps[0] = 1.0  # the direct ray's amplitude sits on its tx side
    rx_amps = rx_amps.ravel()

    # (G, 2, n_rays, N_g) RIS-side rows of all panels: [:, 0] the incident
    # rays, arriving from the AP; [:, 1] the departing rays, towards the UE.
    # The RIS-side azimuth of link 1 + 2g is its AoA, of link 2 + 2g its AoD
    n_ris, n_sc = geo.n_ris, n_rays - 1
    rows = np.empty((n_ris, 2, n_rays, scn._weights.shape[1]), dtype=complex)
    rows[:, :, 0] = cell.ris_rows
    rows[:, :, 1:] = steering_vector_upa(
        np.where(scn._incident, state.scatter_aoa[1:], state.scatter_aod[1:])
        .reshape(n_ris, 2, n_sc),
        state.scatter_elev[1:].reshape(n_ris, 2, n_sc), *scn._panel)
    cores = ris_core(rows[:, 0], scn._weights.take(actions.ris_phases, axis=0), rows[:, 1])
    core = scn._core.copy()
    core.put(scn._ris_block_index, cores)
    core *= np.multiply.outer(tx_amps, rx_amps)
    return CascadedChannel(tx=tx_rows.T, core=core, rx=rx_rows.T)


def env_step(scn: Scenario, state: EnvState, actions: ActionProfile,
             rng: np.random.Generator, next_cell=None):
    """Reward for (state, actions), then the transitioned state.

    Draw order: mobility (skipped when next_cell is given), orientation
    jitter, blockage chains, scattered-ray redraw.
    """
    reward = achievable_rate(build_channel(scn, state, actions), scn.budget)
    if next_cell is None:
        next_cell = mobility_step(scn.grid, state.user_cell, rng)
    orientation = _wrap(state.orientation
                        + rng.uniform(-scn.cfg.orientation_jitter,
                                      scn.cfg.orientation_jitter))
    chains = blockage_step(state.chain_blocked, scn.cfg.markov, rng)
    gains, aod, aoa, elev = _draw_scatter(scn, rng)
    new_state = EnvState(user_cell=tuple(next_cell), orientation=orientation,
                         chain_blocked=chains, scatter_gains=gains,
                         scatter_aod=aod, scatter_aoa=aoa, scatter_elev=elev)
    return reward, new_state


class Environment:
    """Single-owner stepping wrapper: holds state, rng, and optionally a
    replayed trajectory dataset instead of the random walk. A dataset
    replays as one stream of its cells, trajectory after trajectory,
    cycled: the first cell starts the user, each step moves it to the next
    cell, and reset starts the stream over."""

    def __init__(self, scenario: Scenario, seed: int = 0, trajectories=None):
        self.scenario = scenario
        self._cells = [tuple(cell) for traj in trajectories or () for cell in traj]
        self._seed = seed
        self.reset(seed)

    def reset(self, seed: int | None = None):
        if seed is not None:
            self._seed = seed
        self.rng = np.random.default_rng(self._seed)
        self._replay = itertools.cycle(self._cells)
        start = next(self._replay, None)   # an empty cycle: the random walk
        self.state = initial_state(self.scenario, self.rng, user_cell=start)
        return self.state

    def step(self, actions: ActionProfile):
        override = next(self._replay, None)
        reward, self.state = env_step(self.scenario, self.state, actions,
                                      self.rng, next_cell=override)
        return reward, self.state

    def rate_norm(self, reward: float) -> float:
        return reward / (self.scenario.budget.bandwidth * self.scenario.cfg.rate_norm_max)


# ---------------------------------------------------------------------------
# trajectory datasets


DATASET_HEADER = ["traj_id", "t", "x", "y"]


def generate_dataset(grid: OccupancyGrid, n_trajectories: int, length: int,
                     rng: np.random.Generator, path) -> None:
    """Random-walk trajectory CSV: header traj_id,t,x,y then one row per
    slot, coordinates in meters at cell centers. Deterministic per rng."""
    if n_trajectories < 1 or length < 1:
        raise ValueError("need n_trajectories >= 1 and length >= 1")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        for traj in range(n_trajectories):
            cell = grid.sample_cell(rng)
            for t in range(length):
                cx, cy = grid.center(cell)
                writer.writerow([traj, t, f"{cx:.6f}", f"{cy:.6f}"])
                if t + 1 < length:
                    cell = mobility_step(grid, cell, rng)


@dataclass
class TrajectoryDataset:
    cells: list                      # one (length, 2) int array per trajectory
    n_rows: int
    n_clamped: int

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)


def _nearest_free_cell(grid: OccupancyGrid, cell):
    if grid.in_bounds(cell) and not grid.is_obstacle(cell):
        return cell, False
    cx, cy = grid.center((min(max(cell[0], 0), grid.width - 1),
                          min(max(cell[1], 0), grid.height - 1)))
    best, best_d = None, math.inf
    for cand in grid.free_cells():
        px, py = grid.center(cand)
        d = (px - cx) ** 2 + (py - cy) ** 2
        if d < best_d:
            best, best_d = cand, d
    return best, True


def ingest_dataset(path, grid: OccupancyGrid) -> TrajectoryDataset:
    """Parse a trajectory CSV onto grid cells.

    Out-of-grid or on-obstacle coordinates are clamped to the nearest free
    cell and counted; malformed rows abort with their row number.
    """
    trajectories: dict[int, list] = {}
    n_rows = 0
    n_clamped = 0
    with open(path, newline="") as fh:
        reader = csv.reader(row for row in fh if not row.startswith("#"))
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file") from None
        if header != DATASET_HEADER:
            raise DatasetFormatError(f"{path}: bad header {header!r}")
        for i, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise DatasetFormatError(f"row {i}: expected 4 fields, got {len(row)}")
            try:
                traj_id = int(row[0])
                t = int(row[1])
                x = float(row[2])
                y = float(row[3])
            except ValueError as exc:
                raise DatasetFormatError(f"row {i}: {exc}") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DatasetFormatError(f"row {i}: coordinates must be finite, "
                                         f"got x={row[2]!r}, y={row[3]!r}")
            if traj_id < 0:
                raise DatasetFormatError(f"row {i}: negative traj_id")
            seq = trajectories.setdefault(traj_id, [])
            if t != len(seq):
                raise DatasetFormatError(
                    f"row {i}: slot {t} breaks contiguity for trajectory {traj_id}")
            # any cell off the grid clamps the same way, so bound the cell
            # coordinate first: a huge finite x / cell_size can overflow to inf
            raw = (int(math.floor(min(max(x / grid.cell_size, -1.0), grid.width))),
                   int(math.floor(min(max(y / grid.cell_size, -1.0), grid.height))))
            cell, clamped = _nearest_free_cell(grid, raw)
            n_clamped += clamped
            seq.append(cell)
            n_rows += 1
    if n_rows == 0:
        raise DatasetFormatError(f"{path}: no data rows")
    cells = [np.asarray(trajectories[k], dtype=int)
             for k in sorted(trajectories.keys())]
    return TrajectoryDataset(cells=cells, n_rows=n_rows, n_clamped=n_clamped)


# ---------------------------------------------------------------------------
# scenario geometry files


def save_scenario(grid: OccupancyGrid, path) -> None:
    lines = ["version 1", f"cell_size {grid.cell_size}"]
    lines.append(f"ap {grid.ap_cell[0]} {grid.ap_cell[1]}")
    for cell in grid.ris_cells:
        lines.append(f"ris {cell[0]} {cell[1]}")
    lines.append("presence rows")
    for y in range(grid.height):
        lines.append(" ".join(f"{grid.presence[y, x]:.9g}" for x in range(grid.width)))
    lines.append("mask")
    for y in range(grid.height):
        lines.append("".join("#" if grid.obstacles[y, x] else "." for x in range(grid.width)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_scenario(path) -> OccupancyGrid:
    """Key/value + ASCII-mask scenario parser; errors carry line numbers.

    Rejected with ScenarioFormatError: a cell_size that is not positive and
    finite, presence values that are negative or not finite, presence rows
    of unequal length, and AP or RIS cells off the grid or on an obstacle.
    """
    with open(path) as fh:
        raw = fh.read().splitlines()
    cell_size = None
    ap = None
    ris = []
    presence_mode = None
    presence_rows = []
    mask_rows = []
    section = None
    for lineno, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if section == "mask":
            if set(stripped) - {".", "#"}:
                raise ScenarioFormatError(f"line {lineno}: mask rows use only '.' and '#'")
            mask_rows.append(stripped)
            continue
        if section == "presence":
            if stripped in ("mask",):
                section = "mask"
                continue
            try:
                row = [float(v) for v in stripped.split()]
            except ValueError:
                raise ScenarioFormatError(f"line {lineno}: bad presence row") from None
            if not all(0.0 <= v < math.inf for v in row):
                raise ScenarioFormatError(
                    f"line {lineno}: presence values must be finite and nonnegative")
            if presence_rows and len(row) != len(presence_rows[0]):
                raise ScenarioFormatError(f"line {lineno}: presence row has {len(row)} "
                                          f"values, the first has {len(presence_rows[0])}")
            presence_rows.append(row)
            continue
        parts = stripped.split()
        key = parts[0]
        if key == "version":
            if parts[1:] != ["1"]:
                raise ScenarioFormatError(f"line {lineno}: unsupported version")
        elif key == "cell_size":
            try:
                cell_size = float(parts[1])
            except (IndexError, ValueError):
                raise ScenarioFormatError(f"line {lineno}: bad cell_size") from None
            if not 0.0 < cell_size < math.inf:
                raise ScenarioFormatError(
                    f"line {lineno}: cell_size must be positive and finite")
        elif key == "ap":
            try:
                ap = ((int(parts[1]), int(parts[2])), lineno)
            except (IndexError, ValueError):
                raise ScenarioFormatError(f"line {lineno}: bad ap cell") from None
        elif key == "ris":
            try:
                ris.append(((int(parts[1]), int(parts[2])), lineno))
            except (IndexError, ValueError):
                raise ScenarioFormatError(f"line {lineno}: bad ris cell") from None
        elif key == "presence":
            if parts[1:] == ["uniform"]:
                presence_mode = "uniform"
            elif parts[1:] == ["rows"]:
                presence_mode = "rows"
                section = "presence"
            else:
                raise ScenarioFormatError(f"line {lineno}: presence is 'uniform' or 'rows'")
        elif key == "mask":
            section = "mask"
        else:
            raise ScenarioFormatError(f"line {lineno}: unknown key {key!r}")
    if cell_size is None or ap is None or not mask_rows:
        raise ScenarioFormatError(f"{path}: needs cell_size, ap, and a mask")
    widths = {len(r) for r in mask_rows}
    if len(widths) != 1:
        raise ScenarioFormatError(f"{path}: mask rows have unequal widths")
    obstacles = np.array([[c == "#" for c in row] for row in mask_rows])
    for (x, y), lineno in (ap, *ris):
        if not (0 <= x < obstacles.shape[1] and 0 <= y < obstacles.shape[0]) \
                or obstacles[y, x]:
            raise ScenarioFormatError(
                f"line {lineno}: cell {(x, y)} must be a free in-bounds cell")
    if presence_mode in (None, "uniform"):
        presence = np.ones_like(obstacles, dtype=float)
    else:
        presence = np.asarray(presence_rows, dtype=float)
        if presence.shape != obstacles.shape:
            raise ScenarioFormatError(f"{path}: presence shape differs from mask")
    try:
        return OccupancyGrid(cell_size=cell_size, obstacles=obstacles, presence=presence,
                             ap_cell=ap[0], ris_cells=tuple(cell for cell, _ in ris))
    except ValueError as exc:  # presence mass on the free cells
        raise ScenarioFormatError(f"{path}: {exc}") from None


def desk_grid() -> OccupancyGrid:
    """7x5 one-meter office: central wall with gaps, AP mid-left wall, one
    RIS in each gap by the top and bottom walls. The presence distribution
    concentrates behind the wall (the region both RIS can serve), with a
    hotspot column away from the AP."""
    obstacles = np.zeros((5, 7), dtype=bool)
    obstacles[1:4, 3] = True
    presence = np.zeros((5, 7))
    presence[2, 5:] = 1.0         # dark-area hotspot behind the wall
    presence[1:4, 4:] = np.maximum(presence[1:4, 4:], 0.05)
    return OccupancyGrid(cell_size=1.0, obstacles=obstacles, presence=presence,
                         ap_cell=(0, 2), ris_cells=((3, 0), (3, 4)))


def robustness_grid() -> OccupancyGrid:
    """12x12 variant used for the added-obstacle robustness sweeps."""
    obstacles = np.zeros((12, 12), dtype=bool)
    obstacles[3:9, 6] = True
    presence = np.ones((12, 12))
    return OccupancyGrid(cell_size=1.0, obstacles=obstacles, presence=presence,
                         ap_cell=(0, 6), ris_cells=((6, 1), (6, 10)))


def add_random_obstacles(grid: OccupancyGrid, n_blocks: int,
                         rng: np.random.Generator, block: int = 3) -> OccupancyGrid:
    """Place n 3x3 obstacle blocks uniformly on free cells, keeping the AP,
    RIS, and at least one free cell intact."""
    obstacles = grid.obstacles.copy()
    keep = {grid.ap_cell, *grid.ris_cells}
    for _ in range(n_blocks):
        for _attempt in range(500):
            x = int(rng.integers(0, grid.width - block + 1))
            y = int(rng.integers(0, grid.height - block + 1))
            cells = {(x + i, y + j) for i in range(block) for j in range(block)}
            if cells & keep:
                continue
            if any(obstacles[cy, cx] for cx, cy in cells):
                continue  # footprint must land on free cells only
            trial = obstacles.copy()
            for cx, cy in cells:
                trial[cy, cx] = True
            if np.all(trial):
                continue
            obstacles = trial
            break
    presence = np.where(obstacles, 0.0, grid.presence)
    if presence.sum() <= 0:
        presence = np.where(obstacles, 0.0, 1.0)
    return OccupancyGrid(cell_size=grid.cell_size, obstacles=obstacles,
                         presence=presence, ap_cell=grid.ap_cell,
                         ris_cells=grid.ris_cells)
