"""Indoor POIPSG environment: occupancy grid with dark areas, random-walk
mobility, stochastic per-ray blockage, and the shared bitrate reward.

Grid convention: cell (x, y) with x the column and y the row; obstacle and
presence arrays are indexed [y, x]. Cell centers sit at ((x+0.5)s, (y+0.5)s)
meters for cell size s. All angles are room-frame bearings from atan2.

Every stochastic element is driven by an explicit numpy Generator, and the
draw order inside a step is fixed, so a seed pins the full episode stream.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

# The leg builders and cascaded_channel are no longer called here but stay
# bound in this namespace, where perfbench's tracer looks them up.
from .channel import (  # noqa: F401
    ArrayGeometry,
    BeamCodebook,
    CascadedChannel,
    LinkBudget,
    PhaseCodebook,
    achievable_rate,
    cascaded_channel,
    channel_ap_to_ris,
    channel_ap_to_ue,
    channel_ris_to_ue,
    free_space_gain,
    ris_core,
    steering_vector_ula,
    steering_vector_upa,
)


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

    def __post_init__(self):
        self.obstacles = np.asarray(self.obstacles, dtype=bool)
        pres = np.asarray(self.presence, dtype=float).copy()
        if pres.shape != self.obstacles.shape:
            raise ValueError("presence and obstacle shapes differ")
        if np.any(pres < 0):
            raise ValueError("presence probabilities must be nonnegative")
        pres[self.obstacles] = 0.0
        total = pres.sum()
        if total <= 0:
            raise ValueError("presence mass must be positive on free cells")
        self.presence = pres / total
        for cell in (self.ap_cell, *self.ris_cells):
            if not self.in_bounds(cell) or self.is_obstacle(cell):
                raise ValueError(f"node cell {cell} must be a free in-bounds cell")

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
    presence probability of each reachable candidate."""
    x, y = position
    candidates = []
    weights = []
    for ox, oy in _NEIGHBORHOOD:
        cell = (x + ox, y + oy)
        if grid.in_bounds(cell) and not grid.is_obstacle(cell):
            candidates.append(cell)
            weights.append(grid.presence[cell[1], cell[0]])
    total = float(sum(weights))
    if total <= 0.0:
        return (x, y)
    idx = rng.choice(len(candidates), p=np.asarray(weights) / total)
    return candidates[int(idx)]


# ---------------------------------------------------------------------------
# blockage


@dataclass(frozen=True)
class MarkovBlockage:
    p_block: float = 0.1
    p_unblock: float = 0.4

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
# actions, histories, episodes


@dataclass(frozen=True)
class ActionProfile:
    ap_beam: int
    ris_phases: tuple[int, ...]

    def as_tuple(self) -> tuple[int, ...]:
        return (self.ap_beam, *self.ris_phases)


class HistoryBuffer:
    """Sliding window of the last H (own action, normalized rate) pairs."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries = deque(maxlen=capacity)

    def push(self, action: int, rate_norm: float) -> None:
        self._entries.append((int(action), float(rate_norm)))

    def entries(self) -> list[tuple[int, float]]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def encode(self, n_actions: int) -> np.ndarray:
        """(H, n_actions + 1) features: one-hot of the action then the rate.
        Missing leading slots encode as all-zero rows."""
        out = np.zeros((self.capacity, n_actions + 1))
        pad = self.capacity - len(self._entries)
        for k, (action, rate) in enumerate(self._entries):
            out[pad + k, action] = 1.0
            out[pad + k, n_actions] = rate
        return out


def encode_global(buffers: list[HistoryBuffer], head_sizes) -> np.ndarray:
    """Joint features for the centralized controller: concatenation of every
    agent's one-hot action plus the shared normalized rate per slot."""
    capacity = buffers[0].capacity
    width = sum(head_sizes) + 1
    out = np.zeros((capacity, width))
    for m, (buf, n_actions) in enumerate(zip(buffers, head_sizes)):
        offset = sum(head_sizes[:m])
        pad = capacity - len(buf)
        for k, (action, rate) in enumerate(buf.entries()):
            out[pad + k, offset + action] = 1.0
            out[pad + k, width - 1] = rate
    return out


@dataclass
class EpisodeRecord:
    actions: list
    rates: list                      # bits/s, as observed
    rates_norm: list                 # rate / (bandwidth * rate_norm_max)
    log_probs: list                  # per slot, one entry per agent

    def __post_init__(self):
        if not (len(self.actions) == len(self.rates) == len(self.rates_norm)
                == len(self.log_probs)):
            raise ValueError("episode fields must share one length")

    @property
    def horizon(self) -> int:
        return len(self.rates)

    @property
    def episodic_return(self) -> float:
        return float(sum(self.rates))

    @property
    def episodic_return_norm(self) -> float:
        return float(sum(self.rates_norm))


# ---------------------------------------------------------------------------
# scenario bundle and environment state


@dataclass(frozen=True)
class EnvConfig:
    n_rays: int = 3
    scatter_gain_var: float = 0.1
    exponent_los: float = 2.0
    exponent_nlos: float = 4.0
    carrier_freq: float = 73e9
    markov: MarkovBlockage = MarkovBlockage()
    orientation_jitter: float = np.pi / 12
    rate_norm_max: float = 20.0      # history inputs are r/(w * this)

    def __post_init__(self):
        if self.n_rays < 1:
            raise ValueError("need at least one ray per link")
        if self.scatter_gain_var < 0:
            raise ValueError("scatter gain variance must be >= 0")


@dataclass
class Scenario:
    """Static world description: geometry, budget, codebooks, shadow maps."""

    grid: OccupancyGrid
    geometry: ArrayGeometry
    budget: LinkBudget
    beams: BeamCodebook
    phases: PhaseCodebook
    cfg: EnvConfig = field(default_factory=EnvConfig)

    def __post_init__(self):
        if self.geometry.n_ris != len(self.grid.ris_cells):
            raise ValueError("geometry and grid disagree on the RIS count")
        if len(self.phases) < 2:
            raise ValueError("phase codebook must offer at least 2 actions")
        self.dark = compute_dark_areas(self.grid)
        self.ris_shadow = [compute_dark_areas(self.grid, source=cell)
                           for cell in self.grid.ris_cells]
        self.ap_ris_blocked = [segment_blocked(self.grid, self.grid.ap_cell, cell)
                               for cell in self.grid.ris_cells]

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
    n_links = 1 + 2 * scn.geometry.n_ris  # ap_ue, then (ap_ris, ris_ue) per g
    n_sc = scn.cfg.n_rays - 1
    sigma = math.sqrt(scn.cfg.scatter_gain_var / 2.0)
    gains = (rng.normal(scale=sigma, size=(n_links, n_sc))
             + 1j * rng.normal(scale=sigma, size=(n_links, n_sc))) \
        if n_sc else np.zeros((n_links, 0), dtype=complex)
    aod = rng.uniform(-np.pi, np.pi, size=(n_links, n_sc))
    aoa = rng.uniform(-np.pi, np.pi, size=(n_links, n_sc))
    elev = rng.uniform(np.pi / 2 - 0.5, np.pi / 2 + 0.5, size=(n_links, n_sc))
    return gains, aod, aoa, elev


def initial_state(scn: Scenario, rng: np.random.Generator,
                  user_cell=None) -> EnvState:
    if user_cell is None:
        flat = scn.grid.presence.ravel()
        idx = int(rng.choice(flat.size, p=flat))
        user_cell = (idx % scn.grid.width, idx // scn.grid.width)
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
    """
    if not 0 <= actions.ap_beam < len(scn.beams):
        raise IndexError(f"beam index {actions.ap_beam} outside codebook")
    if len(actions.ris_phases) != scn.geometry.n_ris:
        raise IndexError("one phase index per RIS required")
    for b in actions.ris_phases:
        if not 0 <= b < len(scn.phases):
            raise IndexError(f"phase index {b} outside codebook")

    grid, geo, cfg = scn.grid, scn.geometry, scn.cfg
    ap, user = grid.ap_cell, state.user_cell
    n_links, n_rays = 1 + 2 * geo.n_ris, cfg.n_rays

    # per link: LoS blockage, LoS departure/arrival bearings, distance
    los_blocked = [scn.dark.at(user) or bool(state.chain_blocked[0])]
    los_aod = [scn.bearing(ap, user)]
    los_aoa = [_wrap(scn.bearing(user, ap) - state.orientation)]
    dist = [scn.distance(ap, user)]
    for g, ris in enumerate(grid.ris_cells):
        los_blocked += [scn.ap_ris_blocked[g],
                        scn.ris_shadow[g].at(user) or bool(state.chain_blocked[1 + g])]
        los_aod += [scn.bearing(ap, ris), scn.bearing(ris, user)]
        los_aoa += [scn.bearing(ris, ap), _wrap(scn.bearing(user, ris) - state.orientation)]
        dist += [scn.distance(ap, ris), scn.distance(ris, user)]

    # (n_links, n_rays) ray arrays, LoS ray first
    blocked = np.ones((n_links, n_rays), dtype=bool)
    blocked[:, 0] = los_blocked
    aod = np.column_stack([los_aod, state.scatter_aod])
    aoa = np.column_stack([los_aoa, state.scatter_aoa])
    elev = np.column_stack([np.full(n_links, np.pi / 2), state.scatter_elev])
    gains = np.column_stack([np.ones(n_links), state.scatter_gains])
    nu = np.where(blocked, cfg.exponent_nlos, cfg.exponent_los)
    amps = gains * np.sqrt(free_space_gain(np.array(dist)[:, None], cfg.carrier_freq, nu))

    from_ap, to_ue = [0, *range(1, n_links, 2)], [0, *range(2, n_links, 2)]
    tx_rows = steering_vector_ula(aod[from_ap].ravel(), geo.n_ap)
    rx_rows = steering_vector_ula(aoa[to_ue].ravel(), geo.n_ue)
    beam = steering_vector_ula(scn.beams.angles[actions.ap_beam], geo.n_ap)
    tx_amps = amps[from_ap].ravel() * (np.abs(tx_rows @ beam.conj()) / geo.n_ap)
    rx_amps = np.concatenate([np.ones(n_rays), amps[to_ue[1:]].ravel()])

    core = np.zeros((tx_rows.shape[0],) * 2, dtype=complex)
    core[:n_rays, :n_rays] = np.eye(n_rays)
    for g, b in enumerate(actions.ris_phases):
        n_h, n_v = geo.ris_shapes[g]
        ris_in, ris_out = 1 + 2 * g, 2 + 2 * g
        rows = steering_vector_upa(np.concatenate([aoa[ris_in], aod[ris_out]]),
                                   np.concatenate([elev[ris_in], elev[ris_out]]), n_h, n_v)
        blk = slice((1 + g) * n_rays, (2 + g) * n_rays)
        core[blk, blk] = ris_core(rows[:n_rays], np.asarray(scn.phases.entries[b]),
                                  rows[n_rays:])
    core *= tx_amps[:, None] * rx_amps[None, :]
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
    replayed trajectory table instead of the random walk."""

    def __init__(self, scenario: Scenario, seed: int = 0, trajectories=None):
        self.scenario = scenario
        self.trajectories = trajectories
        self._seed = seed
        self.reset(seed)

    def reset(self, seed: int | None = None):
        if seed is not None:
            self._seed = seed
        self.rng = np.random.default_rng(self._seed)
        self._traj_idx = 0
        self._traj_pos = 0
        start = None
        if self.trajectories:
            start = tuple(self.trajectories[0][0])
            self._traj_pos = 1
        self.state = initial_state(self.scenario, self.rng, user_cell=start)
        return self.state

    def _next_replay_cell(self):
        traj = self.trajectories[self._traj_idx]
        if self._traj_pos >= len(traj):
            self._traj_idx = (self._traj_idx + 1) % len(self.trajectories)
            self._traj_pos = 0
            traj = self.trajectories[self._traj_idx]
        cell = tuple(traj[self._traj_pos])
        self._traj_pos += 1
        return cell

    def step(self, actions: ActionProfile):
        override = self._next_replay_cell() if self.trajectories else None
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
    flat = grid.presence.ravel()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        for traj in range(n_trajectories):
            idx = int(rng.choice(flat.size, p=flat))
            cell = (idx % grid.width, idx // grid.width)
            for t in range(length):
                cx, cy = grid.center(cell)
                writer.writerow([traj, t, f"{cx:.6f}", f"{cy:.6f}"])
                if t + 1 < length:
                    cell = mobility_step(grid, cell, rng)


@dataclass
class TrajectoryTable:
    cells: list                      # one (length, 2) int array per trajectory
    n_rows: int
    n_clamped: int

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, k):
        return self.cells[k]


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


def ingest_dataset(path, grid: OccupancyGrid) -> TrajectoryTable:
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
            if traj_id < 0:
                raise DatasetFormatError(f"row {i}: negative traj_id")
            seq = trajectories.setdefault(traj_id, [])
            if t != len(seq):
                raise DatasetFormatError(
                    f"row {i}: slot {t} breaks contiguity for trajectory {traj_id}")
            raw = (int(math.floor(x / grid.cell_size)),
                   int(math.floor(y / grid.cell_size)))
            cell, clamped = _nearest_free_cell(grid, raw)
            n_clamped += clamped
            seq.append(cell)
            n_rows += 1
    if n_rows == 0:
        raise DatasetFormatError(f"{path}: no data rows")
    cells = [np.asarray(trajectories[k], dtype=int)
             for k in sorted(trajectories.keys())]
    return TrajectoryTable(cells=cells, n_rows=n_rows, n_clamped=n_clamped)


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
    """Key/value + ASCII-mask scenario parser; errors carry line numbers."""
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
                presence_rows.append([float(v) for v in stripped.split()])
            except ValueError:
                raise ScenarioFormatError(f"line {lineno}: bad presence row") from None
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
        elif key == "ap":
            try:
                ap = (int(parts[1]), int(parts[2]))
            except (IndexError, ValueError):
                raise ScenarioFormatError(f"line {lineno}: bad ap cell") from None
        elif key == "ris":
            try:
                ris.append((int(parts[1]), int(parts[2])))
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
    if presence_mode in (None, "uniform"):
        presence = np.ones_like(obstacles, dtype=float)
    else:
        presence = np.asarray(presence_rows, dtype=float)
        if presence.shape != obstacles.shape:
            raise ScenarioFormatError(f"{path}: presence shape differs from mask")
    return OccupancyGrid(cell_size=cell_size, obstacles=obstacles,
                         presence=presence, ap_cell=ap, ris_cells=tuple(ris))


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
