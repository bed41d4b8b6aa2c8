"""Environment tests: dark-area geometry, mobility law, blockage chains,
reward consistency against the channel engine, and dataset round-trips."""

import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rislab import cli
from rislab.channel import (
    C_LIGHT,
    ArrayGeometry,
    LinkBudget,
    achievable_rate,
    build_beam_codebook,
    build_phase_codebook,
    default_phase_directions,
)
from rislab.environment import (
    ActionProfile,
    DatasetFormatError,
    Environment,
    HistoryBuffer,
    MarkovBlockage,
    OccupancyGrid,
    Scenario,
    ScenarioFormatError,
    add_random_obstacles,
    blockage_step,
    build_channel,
    compute_dark_areas,
    desk_grid,
    env_step,
    generate_dataset,
    ingest_dataset,
    initial_state,
    load_scenario,
    mobility_step,
    robustness_grid,
    save_scenario,
    segment_blocked,
)
from rislab.training import CentralizedController, DistributedController, EpisodeRecord

from helpers import desk_controller, env_config


def small_scenario(n_rays=2, scatter_var=0.05, **env):
    grid = desk_grid()
    geo = ArrayGeometry(n_ap=4, n_ue=2, ris_shapes=((2, 2), (2, 2)))
    budget = LinkBudget(tx_power=1.0, bandwidth=1.0, noise_density=1e-16)
    cfg = env_config(n_rays=n_rays, scatter_gain_var=scatter_var, **env)
    return Scenario(grid=grid, geometry=geo, budget=budget,
                    beams=build_beam_codebook(4),
                    phases=build_phase_codebook((2, 2), np.pi / 5, (-np.pi / 2, np.pi / 2),
                                                default_phase_directions(5)),
                    cfg=cfg)


# ---------------------------------------------------------------------------
# dark areas


def test_no_obstacles_no_dark_cells():
    grid = OccupancyGrid(cell_size=1.0, obstacles=np.zeros((4, 6), dtype=bool),
                         presence=np.ones((4, 6)), ap_cell=(0, 0), ris_cells=())
    dark = compute_dark_areas(grid)
    assert not dark.dark.any()


def test_ap_cell_never_dark():
    grid = desk_grid()
    dark = compute_dark_areas(grid)
    assert not dark.at(grid.ap_cell)


def test_wall_shadows_cells_behind_it():
    # single wall column: every cell strictly behind it (same row as the AP)
    # is dark, cells in front are lit
    obstacles = np.zeros((3, 7), dtype=bool)
    obstacles[1, 3] = True
    grid = OccupancyGrid(cell_size=1.0, obstacles=obstacles,
                         presence=np.ones((3, 7)), ap_cell=(0, 1), ris_cells=())
    dark = compute_dark_areas(grid)
    assert all(dark.at((x, 1)) for x in range(4, 7))
    assert not any(dark.at((x, 1)) for x in range(3))


def test_dark_map_matches_sampling_oracle():
    # dense point sampling along each segment, an independent intersection test
    grid = desk_grid()
    dark = compute_dark_areas(grid)
    apx, apy = grid.center(grid.ap_cell)
    for y in range(grid.height):
        for x in range(grid.width):
            cx, cy = grid.center((x, y))
            hit = False
            for t in np.linspace(0.0, 1.0, 4001):
                px, py = apx + t * (cx - apx), apy + t * (cy - apy)
                cell = (int(px // 1.0), int(py // 1.0))
                if cell != grid.ap_cell and grid.in_bounds(cell) and grid.is_obstacle(cell):
                    hit = True
                    break
            assert dark.at((x, y)) == hit, f"cell {(x, y)}"


def test_segment_blocked_symmetric_cases():
    grid = desk_grid()
    assert not segment_blocked(grid, (0, 2), (0, 2))
    assert segment_blocked(grid, (0, 2), (6, 2))      # straight through the wall
    assert not segment_blocked(grid, (0, 2), (2, 2))  # in front of the wall


# ---------------------------------------------------------------------------
# mobility


def test_mobility_uniform_interior_cell():
    grid = OccupancyGrid(cell_size=1.0, obstacles=np.zeros((5, 5), dtype=bool),
                         presence=np.ones((5, 5)), ap_cell=(0, 0), ris_cells=())
    rng = np.random.default_rng(0)
    counts = {}
    n = 90_000
    for _ in range(n):
        cell = mobility_step(grid, (2, 2), rng)
        counts[cell] = counts.get(cell, 0) + 1
    assert len(counts) == 9
    for c, k in counts.items():
        assert abs(k / n - 1 / 9) < 0.01


def test_mobility_surrounded_by_obstacles_stays():
    obstacles = np.ones((3, 3), dtype=bool)
    obstacles[1, 1] = False
    grid = OccupancyGrid(cell_size=1.0, obstacles=obstacles,
                         presence=np.ones((3, 3)), ap_cell=(1, 1), ris_cells=())
    rng = np.random.default_rng(1)
    # center cell has presence mass, so stay is drawn with probability 1
    assert all(mobility_step(grid, (1, 1), rng) == (1, 1) for _ in range(50))


def test_mobility_skewed_weights_match_frequencies():
    presence = np.ones((3, 3))
    presence[0, :] = 5.0  # top row five times more likely
    grid = OccupancyGrid(cell_size=1.0, obstacles=np.zeros((3, 3), dtype=bool),
                         presence=presence, ap_cell=(0, 0), ris_cells=())
    rng = np.random.default_rng(2)
    n = 100_000
    counts = np.zeros((3, 3))
    for _ in range(n):
        x, y = mobility_step(grid, (1, 1), rng)
        counts[y, x] += 1
    weights = grid.presence / grid.presence.sum()
    np.testing.assert_allclose(counts / n, weights, atol=0.01)


def _choice_mobility_step(grid, position, rng):
    """mobility_step's law drawn with Generator.choice: the reference the
    memoized per-cell CDFs must reproduce draw for draw."""
    x, y = position
    candidates, weights = [], []
    for ox, oy in [(-1, -1), (0, -1), (1, -1), (-1, 0), (0, 0), (1, 0),
                   (-1, 1), (0, 1), (1, 1)]:
        cell = (x + ox, y + oy)
        if grid.in_bounds(cell) and not grid.is_obstacle(cell):
            candidates.append(cell)
            weights.append(grid.presence[cell[1], cell[0]])
    total = float(sum(weights))
    if total <= 0.0:
        return (x, y)
    return candidates[int(rng.choice(len(candidates), p=np.asarray(weights) / total))]


def test_mobility_draws_equal_generator_choice():
    # same cells, and the same random numbers consumed, on twin generators
    for grid in (desk_grid(), robustness_grid()):
        for cell in grid.free_cells():
            rng, twin = np.random.default_rng(cell), np.random.default_rng(cell)
            for _ in range(20):
                assert mobility_step(grid, cell, rng) == _choice_mobility_step(grid, cell, twin)
            assert rng.bit_generator.state == twin.bit_generator.state
    # no presence mass on the cell or its neighbours: it stays, drawing nothing
    grid = desk_grid()
    assert grid.presence[:2, :2].sum() == 0.0
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    assert mobility_step(grid, (0, 0), rng) == (0, 0)
    assert rng.bit_generator.state == before


def test_initial_cell_draw_equals_generator_choice():
    robust = replace(small_scenario(), grid=robustness_grid())
    for scn in (small_scenario(), robust):
        flat = scn.grid.presence.ravel()
        for seed in range(60):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            state = initial_state(scn, rng)
            idx = int(twin.choice(flat.size, p=flat))
            cell = (idx % scn.grid.width, idx // scn.grid.width)
            initial_state(scn, twin, user_cell=cell)
            assert state.user_cell == cell
            assert rng.bit_generator.state == twin.bit_generator.state


# ---------------------------------------------------------------------------
# blockage


def test_blockage_chain_degenerate_probabilities():
    rng = np.random.default_rng(3)
    never = MarkovBlockage(p_block=0.0, p_unblock=1.0)
    flags = np.zeros(4, dtype=bool)
    for _ in range(20):
        flags = blockage_step(flags, never, rng)
        assert not flags.any()
    absorb = MarkovBlockage(p_block=1.0, p_unblock=0.0)
    flags = np.zeros(4, dtype=bool)
    flags = blockage_step(flags, absorb, rng)
    assert flags.all()
    flags = blockage_step(flags, absorb, rng)
    assert flags.all()


def test_blockage_chain_stationary_fraction():
    # stationary blocked mass p/(p+q) = 0.2/0.7, checked at 1e6 steps
    markov = MarkovBlockage(p_block=0.2, p_unblock=0.5)
    rng = np.random.default_rng(4)
    u = rng.random(1_000_000)
    blocked = False
    count = 0
    for val in u:
        blocked = (val >= markov.p_unblock) if blocked else (val < markov.p_block)
        count += blocked
    frac = count / u.size
    assert abs(frac - 0.2 / 0.7) < 0.01 * (0.2 / 0.7) + 0.005


# ---------------------------------------------------------------------------
# env_step and rewards


def test_reward_nonnegative_and_identical_for_agents():
    scn = small_scenario()
    env = Environment(scn, seed=7)
    buffers = [HistoryBuffer(8) for _ in range(scn.n_agents)]
    rng = np.random.default_rng(8)
    for _ in range(30):
        a = ActionProfile(ap_beam=int(rng.integers(0, 4)),
                          ris_phases=tuple(rng.integers(0, 5, size=2)))
        reward, _ = env.step(a)
        assert reward >= 0.0
        norm = env.rate_norm(reward)
        for m, buf in enumerate(buffers):
            buf.push(a.as_tuple()[m], norm)
        stored = {buf.rates[-1] for buf in buffers}
        assert len(stored) == 1  # bitwise-identical observation


def test_env_step_rejects_bad_indices():
    scn = small_scenario()
    state = initial_state(scn, np.random.default_rng(0))
    with pytest.raises(IndexError):
        env_step(scn, state, ActionProfile(9, (0, 0)), np.random.default_rng(1))
    with pytest.raises(IndexError):
        env_step(scn, state, ActionProfile(0, (0, 7)), np.random.default_rng(1))
    with pytest.raises(IndexError):
        env_step(scn, state, ActionProfile(0, (0,)), np.random.default_rng(1))


def test_zero_gain_scatter_adds_no_reward():
    # scattered rays of zero gain carry nothing: the reward equals that of
    # the same state with the LoS rays alone
    scn = small_scenario(n_rays=3)
    state = initial_state(scn, np.random.default_rng(5))
    state.scatter_gains[:] = 0.0
    los_only = replace(state, scatter_gains=state.scatter_gains[:, :0],
                       scatter_aod=state.scatter_aod[:, :0],
                       scatter_aoa=state.scatter_aoa[:, :0],
                       scatter_elev=state.scatter_elev[:, :0])
    actions = ActionProfile(1, (2, 3))
    want = achievable_rate(build_channel(small_scenario(n_rays=1), los_only, actions),
                           scn.budget)
    got = achievable_rate(build_channel(scn, state, actions), scn.budget)
    assert want > 0.0
    assert got == pytest.approx(want, rel=1e-12)


def test_frozen_state_reward_matches_channel_module():
    # cross-module oracle: env reward equals a direct channel-engine
    # computation for the same frozen state and actions
    scn = small_scenario()
    rng = np.random.default_rng(6)
    state = initial_state(scn, rng)
    actions = ActionProfile(ap_beam=2, ris_phases=(1, 3))
    want = achievable_rate(build_channel(scn, state, actions), scn.budget)
    got, _ = env_step(scn, state, actions, np.random.default_rng(0))
    assert got == want


# ---------------------------------------------------------------------------
# end-to-end channel assembly against a ray-by-ray oracle


def _ula_oracle(angle, n):
    phases = [((n - 1) / 2 - k) * math.pi * math.cos(angle) for k in range(n)]
    return np.array([complex(math.cos(p), math.sin(p)) for p in phases])


def _upa_oracle(azimuth, elevation, n_h, n_v):
    out = np.zeros(n_h * n_v, dtype=complex)
    for kv in range(n_v):
        for kh in range(n_h):
            p = math.pi * (((n_v - 1) / 2 - kv) * math.cos(elevation)
                           + ((n_h - 1) / 2 - kh) * math.cos(azimuth) * math.sin(elevation))
            out[kv * n_h + kh] = complex(math.cos(p), math.sin(p))
    return out


def channel_oracle(scn, state, actions):
    """End-to-end N_a x N_u matrix of the ray model, summed ray by ray and,
    through each RIS, element by element. Every link has a LoS-capable ray
    (gain 1, elevation pi/2) and n_rays - 1 scattered NLoS rays; rays leaving
    the AP are scaled by |a(beam)^H a(aod)| / N_a."""
    grid, geo, cfg = scn.grid, scn.geometry, scn.cfg
    user, size = state.user_cell, grid.cell_size
    beam = _ula_oracle(scn.beams.angles[actions.ap_beam], geo.n_ap)

    def center(cell):
        return (cell[0] + 0.5) * size, (cell[1] + 0.5) * size

    def bearing(a, b):
        (ax, ay), (bx, by) = center(a), center(b)
        return math.atan2(by - ay, bx - ax)

    def distance(a, b):
        (ax, ay), (bx, by) = center(a), center(b)
        return max(math.hypot(bx - ax, by - ay), 0.5 * size)

    def wrap(angle):
        return math.atan2(math.sin(angle), math.cos(angle))

    def rays(link, los_blocked, los_aod, los_aoa):
        out = [(los_blocked, 1.0, los_aod, los_aoa, math.pi / 2)]
        for ell in range(cfg.n_rays - 1):
            out.append((True, complex(state.scatter_gains[link, ell]),
                        float(state.scatter_aod[link, ell]),
                        float(state.scatter_aoa[link, ell]),
                        float(state.scatter_elev[link, ell])))
        return out

    def amplitude(blocked, gain, dist, aod, from_ap):
        nu = cfg.exponent_nlos if blocked else cfg.exponent_los
        rho = (C_LIGHT / (2 * math.pi * cfg.carrier_freq)) ** 2 * dist ** (-nu)
        amp = gain * math.sqrt(rho)
        if from_ap:
            tx = _ula_oracle(aod, geo.n_ap)
            amp *= abs(sum(beam[k].conjugate() * tx[k] for k in range(geo.n_ap))) / geo.n_ap
        return amp

    ap = grid.ap_cell
    h = np.zeros((geo.n_ap, geo.n_ue), dtype=complex)
    blocked = scn.dark.at(user) or bool(state.chain_blocked[0])
    d = distance(ap, user)
    for b, gain, aod, aoa, _ in rays(0, blocked, bearing(ap, user),
                                     wrap(bearing(user, ap) - state.orientation)):
        h += amplitude(b, gain, d, aod, True) * np.outer(
            _ula_oracle(aod, geo.n_ap), _ula_oracle(aoa, geo.n_ue).conj())
    for g, ris in enumerate(grid.ris_cells):
        n_h, n_v = geo.ris_shapes[g]
        h_in = np.zeros((geo.n_ap, n_h * n_v), dtype=complex)
        d = distance(ap, ris)
        for b, gain, aod, aoa, el in rays(1 + 2 * g, scn.ap_ris_blocked[g],
                                          bearing(ap, ris), bearing(ris, ap)):
            h_in += amplitude(b, gain, d, aod, True) * np.outer(
                _ula_oracle(aod, geo.n_ap), _upa_oracle(aoa, el, n_h, n_v).conj())
        h_out = np.zeros((n_h * n_v, geo.n_ue), dtype=complex)
        blocked = scn.ris_shadow[g].at(user) or bool(state.chain_blocked[1 + g])
        d = distance(ris, user)
        for b, gain, aod, aoa, el in rays(2 + 2 * g, blocked, bearing(ris, user),
                                          wrap(bearing(user, ris) - state.orientation)):
            h_out += amplitude(b, gain, d, aod, False) * np.outer(
                _upa_oracle(aod, el, n_h, n_v), _ula_oracle(aoa, geo.n_ue).conj())
        phases = scn.phases.entries[actions.ris_phases[g]]
        for n in range(n_h * n_v):
            h += complex(math.cos(phases[n]), math.sin(phases[n])) * np.outer(h_in[:, n],
                                                                             h_out[n, :])
    return h


def _paper_array_scenario():
    geo = ArrayGeometry(n_ap=128, n_ue=64, ris_shapes=((8, 8), (8, 8)))
    return Scenario(grid=desk_grid(), geometry=geo,
                    budget=LinkBudget(tx_power=1.0, bandwidth=1.0, noise_density=1e-16),
                    beams=build_beam_codebook(8),
                    phases=build_phase_codebook((8, 8), np.pi / 5, (-np.pi / 2, np.pi / 2),
                                                default_phase_directions(11)),
                    cfg=env_config(n_rays=3))


@pytest.mark.parametrize("make_scenario, every_cell", [
    (lambda: small_scenario(n_rays=1), False),
    (lambda: small_scenario(n_rays=2), False),
    (lambda: small_scenario(n_rays=3), False),
    (lambda: cli.build_scenario(cli.profile_config("desk")), True),
    (_paper_array_scenario, True),
], ids=["small-1ray", "small-2ray", "small-3ray", "desk", "128x64-8x8"])
def test_build_channel_matches_ray_oracle(make_scenario, every_cell):
    scn = make_scenario()
    # lit; dark only; shadowed from RIS 0 only; from RIS 1 only; dark and
    # shadowed from both; at the AP cell; at a RIS cell
    cells = [(0, 1), (5, 2), (1, 3), (1, 1), (4, 2), (0, 2), (3, 4)]
    assert not scn.dark.at((0, 1)) and scn.dark.at((5, 2))
    assert scn.ris_shadow[0].at((1, 3)) and not scn.ris_shadow[1].at((1, 3))
    assert scn.ris_shadow[1].at((1, 1)) and not scn.ris_shadow[0].at((1, 1))
    if every_cell:  # each cell's static geometry is built once, then reused
        cells = scn.grid.free_cells()
    rng = np.random.default_rng(12)
    for cell in cells:
        for chains in ([0, 0, 0], [1, 0, 1], [0, 1, 0], [1, 1, 1]):
            state = initial_state(scn, rng, user_cell=cell)
            state.chain_blocked[:] = chains
            actions = ActionProfile(int(rng.integers(len(scn.beams))),
                                    tuple(int(b) for b in rng.integers(len(scn.phases), size=2)))
            got = build_channel(scn, state, actions).h
            want = channel_oracle(scn, state, actions)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.max(np.abs(want)))


def _small_scenario_with_ris(ris_cells, n_rays):
    grid = replace(desk_grid(), ris_cells=ris_cells)
    geo = ArrayGeometry(n_ap=4, n_ue=2, ris_shapes=((2, 2),) * len(ris_cells))
    return Scenario(grid=grid, geometry=geo,
                    budget=LinkBudget(tx_power=1.0, bandwidth=1.0, noise_density=1e-16),
                    beams=build_beam_codebook(4),
                    phases=build_phase_codebook((2, 2), np.pi / 5, (-np.pi / 2, np.pi / 2),
                                                default_phase_directions(5)),
                    cfg=env_config(n_rays=n_rays, scatter_gain_var=0.05))


@pytest.mark.parametrize("n_rays", [1, 3])
@pytest.mark.parametrize("ris_cells", [(), ((3, 0),), ((3, 0), (3, 4), (6, 4))],
                         ids=["0ris", "1ris", "3ris"])
def test_build_channel_matches_ray_oracle_at_every_joint_action(ris_cells, n_rays):
    # the panel-batched assembly against the ray-by-ray oracle at every joint
    # action, for 0, 1 and 3 panels. The tolerance scales with the state's
    # largest entry over all joint actions: a beam on a null of a lone LoS
    # ray leaves a channel of rounding noise. (Every beam of this 4-beam book
    # has a null straight above and below the AP, so no test cell sits there.)
    scn = _small_scenario_with_ris(ris_cells, n_rays)
    rng = np.random.default_rng(21)
    for cell in [(2, 0), (5, 2), (1, 3)]:  # lit; dark; shadowed from (3, 0)
        state = initial_state(scn, rng, user_cell=cell)
        state.chain_blocked[:] = rng.random(state.chain_blocked.shape) < 0.5
        joints = [ActionProfile(j[0], j[1:]) for j in product(*map(range, scn.head_sizes))]
        got = np.array([build_channel(scn, state, actions).h for actions in joints])
        want = np.array([channel_oracle(scn, state, actions) for actions in joints])
        assert got.shape == want.shape == (len(joints), scn.geometry.n_ap, scn.geometry.n_ue)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.max(np.abs(want)))


@pytest.mark.parametrize("field, value, rule", [
    ("scatter_gain_var", math.nan, "finite and >= 0"),
    ("scatter_gain_var", math.inf, "finite and >= 0"),
    ("scatter_gain_var", -0.1, "finite and >= 0"),
    ("carrier_freq", math.nan, "finite and > 0"),
    ("carrier_freq", 0.0, "finite and > 0"),
    ("carrier_freq", math.inf, "finite and > 0"),
    ("exponent_los", math.nan, "finite and >= 0"),
    ("exponent_nlos", math.nan, "finite and >= 0"),
    ("exponent_nlos", math.inf, "finite and >= 0"),
    ("orientation_jitter", math.nan, "finite and >= 0"),
    ("orientation_jitter", -1.0, "finite and >= 0"),
    ("rate_norm_max", 0.0, "finite and > 0"),
    ("rate_norm_max", math.nan, "finite and > 0"),
])
def test_env_config_rejects_values_outside_its_range(field, value, rule):
    # the ranges ExperimentConfig gives the knobs these fields come from
    with pytest.raises(ValueError, match=f"EnvConfig.{field} must be {rule}, not {value!r}"):
        env_config(**{field: value})


@pytest.mark.parametrize("shapes, ragged, match", [
    (((2, 2), (4, 1)), False, "RIS panel 1 is 4x1, panel 0 is 2x2"),
    (((3, 2), (3, 2)), False, "RIS panel 0 has 6 elements, the phase codebook's entries have 4"),
    (((2, 2), (2, 2)), True, "phase codebook entries differ in length"),
])
def test_scenario_rejects_panels_unlike_the_codebook(shapes, ragged, match):
    scn = small_scenario()
    entries = scn.phases.entries
    if ragged:
        entries = (entries[0], entries[1][:3])
    with pytest.raises(ValueError, match=match):
        replace(scn, geometry=ArrayGeometry(n_ap=4, n_ue=2, ris_shapes=shapes),
                phases=replace(scn.phases, entries=entries))


def test_dark_cell_blocks_direct_ray_always():
    # with the chain pinned open, blockage comes from geometry alone: the
    # direct LoS core entry of every dark cell carries the NLoS amplitude,
    # times the beam-alignment factor of the direct ray
    scn = small_scenario(markov=MarkovBlockage(p_block=0.0, p_unblock=1.0))
    rng = np.random.default_rng(9)
    dark_cells = [c for c in scn.grid.free_cells() if scn.dark.at(c)]
    assert dark_cells
    n_ap = scn.geometry.n_ap
    beam = _ula_oracle(scn.beams.angles[0], n_ap)
    for cell in dark_cells:
        state = initial_state(scn, rng, user_cell=cell)
        state.chain_blocked[:] = False
        chan = build_channel(scn, state, ActionProfile(0, (0, 0)))
        align = abs(chan.tx[:, 0] @ beam.conj()) / n_ap
        d = scn.distance(scn.grid.ap_cell, cell)
        rho = (C_LIGHT / (2 * math.pi * scn.cfg.carrier_freq)) ** 2 * d ** -scn.cfg.exponent_nlos
        assert chan.core[0, 0] == pytest.approx(math.sqrt(rho) * align, rel=1e-12)


def test_blocked_user_reward_below_unblocked():
    # paired comparison: same state, dark vs lit cell at similar distance
    scn = small_scenario(n_rays=1)
    rng = np.random.default_rng(10)
    lit = (2, 2)
    dark = (4, 2)
    assert not scn.dark.at(lit) and scn.dark.at(dark)
    s_lit = initial_state(scn, np.random.default_rng(11), user_cell=lit)
    s_dark = initial_state(scn, np.random.default_rng(11), user_cell=dark)
    s_dark.chain_blocked[:] = False
    s_lit.chain_blocked[:] = False
    best_lit = best_dark = 0.0
    for beam in range(4):
        for b0 in range(5):
            for b1 in range(5):
                a = ActionProfile(beam, (b0, b1))
                best_lit = max(best_lit, achievable_rate(build_channel(scn, s_lit, a), scn.budget))
                best_dark = max(best_dark, achievable_rate(build_channel(scn, s_dark, a), scn.budget))
    assert best_dark < best_lit


def test_environment_deterministic_under_seed():
    scn = small_scenario()
    actions = [ActionProfile(int(b % 4), (int(b % 5), int((b + 2) % 5))) for b in range(12)]

    def run():
        env = Environment(scn, seed=42)
        out = []
        for a in actions:
            r, s = env.step(a)
            out.append((r, s.user_cell, tuple(s.chain_blocked)))
        return out

    assert run() == run()


def test_environment_replay_follows_trajectory():
    scn = small_scenario()
    traj = [np.array([[1, 1], [2, 1], [2, 2]]), np.array([[0, 0], [1, 0]])]
    env = Environment(scn, seed=0, trajectories=traj)
    assert env.state.user_cell == (1, 1)
    seen = []
    for _ in range(7):
        _, state = env.step(ActionProfile(0, (0, 0)))
        seen.append(state.user_cell)
    # past the last trajectory, the stream wraps back to the first one
    assert seen == [(2, 1), (2, 2), (0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]
    assert env.reset().user_cell == (1, 1)
    assert env.step(ActionProfile(0, (0, 0)))[1].user_cell == (2, 1)


# ---------------------------------------------------------------------------
# histories and episodes


def encoder(kind, head_sizes, history_len):
    # a controller used only for its history window and encoder, which read
    # H from history_len; its nets need a multiple of 4 and are not run here
    ctrl = desk_controller(kind, head_sizes, 4, np.random.default_rng(0))
    ctrl.history_len = history_len
    return ctrl


def test_history_buffer_eviction_and_encoding():
    buf = HistoryBuffer(3)
    for k in range(5):
        buf.push(k % 2, 0.1 * k)
    # newest last; entries 2, 3, 4 survive
    np.testing.assert_array_equal(buf.actions, [0, 1, 0])
    np.testing.assert_array_equal(buf.rates, [0.1 * k for k in (2, 3, 4)])
    ctrl = encoder(DistributedController, (2,), 3)
    enc = ctrl.encode(*ctrl.window(buf.actions[:, None], buf.rates), 0)
    assert enc.shape == (3, 3)
    np.testing.assert_allclose(enc[:, 2], [0.2, 0.3, 0.4])
    assert enc[0, 0] == 1.0 and enc[1, 1] == 1.0


def test_history_buffer_pads_leading_zeros():
    buf = HistoryBuffer(4)
    buf.push(1, 0.5)
    np.testing.assert_array_equal(buf.actions, [-1, -1, -1, 1])
    np.testing.assert_array_equal(buf.rates, [0.0, 0.0, 0.0, 0.5])
    ctrl = encoder(DistributedController, (2,), 4)
    enc = ctrl.encode(*ctrl.window(buf.actions[:, None], buf.rates), 0)
    np.testing.assert_array_equal(enc[:3], 0.0)
    assert enc[3, 1] == 1.0 and enc[3, 2] == 0.5


def test_encode_global_concatenates_onehots():
    bufs = [HistoryBuffer(2), HistoryBuffer(2)]
    bufs[0].push(1, 0.25)
    bufs[1].push(0, 0.25)
    ctrl = encoder(CentralizedController, (2, 3), 2)
    enc = ctrl.encode(*ctrl.window(np.stack([buf.actions for buf in bufs], axis=1),
                                   bufs[0].rates), 0)
    assert enc.shape == (2, 6)
    np.testing.assert_array_equal(enc[0], 0.0)
    np.testing.assert_allclose(enc[1], [0, 1, 1, 0, 0, 0.25])


def test_episode_record_return_sums():
    # the record's return is in bits/s; the normalized one is the sample's
    rec = EpisodeRecord(rates=[1.5, 2.5], distributions=[None, None])
    assert rec.episodic_return == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# datasets


def test_generate_dataset_shape_and_determinism(tmp_path):
    grid = desk_grid()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    generate_dataset(grid, 5, 7, np.random.default_rng(3), p1)
    generate_dataset(grid, 5, 7, np.random.default_rng(3), p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == "traj_id,t,x,y"
    assert len(lines) == 1 + 5 * 7


def test_generate_single_row(tmp_path):
    grid = desk_grid()
    path = tmp_path / "one.csv"
    generate_dataset(grid, 1, 1, np.random.default_rng(4), path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    _, t, x, y = lines[1].split(",")
    cell = (int(float(x) // 1.0), int(float(y) // 1.0))
    assert grid.in_bounds(cell) and not grid.is_obstacle(cell)


def test_ingest_round_trip(tmp_path):
    grid = desk_grid()
    path = tmp_path / "walk.csv"
    rng = np.random.default_rng(5)
    generate_dataset(grid, 3, 6, rng, path)
    table = ingest_dataset(path, grid)
    assert len(table) == 3 and table.n_rows == 18 and table.n_clamped == 0
    for traj in table.cells:
        assert traj.shape == (6, 2)
        for x, y in traj:
            assert not grid.is_obstacle((x, y))


def test_ingest_rejects_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("traj_id,t,x,y\n0,0,1.5,oops\n")
    with pytest.raises(DatasetFormatError, match="row 2"):
        ingest_dataset(path, desk_grid())


@pytest.mark.parametrize("x, y", [("inf", "1.5"), ("1.5", "-inf"), ("nan", "1.5"),
                                  ("1.5", "NaN")])
def test_ingest_rejects_non_finite_coordinates(tmp_path, x, y):
    path = tmp_path / "bad.csv"
    path.write_text(f"traj_id,t,x,y\n0,0,1.5,1.5\n0,1,{x},{y}\n")
    with pytest.raises(DatasetFormatError, match="row 3: coordinates must be finite"):
        ingest_dataset(path, desk_grid())


def test_ingest_rejects_gap_in_slots(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("traj_id,t,x,y\n0,0,1.5,1.5\n0,2,1.5,1.5\n")
    with pytest.raises(DatasetFormatError, match="row 3"):
        ingest_dataset(path, desk_grid())


def test_ingest_clamps_out_of_grid(tmp_path):
    path = tmp_path / "clamp.csv"
    path.write_text("traj_id,t,x,y\n"
                    "0,0,-3.0,1.5\n"     # left of the grid
                    "0,1,3.5,2.5\n"      # inside the wall -> nearest free
                    "0,2,99.0,99.0\n")   # far corner
    grid = desk_grid()
    table = ingest_dataset(path, grid)
    assert table.n_clamped == 3
    for x, y in table.cells[0]:
        assert grid.in_bounds((x, y)) and not grid.is_obstacle((x, y))


def test_ingest_clamps_coordinates_that_overflow_a_cell_index(tmp_path):
    # 1e308 / 0.5 is inf: such rows clamp like any other row off the grid
    path = tmp_path / "far.csv"
    path.write_text("traj_id,t,x,y\n0,0,1e308,-1e308\n0,1,-1.7e308,0.75\n")
    grid = OccupancyGrid(cell_size=0.5, obstacles=np.zeros((3, 4), dtype=bool),
                         presence=np.ones((3, 4)), ap_cell=(0, 0), ris_cells=())
    table = ingest_dataset(path, grid)
    assert table.n_clamped == 2
    assert table.cells[0].tolist() == [[3, 0], [0, 1]]


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DatasetFormatError):
        ingest_dataset(path, desk_grid())


def test_ingest_names_the_file_line_after_comment_lines(tmp_path):
    path = tmp_path / "commented.csv"
    path.write_text("# two comment lines\n"
                    "# precede the header\n"
                    "traj_id,t,x,y\n"
                    "0,0,1.5,1.5\n"
                    "# and one sits between rows\n"
                    "0,1,x,1.5\n")
    with pytest.raises(DatasetFormatError, match="^row 6: "):
        ingest_dataset(path, desk_grid())


# ---------------------------------------------------------------------------
# scenario files


def test_scenario_round_trip(tmp_path):
    grid = desk_grid()
    path = tmp_path / "office.scn"
    save_scenario(grid, path)
    loaded = load_scenario(path)
    assert loaded.cell_size == grid.cell_size
    assert loaded.ap_cell == grid.ap_cell
    assert loaded.ris_cells == grid.ris_cells
    np.testing.assert_array_equal(loaded.obstacles, grid.obstacles)
    np.testing.assert_allclose(loaded.presence, grid.presence, rtol=1e-8)


@pytest.mark.parametrize("blocked", [[(0, 1)], [(0, 2), (1, 2)], [(0, 0), (0, 1), (2, 1)]],
                         ids=["left-middle", "bottom-left-pair", "left-column"])
def test_scenario_round_trip_with_obstacles_in_column_0(tmp_path, blocked):
    # a mask row whose first cell is an obstacle starts with '#'
    obstacles = np.zeros((3, 4), dtype=bool)
    for x, y in blocked:
        obstacles[y, x] = True
    presence = np.where(obstacles, 0.0, np.arange(1.0, 13.0).reshape(3, 4))
    grid = OccupancyGrid(cell_size=0.5, obstacles=obstacles, presence=presence,
                         ap_cell=(1, 0), ris_cells=((3, 2),))
    path = tmp_path / "left.scn"
    save_scenario(grid, path)
    loaded = load_scenario(path)
    np.testing.assert_array_equal(loaded.obstacles, obstacles)
    np.testing.assert_allclose(loaded.presence, grid.presence, rtol=1e-8)
    assert (loaded.ap_cell, loaded.ris_cells) == (grid.ap_cell, grid.ris_cells)


def test_scenario_mask_keeps_rows_that_start_with_an_obstacle(tmp_path):
    path = tmp_path / "uniform.scn"
    path.write_text("version 1\ncell_size 1\nap 3 0\npresence uniform\nmask\n"
                    "....\n# a comment stays a comment\n#...\n##..\n")
    grid = load_scenario(path)
    assert grid.obstacles.tolist() == [[False] * 4, [True, False, False, False],
                                       [True, True, False, False]]


def test_scenario_parser_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text("version 1\ncell_size 1.0\nap 0 0\nwhatever 3\nmask\n..\n..\n")
    with pytest.raises(ScenarioFormatError, match="line 4"):
        load_scenario(path)


def test_scenario_rejects_bad_mask_char(tmp_path):
    path = tmp_path / "bad2.scn"
    path.write_text("version 1\ncell_size 1.0\nap 0 0\nmask\n.X\n..\n")
    with pytest.raises(ScenarioFormatError, match="line 5"):
        load_scenario(path)


@pytest.mark.parametrize("text, line", [
    ("version 1\ncell_size 0\nap 0 0\nmask\n..\n..\n", 2),
    ("version 1\ncell_size -1.5\nap 0 0\nmask\n..\n..\n", 2),
    ("version 1\ncell_size inf\nap 0 0\nmask\n..\n..\n", 2),
    ("version 1\ncell_size 1\nap 0 0\npresence rows\n1 nan\n1 1\nmask\n..\n..\n", 5),
    ("version 1\ncell_size 1\nap 0 0\npresence rows\n1 1\n1 1 1\nmask\n..\n..\n", 6),
    ("version 1\ncell_size 1\nap 0 0\nris 2 1\nmask\n..\n..\n", 4),
], ids=["cell-size-zero", "cell-size-negative", "cell-size-inf", "presence-nan",
        "presence-ragged", "ris-off-grid"])
def test_scenario_rejects_bad_values_with_line_numbers(tmp_path, text, line):
    path = tmp_path / "bad.scn"
    path.write_text(text)
    with pytest.raises(ScenarioFormatError, match=f"line {line}:"):
        load_scenario(path)


def test_grid_rejects_bad_cell_size_and_non_finite_presence():
    free = dict(obstacles=np.zeros((2, 2), dtype=bool), ap_cell=(0, 0), ris_cells=())
    for size in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="cell_size"):
            OccupancyGrid(cell_size=size, presence=np.ones((2, 2)), **free)
    for bad in (math.nan, math.inf):
        presence = np.ones((2, 2))
        presence[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            OccupancyGrid(cell_size=1.0, presence=presence, **free)


# (operation, line, position, token): drop or duplicate a line, replace one
# of its tokens, append a token, or overwrite one character (delete it, with
# an empty token)
_MUTANT_TOKENS = ["0", "-1", "-0.5", "2.5", "1e-3", "1e3", "nan", "inf", "-inf", "x",
                  "7", "99", ".", "#", "uniform", "rows", "mask", "ris"]
_mutations = st.tuples(st.sampled_from(["drop", "duplicate", "token", "append", "char"]),
                       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                       st.sampled_from(_MUTANT_TOKENS))


def _mutate(lines, op, i, j, token, sep=None):
    """One mutation of the lines; tokens are split on `sep` (default:
    whitespace) and joined with it (default: one space)."""
    if not lines:
        return lines
    i %= len(lines)
    parts, joiner = lines[i].split(sep), sep or " "
    if op == "drop":
        return lines[:i] + lines[i + 1:]
    if op == "duplicate":
        return lines[:i + 1] + lines[i:]
    if op == "token" and parts:
        parts[j % len(parts)] = token
        return lines[:i] + [joiner.join(parts)] + lines[i + 1:]
    if op == "append":
        return lines[:i] + [f"{lines[i]}{joiner}{token}"] + lines[i + 1:]
    if lines[i]:
        k = j % len(lines[i])
        return lines[:i] + [lines[i][:k] + token[:1] + lines[i][k + 1:]] + lines[i + 1:]
    return lines


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["desk", "robust"]), st.lists(_mutations, min_size=1, max_size=3))
def test_scenario_file_mutants_are_rejected_or_step(tmp_path, base, mutations):
    # a mutated scenario file either fails with ScenarioFormatError alone, or
    # loads into a grid whose Scenario builds and steps to finite rewards
    path = tmp_path / "mutant.scn"
    save_scenario(desk_grid() if base == "desk" else robustness_grid(), path)
    lines = path.read_text().splitlines()
    for mutation in mutations:
        lines = _mutate(lines, *mutation)
    path.write_text("\n".join(lines) + "\n")
    try:
        grid = load_scenario(path)
    except ScenarioFormatError:
        return
    n_ris = len(grid.ris_cells)
    scn = Scenario(grid=grid, geometry=ArrayGeometry(n_ap=4, n_ue=2,
                                                     ris_shapes=((2, 2),) * n_ris),
                   budget=LinkBudget(tx_power=1.0, bandwidth=1.0, noise_density=1e-16),
                   beams=build_beam_codebook(4),
                   phases=build_phase_codebook((2, 2), np.pi / 5, (-np.pi / 2, np.pi / 2),
                                               default_phase_directions(5)),
                   cfg=env_config())
    env = Environment(scn, seed=0)
    for t in range(6):
        reward, state = env.step(ActionProfile(t % 4, (t % 5,) * n_ris))
        assert math.isfinite(reward) and reward >= 0.0
        assert grid.in_bounds(state.user_cell) and not grid.is_obstacle(state.user_cell)


_DATASET_TOKENS = ["0", "1", "-1", "2", "99", "0.25", "-3.5", "1e308", "-1e308", "nan",
                   "inf", "x", "", " 1", "traj_id", "t", "#", ",", "\""]
_dataset_mutations = st.tuples(st.sampled_from(["drop", "duplicate", "token", "append", "char"]),
                               st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                               st.sampled_from(_DATASET_TOKENS))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_dataset_mutations, min_size=1, max_size=3))
def test_dataset_file_mutants_are_rejected_or_replay(tmp_path, mutations):
    # a mutated trajectory CSV either fails with DatasetFormatError alone,
    # or ingests into free grid cells that replay, past the wrap back to the
    # first trajectory, with finite rewards
    path = tmp_path / "mutant.csv"
    grid = desk_grid()
    generate_dataset(grid, 2, 3, np.random.default_rng(8), path)
    lines = path.read_text().splitlines()
    for mutation in mutations:
        lines = _mutate(lines, *mutation, sep=",")
    path.write_text("\n".join(lines) + "\n")
    try:
        dataset = ingest_dataset(path, grid)
    except DatasetFormatError:
        return
    env = Environment(small_scenario(), seed=0, trajectories=dataset)
    for t in range(dataset.n_rows + 2):
        reward, state = env.step(ActionProfile(t % 4, (t % 5, 0)))
        assert math.isfinite(reward) and reward >= 0.0
        assert grid.in_bounds(state.user_cell) and not grid.is_obstacle(state.user_cell)


def test_robustness_grid_obstacle_injection():
    grid = robustness_grid()
    rng = np.random.default_rng(6)
    before = int(grid.obstacles.sum())
    bumped = add_random_obstacles(grid, 2, rng)
    added = int(bumped.obstacles.sum()) - before
    assert added == 18  # two full 3x3 blocks
    # blocks draw from the stream in turn: one block is the first of two
    one = add_random_obstacles(grid, 1, np.random.default_rng(6))
    assert np.all(bumped.obstacles[one.obstacles])
    assert not bumped.is_obstacle(bumped.ap_cell)
    for cell in bumped.ris_cells:
        assert not bumped.is_obstacle(cell)


def test_obstacle_block_that_does_not_fit_is_named():
    # the desk grid holds one 3x3 block beside the AP, the wall and the RIS
    grid = desk_grid()
    one = add_random_obstacles(grid, 1, np.random.default_rng(3))
    assert int(one.obstacles.sum()) - int(grid.obstacles.sum()) == 9
    for n_blocks in (2, 3):
        with pytest.raises(ValueError, match=f"obstacle block 2 of {n_blocks} "):
            add_random_obstacles(grid, n_blocks, np.random.default_rng(3))
