"""Channel engine tests: closed-form fixtures plus independent loop oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from rislab.channel import (
    BeamCodebook,
    C_LIGHT,
    CascadedChannel,
    LinkBudget,
    achievable_rate,
    build_beam_codebook,
    build_phase_codebook,
    default_phase_directions,
    free_space_gain,
    ris_core,
    steering_vector_ula,
    steering_vector_upa,
)


# ---------------------------------------------------------------------------
# independent oracles (scalar loops, no shared code with the implementation)


def ula_oracle(angle, n):
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        out[k] = complex(math.cos(((n - 1) / 2 - k) * math.pi * math.cos(angle)),
                         math.sin(((n - 1) / 2 - k) * math.pi * math.cos(angle)))
    return out


def upa_oracle(azimuth, elevation, n_h, n_v):
    el = ula_oracle_phase(lambda k: ((n_v - 1) / 2 - k) * math.pi * math.cos(elevation), n_v)
    az = ula_oracle_phase(
        lambda k: ((n_h - 1) / 2 - k) * math.pi * math.cos(azimuth) * math.sin(elevation), n_h)
    out = np.zeros(n_h * n_v, dtype=complex)
    for i in range(n_v):
        for j in range(n_h):
            out[i * n_h + j] = el[i] * az[j]
    return out


def ula_oracle_phase(phase_fn, n):
    return np.array([np.exp(1j * phase_fn(k)) for k in range(n)])


def link_matrix_oracle(tx_cols, amps, rx_cols):
    """Elementwise triple loop: sum_l tx_l * amp_l * conj(rx_l)^T."""
    n_tx = tx_cols[0].size
    n_rx = rx_cols[0].size
    out = np.zeros((n_tx, n_rx), dtype=complex)
    for ell, amp in enumerate(amps):
        for i in range(n_tx):
            for j in range(n_rx):
                out[i, j] += tx_cols[ell][i] * amp * np.conj(rx_cols[ell][j])
    return out


# ---------------------------------------------------------------------------
# steering vectors


def test_ula_broadside_is_all_ones():
    np.testing.assert_allclose(steering_vector_ula(np.pi / 2, 2), [1, 1], atol=1e-12)


def test_ula_endfire_two_elements():
    np.testing.assert_allclose(steering_vector_ula(0.0, 2), [1j, -1j], atol=1e-12)


def test_ula_matches_scalar_loop_oracle():
    got = steering_vector_ula(0.7, 4)
    np.testing.assert_allclose(got, ula_oracle(0.7, 4), rtol=1e-14)


def test_upa_single_element_is_one():
    np.testing.assert_allclose(steering_vector_upa(1.1, 0.3, 1, 1), [1.0], atol=1e-15)


def test_upa_matches_kron_oracle():
    om, th = 0.9, 0.4
    got = steering_vector_upa(om, th, 2, 2)
    np.testing.assert_allclose(got, upa_oracle(om, th, 2, 2), rtol=1e-14)


def test_upa_degenerates_to_ula_with_azimuth_law():
    got = steering_vector_upa(0.0, np.pi / 2, 2, 1)
    np.testing.assert_allclose(got, steering_vector_ula(0.0, 2), atol=1e-12)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_steering_entries_unit_modulus(n):
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = steering_vector_ula(rng.uniform(-np.pi, np.pi), n)
        assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12
        u = steering_vector_upa(rng.uniform(-np.pi, np.pi), rng.uniform(0, np.pi), n, 2)
        assert np.max(np.abs(np.abs(u) - 1.0)) < 1e-12


def test_batched_steering_rows_equal_scalar_calls():
    rng = np.random.default_rng(8)
    az = rng.uniform(-np.pi, np.pi, size=5)
    el = rng.uniform(0.1, np.pi - 0.1, size=5)
    for n in (1, 4, 7):
        got = steering_vector_ula(az, n)
        assert got.shape == (5, n)
        np.testing.assert_allclose(got, np.stack([steering_vector_ula(a, n) for a in az]),
                                   rtol=1e-15)
    for n_h, n_v in ((1, 1), (2, 3), (8, 8)):
        got = steering_vector_upa(az, el, n_h, n_v)
        assert got.shape == (5, n_h * n_v)
        want = np.stack([steering_vector_upa(a, e, n_h, n_v) for a, e in zip(az, el)])
        np.testing.assert_allclose(got, want, rtol=1e-15)
    assert steering_vector_ula(az[:0], 3).shape == (0, 3)
    assert steering_vector_upa(az[:0], el[:0], 2, 3).shape == (0, 6)


# ---------------------------------------------------------------------------
# path gain


def test_path_gain_unit_distance():
    assert free_space_gain(1.0, 5e9, 2.0) == pytest.approx(
        (C_LIGHT / (2 * np.pi * 5e9)) ** 2, rel=1e-14)


def test_path_gain_inverse_square():
    assert free_space_gain(4.0, 5e9, 2.0) == pytest.approx(
        free_space_gain(2.0, 5e9, 2.0) / 4.0, rel=1e-13)


def test_path_gain_blocked_frozen_value():
    # independent evaluation at 40 digits (mpmath): (c/2 pi f)^2 * 3.5^-4
    assert free_space_gain(3.5, 73e9, 4.0) == pytest.approx(2.846844668361824e-09, rel=1e-12)


def test_path_gain_loglog_slope():
    gains = free_space_gain(np.array([1.0, 10.0]), 73e9, 2.4)
    slope = (math.log(gains[1]) - math.log(gains[0])) / math.log(10.0)
    assert slope == pytest.approx(-2.4, abs=1e-9)


# ---------------------------------------------------------------------------
# RIS core and factored channel, against dense loop-oracle legs


N_AP, N_UE, PANEL = 3, 2, (2, 2)


def random_link(rng, n_rays):
    """Departure and arrival azimuths, RIS-side elevations and complex
    amplitudes of one link's rays."""
    return dict(aod=rng.uniform(-np.pi, np.pi, size=n_rays),
                aoa=rng.uniform(-np.pi, np.pi, size=n_rays),
                elevation=rng.uniform(0.2, np.pi - 0.2, size=n_rays),
                amps=rng.normal(size=n_rays) + 1j * rng.normal(size=n_rays))


def factored(direct, surfaces):
    """CascadedChannel of a direct link plus (ap_ris, weights, ris_ue) per RIS,
    laid out as build_channel lays it out."""
    n_h, n_v = PANEL
    tx = [steering_vector_ula(direct["aod"], N_AP)]
    rx = [steering_vector_ula(direct["aoa"], N_UE)]
    blocks = [np.diag(direct["amps"])]
    for ap_ris, weights, ris_ue in surfaces:
        tx.append(steering_vector_ula(ap_ris["aod"], N_AP))
        rx.append(steering_vector_ula(ris_ue["aoa"], N_UE))
        core = ris_core(steering_vector_upa(ap_ris["aoa"], ap_ris["elevation"], n_h, n_v),
                        weights,
                        steering_vector_upa(ris_ue["aod"], ris_ue["elevation"], n_h, n_v))
        blocks.append(ap_ris["amps"][:, None] * core * ris_ue["amps"][None, :])
    return CascadedChannel(tx=np.concatenate(tx).T, core=block_diag(*blocks),
                           rx=np.concatenate(rx).T)


def dense_leg(link, tx_end, rx_end):
    """Loop-oracle matrix of one link; an end is 'ula_ap', 'ula_ue' or 'upa'."""
    def cols(end, angle_key):
        if end == "upa":
            return [upa_oracle(a, e, *PANEL) for a, e in zip(link[angle_key], link["elevation"])]
        return [ula_oracle(a, N_AP if end == "ula_ap" else N_UE) for a in link[angle_key]]

    return link_matrix_oracle(cols(tx_end, "aod"), link["amps"], cols(rx_end, "aoa"))


def test_cascade_no_ris_returns_direct():
    rng = np.random.default_rng(3)
    direct = random_link(rng, 3)
    want = dense_leg(direct, "ula_ap", "ula_ue")
    got = factored(direct, []).h
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))


def test_cascade_identity_phase():
    rng = np.random.default_rng(3)
    direct = dict(random_link(rng, 1), amps=np.zeros(1, dtype=complex))
    ap_ris, ris_ue = random_link(rng, 2), random_link(rng, 2)
    got = factored(direct, [(ap_ris, np.ones(4), ris_ue)]).h
    want = dense_leg(ap_ris, "ula_ap", "upa") @ dense_leg(ris_ue, "upa", "ula_ue")
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))


def test_cascade_two_ris_matches_matrix_oracle():
    rng = np.random.default_rng(5)
    direct = random_link(rng, 3)
    expected = dense_leg(direct, "ula_ap", "ula_ue")
    surfaces = []
    for _ in range(2):
        ap_ris, ris_ue = random_link(rng, 3), random_link(rng, 3)
        phases = rng.uniform(-np.pi / 2, np.pi / 2, size=4)
        surfaces.append((ap_ris, np.exp(1j * phases), ris_ue))
        # naive product-and-sum
        expected = expected + (dense_leg(ap_ris, "ula_ap", "upa") @ np.diag(np.exp(1j * phases))
                               @ dense_leg(ris_ue, "upa", "ula_ue"))
    out = factored(direct, surfaces)
    np.testing.assert_allclose(out.h, expected, rtol=0, atol=1e-10 * np.max(np.abs(expected)))


def test_cascade_linear_in_each_leg():
    rng = np.random.default_rng(9)
    direct = dict(random_link(rng, 1), amps=np.zeros(1, dtype=complex))
    ap_ris, ris_ue = random_link(rng, 3), random_link(rng, 3)
    weights = np.exp(1j * rng.uniform(-1, 1, size=4))
    one = factored(direct, [(ap_ris, weights, ris_ue)])
    two = factored(direct, [(ap_ris, weights, dict(ris_ue, amps=2.0 * ris_ue["amps"]))])
    np.testing.assert_array_equal(two.h, 2.0 * one.h)


# ---------------------------------------------------------------------------
# achievable rate


BUDGET = LinkBudget(tx_power=1.0, bandwidth=1.0, noise_density=1.0)


def test_rate_zero_channel():
    assert achievable_rate(np.zeros((3, 2)), BUDGET) == 0.0


def test_rate_scalar_snr_one():
    # N_a = N_u = 1 and q|h|^2/(N_a w sigma^2) = 1  ->  r = w
    budget = LinkBudget(tx_power=4.0, bandwidth=2.0, noise_density=0.5)
    h = np.array([[0.5]], dtype=complex)  # q|h|^2/(w sigma^2) = 4*0.25/(2*0.5) = 1
    assert achievable_rate(h, budget) == pytest.approx(2.0, rel=1e-12)


def test_rate_matches_eigenvalue_oracle():
    rng = np.random.default_rng(23)
    h = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    got = achievable_rate(h, BUDGET)
    lam = np.linalg.eigvalsh(h.conj().T @ h)
    want = sum(math.log2(1 + (1.0 / 3.0) * l) for l in lam)
    assert got == pytest.approx(want, rel=1e-12)


def test_rate_gram_identity_over_random_channels():
    rng = np.random.default_rng(29)
    budget = LinkBudget(tx_power=2.0, bandwidth=3.0, noise_density=0.7)
    for _ in range(100):
        n_a, n_u = rng.integers(1, 6, size=2)
        h = rng.normal(size=(n_a, n_u)) + 1j * rng.normal(size=(n_a, n_u))
        c = budget.tx_power / (n_a * budget.bandwidth * budget.noise_density)
        direct = np.linalg.slogdet(np.eye(n_a) + c * h @ h.conj().T)[1]
        via_gram = np.linalg.slogdet(np.eye(n_u) + c * h.conj().T @ h)[1]
        assert direct == pytest.approx(via_gram, rel=1e-9)
        want = budget.bandwidth * via_gram / math.log(2)
        assert achievable_rate(h, budget) == pytest.approx(want, rel=1e-9)


def test_rate_monotone_in_power_and_noise():
    rng = np.random.default_rng(31)
    for _ in range(100):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        low = achievable_rate(h, LinkBudget(1.0, 1.0, 1.0))
        hi_power = achievable_rate(h, LinkBudget(2.0, 1.0, 1.0))
        hi_noise = achievable_rate(h, LinkBudget(1.0, 1.0, 2.0))
        assert hi_power >= low >= hi_noise


def test_rate_rejects_nonfinite():
    h = np.array([[np.inf, 0], [0, 1]], dtype=complex)
    with pytest.raises(ValueError):
        achievable_rate(h, BUDGET)


def random_factored(rng, n_a, n_u, r, scale=1.0):
    def cgauss(*shape):
        return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))

    return CascadedChannel(tx=cgauss(n_a, r), core=cgauss(r, r), rx=cgauss(n_u, r))


@pytest.mark.parametrize("n_a,n_u,r", [(6, 4, 2), (6, 4, 3), (6, 4, 4), (6, 4, 5),
                                       (3, 5, 2), (3, 5, 3), (128, 64, 9), (8, 4, 9)])
def test_factored_rate_equals_dense_rate(n_a, n_u, r):
    # r < min(N_a, N_u) takes the r x r core; otherwise the dense Gram
    rng = np.random.default_rng(37)
    budget = LinkBudget(tx_power=2.0, bandwidth=3.0, noise_density=0.7)
    for _ in range(20):
        chan = random_factored(rng, n_a, n_u, r, scale=rng.uniform(0.05, 2.0))
        dense = chan.tx @ chan.core @ chan.rx.conj().T
        np.testing.assert_allclose(chan.h, dense, rtol=1e-13)
        want = achievable_rate(dense, budget)
        assert achievable_rate(chan, budget) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("r", [2, 5])
@pytest.mark.parametrize("factor", ["tx", "core", "rx"])
def test_rate_rejects_nonfinite_factors(factor, r):
    chan = random_factored(np.random.default_rng(41), 4, 3, r)
    getattr(chan, factor)[0, 1] = np.nan if factor == "core" else np.inf
    with pytest.raises(ValueError):
        achievable_rate(chan, BUDGET)


# ---------------------------------------------------------------------------
# achievable rate: properties


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rate_tol(h, budget):
    """Tolerance of a slogdet rate: relative, plus the roundoff of a
    determinant whose matrix has norm c * ||H||_F^2, which dominates when H
    is rank deficient with a large gain."""
    c = budget.tx_power / (h.shape[0] * budget.bandwidth * budget.noise_density)
    gram_norm = c * float(np.sum(np.abs(h) ** 2))
    return dict(rel=1e-9, abs=1e-14 * budget.bandwidth * (1.0 + gram_norm))


channel_cases = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 7),
                          st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 2.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(channel_cases)
def test_rate_invariant_under_unitary_rotations(case):
    n_a, n_u, r, seed, log_scale = case
    rng = np.random.default_rng(seed)
    chan = random_factored(rng, n_a, n_u, r, scale=10.0 ** log_scale)
    u, v = random_unitary(rng, n_a), random_unitary(rng, n_u)
    want = achievable_rate(chan.h, BUDGET)
    tol = rate_tol(chan.h, BUDGET)
    assert achievable_rate(u @ chan.h, BUDGET) == pytest.approx(want, **tol)
    assert achievable_rate(chan.h @ v, BUDGET) == pytest.approx(want, **tol)
    rotated = CascadedChannel(tx=u @ chan.tx, core=chan.core, rx=v.conj().T @ chan.rx)
    assert achievable_rate(rotated, BUDGET) == pytest.approx(
        achievable_rate(u @ chan.h @ v, BUDGET), **tol)
    assert achievable_rate(rotated, BUDGET) == pytest.approx(want, **tol)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(channel_cases, st.floats(1.0, 8.0))
def test_rate_monotone_in_power_antitone_in_noise(case, factor):
    n_a, n_u, r, seed, log_scale = case
    chan = random_factored(np.random.default_rng(seed), n_a, n_u, r, scale=10.0 ** log_scale)
    base = LinkBudget(tx_power=1.0, bandwidth=2.0, noise_density=0.5)
    loud = LinkBudget(tx_power=factor, bandwidth=2.0, noise_density=0.5)
    noisy = LinkBudget(tx_power=1.0, bandwidth=2.0, noise_density=0.5 * factor)
    rate = achievable_rate(chan, base)
    slack = 2 * rate_tol(chan.h, loud)["abs"]
    assert achievable_rate(chan, loud) >= rate - slack
    assert achievable_rate(chan, noisy) <= rate + slack


@settings(max_examples=60, deadline=None, derandomize=True)
@given(channel_cases)
def test_rate_factored_equals_dense_and_never_negative(case):
    n_a, n_u, r, seed, log_scale = case
    chan = random_factored(np.random.default_rng(seed), n_a, n_u, r, scale=10.0 ** log_scale)
    got = achievable_rate(chan, BUDGET)
    want = achievable_rate(chan.h, BUDGET)
    assert got >= 0.0 and want >= 0.0
    assert got == pytest.approx(want, **rate_tol(chan.h, BUDGET))


# ---------------------------------------------------------------------------
# codebooks


def test_beam_codebook_default_span():
    cb = build_beam_codebook(8)
    assert len(cb) == 8
    assert cb.angles[0] == pytest.approx(-np.pi)
    assert cb.angles[-1] == pytest.approx(np.pi)


def test_beam_codebook_rejects_unsorted():
    with pytest.raises(ValueError):
        BeamCodebook(angles=(0.5, 0.1))


def test_phase_codebook_broadside_is_all_zero():
    # a grid containing 0 gives the exact all-zero entry at broadside
    cb = build_phase_codebook((4, 4), np.pi / 4, (-np.pi / 2, np.pi / 2), [np.pi / 2])
    assert np.all(np.asarray(cb.entries[0]) == 0.0)
    # the pi/5 paper grid has no 0; broadside still collapses to a constant
    # entry, i.e. identity up to a global phase
    cb5 = build_phase_codebook((4, 4), np.pi / 5, (-np.pi / 2, np.pi / 2), [np.pi / 2])
    assert len(set(cb5.entries[0])) == 1


def test_phase_codebook_single_surface():
    cb = build_phase_codebook((1, 1), np.pi / 5, (-np.pi / 2, np.pi / 2), [0.3, 1.1])
    lo = -np.pi / 2
    for entry in cb.entries:
        k = (entry[0] - lo) / (np.pi / 5)
        assert k == pytest.approx(round(k), abs=1e-9)


def test_phase_codebook_matches_per_surface_oracle():
    step, lo, hi = np.pi / 5, -np.pi / 2, np.pi / 2
    d = 1.05
    cb = build_phase_codebook((2, 2), step, (lo, hi), [d])
    # independent per-surface computation: raw progression, wrap, clamp, snap
    want = []
    for kv in range(2):
        for kh in range(2):
            raw = (kh - 0.5) * math.pi * math.cos(d)
            wrapped = math.atan2(math.sin(raw), math.cos(raw))
            clamped = min(max(wrapped, lo), hi)
            snapped = lo + round((clamped - lo) / step) * step
            want.append(snapped)
    np.testing.assert_allclose(cb.entries[0], want, atol=1e-12)


def test_phase_codebook_rejects_empty_directions():
    with pytest.raises(ValueError):
        build_phase_codebook((2, 2), np.pi / 5, (-np.pi / 2, np.pi / 2), [])


def test_codebook_sweep_peaks_at_matching_direction():
    # single incident and single departing ray on one RIS: the entry steered
    # at the departure azimuth must win an exhaustive sweep of the ray core
    # (coherent combining)
    directions = default_phase_directions(11)
    cb = build_phase_codebook((2, 2), np.pi / 5, (-np.pi / 2, np.pi / 2), directions)
    target = directions[3]
    # incident side broadside so only the departure profile matters
    b_in = steering_vector_upa(np.pi / 2, np.pi / 2, 2, 2)
    b_out = steering_vector_upa(target, np.pi / 2, 2, 2)
    mags = [abs(ris_core(b_in[None], np.exp(1j * np.asarray(entry)), b_out[None])[0, 0])
            for entry in cb.entries]
    assert int(np.argmax(mags)) == 3
