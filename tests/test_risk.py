import numpy as np
import pytest

from rislab.cli import ExperimentConfig
from rislab.risk import evar_literal, gradient_weight, surrogate_return


def test_risk_config_bounds():
    # the risk sensitivity and horizon bounds live on ExperimentConfig, which
    # is frozen, so a validated config stays valid
    cfg = ExperimentConfig(mu=0.0, horizon=1)
    with pytest.raises(AttributeError):
        cfg.mu = 1.0
    ExperimentConfig(mu=0.99, horizon=4)
    with pytest.raises(ValueError):
        ExperimentConfig(mu=1.0, horizon=1)
    with pytest.raises(ValueError):
        ExperimentConfig(mu=0.5, horizon=0)
    with pytest.raises(ValueError):
        ExperimentConfig(mu=-0.1, horizon=1)


def test_evar_constant_returns():
    assert evar_literal([3.0, 3.0, 3.0], 0.4) == pytest.approx(-3.0, rel=1e-12)


def test_evar_frozen_value():
    # mpmath (40 digits): (1/0.01) * log((1 + exp(-0.02))/2)
    assert evar_literal([0.0, 2.0], 0.01) == pytest.approx(-0.9950000833311112, rel=1e-12)
    # and the first-order reading -(mean - (mu/2) var) = -0.995
    assert evar_literal([0.0, 2.0], 0.01) == pytest.approx(-0.995, abs=1e-4)


def test_evar_frozen_value_large_mu():
    # mpmath: (1/0.8) * log((1 + exp(-1.6))/2)
    assert evar_literal([0.0, 2.0], 0.8) == pytest.approx(-0.6365580495895081, rel=1e-12)


def test_evar_small_mu_limit_is_negative_mean():
    rng = np.random.default_rng(0)
    r = rng.normal(3.0, 1.0, size=50)
    assert evar_literal(r, 1e-8) == pytest.approx(-np.mean(r), abs=1e-6)


def test_evar_rejects_mu_zero_and_empty():
    with pytest.raises(ValueError):
        evar_literal([1.0], 0.0)
    with pytest.raises(ValueError):
        evar_literal([], 0.5)


def test_evar_stable_under_large_returns():
    # naive exp(-mu R) underflows; the max-shift keeps this finite
    val = evar_literal([1e5, 1e5 + 1.0], 0.9)
    assert np.isfinite(val)
    assert val == pytest.approx(-(1e5 + 0.5), abs=1.0)


def test_surrogate_constant_and_mu_zero():
    assert surrogate_return([2.5, 2.5], 0.7) == pytest.approx(2.5)
    r = [1.0, 2.0, 4.0]
    assert surrogate_return(r, 0.0) == pytest.approx(np.mean(r))


def test_surrogate_direct_substitution():
    # {0, 2}: mean 1, population variance 1 -> 1 - 0.4 = 0.6
    assert surrogate_return([0.0, 2.0], 0.8) == pytest.approx(0.6, rel=1e-12)


def test_surrogate_slope_in_mu_is_half_variance():
    r = [0.0, 1.0, 5.0]
    var = np.var(r)
    j1 = surrogate_return(r, 0.2)
    j2 = surrogate_return(r, 0.6)
    assert (j2 - j1) / 0.4 == pytest.approx(-var / 2.0, rel=1e-12)


def test_gradient_weight_mu_zero_is_plain_return():
    assert gradient_weight(3.7, 10.0, 0.0) == pytest.approx(3.7)


def test_gradient_weight_direct_substitution():
    # mu=0.8, R=1, mean=1: (1 + 0.8)*1 - 0.4*1 = 1.4
    assert gradient_weight(1.0, 1.0, 0.8) == pytest.approx(1.4, rel=1e-12)


def test_gradient_weight_array_equals_scalar_calls():
    r = np.random.default_rng(3).gamma(2.0, 1.5, size=33)
    mean = float(r.mean())
    for mu in (0.0, 0.3, 0.8):
        scalar = np.array([gradient_weight(float(x), mean, mu) for x in r])
        np.testing.assert_array_equal(gradient_weight(r, mean, mu), scalar)


def test_small_mu_consistency_second_order():
    # |-evar - surrogate| must shrink ~4x when mu halves (O(mu^2) error)
    rng = np.random.default_rng(42)
    ratios = []
    for _ in range(20):
        r = rng.gamma(2.0, 1.5, size=40)  # skewed so the mu^2 term is not tiny
        err = lambda mu: abs(-evar_literal(r, mu) - surrogate_return(r, mu))
        ratios.append(err(0.2) / err(0.1))
    ratios = np.asarray(ratios)
    assert np.all(ratios > 2.5) and np.all(ratios < 6.0)
    assert np.median(ratios) == pytest.approx(4.0, abs=0.8)
