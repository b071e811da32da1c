import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scatreg.asymfit import LogModel, PolyLogModel, PowerLogModel
from scatreg.ballquad import CutoffSamples
from scatreg.deviation import (
    DeviationFactor,
    class_a_check,
    factor_from_model,
    regularize_coefficient,
    regularized_series,
    resum_coulomb_series,
    series_exp,
    _exponent,
)


def test_log_factor_construction():
    factor = factor_from_model(LogModel(3.0, 2.0), eps=0.1)
    assert factor.log_coeffs == (pytest.approx(0.03),)
    assert factor.quad_coeff == 0 and factor.linear_coeff == 0
    # U0(L) = L^{i 0.03}
    L = 7.3
    assert factor(L) == pytest.approx(L ** (0.03j))


def test_powerlog_factor_and_pure_linear_special_case():
    factor = factor_from_model(PowerLogModel(0.0, 1.0, 0.0, 0.0), eps=0.2)
    # e^{i eps^2 L}
    assert factor(5.0) == pytest.approx(np.exp(1j * 0.04 * 5.0))
    full = factor_from_model(PowerLogModel(1.5, -2.0, 0.5, 9.0), eps=0.1)
    assert full.quad_coeff == pytest.approx(0.015)
    assert full.linear_coeff == pytest.approx(-0.02)
    assert full.log_coeffs == (pytest.approx(0.005),)
    # the constant term mu stays out of the factor
    assert full.gauge == 0.0


def test_polylog_factor_sums_coupling_orders():
    m2 = PolyLogModel(table=(0.0, 5.0), order=2)
    factor = factor_from_model(m2, eps=0.1)
    assert factor.log_coeffs == (pytest.approx(0.05),)
    m3 = PolyLogModel(table=(1.0, 2.0, 4.0), order=3)
    third = factor_from_model(m3, eps=0.1)
    assert third.log_coeffs[0] == pytest.approx(1e-3 * 2.0)
    assert third.log_coeffs[1] == pytest.approx(1e-3 * 4.0)
    assert third.eps_order == 3


def test_factor_evaluation_trivia():
    assert DeviationFactor()(123.0) == 1.0
    assert DeviationFactor(log_coeffs=(0.03,))(np.e) == pytest.approx(np.exp(0.03j))
    assert DeviationFactor(linear_coeff=0.01)(100.0) == pytest.approx(np.exp(1j))


def test_exponent_without_l2_term_past_l2_overflow():
    # L**2 overflows at L = 1e200, and 0 * inf would be NaN
    factor = DeviationFactor(log_coeffs=(0.25,), gauge=0.5)
    assert factor.exponent(1e200) == 0.0 + 0.0 + 0.5 + 0.25 * np.log(1e200)
    assert abs(factor(1e200)) == pytest.approx(1.0, abs=1e-15)



def test_exponent_skips_l2_per_row():
    # the zero row must not square its L = 1e200: 0 * inf would be NaN, with a warning
    theta = _exponent(
        np.array([0.0, -0.0, 0.5]), 0.0, (0.25,), 0.0, np.array([1e200, 1e200, 10.0])
    )
    ln_l = np.log(1e200)
    assert theta.tolist() == [0.25 * ln_l, 0.25 * ln_l, 50.0 + 0.25 * np.log(10.0)]
    with pytest.warns(RuntimeWarning, match="overflow"):  # only the nonzero row overflows
        theta = _exponent(np.array([0.0, 1e-300]), 0.0, (0.25,), 0.0, np.full(2, 1e200))
    assert theta.tolist() == [0.25 * ln_l, np.inf]


@given(
    st.floats(-1, 1),
    st.floats(-1, 1),
    st.lists(st.floats(-1, 1), min_size=0, max_size=4),
    st.floats(-np.pi, np.pi),
    st.floats(-2, 6),
)
@settings(max_examples=500, deadline=None)
def test_unit_modulus(c2, c1, logs, gauge, log10_l):
    factor = DeviationFactor(
        quad_coeff=c2, linear_coeff=c1, log_coeffs=tuple(logs), gauge=gauge
    )
    assert abs(abs(factor(10.0**log10_l)) - 1) <= 1e-14


def test_regularize_log_constant():
    grid = np.geomspace(10, 1000, 9)
    samples = CutoffSamples(
        grid=grid, values=1j * (3 * np.log(grid) + 2)
    )
    out = regularize_coefficient(samples, LogModel(3.0, 2.0))
    assert np.allclose(out.values, 2j)


def test_regularize_powerlog_converges():
    grid = np.geomspace(10, 1e4, 17)
    values = 1j * (0.5 * grid**2 - grid + 4 * np.log(grid) + 7 + 1 / grid)
    samples = CutoffSamples(grid=grid, values=values)
    out = regularize_coefficient(samples, PowerLogModel(0.5, -1.0, 4.0, 7.0))
    assert np.allclose(out.values, 1j * (7 + 1 / grid))
    assert abs(out.values[-1] - 7j) < 1e-3


def test_series_exp_matches_numpy_exp():
    coeffs = series_exp({1: 0.3 + 0.1j, 2: -0.2j}, 8)
    # evaluate the truncated series at a small argument and compare
    x = 0.05
    truncated = sum(c * x**n for n, c in enumerate(coeffs))
    exact = np.exp((0.3 + 0.1j) * x + (-0.2j) * x**2)
    assert truncated == pytest.approx(exact, abs=1e-12)


def test_regularized_series_trivial():
    out = regularized_series([2.0], DeviationFactor(), eps=0.5, L=10.0)
    assert out.value == pytest.approx(1 + 0.5 * 2.0)


def test_regularized_series_log_per_order():
    # exact log samples: regularized second-order coefficient is the constant
    phi, psi, eps, L = 3.0, 2.0, 0.1, 50.0
    a2 = 1j * (phi * np.log(L) + psi)
    factor = factor_from_model(LogModel(phi, psi), eps=eps)
    out = regularized_series([0.0, a2], factor, eps=eps, L=L)
    assert out.coefficients[2] == pytest.approx(1j * psi, abs=1e-12)
    assert out.coefficients[0] == pytest.approx(1.0)
    assert out.coefficients[1] == pytest.approx(0.0, abs=1e-15)


def test_class_a_pure_log_true():
    factor = DeviationFactor(log_coeffs=(0.25, -0.1))
    result = class_a_check(factor, 2.0, np.geomspace(10, 1e5, 12))
    assert result.verdict
    deviations = np.abs(result.ratios - 1)
    assert deviations[-1] < deviations[0]
    assert deviations[-1] < 1e-4


def test_class_a_linear_false_constant_ratio():
    eps2 = 0.01
    factor = DeviationFactor(linear_coeff=eps2)
    result = class_a_check(factor, 3.0, np.geomspace(10, 1e5, 12))
    assert not result.verdict
    expected = np.exp(1j * eps2 * 3.0)
    assert np.max(np.abs(result.ratios - expected)) <= 1e-14


def test_class_a_identity_true():
    result = class_a_check(DeviationFactor(), 1.0, np.geomspace(1, 100, 8))
    assert result.verdict
    assert np.allclose(result.ratios, 1.0)


def test_gauge_multiply():
    # a constant gauge phase never changes the class verdict
    grid = np.geomspace(10, 1e4, 8)
    for coeffs in ({"log_coeffs": (0.25,)}, {"linear_coeff": 0.3}):
        assert (
            class_a_check(DeviationFactor(**coeffs, gauge=1.234), 1.0, grid).verdict
            == class_a_check(DeviationFactor(**coeffs), 1.0, grid).verdict
        )


def test_resum_requires_unit_leading_constant():
    with pytest.raises(ValueError):
        resum_coulomb_series([0.5, 1.0], 2.0, 0.1, 1, 10.0)


def test_resum_requires_nonzero_coupling():
    with pytest.raises(ValueError):
        resum_coulomb_series([1.0, 0.5], 2.0, 0.0, 1, 10.0)


def test_resum_phi_zero_is_identity():
    psi = [1.0, 0.7, -0.3]
    out = resum_coulomb_series(psi, 0.0, 0.1, 2, 100.0)
    assert out.a_coeffs == pytest.approx(psi[1:])
    assert np.max(out.residuals) <= 1e-15


def test_resum_at_unit_cutoff():
    psi = [1.0, 2.0, 3.0, 4.0]
    out = resum_coulomb_series(psi, 5.0, 0.2, 3, 1.0)
    assert out.a_coeffs == pytest.approx(psi[1:])  # ln 1 = 0


def test_resum_example_values():
    out = resum_coulomb_series([1.0, 0.5, 0.25], 2.0, 0.1, 2, np.e)
    assert out.recovered[1] == pytest.approx(0.5, abs=1e-13)
    assert out.recovered[2] == pytest.approx(0.25, abs=1e-13)


@given(
    st.lists(st.floats(-10, 10), min_size=8, max_size=8),
    st.floats(-1, 1),
    st.sampled_from([1.0, np.e, 10.0, 100.0]),
)
@settings(max_examples=200, deadline=None)
def test_resum_identity_property(psi_rest, phi, L):
    psi = [1.0] + psi_rest
    out = resum_coulomb_series(psi, phi, 0.1, 8, L)
    assert np.max(out.residuals) <= 1e-12 * max(1.0, np.max(np.abs(psi)))


def test_resum_composition_matches_direct_product():
    # numeric U0^{-1} d equals the resummed series evaluated directly
    psi = [1.0, 0.3, -0.6, 0.2]
    phi, eps, L = 1.7, 0.05, 30.0
    out = resum_coulomb_series(psi, phi, eps, 3, L)
    direct = L ** (-1j * eps * phi) * out.d_value
    assert out.d_tilde_value == pytest.approx(direct, rel=1e-12)
