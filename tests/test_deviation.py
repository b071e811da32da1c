import math

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


def test_factor_refuses_bad_coefficients_and_cutoffs():
    with pytest.raises(ValueError, match="must be finite reals"):
        DeviationFactor(linear_coeff=float("nan"))
    with pytest.raises(ValueError, match="^the cutoff must be positive and finite$"):
        DeviationFactor().exponent(0.0)


def test_a_non_finite_or_overflowing_coupling_is_refused_by_name():
    # without a numpy warning, which the test settings turn into an error
    for eps in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^the coupling must be finite, got eps={eps!r}$"):
            factor_from_model(LogModel(3.0, 2.0), eps)
        with pytest.raises(ValueError, match=f"^the coupling must be finite, got eps={eps!r}$"):
            resum_coulomb_series([1.0, 0.5], 2.0, eps, 1, 10.0)
    with pytest.raises(ValueError, match=r"^eps\^order c overflows at eps=100.0, order=2$"):
        factor_from_model(LogModel(1e307, 0.0), 100.0)
    # a numpy phi too: its product with eps is taken as a plain float
    with pytest.raises(ValueError, match=r"^eps phi overflows at eps=1e\+300, phi=np"):
        resum_coulomb_series([1.0, 0.5], np.float64(1e10), 1e300, 1, 2.0)


def test_exponent_without_l2_term_past_l2_overflow():
    # L**2 overflows at L = 1e200, and 0 * inf would be NaN
    factor = DeviationFactor(log_coeffs=(0.25,), gauge=0.5)
    assert factor.exponent(1e200) == 0.0 + 0.0 + 0.5 + 0.25 * np.log(1e200)
    assert abs(factor(1e200)) == pytest.approx(1.0, abs=1e-15)


def test_exponent_skips_l2_per_row():
    # a zero quad_coeff must not square L = 1e200: 0 * inf would be NaN, with a warning
    ln_l = np.log(1e200)
    for quad in (0.0, -0.0):
        assert DeviationFactor(quad, log_coeffs=(0.25,)).exponent(1e200) == 0.25 * ln_l
    theta = DeviationFactor(0.5, log_coeffs=(0.25,)).exponent(10.0)
    assert theta == 50.0 + 0.25 * np.log(10.0)
    with pytest.warns(RuntimeWarning, match="overflow") as caught:
        theta = DeviationFactor(1e-300, log_coeffs=(0.25,)).exponent(1e200)
    assert theta == np.inf and len(caught) == 1


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


@pytest.mark.parametrize("order", [1, 2, 3])
def test_inverse_factor_expansion_sits_at_stride_order(order):
    # with a_1..a_N = 0 the per-order coefficients are those of exp(-i theta eps^k)
    theta, eps, n = 0.7, 0.1, 9
    factor = DeviationFactor(log_coeffs=(theta * eps**order,), eps_order=order)
    out = regularized_series(np.zeros(n), factor, eps, np.e)  # ln L = 1
    expected = np.zeros(n + 1, dtype=complex)
    expected[::order] = [(-1j * theta) ** j / math.factorial(j) for j in range(n // order + 1)]
    assert out.coefficients == pytest.approx(expected, rel=1e-14, abs=0)
    truncated = sum(c * eps**m for m, c in enumerate(out.coefficients))
    direct = sum((-1j * theta * eps**order) ** j / math.factorial(j)
                 for j in range(n // order + 1))
    assert truncated == pytest.approx(direct, rel=1e-15)
    # the first term left out is below 2e-13 for every order
    assert truncated == pytest.approx(np.exp(-1j * theta * eps**order), abs=1e-12)


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


def test_class_a_check_refuses_a_bad_grid_or_shift():
    with pytest.raises(ValueError, match="strictly ascending"):
        class_a_check(DeviationFactor(), 1.0, [10.0, 5.0])
    with pytest.raises(ValueError, match="^shift must be finite and positive$"):
        class_a_check(DeviationFactor(), 0.0, [5.0, 10.0])


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


def test_resum_order_needs_its_constants():
    with pytest.raises(ValueError, match="^order 3 exceeds"):
        resum_coulomb_series([1.0, 0.5], 2.0, 0.1, 3, 10.0)


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


def test_resum_past_171_constants():
    # each power is the last one times x/k, so k! never overflows on its own
    psi = [1.0] + [0.0] * 180
    out = resum_coulomb_series(psi, 0.1, 0.1, 180, 2.0)
    assert np.max(out.residuals) <= 1e-12


@pytest.mark.parametrize(
    "psi, phi, eps, L, named",
    [
        ([1.0, 1e308, 1e308], 10.0, 0.1, np.e, "a_m overflows"),
        ([1.0, 1e300], 0.5, 1e10, 2.0, "the sum d overflows"),
        ([1.0, 0.5, 0.2], 1e308, 0.1, np.e, "(i phi ln L)^k/k! overflows"),
        # a_m finite, but the products that recover psi pass the float range
        ([1.0, 1e306] + [0.0] * 10, 5.0, 0.1, np.e, "a regularized coefficient overflows"),
        # eps phi ln L overflows where phi ln L does not
        ([1.0], 1e298, 1e10, 1e10, "U0^-1 d overflows"),
    ],
)
def test_resum_refuses_each_overflow_by_name(psi, phi, eps, L, named):
    # pytest turns a RuntimeWarning into an error, so these raise without one
    with pytest.raises(ValueError) as info:
        resum_coulomb_series(psi, phi, eps, len(psi) - 1, L)
    assert str(info.value).startswith(named)


@pytest.mark.parametrize(
    "log_coeff, eps, order",
    [
        (1e300, 1e-5, 1),  # theta = 1e300 ln 10 / 1e-5 is finite, theta^2 / 2 is not
        (1.0, 1e-200, 2),  # eps^2 underflows to 0, so theta is not finite
    ],
)
def test_regularized_series_refuses_an_overflowing_inverse_power(log_coeff, eps, order):
    factor = DeviationFactor(log_coeffs=(log_coeff,), eps_order=order)
    with pytest.raises(ValueError, match=r"^\(-i theta\)\^k/k! overflows at eps="):
        regularized_series([0.0, 0.0], factor, eps, 10.0)


def test_regularized_series_past_eps_overflow():
    # eps^2 overflows, so theta and every inverse term past the first are 0
    factor = DeviationFactor(log_coeffs=(1.0,), eps_order=2)
    out = regularized_series([], factor, 1e200, 10.0)
    assert out.coefficients.tolist() == [1.0]
