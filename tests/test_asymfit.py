import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scatreg import asymfit
from scatreg.asymfit import (
    IllPosedFitError,
    ModelMismatchError,
    UnclassifiedDivergenceError,
    classify,
    fit,
)
from scatreg.ballquad import CutoffSamples
from scatreg.deviation import DeviationFactor, factor_from_model


def make_samples(grid, imag_values):
    grid = np.asarray(grid, dtype=float)
    return CutoffSamples(
        grid=grid, values=1j * np.asarray(imag_values)
    )


def log_samples(grid, phi=3.0, psi=2.0, tail=0.0):
    grid = np.asarray(grid, dtype=float)
    return make_samples(grid, phi * np.log(grid) + psi + tail / grid)


GRID = np.geomspace(10, 1000, 17)


def test_exact_log_recovery():
    report = fit(log_samples(GRID), "log")
    assert report.model.phi == pytest.approx(3.0, abs=1e-12)
    assert report.model.psi == pytest.approx(2.0, abs=1e-12)
    assert report.decay_ok


def test_powerlog_recovery_with_remainder():
    # the 1/L remainder projects onto the {ln L, 1} directions, so nu and mu
    # carry O(1/L_min) bias no window choice removes; phi and psi are sharp
    grid = np.geomspace(1e3, 1e5, 33)
    values = 0.5 * grid**2 - grid + 4 * np.log(grid) + 7 + 1 / grid
    report = fit(make_samples(grid, values), "powerlog")
    assert report.model.phi == pytest.approx(0.5, abs=1e-10)
    assert report.model.psi == pytest.approx(-1.0, abs=1e-6)
    assert report.model.nu == pytest.approx(4.0, abs=5e-4)
    assert report.model.mu == pytest.approx(7.0, abs=5e-3)
    assert report.decay_ok


def test_powerlog_exact_recovery():
    grid = np.geomspace(10, 1000, 33)
    values = 0.5 * grid**2 - grid + 4 * np.log(grid) + 7
    report = fit(make_samples(grid, values), "powerlog")
    assert report.model.coefficients == pytest.approx([0.5, -1, 4, 7], abs=1e-8)
    assert report.decay_ok


def test_polylog_recovery():
    grid = np.geomspace(10, 1e4, 25)
    logl = np.log(grid)
    report = fit(make_samples(grid, 1.5 * logl**2 + 2 * logl - 3), "polylog", degree=2)
    assert report.model.table == pytest.approx([-3, 2, 1.5], abs=1e-9)


def test_real_parts_policed():
    samples = CutoffSamples(
        grid=GRID, values=np.log(GRID) * (1 + 1j)
    )
    with pytest.raises(ModelMismatchError):
        fit(samples, "log")


def test_too_few_tail_samples():
    with pytest.raises(IllPosedFitError):
        fit(log_samples([10.0, 100.0]), "log", tail_fraction=1.0)


def test_rank_deficient_window():
    # constant grid values cannot happen (ascending), but a tiny window with
    # an over-rich basis is rank deficient in float precision
    grid = np.array([100.0, 100.0 + 1e-9, 100.0 + 2e-9, 100.0 + 3e-9, 100.0 + 4e-9])
    with pytest.raises((IllPosedFitError, ModelMismatchError)):
        fit(log_samples(grid), "powerlog", tail_fraction=1.0)


def test_consistency_powerlog_on_log_data():
    report = fit(log_samples(GRID), "powerlog")
    scale = np.max(np.abs(log_samples(GRID).values))
    assert abs(report.model.phi) <= 1e-6 * scale
    assert abs(report.model.psi) <= 1e-6 * scale
    assert report.model.nu == pytest.approx(3.0, abs=1e-6)
    assert report.model.mu == pytest.approx(2.0, abs=1e-6)


def test_stability_across_tail_fractions():
    samples = log_samples(np.geomspace(10, 1e4, 33), tail=0.5)
    base = fit(samples, "log", tail_fraction=0.5)
    for tf in (0.3, 0.4, 0.6, 0.7):
        other = fit(samples, "log", tail_fraction=tf)
        delta = np.abs(other.model.coefficients - base.model.coefficients)
        allowed = 5 * (other.stderr + base.stderr)
        assert np.all(delta <= allowed + 1e-12)


def test_decay_verdict_fails_for_wrong_model():
    grid = np.geomspace(10, 1000, 17)
    values = 0.5 * grid**2 + np.log(grid)
    report = fit(make_samples(grid, values), "log")
    assert not report.decay_ok


def test_classify_log():
    assert classify(log_samples(GRID, tail=0.3)).model.kind == "log"


def test_classify_powerlog():
    grid = np.geomspace(10, 1000, 17)
    values = 0.5 * grid**2 - grid + 4 * np.log(grid) + 7 + 1 / grid
    assert classify(make_samples(grid, values)).model.kind == "powerlog"


def test_classify_polylog():
    grid = np.geomspace(10, 1e4, 25)
    logl = np.log(grid)
    report = classify(make_samples(grid, logl**2 + 2 * logl))
    assert report.model.kind == "polylog"
    assert report.model.degree == 2


def test_classify_needs_enough_samples():
    with pytest.raises(IllPosedFitError):
        classify(log_samples(np.geomspace(10, 100, 5)))


def test_unclassified_divergence():
    grid = np.geomspace(10, 1000, 17)
    values = grid**3  # faster than any model basis
    with pytest.raises(UnclassifiedDivergenceError) as err:
        classify(make_samples(grid, values))
    assert len(err.value.reports) >= 3


def test_report_serializes():
    report = fit(log_samples(GRID), "log")
    payload = report.to_dict()
    assert payload["model"]["kind"] == "log"
    assert payload["decay_ok"] is True
    assert len(payload["residuals"]) == len(payload["grid"])
    for kind in ("log", "powerlog", "polylog"):
        report = fit(log_samples(GRID), kind)
        assert asymfit.model_from_dict(report.to_dict()["model"]) == report.model
    for bad in (
        {"kind": "log", "psi": 1.0},
        {"kind": "cubic"},
        {"kind": "log", "phi": [1], "psi": 0},
    ):
        with pytest.raises(ValueError):
            asymfit.model_from_dict(bad)


def test_classify_skips_degrees_the_tail_cannot_fit(monkeypatch):
    grid = np.geomspace(10, 1000, 24)
    # no model fits an alternating sequence, so every degree is tried
    samples = make_samples(grid, (-1.0) ** np.arange(24) * grid)
    tail = 12  # the default tail_fraction 0.5 of 24 samples
    calls = []
    real_fit = asymfit.fit

    def counting_fit(*args, **kwargs):
        calls.append(kwargs["degree"])
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(asymfit, "fit", counting_fit)
    with pytest.raises(UnclassifiedDivergenceError) as hopeless:
        classify(samples, max_degree=20000)
    assert len(calls) <= tail
    # every degree left out is one fit refuses: the reports are those of the
    # highest degree the tail can fit
    with pytest.raises(UnclassifiedDivergenceError) as fitting:
        classify(samples, max_degree=tail - 2)
    assert [r.model for r in hopeless.value.reports] == [r.model for r in fitting.value.reports]


def test_negative_polylog_degree_is_refused_naming_it():
    with pytest.raises(ValueError, match="degree must be at least 0, got -1"):
        fit(log_samples(GRID), "polylog", degree=-1)


def test_polylog_degree_past_the_tail_is_refused_before_any_term(monkeypatch):
    def no_terms(degree):
        raise AssertionError(f"built the terms of degree {degree}")

    monkeypatch.setattr(asymfit, "_polylog_terms", no_terms)
    with pytest.raises(IllPosedFitError, match="need more than 1000001 tail samples"):
        fit(log_samples(GRID), "polylog", degree=10**6)


# non-negative like the |residual * L| that fit hands in: among equal values
# np.median's partition may pick either of 0.0 and -0.0
MEDIAN_VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2e-308, 1.0, 1e308, 1.7976931348623157e308]),
    st.floats(min_value=0.0, max_value=1.7976931348623157e308),
    st.floats(min_value=0.0, max_value=1e-307),
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.one_of(
        st.lists(MEDIAN_VALUES, min_size=1, max_size=12),
        # ties: few distinct values
        st.lists(st.sampled_from([0.0, 5e-324, 3.0, 1e308]), min_size=1, max_size=12),
    )
)
def test_median_matches_numpy_bit_for_bit(values):
    values = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # two middles near 1e308
        got, expected = asymfit._median(values), np.median(values)
    assert type(got) is type(expected)
    assert got.tobytes() == expected.tobytes()


# The per-kind formulas each model class wrote out by hand before the models
# shared one term list.  The shared code must match them bit for bit, -0.0
# included.
def reference_basis(model, L):
    if model.kind == "log":
        return np.column_stack([np.log(L), np.ones_like(L)])
    if model.kind == "powerlog":
        return np.column_stack([L**2, L, np.log(L), np.ones_like(L)])
    return np.column_stack([np.log(L) ** p for p in range(len(model.table))])


def reference_divergent_part(model, L):
    if model.kind == "log":
        return model.phi * np.log(L)
    if model.kind == "powerlog":
        return model.phi * L**2 + model.psi * L + model.nu * np.log(L)
    logl = np.log(L)
    return sum(c * logl**p for p, c in enumerate(model.table) if p >= 1)


def reference_model_dict(model):
    payload = {"kind": model.kind}
    if model.kind == "polylog":
        payload["table"] = list(np.asarray(model.table, dtype=float))
        payload["order"] = model.order
    else:
        names = {"log": ("phi", "psi"), "powerlog": ("phi", "psi", "nu", "mu")}[model.kind]
        for name in names:
            payload[name] = float(getattr(model, name))
    return payload


def reference_factor(model, eps, order=2):
    eps = float(eps)
    if model.kind == "log":
        return DeviationFactor(log_coeffs=(eps**order * model.phi,), eps=eps, eps_order=order)
    if model.kind == "powerlog":
        return DeviationFactor(
            quad_coeff=eps**order * model.phi,
            linear_coeff=eps**order * model.psi,
            log_coeffs=(eps**order * model.nu,),
            eps=eps,
            eps_order=order,
        )
    coeffs = np.zeros(model.degree)
    for p in range(1, model.degree + 1):
        coeffs[p - 1] += eps**model.order * model.table[p]
    return DeviationFactor(log_coeffs=tuple(coeffs), eps=eps, eps_order=model.order)


COEFFICIENT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3))
MODELS = st.one_of(
    st.builds(asymfit.LogModel, COEFFICIENT, COEFFICIENT),
    st.builds(asymfit.PowerLogModel, COEFFICIENT, COEFFICIENT, COEFFICIENT, COEFFICIENT),
    st.builds(asymfit.PolyLogModel, st.lists(COEFFICIENT, min_size=1, max_size=5).map(tuple),
              st.integers(1, 4)),
)
# cutoffs on both sides of L = 1, where ln L is 0
CUTOFFS = st.lists(st.sampled_from([1.0, 0.5]) | st.floats(1e-3, 1e5), min_size=1, max_size=6)


def bits(*values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


@settings(max_examples=400, deadline=None)
@given(model=MODELS, cutoffs=CUTOFFS, eps=st.sampled_from([0.0, -0.0]) | st.floats(-2, 2))
def test_shared_terms_match_the_per_kind_formulas_bit_for_bit(model, cutoffs, eps):
    L = np.array(cutoffs)
    assert bits(asymfit._basis(model.terms, L)) == bits(reference_basis(model, L))
    assert bits(model.divergent_part(L)) == bits(reference_divergent_part(model, L))
    payload = model.to_dict()
    assert payload == reference_model_dict(model)
    # json.dumps tells -0.0 from 0.0, which == does not
    assert json.dumps(payload, sort_keys=True) == json.dumps(
        reference_model_dict(model), sort_keys=True
    )
    assert asymfit.model_from_dict(payload) == model
    got, expected = factor_from_model(model, eps), reference_factor(model, eps)
    assert (got.eps, got.eps_order, len(got.log_coeffs)) == (
        expected.eps, expected.eps_order, len(expected.log_coeffs)
    )
    assert bits(got.quad_coeff, got.linear_coeff, *got.log_coeffs) == bits(
        expected.quad_coeff, expected.linear_coeff, *expected.log_coeffs
    )
    assert json.dumps(got.to_dict()) == json.dumps(expected.to_dict())
