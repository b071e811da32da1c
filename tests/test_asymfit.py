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
