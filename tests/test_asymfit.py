import copy
import json
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
        # coefficients and stderr are tuples, so they are added as arrays
        delta = np.abs(np.subtract(other.model.coefficients, base.model.coefficients))
        allowed = 5 * np.add(other.stderr, base.stderr)
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


# non-negative like the |residual * L| that fit hands in
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
    got = asymfit._median(values)
    assert type(got) is float
    assert bits(got) == bits(reference_median(values))


def reference_median(values):
    """The middle value, or the float mean of the middle two, as np.median
    takes it; two middles near 1e308 sum to inf."""
    ordered, n = sorted(values), len(values)
    return ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2


def power(x, p):
    """x^p as p - 1 float products, from 1.0."""
    out = 1.0
    for _ in range(p):
        out *= x
    return out


# The per-kind formulas each model class wrote out by hand before the models
# shared one term list, on Python floats.  The shared code must match them bit
# for bit, -0.0 included.
def reference_basis(model, L):
    if model.kind == "log":
        return [[math.log(x) for x in L], [1.0 for x in L]]
    if model.kind == "powerlog":
        return [[x * x for x in L], list(L), [math.log(x) for x in L], [1.0 for x in L]]
    return [[power(math.log(x), p) for x in L] for p in range(len(model.table))]


def reference_divergent_part(model, L):
    if model.kind == "log":
        return model.phi * math.log(L)
    if model.kind == "powerlog":
        return model.phi * (L * L) + model.psi * L + model.nu * math.log(L)
    total = -0.0
    for p, c in enumerate(model.table):
        if p >= 1:
            total += c * power(math.log(L), p)
    return total


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
        return DeviationFactor(log_coeffs=(eps**order * model.phi,), eps_order=order)
    if model.kind == "powerlog":
        return DeviationFactor(
            quad_coeff=eps**order * model.phi,
            linear_coeff=eps**order * model.psi,
            log_coeffs=(eps**order * model.nu,),
            eps_order=order,
        )
    coeffs = np.full(model.degree, -0.0)
    for p in range(1, model.degree + 1):
        coeffs[p - 1] += eps**model.order * model.table[p]
    return DeviationFactor(log_coeffs=tuple(coeffs), eps_order=model.order)


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
    assert bits(asymfit._basis(model.terms, cutoffs)) == bits(reference_basis(model, cutoffs))
    assert bits(*map(model.divergent_part, cutoffs)) == bits(
        *(reference_divergent_part(model, L) for L in cutoffs))
    payload = model.to_dict()
    assert payload == reference_model_dict(model)
    # json.dumps tells -0.0 from 0.0, which == does not
    assert json.dumps(payload, sort_keys=True) == json.dumps(
        reference_model_dict(model), sort_keys=True
    )
    assert asymfit.model_from_dict(payload) == model
    got, expected = factor_from_model(model, eps), reference_factor(model, eps)
    assert (got.eps_order, len(got.log_coeffs)) == (expected.eps_order, len(expected.log_coeffs))
    assert bits(got.quad_coeff, got.linear_coeff, *got.log_coeffs) == bits(
        expected.quad_coeff, expected.linear_coeff, *expected.log_coeffs
    )
    assert json.dumps(got.to_dict()) == json.dumps(expected.to_dict())


def reference_svd(design):
    """The one-sided Jacobi SVD of the matrix of the columns ``design``, written
    out: (sigma_k^2, the rows of V).  Each sweep takes the pairs of columns
    (p, q), p < q, in order, and rotates each pair whose inner product exceeds
    2^-53 times the product of their norms by the angle that makes it zero,
    and V's columns p and q alike; the sweeps end when none rotates."""
    a = [list(column) for column in design]
    n = len(a)
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    while True:
        rotated = False
        for p in range(n):
            for q in range(p + 1, n):
                pp = math.fsum(x * x for x in a[p])
                qq = math.fsum(y * y for y in a[q])
                pq = math.fsum(x * y for x, y in zip(a[p], a[q]))
                if abs(pq) <= 2.0**-53 * math.sqrt(pp * qq):
                    continue
                rotated = True
                zeta = (qq - pp) / (2.0 * pq)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                for i, (x, y) in enumerate(zip(a[p], a[q])):
                    a[p][i], a[q][i] = c * x - s * y, s * x + c * y
                for row in v:
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
        if not rotated:
            return [math.fsum(x * x for x in column) for column in a], v


def reference_stderr(residuals, model, grid):
    """The standard errors as the plain products form them, on the residuals
    r as they are: sqrt(r.r / dof d_j), d_j the diagonal of (D^T D)^-1 =
    V Sigma^-2 V^T, from the SVD of D scaled by 2^-e to a largest entry in
    [0.5, 1), so d_j = sum_k V_jk^2 / sigma_k^2 / 4^e."""
    design = reference_basis(model, grid)
    e = math.frexp(max(abs(x) for column in design for x in column))[1]
    squares, v = reference_svd([[math.ldexp(x, -e) for x in column] for column in design])
    variances = [math.ldexp(math.fsum(x * x / s for x, s in zip(row, squares)), -2 * e)
                 for row in v]
    spread = math.fsum(x * x for x in residuals) / (len(grid) - len(design))
    return [math.sqrt(spread * d) for d in variances]


@pytest.mark.parametrize("kind", ["log", "powerlog", "polylog"])
def test_standard_errors_keep_the_plain_products_bits(kind):
    samples = make_samples(GRID, 0.5 * GRID**2 + 3 * np.log(GRID) ** 2 + 2 + 1 / GRID)
    report = fit(samples, kind)
    want = reference_stderr(report.residuals, report.model, report.grid)
    assert bits(*report.stderr) == bits(*want)


def narrow_samples(amplitude):
    # three cutoffs 1e-6 apart in ln L: (D^T D)^-1 is of order 1e12
    grid = np.e * (1 + np.arange(3) * 1e-6)
    return make_samples(grid, amplitude * np.array([-1.0, 1.0, -1.0]))


def test_standard_errors_scale_past_an_overflowing_square():
    # r.r overflows at 1e302, yet sigma sqrt(diag) is representable
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = fit(narrow_samples(1e302), "log", tail_fraction=1.0).stderr
    unit = fit(narrow_samples(1.0), "log", tail_fraction=1.0).stderr
    assert np.all(np.isfinite(big))
    assert big == pytest.approx(1e302 * np.array(unit), rel=1e-12)


def test_standard_errors_that_overflow_are_refused_by_name():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the log fit's standard errors overflow$"):
            fit(narrow_samples(1e303), "log", tail_fraction=1.0)


def decay_overflow_samples(scale):
    # at scale 1 the residuals, of order 1e305, times L up to 1e4 overflow
    grid = np.geomspace(10, 1e4, 9)
    return make_samples(grid, scale * (1e300 * np.log(grid) + 1e305 * (-1.0) ** np.arange(9)))


def test_decay_verdict_does_not_depend_on_a_common_factor():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge, small = decay_overflow_samples(1.0), decay_overflow_samples(1e-10)
        assert fit(huge, "log").decay_ok is fit(small, "log").decay_ok is False
        assert classify(huge).model.kind == classify(small).model.kind == "powerlog"


def noisy_log_samples():
    """20 seeded grids of 12 cutoffs, each with the imaginary parts
    3 ln L + 2 plus noise of a random size, flat or decaying as 1/L."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        grid = np.sort(rng.uniform(10, 1e4, 12))
        noise = rng.standard_normal(12) * 10.0 ** rng.uniform(-8, 0) / grid ** rng.integers(0, 2)
        yield grid, 3 * np.log(grid) + 2 + noise


@pytest.mark.parametrize("kind", ["log", "powerlog"])
@pytest.mark.parametrize("scale", [1e-100, 1e-10, 1.0, 1e10, 1e100])
def test_scaled_residual_statistics_keep_the_plain_formulas_bits(kind, scale):
    # r / 2^k scaled back by 2^k is exact: stderr and the decay verdict read
    # as the plain formulas on r wherever those are normal
    verdicts = set()
    for grid, unscaled in noisy_log_samples():
        imag = (scale * unscaled).tolist()
        report = fit(make_samples(grid, imag), kind)
        r, L = report.residuals, report.grid
        assert bits(*report.stderr) == bits(*reference_stderr(r, report.model, L))
        scaled = [abs(x * y) for x, y in zip(r, L)]
        floor = 1e-9 * max(map(abs, imag[-len(L):]))
        want = max(scaled) <= max(10.0 * reference_median(scaled[: len(L) // 2]), floor)
        assert report.decay_ok is want
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("kind", ["log", "powerlog", "polylog"])
@pytest.mark.parametrize("j", [-900, -60, -1, 1, 60, 900])
def test_standard_errors_of_power_of_two_multiples_keep_their_bits(kind, j):
    # the stderr of 2^j r has exactly the bits of 2^j times the stderr of r
    for grid, imag in noisy_log_samples():
        base = fit(make_samples(grid, imag), kind)
        scaled = fit(make_samples(grid, [math.ldexp(y, j) for y in imag]), kind)
        assert bits(*scaled.stderr) == bits(*(math.ldexp(s, j) for s in base.stderr))
        assert bits(*scaled.residuals) == bits(*(math.ldexp(x, j) for x in base.residuals))


@pytest.mark.parametrize("kind", ["log", "powerlog"])
def test_decay_verdict_does_not_depend_on_the_samples_units(kind):
    # the floor is 1e-9 of the largest |Im| on the tail, so it scales with the samples
    verdicts = [
        {fit(make_samples(grid, scale * imag), kind).decay_ok for scale in (1e-12, 1.0, 1e12)}
        for grid, imag in noisy_log_samples()
    ]
    assert all(len(v) == 1 for v in verdicts)
    assert set().union(*verdicts) == {True, False}


def test_a_models_kind_is_its_class():
    with pytest.raises(TypeError):
        asymfit.LogModel(1.0, 2.0, "polylog")
    assert asymfit.LogModel(1.0, 2.0).to_dict() == {"kind": "log", "phi": 1.0, "psi": 2.0}
    with pytest.raises(ValueError, match="^unknown model keys: nu$"):
        asymfit.model_from_dict({"kind": "log", "phi": 1, "psi": 2, "nu": 5})


@pytest.mark.parametrize(
    "model",
    [
        asymfit.LogModel(-0.0, 2.0),
        asymfit.PowerLogModel(0.5, -0.0, 3.0, -1.0),
        asymfit.PolyLogModel((-0.0, 1.5, -2.0), order=3),
    ],
    ids=lambda model: model.kind,
)
def test_models_are_values(model):
    # equal and equally hashed through the model dict, a deep copy and a
    # pickle round trip, with every coefficient's bits, -0.0 included
    for twin in (
        asymfit.model_from_dict(model.to_dict()),
        copy.deepcopy(model),
        pickle.loads(pickle.dumps(model)),
    ):
        assert twin == model and hash(twin) == hash(model)
        assert (twin.kind, twin.order, twin.names) == (model.kind, model.order, model.names)
        assert bits(*twin.coefficients) == bits(*model.coefficients)
        if model.kind != "polylog":
            assert bits(twin.phi, twin.psi) == bits(model.phi, model.psi)
    assert len({model, copy.deepcopy(model)}) == 1
    # the same coefficients under another kind, or order, are another model
    assert model != asymfit.PolyLogModel(model.table, order=model.order + 1)


# a tail window: its first cutoff, the ratio of neighbours and its length, with
# the divergence's coefficients and a 1/L remainder
WINDOWS = st.tuples(
    st.floats(1.5, 1e4), st.floats(1.01, 10.0), st.integers(2, 12),
    st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6), st.floats(-1.0, 1.0),
)
KINDS = st.sampled_from([("log", 2), ("powerlog", 2), ("polylog", 2), ("polylog", 3),
                         ("polylog", 4)])


def norm(x):
    return math.hypot(*np.ravel(x))


@settings(max_examples=300, deadline=None)
@given(window=WINDOWS, kind=KINDS)
# windows where lstsq reads the basis as rank deficient: five cutoffs 1e-9
# apart, and a degree-8 poly-log on a decade of cutoffs
@example(window=(100.0, 1.0 + 1e-11, 5, [0.5, -1.0, 4.0, 7.0, 0.0, 0.0], 0.0),
         kind=("powerlog", 2))
@example(window=(100.0, 10.0 ** (1 / 11), 12, [1.0] * 9, 1.0), kind=("polylog", 8))
def test_fit_matches_lstsq_within_round_off_times_the_condition_number(window, kind):
    start, ratio, count, coefficients, remainder = window
    kind, degree = kind
    grid = start * ratio ** np.arange(count)
    terms = list(asymfit._kind_terms(kind, degree).values())
    design = np.column_stack([grid**a * np.log(grid) ** b for a, b in terms])
    imag = design @ coefficients[: len(terms)] + remainder / grid
    samples = make_samples(grid, imag)
    m, n = design.shape
    if m <= n:
        return
    reference, _, rank, singular = np.linalg.lstsq(design, imag, rcond=None)
    if rank < n:
        # IllPosedFitError fires where it fired when lstsq solved the fits
        with pytest.raises(IllPosedFitError):
            fit(samples, kind, tail_fraction=1.0, degree=degree)
        return
    kappa = singular[0] / singular[-1]
    if kappa * 2.0**-52 * 64 * max(m, n) > 1:
        return  # near lstsq's cut, either verdict on the rank is round-off
    report = fit(samples, kind, tail_fraction=1.0, degree=degree)
    # the sensitivity of least squares to round-off in D and in the values:
    # kappa |x| + kappa^2 |r| / |D|, in units of 2^-52; the norms are taken by
    # math.hypot, whose squares do not underflow on tiny coefficients
    residual = norm(imag - design @ reference)
    bound = 2.0**-52 * (kappa * norm(reference) + kappa**2 * residual / singular[0])
    error = norm(np.subtract(report.model.coefficients, reference))
    assert error <= 8 * bound
    # the standard errors, sqrt(r.r / dof diag (D^T D)^-1), with the diagonal
    # from numpy's SVD of D: to the residual's sensitivity, sigma_max times the
    # coefficients', the inverse adds kappa^2 |r|
    _, _, vt = np.linalg.svd(design, full_matrices=False)
    scale = np.sqrt(np.sum((vt / singular[:, None]) ** 2, axis=0) / (m - n))
    slack = 2.0**-52 * (kappa * singular[0] * norm(reference) + kappa**2 * residual)
    assert np.all(np.abs(np.subtract(report.stderr, residual * scale)) <= 8 * scale * slack)


def test_a_basis_that_overflows_on_the_window_is_refused_by_name():
    # L^2 overflows past L = 1.3e154; numpy's lstsq ran for minutes on the inf
    samples = log_samples(np.geomspace(1e150, 1e160, 10))
    with pytest.raises(IllPosedFitError, match="^model basis overflows on the window$"):
        fit(samples, "powerlog", tail_fraction=1.0)
    assert fit(samples, "log", tail_fraction=1.0).model.phi == pytest.approx(3.0, rel=1e-12)
