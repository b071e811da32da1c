import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scatreg import ballquad
from scatreg.ballquad import (
    BallRegion,
    CutoffSamples,
    QuadratureSpec,
    SingularIntegrandError,
    integrate_ball,
    sample_over_cutoffs,
    screen_singularities,
)
from scatreg.integrand import evaluate, o4_invariant, parse_integrand

RATIONAL = parse_integrand("1/(P2+1)^2")


def radial_oracle(f, radius):
    """Independent 1-d oracle for radially symmetric integrands:
    2 pi^2 * integral of r^3 f(r) over [0, L], by adaptive quadrature."""
    from scipy.integrate import quad

    value, err = quad(
        lambda r: r**3 * f(r), 0.0, radius, epsabs=1e-12, epsrel=1e-12, limit=200
    )
    if not math.isfinite(value) or err > 1e-6 * max(1.0, abs(value)):
        raise ValueError(f"radial quadrature did not converge (error {err:.3e})")
    return 2 * np.pi**2 * value


def closed_form(L):
    # 2 pi^2 int r^3/(r^2+1)^2 dr = pi^2 (ln(1+L^2) - L^2/(1+L^2))
    return np.pi**2 * (np.log(1 + L**2) - L**2 / (1 + L**2))


def test_region_and_spec_validation():
    with pytest.raises(ValueError):
        BallRegion(-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(radial_order=1)
    with pytest.raises(ValueError):
        QuadratureSpec(angular_orders=(8, 8))
    with pytest.raises(ValueError):
        QuadratureSpec(angular_orders=(8.0, 8, 8))


def test_cutoff_samples_validation():
    with pytest.raises(ValueError):
        CutoffSamples(grid=[2.0, 1.0], values=[0, 0])
    with pytest.raises(ValueError):
        CutoffSamples(grid=[1.0, 2.0], values=[0, np.nan])
    for grid in ([-5.0, -1.0], [0.0, 1.0]):
        with pytest.raises(ValueError, match="^cutoffs must be positive$"):
            CutoffSamples(grid=grid, values=[0, 0])
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="^error estimates must be finite and non-negative$"):
            CutoffSamples(grid=[1.0, 2.0], values=[0, 0], errors=[0.0, bad])


def test_cutoff_samples_need_one_value_per_cutoff():
    with pytest.raises(ValueError, match="congruent$"):
        CutoffSamples(grid=[1.0, 2.0], values=[1j])


def test_zero_integrand():
    value, err = integrate_ball(None, None, (0, 0, 0), 0.0, BallRegion(2.0))
    assert value == 0 and err == 0


def test_constant_integrand_is_ball_volume():
    value, err = integrate_ball(
        parse_integrand("1"), None, (0, 0, 0), 0.0, BallRegion(2.0)
    )
    assert value.real == pytest.approx(8 * np.pi**2, rel=1e-12)
    assert value.imag == 0


def test_rational_integrand_matches_closed_form():
    value, err = integrate_ball(None, RATIONAL, (0, 0, 0), 0.0, BallRegion(10.0))
    assert value.imag == pytest.approx(closed_form(10.0), rel=1e-10)
    assert err <= 1e-8


def test_matches_radial_oracle():
    oracle = radial_oracle(lambda r: 1 / (r**2 + 1) ** 2, 10.0)
    value, _ = integrate_ball(None, RATIONAL, (0, 0, 0), 0.0, BallRegion(10.0))
    assert abs(value.imag - oracle) <= max(1e-8, 1e-6 * abs(oracle))


def test_radial_oracle_basics():
    assert radial_oracle(lambda r: 1.0, 1.0) == pytest.approx(np.pi**2 / 2, rel=1e-12)
    assert radial_oracle(lambda r: r, 1.0) == pytest.approx(2 * np.pi**2 / 5, rel=1e-12)


def test_singular_integrand_refused():
    with pytest.raises(SingularIntegrandError):
        integrate_ball(None, parse_integrand("1/P2"), (0, 0, 0), 0.0, BallRegion(1.0))


def test_coordinate_integrand_flagged_on_the_4d_grid():
    # it names p1, so the screen scans the whole (r, chi, theta, phi) grid,
    # which the plane p1 = 0.3 cuts inside the ball
    f = parse_integrand("1/(p1-0.3)")
    with pytest.raises(SingularIntegrandError) as caught:
        integrate_ball(f, None, (0, 0, 0), 0.0, BallRegion(1.0))
    assert str(caught.value.report) == (
        "[FLAG] 1/(p1 - 0.3): min |den| = 1.521e-03, sign change inside ball"
    )


def test_sample_over_cutoffs_constant():
    samples = sample_over_cutoffs(
        parse_integrand("1"), None, (0, 0, 0), 0.0, [1.0, 2.0]
    )
    assert np.real(samples.values) == pytest.approx(
        [np.pi**2 / 2, 8 * np.pi**2], rel=1e-12
    )


def test_sample_over_cutoffs_log_differences():
    grid = np.array([10.0, 20.0, 40.0, 80.0])
    samples = sample_over_cutoffs(None, RATIONAL, (0, 0, 0), 0.0, grid)
    diffs = np.diff(np.imag(samples.values))
    assert diffs == pytest.approx(np.diff(closed_form(grid)), rel=1e-8)
    assert np.all(np.abs(diffs - 2 * np.pi**2 * np.log(2)) < 0.2)


def test_sample_over_cutoffs_needs_an_ascending_grid():
    with pytest.raises(ValueError, match="^cutoff grid must be strictly ascending$"):
        sample_over_cutoffs(parse_integrand("1"), None, (0, 0, 0), 0.0, [20.0, 10.0])


def test_cutoff_monotone_for_nonnegative_integrand():
    grid = np.geomspace(1, 50, 8)
    samples = sample_over_cutoffs(RATIONAL, None, (0, 0, 0), 0.0, grid)
    assert np.all(np.diff(np.real(samples.values)) > 0)


def test_shell_additivity():
    f = parse_integrand("1/(P2+2)^3")
    v1, e1 = integrate_ball(f, None, (0, 0, 0), 0.0, BallRegion(3.0))
    v2, e2 = integrate_ball(f, None, (0, 0, 0), 0.0, BallRegion(7.0))
    shell_oracle = radial_oracle(lambda r: 1 / (r**2 + 2) ** 3, 7.0) - radial_oracle(
        lambda r: 1 / (r**2 + 2) ** 3, 3.0
    )
    assert (v2 - v1).real == pytest.approx(shell_oracle, abs=max(1e-8, e1 + e2))


@pytest.mark.parametrize("c,k", [(1.0, 2), (2.0, 3)])
def test_refinement_convergence_order(c, k):
    # halved orders must be >= 10x less accurate than defaults on smooth family
    f = parse_integrand(f"1/(P2+{c})^{k}")
    exact = radial_oracle(lambda r: 1 / (r**2 + c) ** k, 30.0)
    coarse = QuadratureSpec(radial_order=16, angular_orders=(8, 8, 8))
    fine = QuadratureSpec(radial_order=32, angular_orders=(16, 16, 16))
    ec = abs(integrate_ball(f, None, (0, 0, 0), 0, BallRegion(30.0), coarse)[0] - exact)
    ef = abs(integrate_ball(f, None, (0, 0, 0), 0, BallRegion(30.0), fine)[0] - exact)
    assert ef * 10 <= ec


def test_integrand_with_kinematic_dependence():
    # F = PQ / (P2 + 1)^3 integrates to 0 by antisymmetry
    f = parse_integrand("PQ/(P2+1)^3")
    value, err = integrate_ball(f, None, (0.5, 1.0, -2.0, 0.3), 1.0, BallRegion(4.0))
    assert abs(value.real) <= 1e-10


def test_invariant_integrand_takes_the_reduced_rule(monkeypatch):
    sizes = []

    def counting_evaluate(expr, ctx):
        sizes.append(ctx["p0"].size)
        return evaluate(expr, ctx)

    monkeypatch.setattr(ballquad, "evaluate", counting_evaluate)
    value, _ = integrate_ball(None, RATIONAL, (0, 0, 0), 0.0, BallRegion(10.0))
    assert value.imag == pytest.approx(closed_form(10.0), rel=1e-10)
    # one point per (r, chi) node of the default 64 x 32 rule and its half-order
    # estimate; m = q = 0, so the radial axis is not split
    assert sizes == [64 * 32, 32 * 16]


def test_coordinate_integrand_takes_the_tensor_rule(monkeypatch):
    sizes = []

    def counting_evaluate(expr, ctx):
        sizes.append(ctx["p0"].size)
        return evaluate(expr, ctx)

    monkeypatch.setattr(ballquad, "evaluate", counting_evaluate)
    spec = QuadratureSpec(radial_order=24, angular_orders=(16, 16, 16))
    f = parse_integrand("p1^2/(P2+1)^3")
    value, _ = integrate_ball(f, None, (0, 0, 0), 0.0, BallRegion(10.0), spec)
    oracle = radial_oracle(lambda r: r**2 / 4 / (r**2 + 1) ** 3, 10.0)
    assert abs(value.real - oracle) <= max(1e-8, 1e-6 * abs(oracle))
    assert sizes == [24 * 16**3, 12 * 8**3]


def test_a_coordinate_behind_a_unary_minus_is_seen():
    # the tree walk that picks the rule and the screen's grid follows Neg nodes
    assert not o4_invariant(parse_integrand("-p1^2/(P2+1)^3"))
    assert not o4_invariant(parse_integrand("1/(P2+1)^2 - (-(p1))"))
    assert o4_invariant(parse_integrand("-1/(P2+1)^2"))


# Invariant integrands that are positive on the ball, so a relative tolerance
# applies: numerators are sums of products of nonnegative invariants (P2 + PQ
# + Q2 >= (P2 + Q2) / 2), denominators products of powers of positive ones.
NUMERATOR_FACTORS = st.sampled_from(
    ["2.5", "P2", "Q2", "m^2", "L", "(P2+PQ+Q2)", "(P2-PQ+Q2)", "(P2+2*PQ+Q2)"]
)
DENOMINATOR_FACTORS = st.sampled_from(
    ["(P2+1)", "(P2+2.5)", "(P2+m^2)", "(P2+2*PQ+Q2+m^2)", "(P2-2*PQ+Q2+m^2)"]
)
EXPANSIONS = {
    "P2": "(p0^2+p1^2+p2^2+p3^2)",
    "PQ": "(p0*q0+p1*q1+p2*q2+p3*q3)",
    "Q2": "(q0^2+q1^2+q2^2+q3^2)",
}


@st.composite
def invariant_sources(draw):
    terms = draw(
        st.lists(st.lists(NUMERATOR_FACTORS, min_size=1, max_size=2), min_size=1, max_size=2)
    )
    powers = draw(
        st.lists(st.tuples(DENOMINATOR_FACTORS, st.integers(1, 3)), min_size=1, max_size=2)
    )
    numerator = "+".join("*".join(factors) for factors in terms)
    denominator = "*".join(f"{base}^{k}" for base, k in powers)
    return f"({numerator})/({denominator})"


@settings(max_examples=20, deadline=None)
@given(
    source=invariant_sources(),
    radius=st.floats(0.5, 10.0),
    m=st.floats(1.0, 2.0),
)
def test_reduced_rule_matches_tensor_rule(source, radius, m):
    expanded = re.sub(r"\b(P2|PQ|Q2)\b", lambda match: EXPANSIONS[match.group(1)], source)
    f, f4 = parse_integrand(source), parse_integrand(expanded)
    assert o4_invariant(f) and not o4_invariant(f4)
    spec = QuadratureSpec(radial_order=24, angular_orders=(16, 16, 16))
    # |q| well below m keeps the 16-node tensor rule itself converged to ~1e-10
    # in every direction of q; at |q| ~ m its angular error reaches 1e-8
    q = (0.1, 0.15, -0.05, 0.12)
    reduced, _ = integrate_ball(f, None, q, m, BallRegion(radius), spec)
    tensor, _ = integrate_ball(f4, None, q, m, BallRegion(radius), spec)
    assert reduced.real == pytest.approx(tensor.real, rel=1e-8)
    rotated, _ = integrate_ball(f, None, q[::-1], m, BallRegion(radius), spec)
    assert rotated.real == pytest.approx(reduced.real, rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(
    source=invariant_sources(),
    radius=st.floats(0.5, 1e5),
    m=st.floats(0.0, 2.0),
    q=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
)
def test_invariant_screen_scans_the_rotated_slice(source, radius, m, q):
    # at q rotated onto p0 an invariant integrand's value depends only on
    # (r, chi), so the (r, chi) slice reports what the whole 4-D scan does
    f = parse_integrand(source)
    rotated = np.array([np.linalg.norm(q), 0.0, 0.0, 0.0])
    sliced = screen_singularities(f, q, m, radius)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ballquad, "o4_invariant", lambda expr: False)
        full = screen_singularities(f, rotated, m, radius)
    assert sliced == full
    assert ballquad._scan_grid(radius, full=False)["p0"].size == 240


@pytest.mark.parametrize(
    "q", [(0.5, 1.0, -2.0, 0.3), (1e-200, 1e-200, 0, 0), (0, 1e155, 1e155, 0), (1e200, 0, 0)]
)
def test_the_norm_of_q_is_taken_without_overflow(q):
    # np.linalg.norm's bits wherever q.q is finite (an underflow included), and
    # math.hypot's where it overflows, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = ballquad._kinematics(q, 1.0)[2]
    with np.errstate(over="ignore"):
        plain = float(np.linalg.norm(np.asarray(q, dtype=float)))
    assert norm == (plain if math.isfinite(plain) else math.hypot(*q))
    assert math.isfinite(norm)


def test_both_rules_agree_where_q_squared_overflows():
    # Q2 overflows on either rule, so each integrand is 1/inf = 0 throughout:
    # the (r, chi) rule sees q rotated to (|q|, 0, 0, 0), not to (inf, 0, 0, 0)
    spec = QuadratureSpec(radial_order=8, angular_orders=(8, 8, 8))
    for source in ("1/((P2+m^2)*(P2+2*PQ+Q2+m^2))", "(1+0*p1)/((P2+m^2)*(P2+2*PQ+Q2+m^2))"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = integrate_ball(None, parse_integrand(source), (1e200, 0, 0), 1.0,
                                 BallRegion(10.0), spec)
        assert got == (0j, 0.0)


@pytest.mark.parametrize("source", ["1/(p1+q3+9)", "1/(P2+PQ+9)"])
def test_screen_reads_q_as_integrate_ball_does(source):
    # a 3-component q is (0, q1, q2, q3), for a coordinate integrand too
    f = parse_integrand(source)
    assert screen_singularities(f, (1, 2, 3), 1.0, 5.0) == screen_singularities(
        f, (0, 1, 2, 3), 1.0, 5.0
    )
    for q, shape in [((1, 2), "(2,)"), ((1, 2, 3, 4, 5), "(5,)"), (((1, 2), (3, 4)), "(2, 2)")]:
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            screen_singularities(f, q, 1.0, 5.0)
    # a non-finite point is refused, not reported as "min |den| = nan"
    with pytest.raises(ValueError, match="kinematic point must be finite"):
        screen_singularities(f, (0, 0, 0, np.nan), 1.0, 5.0)


# Reference: product rules that materialize every coordinate and weight of
# the whole grid, summed by slicing those arrays into chunks of the same size.
# The rules that build each chunk from its axis indices must match bit for bit.
def reference_tensor_rule(q4, radius, spec):
    r, wr = ballquad._radial(radius, spec.radial_order)
    chi, wchi = ballquad._gauss(spec.angular_orders[0], 0.0, np.pi)
    theta, wth = ballquad._gauss(spec.angular_orders[1], 0.0, np.pi)
    phi, wphi = ballquad._gauss(spec.angular_orders[2], 0.0, 2 * np.pi)
    r4 = r[:, None, None, None]
    chi4 = chi[None, :, None, None]
    th4 = theta[None, None, :, None]
    phi4 = phi[None, None, None, :]
    weight = (
        (wr * r**3)[:, None, None, None]
        * (wchi * np.sin(chi) ** 2)[None, :, None, None]
        * (wth * np.sin(theta))[None, None, :, None]
        * wphi[None, None, None, :]
    )
    sinchi = np.sin(chi4)
    sinth = np.sin(th4)
    points = {
        "p0": np.broadcast_to(r4 * np.cos(chi4), weight.shape).ravel(),
        "p1": np.broadcast_to(r4 * sinchi * np.cos(th4), weight.shape).ravel(),
        "p2": np.broadcast_to(r4 * sinchi * sinth * np.cos(phi4), weight.shape).ravel(),
        "p3": np.broadcast_to(r4 * sinchi * sinth * np.sin(phi4), weight.shape).ravel(),
    }
    return points, q4, weight.ravel()


def reference_reduced_rule(q4, radius, spec):
    r, wr = ballquad._radial(radius, spec.radial_order)
    chi, wchi = ballquad._gauss(spec.angular_orders[0], 0.0, np.pi)
    weight = (wr * r**3)[:, None] * (4 * np.pi * wchi * np.sin(chi) ** 2)[None, :]
    zeros = np.zeros(weight.size)
    points = {
        "p0": (r[:, None] * np.cos(chi)[None, :]).ravel(),
        "p1": (r[:, None] * np.sin(chi)[None, :]).ravel(),
        "p2": zeros,
        "p3": zeros,
    }
    return points, np.array([np.linalg.norm(q4), 0.0, 0.0, 0.0]), weight.ravel()


def reference_rule_sum(exprs, rule, m, radius):
    points, q4, weights = rule
    fixed = {f"q{i}": q4[i] for i in range(4)}
    fixed.update({"m": m, "L": radius})
    totals = []
    for expr in exprs:
        if expr is None:
            totals.append(0.0)
            continue
        chunk_sums = []
        for start in range(0, weights.size, ballquad._CHUNK):
            sl = slice(start, start + ballquad._CHUNK)
            ctx = {k: v[sl] for k, v in points.items()}
            ctx.update(fixed)
            chunk_sums.append(np.sum(evaluate(expr, ctx) * weights[sl]))
        totals.append(float(np.sum(np.asarray(chunk_sums))))
    return totals


REFERENCE_RULES = {
    "_reduced_rule": (
        reference_reduced_rule,
        ("1/(P2+m^2)^2", "PQ/((P2+2*PQ+Q2+m^2)*(P2+m^2))"),
    ),
    "_tensor_rule": (
        reference_tensor_rule,
        ("p1^2/(P2+1)^3", "(p3^2+q1*p2)/((P2+2*PQ+Q2+m^2)*(P2+m^2))"),
    ),
}


@pytest.mark.parametrize(
    "rule, radial, angular",
    [
        # the default 2-D rule, and one whose chunk edges fall mid-row
        ("_reduced_rule", 64, (32, 32, 32)),
        ("_reduced_rule", 1000, (700, 2, 2)),
        # 4-D: a last axis that divides the chunk size, and one that does not
        ("_tensor_rule", 64, (32, 32, 32)),
        ("_tensor_rule", 70, (40, 33, 30)),
    ],
    ids=["2d-64x32", "2d-1000x700", "4d-64x32^3", "4d-70x40x33x30"],
)
def test_chunks_from_axis_indices_match_the_materialized_grid(rule, radial, angular):
    reference, sources = REFERENCE_RULES[rule]
    spec = QuadratureSpec(radial_order=radial, angular_orders=angular)
    exprs = tuple(parse_integrand(source) for source in sources)
    q4, m = np.array([0.5, 1.0, -2.0, 0.3]), 1.3
    invariant = rule == "_reduced_rule"
    q = ballquad._rotated(ballquad._kinematics(q4, m)[2]) if invariant else q4
    for radius in (1.0, 1e5):
        built = ballquad._rule(radius, (radial, *angular), 0.0, invariant)
        got = ballquad._rule_sum(exprs, built, q, m, radius)
        want = reference_rule_sum(exprs, reference(q4, radius, spec), m, radius)
        assert got == want
        assert 0.0 not in got


def test_tensor_rule_memory_is_bounded():
    # the whole 64 x 32^3 grid (and its 32 x 16^3 half-order estimate) would need
    # hundreds of MiB per coordinate array set; one chunk needs a few tens
    f = parse_integrand("p1^2/(P2+1)^3")
    tracemalloc.start()
    try:
        value, _ = integrate_ball(f, None, (0, 0, 0), 0.0, BallRegion(10.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    oracle = radial_oracle(lambda r: r**2 / 4 / (r**2 + 1) ** 3, 10.0)
    assert abs(value.real - oracle) <= 1e-6 * abs(oracle)
    assert peak < 100 * 2**20


@pytest.mark.parametrize("n", [2, 7, 64, 96])
def test_cached_nodes_equal_leggauss_and_are_read_only(n):
    x, w = ballquad._legendre(n)
    expected_x, expected_w = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x, expected_x) and np.array_equal(w, expected_w)
    assert ballquad._legendre(n)[0] is x
    for array in (x, w):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_nodes_are_solved_once_per_order(monkeypatch):
    orders = []
    leggauss = np.polynomial.legendre.leggauss

    def counting_leggauss(n):
        orders.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
    ballquad._legendre.cache_clear()
    try:
        samples = sample_over_cutoffs(
            None, RATIONAL, (0, 0, 0), 0.0, np.geomspace(10, 1e5, 9)
        )
    finally:
        ballquad._legendre.cache_clear()
    # the default 64 x 32 rule and its half-order estimate, over all nine cutoffs
    assert sorted(orders) == [16, 32, 64]
    assert np.allclose(np.imag(samples.values), closed_form(np.array(samples.grid)), rtol=1e-2)


def ball_closed_form(L, c):
    """Integral of 1/(P2 + c^2)^2 over the 4-ball |P| <= L."""
    return np.pi**2 * (np.log1p(L**2 / c**2) + c**2 / (c**2 + L**2) - 1.0)


def bubble_reference(grid, q_norm, m):
    """Integral of 1/((P2+m^2)(P2+2PQ+Q2+m^2)) over each ball |P| <= L, by
    scipy on the (r, chi) reduction with q on the p0 axis:

        4 pi int r^3 dr / (r^2 + m^2) int sin^2(chi) dchi / (a + b cos chi),

    a = r^2 + q^2 + m^2, b = 2 |q| r, where the chi integral is
    pi (a - sqrt(a^2 - b^2)) / b^2 = pi / (a + sqrt(a^2 - b^2))."""
    from scipy.integrate import quad

    def radial(r):
        a, b = r * r + q_norm**2 + m * m, 2 * q_norm * r
        return r**3 / ((r * r + m * m) * (a + math.sqrt((a - b) * (a + b))))

    values = []
    for L in grid:
        cuts = np.unique(np.concatenate([[0.0, L], np.geomspace(m / 8, L, 12)]))
        values.append(sum(
            quad(radial, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for lo, hi in zip(cuts[:-1], cuts[1:])
        ))
    return 4 * np.pi**2 * np.array(values)


FIT_GRID = np.geomspace(10, 1e5, 9)
BUBBLE_Q = 1.5 * np.array([0.3, -1.0, 0.8, 0.6]) / np.linalg.norm([0.3, -1.0, 0.8, 0.6])
HALF_ORDERS = QuadratureSpec(radial_order=32, angular_orders=(16, 16, 16))

ORACLE_CASES = {
    # the mass scale of the integrand is m; then one far above m
    "m=1": ("1/(P2+m^2)^2", (0, 0, 0), 1.0, lambda grid: ball_closed_form(grid, 1.0), 1e-12),
    "m=1e-3": ("1/(P2+1)^2", (0, 0, 0), 1e-3, lambda grid: ball_closed_form(grid, 1.0), 1e-11),
    "bubble": (
        "1/((P2+m^2)*(P2+2*PQ+Q2+m^2))", BUBBLE_Q, 1.0,
        lambda grid: bubble_reference(grid, 1.5, 1.0), 1e-12,
    ),
}


@pytest.mark.parametrize("case", ORACLE_CASES, ids=list(ORACLE_CASES))
def test_split_radial_axis_reaches_the_oracle_over_the_fit_range(case):
    source, q, m, oracle, tolerance = ORACLE_CASES[case]
    f = parse_integrand(source)
    exact = oracle(FIT_GRID)
    default, half = (
        sample_over_cutoffs(None, f, q, m, FIT_GRID, spec) for spec in (QuadratureSpec(), HALF_ORDERS)
    )
    assert np.all(np.abs(np.imag(default.values) - exact) <= tolerance * np.abs(exact))
    # the half-order estimate bounds the true error at the default orders and
    # at half of them, less the round-off of the reference
    for samples in (default, half):
        error = np.abs(np.imag(samples.values) - exact)
        assert np.all(samples.errors >= error - 1e-14 * np.abs(exact))


def test_bubble_reference_matches_the_closed_form_at_q_zero():
    assert bubble_reference(FIT_GRID, 0.0, 1.0) == pytest.approx(
        ball_closed_form(FIT_GRID, 1.0), rel=1e-13
    )


@pytest.mark.parametrize("rule, source", [
    ("_reduced_rule", "1/(P2+1)^2"),
    ("_tensor_rule", "p1^2/(P2+1)^3"),
])
def test_massless_point_keeps_the_graded_rule(rule, source):
    # m = q = 0 leaves no scale to split at: the radial axis is the graded map
    # r = L t^2 on [0, L], bit for bit
    n, radius = 64, 1e3
    x, w = np.polynomial.legendre.leggauss(n)
    t, wt = 0.5 * x + 0.5, 0.5 * w
    r, wr = ballquad._radial(radius, n, split=0.0)
    assert np.array_equal(r, radius * t**2) and np.array_equal(wr, wt * 2.0 * radius * t)
    spec = QuadratureSpec(radial_order=n, angular_orders=(16, 8, 8))
    reference, _ = REFERENCE_RULES[rule]
    f = parse_integrand(source)
    value, _ = integrate_ball(f, None, (0, 0, 0), 0.0, BallRegion(radius), spec)
    want = reference_rule_sum((f, None), reference(np.zeros(4), radius, spec), 0.0, radius)
    assert value == complex(*want)


def test_split_radial_axis_covers_each_piece_at_the_given_order():
    r, wr = ballquad._radial(1e4, 16, split=4.0)
    assert r.size == 32 and np.all(np.diff(r) > 0)
    assert np.all(r[:16] < 4.0) and np.all((r[16:] > 4.0) & (r[16:] < 1e4))
    # r^3 dr is a polynomial on the graded piece and e^(4u) du on the log piece
    assert np.sum(wr[:16] * r[:16] ** 3) == pytest.approx(4.0**4 / 4, rel=1e-14)
    assert np.sum(wr * r**3) == pytest.approx(1e16 / 4, rel=1e-10)
    assert np.array_equal(ballquad._radial(3.0, 16, split=4.0)[0], ballquad._radial(3.0, 16)[0])


@pytest.mark.parametrize("orders", [(1025, 8, 8, 8), (8, 8, 4096, 8)])
def test_orders_above_the_cap_are_refused(orders):
    with pytest.raises(ValueError, match="1024"):
        QuadratureSpec(radial_order=orders[0], angular_orders=orders[1:])
