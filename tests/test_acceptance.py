"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line so the whole contract can be
audited from the pytest -v output.  Tolerances are hard requirements;
tests fail rather than warn when a bound is missed.
"""

import json
import time

import numpy as np
import pytest

from scatreg.asymfit import fit
from scatreg.ballquad import BallRegion, CutoffSamples, QuadratureSpec, integrate_ball
from scatreg.cli import main
from scatreg.deviation import (
    DeviationFactor,
    class_a_check,
    factor_from_model,
    resum_coulomb_series,
)
from scatreg.dirac import (
    build_hamiltonian,
    eigenvectors_closed_form,
    random_commuting_unitary,
    simultaneous_diagonalize,
)
from scatreg.integrand import parse_integrand


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_spectral_residuals():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_res = 0.0
    worst_eig = 0.0
    for _ in range(1000):
        q = rng.uniform(-10, 10, size=3)
        m = rng.uniform(0, 10)
        h = build_hamiltonian(q, m)
        sys = eigenvectors_closed_form(q, m)
        scale = np.linalg.norm(h, ord=2)
        res = np.max(
            np.linalg.norm(
                h @ sys.vectors - sys.vectors * sys.values[None, :], axis=0
            )
        )
        worst_res = max(worst_res, res / scale)
        worst_eig = max(
            worst_eig, np.max(np.abs(np.sort(sys.values) - np.linalg.eigvalsh(h)))
        )
    elapsed = time.perf_counter() - start
    ok = worst_res <= 1e-10 and worst_eig <= 1e-10 and elapsed < 5.0
    report(
        "criterion 1: closed-form spectra, 1000 random points",
        ok,
        f"residual {worst_res:.2e}, eig dev {worst_eig:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_simultaneous_diagonalization():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_mod = 0.0
    worst_rec = 0.0
    for trial in range(1000):
        q = rng.uniform(-10, 10, size=3)
        m = rng.uniform(0, 10)
        doubled = trial % 2 == 1
        s = random_commuting_unitary(q, m, seed=int(rng.integers(1 << 31)), doubled=doubled)
        diag = simultaneous_diagonalize(q, m, s)
        worst_mod = max(worst_mod, np.max(np.abs(np.abs(diag.diagonal) - 1.0)))
        worst_rec = max(worst_rec, np.max(np.abs(diag.reconstruct() - s)))
    elapsed = time.perf_counter() - start
    ok = worst_mod <= 1e-10 and worst_rec <= 1e-9 and elapsed < 10.0
    report(
        "criterion 2: joint diagonalization, 1000 random unitaries (4x4 and 8x8)",
        ok,
        f"|d|-1 {worst_mod:.2e}, reconstruction {worst_rec:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_cutoff_integrals():
    expr_im = parse_integrand("1/(P2+1)^2")
    spec = QuadratureSpec()
    q = np.zeros(3)
    start = time.perf_counter()
    worst = 0.0
    for radius in (10.0, 20.0, 40.0, 80.0, 160.0):
        value, _ = integrate_ball(
            None, expr_im, q, 1.0, BallRegion(radius=radius), spec
        )
        closed = np.pi**2 * (np.log(1 + radius**2) - radius**2 / (1 + radius**2))
        worst = max(worst, abs(value.imag - closed) / abs(closed))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    report(
        "criterion 3: ball integrals vs closed form, L in {10..160}",
        ok,
        f"rel err {worst:.2e}, {elapsed:.2f}s",
    )


@pytest.fixture(scope="module")
def log_samples():
    expr_im = parse_integrand("1/(P2+1)^2")
    spec = QuadratureSpec()
    q = np.zeros(3)
    grid = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
    values = []
    for radius in grid:
        value, _ = integrate_ball(None, expr_im, q, 1.0, BallRegion(radius=radius), spec)
        values.append(value)
    return CutoffSamples(
        grid=grid, values=np.array(values), errors=np.zeros(5)
    )


def test_criterion_04_log_fit(log_samples):
    start = time.perf_counter()
    rep = fit(log_samples, "log", tail_fraction=0.6)
    elapsed = time.perf_counter() - start
    phi_err = abs(rep.model.phi - 2 * np.pi**2) / (2 * np.pi**2)
    psi_err = abs(rep.model.psi - (-(np.pi**2))) / np.pi**2
    ok = phi_err <= 0.01 and psi_err <= 0.02 and elapsed < 5.0
    report(
        "criterion 4: log-model fit recovers 2*pi^2 and -pi^2",
        ok,
        f"phi rel {phi_err:.2e}, psi rel {psi_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_05_subtracted_coefficient_converges(log_samples):
    rep = fit(log_samples, "log", tail_fraction=0.6)
    subtracted = log_samples.values.imag - rep.model.phi * np.log(log_samples.grid)
    diffs = np.abs(np.diff(subtracted))
    ok = diffs[-1] <= 1e-2 and np.all(np.diff(diffs[len(diffs) // 2 :]) <= 0)
    report(
        "criterion 5: log-subtracted coefficient Cauchy-converges",
        ok,
        f"last diff {diffs[-1]:.2e}",
    )


def test_criterion_06_powerlog_synthetic():
    grid = np.geomspace(100.0, 1e4, 17)
    values = 1j * (0.5 * grid**2 - grid + 4 * np.log(grid) + 7 + 1 / grid)
    samples = CutoffSamples(
        grid=grid, values=values, errors=np.zeros(grid.size)
    )
    rep = fit(samples, "powerlog", tail_fraction=0.6)
    errs = np.abs(
        np.array([rep.model.phi, rep.model.psi, rep.model.nu, rep.model.mu])
        - np.array([0.5, -1.0, 4.0, 7.0])
    )
    subtracted = values.imag - (
        rep.model.phi * grid**2 + rep.model.psi * grid + rep.model.nu * np.log(grid)
    )
    limit_err = abs(subtracted[-1] - 7.0)
    ok = np.max(errs) <= 1e-4 and limit_err <= 1e-6
    report(
        "criterion 6: power-log fit with 1/L remainder",
        ok,
        f"coeff errs {np.max(errs):.2e} (need 1e-4), limit err {limit_err:.2e} (need 1e-6)",
    )


def test_criterion_07_class_a_discrimination():
    pure = DeviationFactor(
        quad_coeff=0.0, linear_coeff=0.0, log_coeffs=(0.3,), gauge=0.1
    )
    grid = np.geomspace(1.0, 1e3, 50)
    res_pure = class_a_check(pure, shift=5.0, grid=grid)
    eps = 0.05
    linear = DeviationFactor(
        quad_coeff=0.0, linear_coeff=eps**2, log_coeffs=(), gauge=0.0
    )
    res_lin = class_a_check(linear, shift=7.0, grid=grid)
    expected = np.exp(1j * eps**2 * 7.0)
    ratio_dev = np.max(np.abs(res_lin.ratios - expected))
    pure_dev = np.max(np.abs(res_pure.ratios - np.exp(1j * pure.exponent_shift(grid, 5.0))))
    ok = (
        res_pure.verdict
        and not res_lin.verdict
        and ratio_dev <= 1e-14
        and pure_dev <= 1e-14
    )
    report(
        "criterion 7: class-A verdicts and shift-ratio values",
        ok,
        f"linear ratio dev {ratio_dev:.2e}, pure dev {pure_dev:.2e}",
    )


def test_criterion_08_coulomb_resummation():
    rng = np.random.default_rng(808)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        psi = np.concatenate([[1.0], rng.uniform(-10, 10, n - 1)])
        phi = rng.uniform(-1, 1)
        eps = rng.uniform(0.01, 0.5)
        for radius in (1.0, np.e, 10.0, 100.0):
            res = resum_coulomb_series(psi, phi, eps, nmax=n - 1, L=radius)
            worst = max(worst, np.max(np.abs(res.recovered - psi)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(
        "criterion 8: Coulomb phase resummation round-trip",
        ok,
        f"residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_09_unimodularity():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(10_000):
        factor = DeviationFactor(
            quad_coeff=rng.uniform(-1, 1),
            linear_coeff=rng.uniform(-1, 1),
            log_coeffs=tuple(rng.uniform(-1, 1, int(rng.integers(0, 4)))),
            gauge=rng.uniform(-np.pi, np.pi),
        )
        radius = rng.uniform(1.0, 1e6)
        worst = max(worst, abs(abs(factor(radius)) - 1.0))
    ok = worst <= 1e-14
    report(
        "criterion 9: |U0(L)| = 1 for 10^4 random factors",
        ok,
        f"max | |U0|-1 | {worst:.2e}",
    )


def test_criterion_10_thread_flag_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "integrand_im": "1/(P2+1)^2",
                "L_grid": {"start": 10.0, "ratio": 2.0, "count": 3},
                "quadrature": {"radial_order": 24, "angular_orders": [12, 12, 12]},
            }
        )
    )
    blobs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"threads{threads}"
        code = main(
            [
                "integrate",
                "--config",
                str(config),
                "--out",
                str(out),
                "--seed",
                "3",
                "--threads",
                str(threads),
            ]
        )
        assert code == 0
        blobs.append((out / "samples.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report("criterion 10: byte-identical output across --threads 1/4/8", ok)
