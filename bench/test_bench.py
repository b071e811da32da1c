"""Tests of the benchmark itself: oracles, metric names, span arithmetic and
seeded inputs.  Run with ``python -m pytest bench``."""

import json
import math
import re
import sys
import types
from pathlib import Path
from unittest.mock import ANY

import numpy as np
import pytest
from scipy.integrate import quad

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GRID = 10.0 * math.sqrt(10.0) ** np.arange(9)


def test_bubble_reduction_at_q0_matches_closed_form():
    for m in (1.0, 0.3):
        reduced = oracles.bubble_reduced(GRID, 0.0, m)
        exact = oracles.radial_closed_form(GRID, m)
        assert np.max(np.abs(reduced / exact - 1)) <= 1e-10


def test_closed_form_matches_radial_quadrature_and_log_slope():
    for L in (0.5, 10.0, 1e3):
        value, _ = quad(lambda r: r**3 / (r * r + 1) ** 2, 0, L, epsrel=1e-13, limit=200)
        assert oracles.radial_closed_form(L, 1.0) == pytest.approx(2 * np.pi**2 * value, rel=1e-12)
    L = 1e7
    slope = oracles.radial_closed_form(L * math.e, 1.0) - oracles.radial_closed_form(L, 1.0)
    assert slope == pytest.approx(oracles.PHI_EXACT, rel=1e-12)


def test_bubble_reduction_depends_on_q():
    near, far = oracles.bubble_reduced([10.0, 100.0], 0.0, 1.0), oracles.bubble_reduced(
        [10.0, 100.0], 1.5, 1.0
    )
    assert np.all(far < near)
    # the log coefficient does not depend on q: shells far out agree
    assert np.diff(far)[0] == pytest.approx(np.diff(near)[0], rel=1e-3)


def test_spectra_errors_flag_a_wrong_vector():
    q, m = np.array([0.3, -1.2, 2.0]), 0.5
    vals, vecs = np.linalg.eigh(oracles.dirac_hamiltonian(q, m))
    entry = {"q": list(q), "eigenvalues": list(vals),
             "vectors_re": vecs.real.tolist(), "vectors_im": vecs.imag.tolist()}
    good = oracles.spectra_errors([entry], m)[0]
    assert np.all(good < 1e-14)
    entry["vectors_re"] = np.roll(vecs.real, 1, axis=1).tolist()
    assert oracles.spectra_errors([entry], m)[0, 0] > 0.1


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for group, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[group]}
        assert listed == table
        assert all(UNIT.match(u) for u in listed.values())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert "setup_s" in run.END_TO_END
    derived = set(tracing.layer_metrics([], 0)) | {"trace.overhead_frac"}
    assert derived == set(run.PER_LAYER)


def span(name, start, end, parent=-1, count=0, pass_id=0):
    return [name, start, end, parent, pass_id, count]


def test_self_time_on_hand_built_tree():
    spans = [
        span("cli.main", 0.0, 10.0),  # 0
        span("cli.integrate", 1.0, 9.0, parent=0),  # 1
        span("integrand.parse", 1.0, 1.5, parent=1),  # 2
        span("ballquad.integrate_ball", 2.0, 6.0, parent=1, count=100),  # 3
        span("integrand.screen", 2.0, 2.5, parent=3),  # 4
        span("integrand.evaluate", 3.0, 4.0, parent=3, count=300),  # 5
        span("integrand.evaluate", 4.0, 5.0, parent=3, count=300),  # 6
        span("ballquad.integrate_ball", 6.0, 8.0, parent=1, count=100),  # 7
        span("integrand.evaluate", 6.5, 7.5, parent=7, count=400),  # 8
        span("asymfit.classify", 8.0, 8.6, parent=1),  # 9
        span("asymfit.fit", 8.0, 8.2, parent=9),  # 10
        span("asymfit.fit", 8.2, 8.5, parent=9),  # 11
    ]
    summary = tracing.summarize(spans)
    assert summary["ballquad.integrate_ball"]["self"] == pytest.approx(6.0 - 3.5)
    assert summary["cli.integrate"]["self"] == pytest.approx(8.0 - 0.5 - 6.0 - 0.6)
    assert summary["cli.main"]["self"] == pytest.approx(2.0)
    m = tracing.layer_metrics(spans, bytes_written=1234)
    assert m["integrand.points_evaluated"] == 1000
    assert m["integrand.eval_ns_per_point"] == pytest.approx(3.0 / 1000 * 1e9)
    assert m["ballquad.integral_ms"] == pytest.approx(6000.0)
    assert m["ballquad.self_ms"] == pytest.approx(2500.0)
    assert m["ballquad.useful_point_frac"] == pytest.approx(0.2)
    assert m["asymfit.fits_per_classify"] == 2
    assert m["cli.self_s"] == pytest.approx(2.0 + 0.9)
    assert m["cli.integrate_s"] == pytest.approx(8.0)
    assert m["cli.bytes_written"] == 1234
    assert m["dirac.simdiag_us_per_call"] == 0.0


def test_tracer_records_parents_and_restores_targets(monkeypatch):
    mod = types.ModuleType("bench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    targets = ((mod.__name__, "outer", "fake.outer", None),
               (mod.__name__, "inner", "fake.inner", None))
    tracer = tracing.Tracer()
    with tracer.installed(7, targets):
        assert mod.outer(1) == 4
    with tracer.installed(8, targets):
        mod.inner(1)
    assert mod.outer is outer and mod.inner is inner
    assert tracer.passes[8] == [["fake.inner", ANY, ANY, -1, 8, 0]]
    (o_name, o_start, o_end, o_parent, o_pass, _), (i_name, i_start, i_end, i_parent, *_) = (
        tracer.passes[7]
    )
    assert (o_name, o_parent, o_pass, i_name, i_parent) == ("fake.outer", -1, 7, "fake.inner", 0)
    assert o_start <= i_start <= i_end <= o_end


def test_seed_sets_the_inputs():
    bubble = workloads.WORKLOADS["kinematic_bubble"]
    spectra = workloads.WORKLOADS["spectra_check"]
    assert bubble.inputs(3) == bubble.inputs(3)
    assert bubble.inputs(3)["q"] != bubble.inputs(4)["q"]
    assert np.linalg.norm(bubble.inputs(3)["q"]) == pytest.approx(1.5, rel=1e-15)
    assert spectra.inputs(3) == spectra.inputs(3)
    assert spectra.inputs(3)["seed"] != spectra.inputs(4)["seed"]
    radial = workloads.WORKLOADS["radial_sweep"]
    assert radial.grid()[-1] == pytest.approx(1e5, rel=1e-12)
    assert bubble.grid()[-1] == pytest.approx(1e4, rel=1e-12)
