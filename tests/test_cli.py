import importlib
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scatreg
from scatreg import cli, deviation, dirac
from scatreg.cli import main


def run(tmp_path, command, config=None, extra=()):
    argv = [command, "--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    argv += list(extra)
    return main(argv), tmp_path / "out"


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_spectra_single_point(tmp_path, capsys):
    code, out = run(tmp_path, "spectra", {"q": [0, 0, 0], "m": 1.0})
    assert code == 0
    rows = read_csv(out / "spectra.csv")
    assert rows[0].tolist() == [0, 0, 0, 1, -1, -1, 1, 1]
    payload = json.loads((out / "eigenvectors.json").read_text())
    assert len(payload) == 1
    assert "points" in capsys.readouterr().out


def test_spectra_grid(tmp_path):
    code, out = run(
        tmp_path, "spectra", {"q_grid": {"min": -1, "max": 1, "count": 3}, "m": 0.5}
    )
    assert code == 0
    assert read_csv(out / "spectra.csv").shape == (27, 8)


def test_spectra_solves_each_point_once(tmp_path, monkeypatch):
    calls = []
    solve = dirac.eigenvectors_closed_form

    def counted(q, m):
        calls.append(np.shape(q))
        return solve(q, m)

    monkeypatch.setattr(dirac, "eigenvectors_closed_form", counted)
    code, out = run(
        tmp_path, "spectra", {"q_grid": {"min": -1, "max": 1, "count": 3}, "m": 0.5}
    )
    assert code == 0
    assert calls == [(27, 3)]
    for entry in json.loads((out / "eigenvectors.json").read_text()):
        assert set(entry) == {"q", "eigenvalues", "vectors_re", "vectors_im"}


@pytest.mark.parametrize(
    "config, points, low, high",
    [
        # ||H||_F = 2E overflows while E does not
        ({"q": [1.2e154, 3e153, -1e153], "m": 1}, 1, 1e-18, 1e-15),
        ({"q": [0, 0, 0], "m": 0}, 1, 0.0, 0.0),  # H = 0
        ({"q_grid": {"min": -1, "max": 1, "count": 0}, "m": 0.5}, 0, 0.0, 0.0),
    ],
)
def test_spectra_residual_is_relative_to_twice_the_energy(
    tmp_path, capsys, config, points, low, high
):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run(tmp_path, "spectra", config)
    assert code == 0
    head, residual = capsys.readouterr().out.rsplit(" ", 1)
    assert head == f"spectra: {points} points, max relative eigen-residual"
    assert low <= float(residual) <= high


@pytest.mark.parametrize(
    "config, energy",
    [
        ({"q": [0, 0, 0], "m": 1e-200}, 1e-200),
        ({"q": [1e-310, 0, 0], "m": 0}, 1e-310),  # E itself is subnormal
    ],
)
def test_spectra_eigenvalues_survive_underflow(tmp_path, capsys, config, energy):
    # m^2 + |q|^2 underflows: E is taken on the rescaled momentum, as the
    # vectors are
    code, out = run(tmp_path, "spectra", config)
    assert code == 0
    values = read_csv(out / "spectra.csv")[0, 4:]
    assert values.tolist() == [-energy, -energy, energy, energy]
    residual = float(capsys.readouterr().out.rsplit(" ", 1)[1])
    assert np.isfinite(residual) and residual <= 1e-15


def reference_write_csv(path, header, rows):
    """The per-value CSV writer that ``cli._write_csv`` replaced: the reference
    for its bytes."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{float(x):.17g}" for x in row) + "\n")


def reference_write_json_rows(path, columns):
    """``eigenvectors.json`` as ``json`` writes it: the reference for
    ``cli._write_json_rows``."""
    entries = [
        {key: np.asarray(column)[i].tolist() for key, column in columns.items()}
        for i in range(len(next(iter(columns.values()))))
    ]
    with open(path, "w", newline="\n") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")


# finite floats at the edges of what repr and %.17g write
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-200, 1.7e308, -1.7e308])
VALUES = EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)
ROWS = st.sampled_from([0, 1]) | st.integers(2, 6)
SPECTRA_SHAPES = {"q": (3,), "eigenvalues": (4,), "vectors_re": (4, 4), "vectors_im": (4, 4)}


# a few values, each repeated many times, as in the grid's artifacts
POOL = st.sampled_from([-0.0, 0.0, 5e-324, 1.7e308])
CSV_POOL = POOL | st.sampled_from([float("nan"), float("inf"), -float("inf")])


@st.composite
def json_columns(draw, values=VALUES):
    """Named per-row arrays: the spectra shapes, or trailing shapes with
    scalar and empty axes."""
    n = draw(ROWS)
    columns = {}
    for key, shape in SPECTRA_SHAPES.items():
        if draw(st.booleans()):
            shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        size = n * int(np.prod(shape, dtype=int))
        drawn = draw(st.lists(values, min_size=size, max_size=size))
        columns[key] = np.array(drawn, dtype=float).reshape((n, *shape))
    return columns


def assert_json_rows_match_json_dump(root, columns):
    reference_write_json_rows(root / "reference.json", columns)
    cli._write_json_rows(root / "rows.json", columns)
    assert (root / "rows.json").read_bytes() == (root / "reference.json").read_bytes()


@settings(max_examples=200, deadline=None)
@given(columns=json_columns())
def test_json_rows_match_json_dump(tmp_path_factory, columns):
    assert_json_rows_match_json_dump(tmp_path_factory.getbasetemp(), columns)


@settings(max_examples=100, deadline=None)
@given(columns=json_columns(POOL))
def test_json_rows_match_json_dump_on_repeated_values(tmp_path_factory, columns):
    assert_json_rows_match_json_dump(tmp_path_factory.getbasetemp(), columns)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_json_rows_refuse_non_finite_values(tmp_path, bad):
    columns = {"q": np.zeros((3, 3)), "eigenvalues": np.ones((3, 4))}
    columns["eigenvalues"][2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        cli._write_json_rows(tmp_path / "e.json", columns)
    assert not (tmp_path / "e.json").exists()


def test_spectra_with_non_finite_vectors_exits_2(tmp_path, monkeypatch):
    # no config reaches this: dirac refuses non-finite momenta, masses and
    # energies first; json would write NaN where a row template writes nan
    solve = dirac.eigenvectors_closed_form

    def spoiled_solve(q, m):
        sys_ = solve(q, m)
        return dirac.EigenSystem(values=sys_.values, vectors=sys_.vectors * np.nan)

    monkeypatch.setattr(dirac, "eigenvectors_closed_form", spoiled_solve)
    code, out = run(tmp_path, "spectra", {"q": [0.1, 0.2, 0.3], "m": 1.0})
    assert code == 2
    assert not (out / "eigenvectors.json").exists()


CSV_INTS = st.integers(-(10**30), 10**30)


@st.composite
def csv_rows(draw, values=VALUES):
    """Rows as the subcommands pass them: ndarray rows, np.float64 values
    from zip, or lists with an int column (resum's order)."""
    n = draw(ROWS)
    kind = draw(st.sampled_from(["ndarray", "zip", "ints"]))
    columns = [np.array(draw(st.lists(values, min_size=n, max_size=n))) for _ in range(3)]
    if kind == "ndarray":
        return list(np.column_stack(columns))
    if kind == "zip":
        return list(zip(*columns))
    orders = draw(st.lists(CSV_INTS, min_size=n, max_size=n))
    return [[a, order, b] for a, order, b in zip(columns[0].tolist(), orders, columns[1])]


def assert_csv_rows_match_per_value_format(root, rows):
    reference_write_csv(root / "reference.csv", ["a", "b", "c"], rows)
    cli._write_csv(root / "rows.csv", ["a", "b", "c"], rows)
    assert (root / "rows.csv").read_bytes() == (root / "reference.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(rows=csv_rows())
def test_csv_rows_match_per_value_format(tmp_path_factory, rows):
    assert_csv_rows_match_per_value_format(tmp_path_factory.getbasetemp(), rows)


@settings(max_examples=100, deadline=None)
@given(rows=csv_rows(CSV_POOL))
def test_csv_rows_match_per_value_format_on_repeated_values(tmp_path_factory, rows):
    assert_csv_rows_match_per_value_format(tmp_path_factory.getbasetemp(), rows)


def test_malformed_config_exits_2(tmp_path):
    code, _ = run(tmp_path, "spectra", {"m": 1.0})
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["spectra", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_integrate_matches_oracle(tmp_path):
    code, out = run(
        tmp_path,
        "integrate",
        {
            "integrand_im": "1/(P2+1)^2",
            "L_grid": {"start": 25.0, "ratio": 2.0, "count": 3},
        },
    )
    assert code == 0
    rows = read_csv(out / "samples.csv")
    closed = np.pi**2 * (np.log(1 + rows[:, 0] ** 2) - rows[:, 0] ** 2 / (1 + rows[:, 0] ** 2))
    assert rows[:, 2] == pytest.approx(closed, rel=1e-6)
    assert np.all(rows[:, 1] == 0)


def test_integrate_constant_re(tmp_path):
    code, out = run(
        tmp_path,
        "integrate",
        {"integrand_re": "1", "L_grid": {"start": 2.0, "ratio": 2.0, "count": 1}},
    )
    assert code == 0
    assert read_csv(out / "samples.csv")[0, 1] == pytest.approx(8 * np.pi**2, rel=1e-10)


def test_integrate_parse_error_exits_3(tmp_path):
    code, _ = run(
        tmp_path,
        "integrate",
        {"integrand_im": "1/(P2", "L_grid": {"start": 2.0, "ratio": 2.0, "count": 1}},
    )
    assert code == 3


def test_integrate_singular_exits_4(tmp_path):
    code, _ = run(
        tmp_path,
        "integrate",
        {"integrand_im": "1/P2", "L_grid": {"start": 2.0, "ratio": 2.0, "count": 1}},
    )
    assert code == 4


def test_fit_pipeline_auto(tmp_path):
    samples = tmp_path / "samples.csv"
    grid = np.geomspace(10, 1e4, 17)
    lines = ["L,re,im"] + [f"{l},0.0,{3*np.log(l)+2}" for l in grid]
    samples.write_text("\n".join(lines) + "\n")
    code = main(
        ["fit", "--samples", str(samples), "--out", str(tmp_path), "--model", "auto"]
    )
    assert code == 0
    payload = json.loads((tmp_path / "fit.json").read_text())
    assert payload["model"]["kind"] == "log"
    assert payload["model"]["phi"] == pytest.approx(3.0, abs=1e-9)


def test_fit_unclassified_exits_5(tmp_path):
    samples = tmp_path / "samples.csv"
    grid = np.geomspace(10, 1e3, 24)
    lines = ["L,re,im"] + [f"{l},0.0,{np.exp(l/100.0)}" for l in grid]
    samples.write_text("\n".join(lines) + "\n")
    code = main(
        ["fit", "--samples", str(samples), "--out", str(tmp_path), "--model", "auto"]
    )
    assert code == 5


def test_fit_model_mismatch_exits_5(tmp_path):
    samples = tmp_path / "samples.csv"
    grid = np.geomspace(10, 1e3, 12)
    lines = ["L,re,im"] + [f"{l},{np.log(l)},{np.log(l)}" for l in grid]
    samples.write_text("\n".join(lines) + "\n")
    code = main(
        ["fit", "--samples", str(samples), "--out", str(tmp_path), "--model", "log"]
    )
    assert code == 5


def test_regularize_pipeline(tmp_path):
    samples = tmp_path / "samples.csv"
    grid = np.geomspace(10, 1e4, 17)
    lines = ["L,re,im"] + [f"{l},0.0,{3*np.log(l)+2}" for l in grid]
    samples.write_text("\n".join(lines) + "\n")
    code = main(
        [
            "regularize",
            "--samples",
            str(samples),
            "--out",
            str(tmp_path),
            "--model",
            "log",
            "--epsilon",
            "0.1",
        ]
    )
    assert code == 0
    factor = json.loads((tmp_path / "deviation_factor.json").read_text())
    assert factor["c_ln"][0] == pytest.approx(0.03, abs=1e-9)
    rows = read_csv(tmp_path / "regularized.csv")
    assert rows[:, 2] == pytest.approx(2.0, abs=1e-9)
    verdict = json.loads((tmp_path / "convergence.json").read_text())
    assert verdict["last_difference"] <= 1e-9


def test_check_default_passes(tmp_path, capsys):
    code, _ = run(tmp_path, "check", {"trials": 25})
    assert code == 0
    assert "class A: False" in capsys.readouterr().out


def test_check_tampered_fails(tmp_path, capsys):
    code, _ = run(tmp_path, "check", {"trials": 5, "tamper": 1e-3})
    assert code == 1
    assert capsys.readouterr().err.splitlines()[0] == (
        "check failure: trial 0, q=[-6.80711207 -2.19430516  6.76442076], "
        "m=9.292408603224473: matrix is not unitary (defect 1.159e-03)"
    )


@pytest.mark.parametrize("config", [{"trials": 300}, {"trials": 300, "tamper": 3e-8}],
                         ids=["passing", "tampered"])
def test_check_same_seed_same_output(tmp_path, capsys, config):
    outputs = []
    for _ in range(2):
        code, _ = run(tmp_path, "check", config, ["--seed", "31337"])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == (1 if "tamper" in config else 0)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_check_refuses_non_finite_tamper(tmp_path, capsys, bad):
    # inf * 0 in the tampered unitary would warn, and NaN would report "defect nan"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, "check", {"trials": 3, "tamper": bad})
    assert code == 2 and not caught
    assert capsys.readouterr().err == "check: tamper must be finite\n"


def test_check_suite_reports_eigen_residual_failures_and_checks_the_rest(monkeypatch):
    solve, joint = dirac.eigenvectors_closed_form, dirac.joint_diagonalize
    checked = []

    def corrupted(q, m):
        # rows with q1 > 8 get their eigenvector columns reversed
        sys_ = solve(q, m)
        bad = (np.asarray(q)[..., 0] > 8)[..., None, None]
        vectors = np.where(bad, sys_.vectors[..., ::-1], sys_.vectors)
        return dirac.EigenSystem(values=sys_.values, vectors=vectors)

    def recorded(q, m, s):
        checked.append(q)
        return joint(q, m, s)

    monkeypatch.setattr(dirac, "eigenvectors_closed_form", corrupted)
    monkeypatch.setattr(dirac, "joint_diagonalize", recorded)
    spy = UniformSpy(np.random.default_rng(7))
    failures = cli._check_spectra_suite(spy, 700, 0.0)
    q = np.concatenate([draw for draw in spy.draws if draw.ndim == 2])
    checked = np.concatenate(checked)
    assert len(q) == 700
    failed = [int(f.split(",")[0].removeprefix("trial ")) for f in failures]
    assert failed == np.flatnonzero(q[:, 0] > 8).tolist() and len(failed) > 20
    assert all(": eigen-residual " in f for f in failures)
    assert sorted(map(tuple, checked)) == sorted(map(tuple, q[q[:, 0] <= 8]))


@pytest.mark.parametrize("trials", [1, cli._CHUNK, cli._CHUNK + 1, 3 * cli._CHUNK])
def test_check_suite_draws_at_most_a_chunk_per_pass(trials):
    spy = UniformSpy(np.random.default_rng(5))
    assert cli._check_spectra_suite(spy, trials, 0.0) == []
    rows = [np.atleast_1d(size)[0] for size in spy.sizes]
    assert max(rows) <= cli._CHUNK and sum(rows) == 3 * trials  # q, m and doubled


def per_trial_factor_suite(rng, trials):
    """The |U0| suite one deviation factor at a time: the reference for the
    stacked factor suite."""
    failures = []
    for _ in range(trials):
        factor = deviation.DeviationFactor(
            quad_coeff=rng.uniform(-1, 1),
            linear_coeff=rng.uniform(-1, 1),
            log_coeffs=tuple(rng.uniform(-1, 1, size=3)),
            gauge=rng.uniform(-np.pi, np.pi),
        )
        L = 10.0 ** rng.uniform(-2, 6)
        if abs(abs(factor(L)) - 1) > 1e-14:
            failures.append(f"|U0| deviates from 1 at L={L}")
    return failures


class UniformSpy(np.random.Generator):
    """A generator on ``rng``'s bit generator whose ``uniform`` and ``random``
    record the size of each draw, and ``uniform`` the values it draws."""

    def __init__(self, rng):
        super().__init__(rng.bit_generator)
        self.sizes, self.draws = [], []

    def uniform(self, low=0.0, high=1.0, size=None):
        self.sizes.append(size)
        self.draws.append(super().uniform(low, high, size))
        return self.draws[-1]

    def random(self, size=None):
        self.sizes.append(size)
        return super().random(size)


@pytest.mark.parametrize("damped", [False, True])
@pytest.mark.parametrize("trials", [1, 2, 7, 300, 2 * cli._CHUNK + 1])
@pytest.mark.parametrize("seed", [1, 2, 3, 168306469])
def test_stacked_factor_suite_matches_per_trial_loop(monkeypatch, seed, trials, damped):
    if damped:
        # |U0| = e^{-2e-14} wherever L > 100: those trials fail, with L in the text
        exponent = deviation._exponent
        monkeypatch.setattr(
            deviation, "_exponent", lambda *args: exponent(*args) + 2e-14j * (args[-1] > 100)
        )
    reference, stacked = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = per_trial_factor_suite(reference, trials)
    spy = UniformSpy(stacked)
    failures, linear_in_class_a = cli._check_factor_suite(spy, trials)
    assert failures == expected and linear_in_class_a is False
    assert stacked.bit_generator.state == reference.bit_generator.state
    assert max(size[0] for size in spy.sizes) <= cli._CHUNK
    if not damped:
        assert not failures
    elif trials >= 300:
        assert 0 < len(failures) < trials


def test_resum_pipeline(tmp_path):
    code, out = run(
        tmp_path, "resum", {"psi": [1.0, 0.5, 0.25], "phi": 2.0, "epsilon": 0.1}
    )
    assert code == 0
    rows = read_csv(out / "resum_residuals.csv")
    assert np.max(rows[:, 2]) <= 1e-12


# L**2 overflows; the factor has no L^2 term, so nothing multiplies it
EXTREME_RESUM = {"psi": [1.0, 1e308], "phi": 1e300, "L_values": [1e300]}


def test_resum_on_extreme_finite_inputs_is_quiet(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(tmp_path, "resum", EXTREME_RESUM)
    assert code == 0 and not caught
    assert capsys.readouterr().err == ""
    assert read_csv(out / "resum_residuals.csv")[:, 2].tolist() == [0.0, 0.0]


def test_resum_bad_leading_constant_exits_2(tmp_path):
    code, _ = run(tmp_path, "resum", {"psi": [0.5, 1.0], "phi": 2.0})
    assert code == 2


def test_determinism_across_thread_flags(tmp_path):
    config = {
        "integrand_im": "1/(P2+1)^2",
        "L_grid": {"start": 5.0, "ratio": 2.0, "count": 3},
        "quadrature": {"radial_order": 16, "angular_orders": [8, 8, 8]},
    }
    outputs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"t{threads}"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(
            ["integrate", "--config", str(path), "--out", str(out),
             "--threads", str(threads)]
        )
        assert code == 0
        outputs.append((out / "samples.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


ONE_CUTOFF = {"start": 10.0, "ratio": 2.0, "count": 1}
SMALL_QUAD = {"radial_order": 8, "angular_orders": [8, 8, 8]}


def integrate_config(**overrides):
    return {"integrand_im": "1/(P2+1)^2", "L_grid": ONE_CUTOFF, "quadrature": SMALL_QUAD,
            **overrides}


@pytest.mark.parametrize(
    "command, config, extra, expected",
    [
        ("regularize", {"fit_report": "missing.json"}, ["--samples", "log.csv"], 2),
        ("regularize", {"model": {"kind": "log", "psi": 1.0}}, ["--samples", "log.csv"], 2),
        ("integrate", integrate_config(quadrature={"angular_orders": [8, 8]}), [], 2),
        ("integrate", integrate_config(quadrature={"angular_orders": "abc"}), [], 2),
        ("integrate", integrate_config(m="abc"), [], 2),
        ("integrate", integrate_config(q=[1.0, 2.0]), [], 2),
        ("fit", None, ["--samples", "one_row.csv", "--model", "log"], 5),
        ("fit", None, ["--samples", "one_row.csv", "--model", "auto"], 5),
        ("fit", None, ["--samples", "descending.csv"], 2),
        ("fit", None, ["--samples", "text.csv"], 2),
        ("fit", {"tail_fraction": 2}, ["--samples", "log.csv"], 2),
        ("fit", {"tail_fraction": "x"}, ["--samples", "log.csv"], 2),
        ("fit", {"degree": "x"}, ["--samples", "log.csv"], 2),
        ("regularize", {"epsilon": "x"}, ["--samples", "log.csv", "--model", "log"], 2),
        ("regularize", None, ["--samples", "log.csv", "--epsilon", "1e200"], 2),
        ("resum", {"psi": [1.0, 0.5], "phi": 2.0, "order": 2}, [], 2),
        ("resum", {"psi": [1.0, 0.5], "phi": 2.0, "L_values": [0]}, [], 2),
        ("resum", {"psi": [1.0, 0.5], "phi": 2.0, "epsilon": 0}, [], 2),
        ("spectra", {"q": [0, 0, 0], "m": -1}, [], 2),
        ("check", {"trials": "x"}, [], 2),
        ("integrate", integrate_config(integrand_im="(P2+1)^200"), [], 4),
        ("integrate", integrate_config(integrand_im="10^400/(P2+1)^2"), [], 4),
        ("integrate", integrate_config(integrand_im="1/(P2+L^400)"), [], 4),
        ("spectra", {"q": [1e300, 1e300, 0], "m": 1}, [], 2),
        ("check", {"trials": 0}, [], 2),
        ("check", {"trials": -3}, [], 2),
        # sizes past the 128 TiB x86-64 address space, so that the allocation
        # fails at once whatever the host's overcommit setting
        ("spectra", {"m": 1, "q_grid": {"min": -1, "max": 1, "count": 10**6}}, [], 2),
        # refused at its unknown quadrature keys, before any allocation
        ("integrate",
         integrate_config(quadrature={"method": "monte-carlo", "samples": 10**16, "seed": 1}),
         [], 2),
        # max - min overflows, and a non-finite end
        ("spectra", {"q_grid": {"min": -1e308, "max": 1e308, "count": 3}, "m": 1}, [], 2),
        ("spectra", {"q_grid": {"min": -np.inf, "max": 1, "count": 3}, "m": 1}, [], 2),
        # non-finite values, or no cutoff at all, which used to pass with residual 0
        ("resum", {"psi": [1.0, 0.5], "phi": 2.0, "L_values": [np.nan, 10.0]}, [], 2),
        ("resum", {"psi": [1.0, np.nan, 0.25], "phi": 2.0}, [], 2),
        ("resum", {"psi": [1.0, 0.5], "phi": 2.0, "L_values": [np.inf]}, [], 2),
        ("resum", {"psi": [1.0, 0.5], "phi": 2.0, "L_values": []}, [], 2),
        # model dicts follow the JSON-type rule: numbers for coefficients, a
        # non-empty list for a table and an integer >= 1 for the order
        ("regularize", {"model": {"kind": "log", "phi": "1.5", "psi": 0.0}},
         ["--samples", "log.csv"], 2),
        ("regularize", {"model": {"kind": "log", "phi": 1.5, "psi": True}},
         ["--samples", "log.csv"], 2),
        ("regularize", {"model": {"kind": "polylog", "table": [1, "2"]}},
         ["--samples", "log.csv"], 2),
        ("regularize", {"model": {"kind": "polylog", "table": "12"}}, ["--samples", "log.csv"], 2),
        ("regularize", {"model": {"kind": "polylog", "table": []}}, ["--samples", "log.csv"], 2),
        ("regularize", {"model": {"kind": "polylog", "table": [0.0, 3.0], "order": 2.7}},
         ["--samples", "log.csv"], 2),
        ("regularize", {"model": {"kind": "polylog", "table": [0.0, 3.0], "order": True}},
         ["--samples", "log.csv"], 2),
        ("regularize", {"model": {"kind": "polylog", "table": [0.0, 3.0], "order": 0}},
         ["--samples", "log.csv"], 2),
        ("regularize", {"model": {"kind": "polylog", "table": [0.0, 3.0], "order": -1},
                        "epsilon": 0.5}, ["--samples", "log.csv"], 2),
        # a poly-log degree below 0, or one the tail cannot fit, is refused
        # before its terms are built
        ("fit", {"degree": -1}, ["--samples", "log.csv", "--model", "polylog"], 2),
        ("fit", {"degree": 10**6}, ["--samples", "log.csv", "--model", "polylog"], 5),
    ],
)
def test_malformed_invocations_exit_with_documented_code(
    tmp_path, monkeypatch, capsys, command, config, extra, expected
):
    monkeypatch.chdir(tmp_path)
    grid = np.geomspace(10, 1e4, 17)
    (tmp_path / "log.csv").write_text(
        "\n".join(["L,re,im"] + [f"{l},0.0,{3*np.log(l)+2}" for l in grid]) + "\n"
    )
    (tmp_path / "one_row.csv").write_text("L,re,im,err\n10,0,1,0\n")
    (tmp_path / "descending.csv").write_text(
        "L,re,im\n" + "".join(f"{100 - i},0,{i}\n" for i in range(10))
    )
    (tmp_path / "text.csv").write_text("L,re,im\na,b,c\n")
    # a warning recorded here is one a command-line run prints on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, command, config, extra)
    assert code == expected
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "model",
    [{"kind": "log", "phi": "1.5", "psi": 0.0},
     {"kind": "polylog", "table": [0.0, 3.0], "order": -1}],
    ids=["string-coefficient", "negative-order"],
)
def test_fit_report_with_a_malformed_model_exits_2(tmp_path, capsys, model):
    grid = np.geomspace(10, 1e4, 17)
    samples = tmp_path / "log.csv"
    samples.write_text("\n".join(["L,re,im"] + [f"{l},0.0,{3*np.log(l)+2}" for l in grid]))
    report = tmp_path / "fit.json"
    report.write_text(json.dumps({"model": model}))
    code, out = run(tmp_path, "regularize", {"fit_report": str(report)},
                    ["--samples", str(samples)])
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err.startswith("regularize: model entr")


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("fit", {"model": 5}, "config key 'model' has the wrong type: 5"),
        ("fit", {"tail_fraction": "0.5"}, "config key 'tail_fraction' has the wrong type: '0.5'"),
        ("fit", {"degree": "2"}, "config key 'degree' has the wrong type: '2'"),
        ("regularize", {"epsilon": "0.1"}, "config key 'epsilon' has the wrong type: '0.1'"),
        ("regularize", {"model": 5}, "config key 'model' has the wrong type: 5"),
        ("regularize", {"fit_report": 5}, "config key 'fit_report' has the wrong type: 5"),
        ("regularize", {"tail_fraction": "0.5"},
         "config key 'tail_fraction' has the wrong type: '0.5'"),
        ("regularize", {"degree": "2"}, "config key 'degree' has the wrong type: '2'"),
        ("regularize", {"model": {"kind": "log", "psi": 1.0}},
         "model entry 'phi' must be a number, not None"),
        ("regularize", {"fit_report": "missing.json"}, "No such file or directory"),
        ("regularize", {"fit_report": "report.json"}, "model entry 'psi' must be a number"),
    ],
)
def test_fit_keys_are_checked_before_sampling(tmp_path, monkeypatch, capsys, command,
                                              overrides, message):
    def no_sampling(config):
        raise AssertionError("sampled before the fit keys were checked")

    monkeypatch.setattr(cli, "_sample", no_sampling)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "report.json").write_text(json.dumps({"model": {"kind": "log", "phi": 1.0}}))
    code, out = run(tmp_path, command, integrate_config(**overrides))
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and not out.exists()
    assert len(err) == 1 and err[0].startswith(f"{command}: ") and message in err[0]


def test_config_out_key_is_honoured_and_the_flag_beats_it(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "resum.json"
    config.write_text(json.dumps({"psi": [1.0, 0.5], "phi": 2.0}))
    assert main(["resum", "--config", str(config)]) == 0
    assert (tmp_path / "resum_residuals.csv").exists()  # the default is the cwd
    config.write_text(json.dumps({"psi": [1.0, 0.5], "phi": 2.0, "out": "elsewhere"}))
    assert main(["resum", "--config", str(config)]) == 0
    assert (tmp_path / "elsewhere" / "resum_residuals.csv").exists()
    assert main(["resum", "--config", str(config), "--out", "flag"]) == 0
    assert (tmp_path / "flag" / "resum_residuals.csv").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "elsewhere", "flag", "resum.json", "resum_residuals.csv"]


@pytest.mark.parametrize("l_grid", [
    {"start": np.inf, "ratio": 2.0, "count": 2},
    {"start": 1e300, "ratio": 1e10, "count": 3},
])
def test_non_finite_cutoffs_exit_2_without_warnings(tmp_path, capsys, l_grid):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, "integrate", integrate_config(L_grid=l_grid))
    assert code == 2 and not caught
    assert "finite" in capsys.readouterr().err


def test_orders_above_the_cap_exit_2_at_once(tmp_path, capsys):
    # leggauss(4096) alone would take seconds and hundreds of MB
    start = time.perf_counter()
    code, out = run(tmp_path, "integrate", integrate_config(), ["--quad-orders", "4096,8,8,8"])
    assert code == 2 and time.perf_counter() - start < 1.0
    assert "1024" in capsys.readouterr().err
    assert not (out / "samples.csv").exists()


def probe_process(code, *argv, cwd=None):
    """A fresh interpreter's run of ``code`` with the package on its path."""
    src = Path(scatreg.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )


def test_cli_import_leaves_scipy_unloaded():
    # every subcommand runs in a fresh process; scipy would dominate its start-up
    probe = probe_process("import sys, scatreg.cli; print('scipy' in sys.modules)")
    assert probe.stdout.strip() == "False", probe.stderr


# the modules that only the sampling and fitting subcommands run
QUADRATURE_MODULES = ["scatreg.integrand", "scatreg.ballquad", "scatreg.asymfit"]


def test_cli_import_loads_no_quadrature_module():
    probe = probe_process("import json, sys, scatreg.cli; print(json.dumps(list(sys.modules)))")
    assert probe.returncode == 0, probe.stderr
    assert not set(QUADRATURE_MODULES) & set(json.loads(probe.stdout))


@pytest.mark.parametrize(
    "command, config, code",
    [
        ("spectra", {"q": [0, 0, 0], "m": "heavy"}, 2),
        ("integrate", integrate_config(integrand_im="1/(P2"), 3),
    ],
)
def test_errors_exit_with_one_line_in_a_fresh_process(tmp_path, command, config, code):
    # the exit-code table imports the library's error classes on this path only
    (tmp_path / "config.json").write_text(json.dumps(config))
    run = probe_process(
        "import sys, scatreg.cli; sys.exit(scatreg.cli.main(sys.argv[1:]))",
        command, "--config", "config.json", cwd=tmp_path,
    )
    assert run.returncode == code
    assert len(run.stderr.splitlines()) == 1 and "Traceback" not in run.stderr
    assert run.stderr.startswith(f"{command}: ")


@pytest.mark.parametrize(
    "command, quadrature, named",
    [
        ("integrate", {"method": "monte-carlo", "samples": 1000, "seed": 1},
         "method, samples, seed"),
        ("fit", {**SMALL_QUAD, "method": "tensor-gauss"}, "method"),
        ("regularize", {**SMALL_QUAD, "samples": 1000}, "samples"),
        ("integrate", {**SMALL_QUAD, "seed": 1}, "seed"),
    ],
)
def test_unknown_quadrature_keys_exit_2_naming_them(tmp_path, capsys, command, quadrature,
                                                    named):
    code, _ = run(tmp_path, command, integrate_config(quadrature=quadrature))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"{command}: unknown quadrature keys: {named}"]


@pytest.mark.parametrize(
    "command, config, named",
    [
        ("spectra", {"q": [0, 0, 0], "m": 1.0, "q_gird": {}}, "q_gird"),
        # a key another subcommand reads is unknown here too
        ("integrate", integrate_config(tail_fraction=0.9), "tail_fraction"),
        # flags that override no top-level key
        ("integrate", integrate_config(quad_orders="8,8,8,8", threads=2),
         "quad_orders, threads"),
        ("fit", integrate_config(tail_fractoin=0.9, modle="powerlog"), "modle, tail_fractoin"),
        ("regularize", integrate_config(epsilom=0.2, fit_reprot="fit.json"),
         "epsilom, fit_reprot"),
        ("check", {"trials": 3, "trails": 5, "config": "check.json"}, "config, trails"),
        ("resum", {"psi": [1.0, 0.5], "phi": 2.0, "L": [10.0]}, "L"),
    ],
)
def test_unknown_config_keys_exit_2_naming_them(tmp_path, capsys, command, config, named):
    code, out = run(tmp_path, command, config)
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err.splitlines() == [f"{command}: unknown config keys: {named}"]


# runs every subcommand, then resolves every package export, with scipy
# unimportable
WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
import scatreg, scatreg.cli
codes = [scatreg.cli.main(argv.split()) for argv in sys.argv[1:]]
[getattr(scatreg, name) for name in scatreg.__all__]
print(json.dumps(codes))
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    grid = np.geomspace(10, 1e4, 17)
    (tmp_path / "log.csv").write_text(
        "\n".join(["L,re,im"] + [f"{l},0.0,{3*np.log(l)+2}" for l in grid]) + "\n"
    )
    configs = {
        "spectra": {"q_grid": {"min": -1, "max": 1, "count": 3}, "m": 0.5},
        "integrate": integrate_config(),
        "check": {"trials": 5},
        "resum": {"psi": [1.0, 0.5, 0.25], "phi": 2.0},
    }
    for name, config in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    argvs = [f"{name} --config {name}.json --out out" for name in configs] + [
        "fit --samples log.csv --model auto --out out",
        "regularize --samples log.csv --model log --out out",
    ]
    probe = probe_process(WITHOUT_SCIPY, *argvs, cwd=tmp_path)
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout.splitlines()[-1]) == [0] * len(argvs)


# prints the exit code and the loaded modules, as JSON, after one command
MODULE_PROBE = (
    "import json, sys, scatreg.cli; code = scatreg.cli.main(sys.argv[1:]); "
    "print(json.dumps([code, sorted(sys.modules)]))"
)


@pytest.mark.parametrize(
    "command, config, extra, unloaded",
    [
        ("integrate", integrate_config(), [], ["scatreg.dirac", "scatreg.deviation"]),
        ("fit", None, ["--samples", "log.csv", "--model", "auto"],
         ["scatreg.dirac", "scatreg.deviation", "numpy.ma"]),
        ("regularize", None, ["--samples", "log.csv", "--model", "log"],
         ["scatreg.dirac", "numpy.ma"]),
        ("spectra", {"q": [0, 0, 0], "m": 1}, [], ["scatreg.deviation"]),
        ("spectra", {"q": [0, 0, 0], "m": 1}, [], QUADRATURE_MODULES),
        ("check", {"trials": 5}, [], QUADRATURE_MODULES),
    ],
)
def test_each_subcommand_loads_only_the_modules_it_runs(
    tmp_path, command, config, extra, unloaded
):
    # every subcommand runs in a fresh process, which pays for each module it
    # loads; numpy.ma comes with np.median
    grid = np.geomspace(10, 1e4, 17)
    (tmp_path / "log.csv").write_text(
        "\n".join(["L,re,im"] + [f"{l},0.0,{3*np.log(l)+2}" for l in grid]) + "\n"
    )
    argv = [command, "--out", str(tmp_path / "out"), *extra]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    probe = probe_process(MODULE_PROBE, *argv, cwd=tmp_path)
    assert probe.returncode == 0, probe.stderr
    code, modules = json.loads(probe.stdout.splitlines()[-1])
    assert code == 0
    assert not set(unloaded) & set(modules)


# the names the package exported when it imported every module up front
PACKAGE_EXPORTS = {
    "asymfit": ["LogModel", "PolyLogModel", "PowerLogModel", "classify", "fit"],
    "ballquad": ["BallRegion", "CutoffSamples", "QuadratureSpec", "integrate_ball",
                 "sample_over_cutoffs", "screen_singularities"],
    "deviation": ["DeviationFactor", "class_a_check", "factor_from_model",
                  "regularize_coefficient", "regularized_series", "resum_coulomb_series"],
    "dirac": ["build_doubled", "build_hamiltonian", "commutes", "eigenvalues",
              "eigenvectors_closed_form", "random_commuting_unitary",
              "simultaneous_diagonalize", "spectral_subspaces"],
    "integrand": ["evaluate", "parse_integrand", "pretty_print"],
}


@pytest.mark.parametrize(
    "module, name",
    [(module, module) for module in PACKAGE_EXPORTS]
    + [(module, name) for module, names in PACKAGE_EXPORTS.items() for name in names],
)
def test_package_exports_resolve_on_first_use(module, name):
    home = importlib.import_module(f"scatreg.{module}")
    expected = home if name == module else getattr(home, name)
    assert getattr(scatreg, name) is expected
    namespace = {}
    exec(f"from scatreg import {name}", namespace)
    assert namespace[name] is expected
    assert name in scatreg.__all__ and name in dir(scatreg)


def test_package_refuses_unknown_names():
    with pytest.raises(AttributeError, match="no attribute 'integrate'"):
        scatreg.integrate
    with pytest.raises(ImportError):
        exec("from scatreg import integrate", {})


@pytest.mark.parametrize(
    "argv",
    [
        ["spectra", "--epsilon", "3", "--model", "log", "--quad-orders", "1,2,3,4"],
        ["fit", "--threads", "2"],
        ["integrate", "--seed", "3"],
        ["regularize", "--seed", "3"],
    ],
)
def test_flags_of_other_subcommands_are_refused(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# Config fuzzing: a valid config of small values, then up to two of its keys
# (at any depth) dropped or replaced by junk.  Quadrature orders stay <= 8 and
# cutoff counts <= 3 so that no example allocates much memory; the quadrature
# orders are never dropped, since their defaults are large.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-1e3, 1e3) | st.sampled_from([float("nan"), float("inf")]),
    st.text(max_size=3),
    st.lists(st.integers(-2, 8), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
SMALL_FLOAT = st.floats(-20, 200)
FLOATS = st.lists(st.floats(-5, 5), max_size=5)
VECTOR = st.lists(st.floats(-5, 5), min_size=3, max_size=4) | FLOATS


@st.composite
def spoiled(draw, keep=(), **entries):
    """A dict of ``entries``, up to two of them dropped or junk; ``keep``
    entries are never dropped."""
    config = draw(st.fixed_dictionaries(entries))
    for key in draw(st.lists(st.sampled_from(sorted(entries)), max_size=2, unique=True)):
        if key in keep or draw(st.booleans()):
            config[key] = draw(JUNK)
        else:
            del config[key]
    return config


QUADRATURE = spoiled(
    keep=("radial_order", "angular_orders"),
    radial_order=st.integers(2, 8),
    angular_orders=st.lists(st.integers(2, 8), min_size=3, max_size=3),
)
SAMPLING = {
    "integrand_re": st.sampled_from(
        ["1", "PQ/(P2+m^2)^3", "-p1^2/(P2+1)^4", "1/(P2", "1/P2"]
    ),
    "integrand_im": st.sampled_from(["1/(P2+m^2)^2", "1/(P2+1)^2", "(P2+1)^200", "P2^"]),
    "L_grid": spoiled(
        start=st.floats(0.5, 200), ratio=st.floats(1.1, 4), count=st.integers(1, 3)
    ),
    "q": VECTOR,
    "m": SMALL_FLOAT,
    "quadrature": QUADRATURE,
}
FIT = {
    **SAMPLING,
    "samples_file": st.sampled_from(["log.csv", "one_row.csv", "text.csv", "descending.csv",
                                     "missing.csv", ""]),
    "model": st.sampled_from(["log", "powerlog", "polylog", "auto", "cubic"]),
    "tail_fraction": st.floats(0.1, 1),
    "degree": st.integers(0, 4),
}
MODEL_DICT = spoiled(
    kind=st.sampled_from(["log", "powerlog", "polylog"]),
    **{name: SMALL_FLOAT for name in ("phi", "psi", "nu", "mu")},
    table=FLOATS,
    order=st.integers(0, 3),
)
CONFIGS = {
    "spectra": dict(
        m=SMALL_FLOAT,
        q=VECTOR,
        q_grid=spoiled(min=SMALL_FLOAT, max=SMALL_FLOAT, count=st.integers(1, 3)),
    ),
    "integrate": SAMPLING,
    "fit": FIT,
    "regularize": {
        **FIT,
        "model": st.sampled_from(["log", "auto"]) | MODEL_DICT,
        "epsilon": st.floats(-2, 2),
        "fit_report": st.sampled_from(["fit.json", "list.json", "missing.json"]),
    },
    "check": dict(
        seed=st.integers(0, 9), trials=st.integers(0, 3), tamper=st.floats(0, 1e-3)
    ),
    "resum": dict(
        psi=st.lists(st.floats(-2, 2), min_size=3, max_size=4).map(lambda psi: [1.0, *psi]),
        phi=st.floats(-5, 5),
        epsilon=st.floats(-2, 2),
        order=st.integers(0, 3),
        L_values=st.lists(st.floats(0.5, 1e3), max_size=3),
    ),
}
FLAGS = st.lists(
    st.tuples(
        st.sampled_from(["--seed", "--threads", "--quad-orders", "--model", "--epsilon",
                         "--samples"]),
        st.sampled_from(["1", "x", "8,8,8,8", "log", "0.5", "log.csv"]),
    ).map(list),
    max_size=1,
)


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(CONFIGS)))
    # defaults that would make an example slow are never dropped
    keep = ("quadrature", "trials")
    return command, draw(spoiled(keep, **CONFIGS[command])), sum(draw(FLAGS), [])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    grid = np.geomspace(10, 1e4, 9)
    (root / "log.csv").write_text(
        "\n".join(["L,re,im"] + [f"{l},0.0,{3*np.log(l)+2}" for l in grid]) + "\n"
    )
    (root / "one_row.csv").write_text("L,re,im,err\n10,0,1,0\n")
    (root / "text.csv").write_text("L,re,im\na,b,c\n")
    (root / "descending.csv").write_text("L,re,im\n20,0,1\n10,0,2\n")
    (root / "fit.json").write_text(json.dumps({"model": {"kind": "log", "phi": 1, "psi": 0}}))
    (root / "list.json").write_text("[1, 2]")
    return root


@settings(max_examples=150, deadline=None)
@given(invocation=invocations())
# junk that the fuzzer once drew and that failed on a numpy warning
@example(invocation=("check", {"seed": 0, "trials": 1, "tamper": float("inf")}, []))
@example(invocation=("check", {"seed": 0, "trials": 1, "tamper": float("nan")}, []))
@example(invocation=("resum", EXTREME_RESUM, []))
def test_fuzzed_configs_exit_with_documented_codes(fuzz_dir, invocation):
    command, config, flags = invocation
    (fuzz_dir / "config.json").write_text(json.dumps(config))
    argv = [command, "--config", "config.json", "--out", "out", *flags]
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(fuzz_dir)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing a flag
            assert exc.code == 2
        else:
            assert code in range(6)
