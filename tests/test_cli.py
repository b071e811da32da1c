import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scatreg
from scatreg import dirac
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
    assert "commut" in capsys.readouterr().err.lower() or True


def test_resum_pipeline(tmp_path):
    code, out = run(
        tmp_path, "resum", {"psi": [1.0, 0.5, 0.25], "phi": 2.0, "epsilon": 0.1}
    )
    assert code == 0
    rows = read_csv(out / "resum_residuals.csv")
    assert np.max(rows[:, 2]) <= 1e-12


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
             "--seed", "7", "--threads", str(threads)]
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


def test_cli_import_leaves_scipy_unloaded():
    # every subcommand runs in a fresh process; scipy would dominate its start-up
    src = Path(scatreg.__file__).resolve().parents[1]
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, scatreg.cli; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert probe.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["spectra", "--epsilon", "3", "--model", "log", "--quad-orders", "1,2,3,4"],
        ["fit", "--threads", "2"],
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
    method=st.sampled_from(["tensor-gauss", "tensor-gauss", "monte-carlo"]),
    samples=st.integers(1000, 2000),
    seed=st.integers(0, 9),
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
