#!/usr/bin/env python3
"""Run the scatreg CLI from two source trees on the same inputs and report
every difference.

    python tools/same_bytes.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``scatreg`` package, such as a
checkout's ``src``.  Each scenario runs in a fresh directory per tree: its
input files are written there, and each of its steps runs as a fresh
``python -m scatreg.cli`` process in that directory, so relative paths, and
the messages that name them, agree.  After each step the two runs' stdout,
stderr, exit code and the bytes of every file in the directory are compared.
One line is printed per difference; the exit code is 1 if there is any, and
0 otherwise.

The scenarios: the README configs, the stage configs of the benchmark's two
cutoff workloads, integrate configs that the singularity screen flags or
passes, fit and regularize with every ``--model`` kind on
synthetic log, power-log and poly-log samples, model dicts with +-0.0
entries, and ``check`` at seeds 1-3 with 1, 300 and 2000 trials.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

EPSILON = "0.1"


def _csv(grid, imag, real=None):
    real = np.zeros_like(grid) if real is None else real
    columns = (grid.tolist(), real.tolist(), imag.tolist())
    rows = "".join(f"{l!r},{r!r},{i!r}\n" for l, r, i in zip(*columns))
    return "L,re,im\n" + rows


def _synthetic_samples():
    """Samples of one divergence kind each, with a 1/L remainder."""
    grid = np.geomspace(10, 1e4, 17)
    logl = np.log(grid)
    power = np.geomspace(10, 1e3, 17)
    poly = np.geomspace(10, 1e4, 25)
    return {
        "log.csv": _csv(grid, 3 * logl + 2 + 0.5 / grid),
        "powerlog.csv": _csv(
            power, 0.5 * power**2 - power + 4 * np.log(power) + 7 + 1 / power
        ),
        "polylog.csv": _csv(
            poly, 1.5 * np.log(poly) ** 2 + 2 * np.log(poly) - 3 + 1 / poly
        ),
    }


def _zero_samples():
    """Samples at L = 1 (ln L = 0) and above, with -0.0 real parts."""
    grid = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0])
    return _csv(grid, np.log(grid) - 0.0, np.full_like(grid, -0.0))


SIGNED_ZERO_MODELS = [
    {"kind": "log", "phi": -0.0, "psi": 0.0},
    {"kind": "log", "phi": -1.5, "psi": -0.0},
    {"kind": "powerlog", "phi": -0.0, "psi": -0.0, "nu": -0.0, "mu": -0.0},
    {"kind": "powerlog", "phi": 0.0, "psi": -0.0, "nu": -2.0, "mu": 1.0},
    {"kind": "polylog", "table": [-0.0, -0.0, -0.0], "order": 3},
    {"kind": "polylog", "table": [1.0, -2.0, 0.0], "order": 1},
    {"kind": "polylog", "table": [5.0]},
]

README_INTEGRATE = {
    "integrand_im": "1/(P2+1)^2",
    "m": 1.0,
    "L_grid": {"start": 10.0, "ratio": 2.0, "count": 9},
    "quadrature": {"radial_order": 64, "angular_orders": [32, 32, 32]},
}
README_SPECTRA = {"m": 0.5, "q_grid": {"min": -5.0, "max": 5.0, "count": 16}}
RESUM = {"psi": [1.0, 0.5, 0.25], "phi": 2.0, "epsilon": 0.1}
# the integrate configs of the benchmark's radial_sweep and kinematic_bubble
# workloads, the latter with the q its seed 777 draws
WORKLOAD_CONFIGS = {
    "radial_sweep": {
        "integrand_im": "1/(P2+m^2)^2",
        "m": 1.0,
        "q": [0.0, 0.0, 0.0, 0.0],
        "L_grid": {"start": 10.0, "ratio": 3.1622776601683795, "count": 9},
    },
    "kinematic_bubble": {
        "integrand_im": "1/((P2+m^2)*(P2+2*PQ+Q2+m^2))",
        "m": 1.0,
        "q": [0.503447794580591, 0.7458074965320858, -0.10842063929360111,
              1.1952223480271982],
        "L_grid": {"start": 10.0, "ratio": 2.371373705661655, "count": 9},
    },
}

# integrate configs for the singularity screen: an invariant integrand that it
# flags on the (r, chi) slice, a coordinate one that it flags on the 4-D grid,
# and a clean pair of parts, one of each kind, at a 3-component q
SCREEN_CONFIGS = {
    "screen-invariant-flagged": {
        "integrand_im": "1/(P2-4)",
        "L_grid": {"start": 3.0, "ratio": 2.0, "count": 3},
    },
    "screen-coordinate-flagged": {
        "integrand_re": "1/(p1-0.3)",
        "L_grid": {"start": 1.0, "ratio": 2.0, "count": 3},
    },
    "screen-clean-parts": {
        "integrand_re": "p1^2/(P2+1)^3",
        "integrand_im": "1/(P2+m^2)^2",
        "m": 1.0,
        "q": [0.3, -0.2, 0.5],
        "L_grid": {"start": 10.0, "ratio": 2.0, "count": 3},
        "quadrature": {"radial_order": 24, "angular_orders": [12, 12, 12]},
    },
}


def scenarios():
    """(name, {file: text}, [argv, ...]) for every scenario."""
    pipeline = [
        ["integrate", "--config", "integrate.json", "--out", "out"],
        ["fit", "--model", "auto", "--samples", "out/samples.csv", "--out", "out"],
        ["regularize", "--model", "log", "--epsilon", EPSILON,
         "--samples", "out/samples.csv", "--out", "out"],
    ]
    yield "readme-pipeline", {"integrate.json": json.dumps(README_INTEGRATE)}, pipeline
    yield ("readme-spectra", {"spectra.json": json.dumps(README_SPECTRA)},
           [["spectra", "--config", "spectra.json", "--out", "out"]])
    yield ("resum", {"resum.json": json.dumps(RESUM)},
           [["resum", "--config", "resum.json", "--out", "out"]])
    for name, config in WORKLOAD_CONFIGS.items():
        yield name, {"integrate.json": json.dumps(config)}, pipeline
    for name, config in SCREEN_CONFIGS.items():
        yield (name, {"integrate.json": json.dumps(config)},
               [["integrate", "--config", "integrate.json", "--out", "out"]])
    samples = _synthetic_samples()
    for csv in samples:
        for kind in ("log", "powerlog", "polylog", "auto"):
            yield f"{csv}-{kind}", samples, [
                ["fit", "--model", kind, "--samples", csv, "--out", "out"],
                ["regularize", "--model", kind, "--epsilon", EPSILON,
                 "--samples", csv, "--out", "out"],
            ]
    yield "polylog.csv-degree-3", {**samples, "c.json": '{"degree": 3}'}, [
        ["fit", "--config", "c.json", "--model", "polylog", "--samples", "polylog.csv",
         "--out", "out"],
        ["regularize", "--config", "c.json", "--model", "polylog",
         "--samples", "polylog.csv", "--out", "out"],
    ]
    for i, model in enumerate(SIGNED_ZERO_MODELS):
        for eps in (0.1, -0.5, 0.0):
            files = {
                "zero.csv": _zero_samples(),
                "inline.json": json.dumps({"model": model, "epsilon": eps}),
                "report.json": json.dumps({"model": model}),
                "by_report.json": json.dumps({"fit_report": "report.json", "epsilon": eps}),
            }
            yield f"signed-zero-model-{i}-eps-{eps}", files, [
                ["regularize", "--config", "inline.json", "--samples", "zero.csv",
                 "--out", "inline"],
                ["regularize", "--config", "by_report.json", "--samples", "zero.csv",
                 "--out", "by_report"],
            ]
    for seed in (1, 2, 3):
        for trials in (1, 300, 2000):
            yield (f"check-seed-{seed}-trials-{trials}",
                   {"check.json": json.dumps({"trials": trials})},
                   [["check", "--config", "check.json", "--seed", str(seed),
                     "--out", "out"]])


def _tree(directory):
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def _run(src, directory, argv):
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "scatreg.cli", *argv],
        cwd=directory, env=env, capture_output=True,
    )
    return {"stdout": done.stdout, "stderr": done.stderr,
            "exit code": done.returncode, "files": _tree(directory)}


def _differences(left, right):
    found = [key for key in ("stdout", "stderr", "exit code") if left[key] != right[key]]
    names = sorted(set(left["files"]) | set(right["files"]))
    found += [f"file {n}" for n in names if left["files"].get(n) != right["files"].get(n)]
    return found


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/same_bytes.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in args)
    codes, differing = {}, 0
    with tempfile.TemporaryDirectory() as scratch:
        for name, files, commands in scenarios():
            dirs = [Path(scratch) / name / side for side in ("parent", "change")]
            for directory in dirs:
                directory.mkdir(parents=True)
                for file, text in files.items():
                    (directory / file).write_text(text)
            for command in commands:
                left, right = (_run(src, d, command) for src, d in zip((parent, change), dirs))
                codes[left["exit code"]] = codes.get(left["exit code"], 0) + 1
                found = _differences(left, right)
                if found:
                    differing += 1
                    print(f"{name}: {' '.join(command)}: {', '.join(found)} differ")
    tally = ", ".join(f"{n} exited {code}" for code, n in sorted(codes.items()))
    print(f"{sum(codes.values())} steps ({tally} on the parent), {differing} with differences")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
