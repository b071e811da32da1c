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
One line is printed per step that differs, naming what differs; a file or
stdout whose texts differ only in their numbers is named with the largest
relative difference among them.  The exit code is 1 if any step differs, and
0 otherwise.

The scenarios: the README configs, a ``spectra`` grid of 343 momenta, whose
rows end in a partial block of the CLI's row writer (blocks of 256 rows), the
stage configs of the benchmark's two cutoff workloads, integrate configs that
the singularity screen flags or passes, integrate configs whose integrand does
not parse (an unexpected character after a Unicode space, trailing input, a
non-integer exponent, an unknown identifier, a missing ``)``), fit and
regularize with every ``--model`` kind on synthetic log, power-log and
poly-log samples, inline model dicts with +-0.0 entries, ``check`` at seeds
1-3 with 1, 300 and 2000 trials, and these, which are refused: a ``check``
config with the key ``tamper``, which is gone, a ``spectra`` grid count below 0, ``integrate`` at cutoffs
1e77 and 1e78, whose quadrature weights overflow at the second, an
``integrate`` ``L_grid`` and a ``spectra`` ``q_grid`` with an unknown key,
``check --seed -1``, ``fit`` and ``regularize`` on the README integrate config
without a samples file, ``fit`` on a samples file with a header only, and the
inputs that are gone: ``integrate --quad-orders 8,8,8,8``, a ``regularize``
config with a ``fit_report`` and a ``resum`` config with an ``order``.
Then six steps at an overflow's edge: ``spectra`` at q = (1e155, 0, 0),
where m^2 + |q|^2 overflows but E does not, ``integrate`` of ``1`` at cutoffs
1e76 and 1e77, whose integral overflows at the second, ``resum`` at
phi = 1e308, L = e, where (i phi ln L)^2 overflows, ``resum`` with 181
constants, where 171! alone would overflow but no (i phi ln L)^k/k! does, and
``resum`` where a sum a_m overflows and where the truncated sum d does.
Then seven steps where a square, a model or a samples entry overflows:
``integrate`` at |q| = 1.4e155, where q.q overflows, of an integrand free of
q, and of the bubble at |q| = 1e200, where Q2 does too; ``fit --model log`` on
samples i 1e300 ln L, whose residuals' squares overflow, and on three cutoffs
1e-6 apart in ln L at +-1e303, whose standard errors do; ``fit`` on a samples
file with an ``inf`` entry; ``regularize`` with the model phi = 1e308, whose
divergent part overflows; and ``regularize --epsilon 1e155``, where eps^2 does.
Then six steps on samples that ``CutoffSamples`` or the decay test once let
through: ``fit --model auto`` and ``regularize --model auto`` on samples
i (1e300 ln L +- 1e305), whose |residual L| overflows, ``fit`` and
``regularize`` on a file with cutoffs -5, -1 and 0, ``fit`` on a file whose
``err`` column holds a ``nan``, and ``regularize`` on one that holds a ``-1``.
Then four steps on what a samples file or a model dict may hold: ``fit`` on a
file with a fifth column, which is refused, ``regularize`` with the model dict
{kind: log, phi: 1, psi: 2, nu: 5}, whose unknown key is refused, and ``fit``
and ``regularize`` on log samples whose real parts are all -0.0.
Then four steps on the samples' header and units: ``fit`` on a log samples
file without its header line, which is refused, ``fit --model auto`` on
log samples with a seeded 1e-4/L noise, scaled by 1e-10, whose decay test
reads as on the unscaled samples, and ``fit`` and ``regularize`` on a
headerless file of one row, which is refused for its header.
Then four refused steps: ``regularize --epsilon nan``, ``regularize`` with the
model phi = 1e307 at ``--epsilon 100``, where eps^order c overflows,
``resum --epsilon nan``, and ``spectra`` with both ``q`` and ``q_grid``.
Then seven refused steps: ``regularize`` with the model dicts {kind: polylog,
table: [1], phi: 1}, which has a named key, {kind: log, phi: 1, psi: 2,
table: [1]}, {kind: polylog, order: 2}, which has no table, {kind: polylog,
table: [1], order: 0} and the same with order true, and {kind: log,
phi: "1.5", psi: 0}, whose coefficient is a string; and ``resum --epsilon
1e300`` at phi = 1e10, where eps phi overflows.
Then three steps: ``fit`` on a headerless samples file whose second row is
not numeric, which is refused for its header; ``fit --model powerlog`` on the
samples i (1e300 ln L +- 1e305); and ``regularize`` on log samples whose real
parts are all -0.0, with the poly-log model dict {kind: polylog, table: [2,
-0.0, -0.0]}, whose every divergent coefficient is -0.0.
Then eleven ``regularize`` steps, by the zero log model, which writes the
samples as read, on how a samples file's rows are read: a blank line, a
``#`` comment line and a comment after a row, both skipped; spaces and a tab
around fields, which are stripped; ``NaN`` and ``Inf`` in capitals, read and
then refused as not finite; an underscored number ``1_00.0``, a non-ASCII digit
and an empty field, which are not numbers; a trailing comma on every row and
on one row, which adds a column; and a line of spaces, which is a row of one
field.
Last, three steps on samples whose modulus |re + i im| overflows though both
parts are finite, re = im = 1.7e308: ``fit --model log`` and ``regularize
--model auto`` on nine such rows, and ``regularize`` by the zero log model on
a row of zeros and one such row, whose |difference| overflows.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

EPSILON = "0.1"


def _csv(grid, imag, real=None, err=None):
    real = np.zeros_like(grid) if real is None else real
    columns = [grid, real, imag] + ([] if err is None else [err])
    rows = "".join(",".join(map(repr, row)) + "\n" for row in zip(*(c.tolist() for c in columns)))
    return ("L,re,im\n" if err is None else "L,re,im,err\n") + rows


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
# 7^3 = 343 momenta: the row writer's blocks of 256 rows end in a partial one
BLOCK_EDGE_SPECTRA = {"m": 0.5, "q_grid": {"min": -5.0, "max": 5.0, "count": 7}}
RESUM = {"psi": [1.0, 0.5, 0.25], "phi": 2.0, "epsilon": 0.1}
# refused at the key (exit 2)
REFUSED = {
    "negative-count-spectra":
        ("spectra", {"m": 0.5, "q_grid": {"min": -5.0, "max": 5.0, "count": -2}}),
    "huge-cutoff-integrate":
        ("integrate", {**README_INTEGRATE, "L_grid": {"start": 1e77, "ratio": 10.0, "count": 2}}),
    "unknown-L_grid-key-integrate":
        ("integrate", {**README_INTEGRATE,
                       "L_grid": {"start": 10, "ratio": 10, "count": 2, "cout": 5}}),
    "unknown-q_grid-key-spectra":
        ("spectra", {"m": 1, "q_grid": {"min": -1, "max": 1, "count": 2, "mx": 3}}),
}
# at an overflow's edge: solved, or refused (exit 2) by name
OVERFLOW_EDGES = {
    "huge-momentum-spectra": ("spectra", {"q": [1e155, 0.0, 0.0], "m": 1.0}),
    "overflowing-integral-integrate":
        ("integrate", {"integrand_re": "1", "m": 1.0,
                       "L_grid": {"start": 1e76, "ratio": 10.0, "count": 2}}),
    "overflowing-power-resum":
        ("resum", {"psi": [1.0, 0.5, 0.2], "phi": 1e308, "L_values": [2.718281828459045]}),
    "181-constants-resum": ("resum", {"psi": [1.0] + [0.0] * 180, "phi": 0.1, "L_values": [2.0]}),
    "overflowing-a_m-resum":
        ("resum", {"psi": [1.0, 1e308, 1e308], "phi": 10, "L_values": [2.718281828459045]}),
    "overflowing-d-resum":
        ("resum", {"psi": [1.0, 1e300], "phi": 0.5, "epsilon": 1e10, "L_values": [2.0]}),
}
# integrate configs whose q.q overflows: an integrand free of q, and the bubble
HUGE_MOMENTA = {
    "huge-momentum-integrate":
        {"integrand_im": "1/(P2+m^2)^2", "m": 1.0, "q": [0.0, 1e155, 1e155, 0.0],
         "L_grid": {"start": 10.0, "ratio": 10.0, "count": 2}},
    "huge-momentum-bubble-integrate":
        {"integrand_im": "1/((P2+m^2)*(P2+2*PQ+Q2+m^2))", "m": 1.0, "q": [1e200, 0.0, 0.0],
         "L_grid": {"start": 10.0, "ratio": 10.0, "count": 2}},
}


def _overflowing_samples():
    """Log samples i 1e300 ln L, three cutoffs 1e-6 apart in ln L at +-1e303,
    a file with an inf entry, and the plain log samples with a huge model."""
    huge = np.geomspace(10, 1e4, 9)
    narrow = np.e * (1 + np.arange(3) * 1e-6)
    return {
        "huge.csv": _csv(huge, 1e300 * np.log(huge)),
        "narrow.csv": _csv(narrow, np.array([-1e303, 1e303, -1e303])),
        "inf.csv": "L,re,im\n10,0,1\n100,0,inf\n",
        "log.csv": _synthetic_samples()["log.csv"],
        "tail.json": json.dumps({"tail_fraction": 1.0}),
        "model.json": json.dumps({"model": {"kind": "log", "phi": 1e308, "psi": 0}}),
    }


def _unchecked_samples():
    """Samples i (1e300 ln L +- 1e305), whose |residual L| overflows; cutoffs
    -5, -1, 0, 1, ..., 32; and log samples with a nan and a -1 ``err``."""
    grid = np.geomspace(10, 1e4, 9)
    cutoffs = np.array([-5.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    log_grid = np.geomspace(10, 1e4, 17)
    err = np.zeros_like(log_grid)
    files = {
        "decay.csv": _csv(grid, 1e300 * np.log(grid) + 1e305 * (-1.0) ** np.arange(9)),
        "non_positive.csv": _csv(cutoffs, cutoffs + 1),
    }
    for name, bad in (("nan_err.csv", np.nan), ("negative_err.csv", -1.0)):
        err[3] = bad
        files[name] = _csv(log_grid, 3 * np.log(log_grid) + 2, err=err)
    return files


# samples files that test how rows are read, each with a header and log samples
# on three cutoffs where a row is not broken; regularize by the zero log model
# writes the values as read
ZERO_LOG = {"kind": "log", "phi": 0.0, "psi": 0.0}
_LOG_ROWS = ["10.0,0.0,2.302585092994046", "100.0,0.0,4.605170185988092",
             "1000.0,0.0,6.907755278982137"]
READER_FILES = {
    name: "L,re,im\n" + "\n".join(rows) + "\n"
    for name, rows in {
        "blank-line": [_LOG_ROWS[0], "", *_LOG_ROWS[1:]],
        "comment-lines": ["# cutoffs", _LOG_ROWS[0], _LOG_ROWS[1] + " # mid", _LOG_ROWS[2]],
        "spaces-around-fields": [" 10.0 , 0.0 ,2.302585092994046", "100.0,\t0.0,4.6  ",
                                 _LOG_ROWS[2]],
        "capital-nan": [_LOG_ROWS[0], "100.0,0.0,NaN", _LOG_ROWS[2]],
        "capital-inf": [_LOG_ROWS[0], "100.0,0.0,Inf", _LOG_ROWS[2]],
        "underscored-number": [_LOG_ROWS[0], "1_00.0,0.0,4.6", _LOG_ROWS[2]],
        "non-ascii-digit": [_LOG_ROWS[0], "100.0,0.0,\u0664", _LOG_ROWS[2]],
        "empty-field": [_LOG_ROWS[0], "100.0,,4.6", _LOG_ROWS[2]],
        "trailing-commas": [row + "," for row in _LOG_ROWS],
        "one-trailing-comma": [_LOG_ROWS[0], _LOG_ROWS[1] + ",", _LOG_ROWS[2]],
        "line-of-spaces": [_LOG_ROWS[0], "   ", *_LOG_ROWS[1:]],
    }.items()
}

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

# integrate configs whose integrand does not parse (exit 3), one per kind of
# syntax error
MALFORMED_INTEGRANDS = {
    "unicode-space-then-bad-character": "1/(P2+1)\u2003$",
    "trailing-input": "1/(P2+1) P2",
    "non-integer-exponent": "1/(P2+1)^1.5",
    "unknown-identifier": "1/(P2+x)",
    "missing-paren": "1/(P2+1",
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
    for name, config in {"readme-spectra": README_SPECTRA,
                         "block-edge-spectra": BLOCK_EDGE_SPECTRA}.items():
        yield (name, {"spectra.json": json.dumps(config)},
               [["spectra", "--config", "spectra.json", "--out", "out"]])
    yield ("resum", {"resum.json": json.dumps(RESUM)},
           [["resum", "--config", "resum.json", "--out", "out"]])
    for name, (command, config) in REFUSED.items():
        yield (name, {"c.json": json.dumps(config)},
               [[command, "--config", "c.json", "--out", "out"]])
    yield "negative-seed-check", {}, [["check", "--seed", "-1", "--out", "out"]]
    yield "fit-on-an-integrate-config", {"integrate.json": json.dumps(README_INTEGRATE)}, [
        ["fit", "--config", "integrate.json", "--out", "out"],
        ["regularize", "--config", "integrate.json", "--model", "log", "--out", "out"],
    ]
    yield ("header-only-samples", {"header.csv": "L,re,im\n"},
           [["fit", "--samples", "header.csv", "--out", "out"]])
    # the inputs that are gone: the orders flag, a fit report and a resum order
    report = {"fit_report": "fit.json", "epsilon": 0.5}
    for name, files, argv in (
        ("quad-orders-integrate", {"integrate.json": json.dumps(README_INTEGRATE)},
         ["integrate", "--config", "integrate.json", "--quad-orders", "8,8,8,8"]),
        ("fit_report-regularize",
         {"log.csv": _synthetic_samples()["log.csv"], "c.json": json.dumps(report),
          "fit.json": json.dumps({"model": {"kind": "log", "phi": 3.0, "psi": 2.0}})},
         ["regularize", "--config", "c.json", "--samples", "log.csv"]),
        ("order-resum", {"c.json": json.dumps({**RESUM, "order": 1})},
         ["resum", "--config", "c.json"]),
    ):
        yield name, files, [[*argv, "--out", "out"]]
    for name, config in WORKLOAD_CONFIGS.items():
        yield name, {"integrate.json": json.dumps(config)}, pipeline
    malformed = {f"malformed-{name}": {**README_INTEGRATE, "integrand_im": source}
                 for name, source in MALFORMED_INTEGRANDS.items()}
    for name, config in {**SCREEN_CONFIGS, **malformed}.items():
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
            }
            yield f"signed-zero-model-{i}-eps-{eps}", files, [
                ["regularize", "--config", "inline.json", "--samples", "zero.csv",
                 "--out", "inline"],
            ]
    for seed in (1, 2, 3):
        for trials in (1, 300, 2000):
            yield (f"check-seed-{seed}-trials-{trials}",
                   {"check.json": json.dumps({"trials": trials})},
                   [["check", "--config", "check.json", "--seed", str(seed),
                     "--out", "out"]])
    yield ("check-tamper-key", {"check.json": json.dumps({"trials": 5, "tamper": 1e-3})},
           [["check", "--config", "check.json", "--out", "out"]])
    for name, (command, config) in OVERFLOW_EDGES.items():
        yield (name, {"c.json": json.dumps(config)},
               [[command, "--config", "c.json", "--out", "out"]])
    for name, config in HUGE_MOMENTA.items():
        yield (name, {"c.json": json.dumps(config)},
               [["integrate", "--config", "c.json", "--out", "out"]])
    for name, argv in {
        "huge-residuals-fit": ["fit", "--model", "log", "--samples", "huge.csv"],
        "overflowing-stderr-fit":
            ["fit", "--config", "tail.json", "--model", "log", "--samples", "narrow.csv"],
        "inf-entry-fit": ["fit", "--samples", "inf.csv"],
        "overflowing-model-regularize":
            ["regularize", "--config", "model.json", "--samples", "log.csv"],
        "overflowing-coupling-regularize":
            ["regularize", "--model", "log", "--epsilon", "1e155", "--samples", "log.csv"],
    }.items():
        yield name, _overflowing_samples(), [[*argv, "--out", "out"]]
    for name, argv in {
        "decay-overflow-fit": ["fit", "--model", "auto", "--samples", "decay.csv"],
        "decay-overflow-regularize": ["regularize", "--model", "auto", "--samples", "decay.csv"],
        "non-positive-cutoff-fit": ["fit", "--samples", "non_positive.csv"],
        "non-positive-cutoff-regularize": ["regularize", "--samples", "non_positive.csv"],
        "nan-err-fit": ["fit", "--samples", "nan_err.csv"],
        "negative-err-regularize": ["regularize", "--samples", "negative_err.csv"],
    }.items():
        yield name, _unchecked_samples(), [[*argv, "--out", "out"]]
    grid = np.geomspace(10, 1e4, 17)
    imag = 3 * np.log(grid) + 2 + 0.5 / grid
    rows = _csv(grid, imag, err=np.zeros_like(grid)).splitlines()[1:]
    layouts = {
        "extra.csv": "L,re,im,err,extra\n" + "".join(f"{row},1.0\n" for row in rows),
        "negative_zero.csv": _csv(grid, imag, real=np.full_like(grid, -0.0)),
        "nu.json": json.dumps({"model": {"kind": "log", "phi": 1, "psi": 2, "nu": 5}}),
    }
    for name, argv in {
        "extra-column-fit": ["fit", "--model", "log", "--samples", "extra.csv"],
        "unknown-model-key-regularize":
            ["regularize", "--config", "nu.json", "--samples", "negative_zero.csv"],
        "negative-zero-real-part-fit": ["fit", "--model", "log", "--samples", "negative_zero.csv"],
        "negative-zero-real-part-regularize":
            ["regularize", "--model", "log", "--samples", "negative_zero.csv"],
    }.items():
        yield name, layouts, [[*argv, "--out", "out"]]
    noise = 1e-4 * np.random.default_rng(6).standard_normal(17) / grid
    units = {
        "headerless.csv": "".join(f"{row}\n" for row in rows),
        "scaled.csv": _csv(grid, 1e-10 * (3 * np.log(grid) + 2 + noise)),
        "one_row.csv": "10,0,1\n",
    }
    for name, argv in {
        "headerless-samples-fit": ["fit", "--model", "log", "--samples", "headerless.csv"],
        "scaled-noisy-samples-fit": ["fit", "--model", "auto", "--samples", "scaled.csv"],
        "headerless-one-row-fit": ["fit", "--samples", "one_row.csv"],
        "headerless-one-row-regularize": ["regularize", "--samples", "one_row.csv"],
    }.items():
        yield name, units, [[*argv, "--out", "out"]]
    refused = {
        "log.csv": _synthetic_samples()["log.csv"],
        "model.json": json.dumps({"model": {"kind": "log", "phi": 1e307, "psi": 0}}),
        "resum.json": json.dumps(RESUM),
        "spectra.json": json.dumps({"m": 1, "q": [0, 0, 0], "q_grid": "junk"}),
    }
    for name, argv in {
        "regularize-epsilon-nan":
            ["regularize", "--model", "log", "--epsilon", "nan", "--samples", "log.csv"],
        "regularize-coupling-overflow":
            ["regularize", "--config", "model.json", "--epsilon", "100", "--samples", "log.csv"],
        "resum-epsilon-nan": ["resum", "--config", "resum.json", "--epsilon", "nan"],
        "spectra-q-and-q_grid": ["spectra", "--config", "spectra.json"],
    }.items():
        yield name, refused, [[*argv, "--out", "out"]]
    bad_models = {
        "polylog-named-key": {"kind": "polylog", "table": [1.0], "phi": 1.0},
        "log-table": {"kind": "log", "phi": 1.0, "psi": 2.0, "table": [1.0]},
        "polylog-no-table": {"kind": "polylog", "order": 2},
        "polylog-order-0": {"kind": "polylog", "table": [1.0], "order": 0},
        "polylog-order-true": {"kind": "polylog", "table": [1.0], "order": True},
        "log-string-coefficient": {"kind": "log", "phi": "1.5", "psi": 0.0},
    }
    for name, model in bad_models.items():
        files = {"log.csv": _synthetic_samples()["log.csv"],
                 "model.json": json.dumps({"model": model})}
        yield (f"{name}-regularize", files,
               [["regularize", "--config", "model.json", "--samples", "log.csv", "--out", "out"]])
    yield ("resum-eps-phi-overflow",
           {"resum.json": json.dumps({"psi": [1, 0.5], "phi": 1e10, "L_values": [2.0]})},
           [["resum", "--config", "resum.json", "--epsilon", "1e300", "--out", "out"]])
    zero_model = {"kind": "polylog", "table": [2.0, -0.0, -0.0]}
    last = {
        **_unchecked_samples(),
        "non_numeric.csv": "1,0,2\nfoo,0,1\n",
        "negative_zero.csv": layouts["negative_zero.csv"],
        "zero_model.json": json.dumps({"model": zero_model}),
    }
    for name, argv in {
        "headerless-non-numeric-fit": ["fit", "--samples", "non_numeric.csv"],
        "decay-overflow-powerlog-fit": ["fit", "--model", "powerlog", "--samples", "decay.csv"],
        "signed-zero-divergent-polylog-regularize":
            ["regularize", "--config", "zero_model.json", "--samples", "negative_zero.csv"],
    }.items():
        yield name, last, [[*argv, "--out", "out"]]
    for name, text in READER_FILES.items():
        yield (f"reader-{name}", {"s.csv": text, "zero.json": json.dumps({"model": ZERO_LOG})},
               [["regularize", "--config", "zero.json", "--samples", "s.csv", "--out", "out"]])
    # samples whose modulus |re + i im| overflows though re and im are finite
    modulus = {
        "big.csv": _csv(np.geomspace(10, 1e4, 9), np.full(9, 1.7e308), real=np.full(9, 1.7e308)),
        "step.csv": "L,re,im\n10,0,0\n100,1.7e308,1.7e308\n",
        "zero.json": json.dumps({"model": ZERO_LOG}),
    }
    for name, argv in {
        "modulus-overflow-fit": ["fit", "--model", "log", "--samples", "big.csv"],
        "modulus-overflow-auto-regularize": ["regularize", "--model", "auto", "--samples", "big.csv"],
        "modulus-overflow-difference-regularize":
            ["regularize", "--config", "zero.json", "--samples", "step.csv"],
    }.items():
        yield name, modulus, [[*argv, "--out", "out"]]


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


# a number as %.17g, %.6g, %.3e or repr write it
_NUMBER = re.compile(r"(-?(?:inf|nan|\d+\.?\d*(?:e[-+]?\d+)?))")


def _relative(left, right):
    """The largest relative difference between the numbers of two texts that
    differ in nothing else, as `` (largest relative difference x)``; "" for
    texts that differ elsewhere too."""
    if left is None or right is None:
        return ""
    a, b = (_NUMBER.split(text.decode(errors="replace")) for text in (left, right))
    if len(a) != len(b) or a[0::2] != b[0::2]:
        return ""
    worst = 0.0
    for x, y in zip(map(float, a[1::2]), map(float, b[1::2])):
        if x != y and not (math.isnan(x) and math.isnan(y)):
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return f" (largest relative difference {worst:.2g})"


def _differences(left, right):
    found = [key + (_relative(left[key], right[key]) if key == "stdout" else "")
             for key in ("stdout", "stderr", "exit code") if left[key] != right[key]]
    names = sorted(set(left["files"]) | set(right["files"]))
    found += [f"file {n}" + _relative(left["files"].get(n), right["files"].get(n))
              for n in names if left["files"].get(n) != right["files"].get(n)]
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
