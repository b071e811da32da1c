"""The benchmark's workloads: inputs made from a seed, the CLI stages that
consume them, and the checks on what each stage writes.

Why these three:

* ``radial_sweep`` integrates the cheapest integrand per point over the
  whole cutoff range the fits use, so node generation, the refined pass and
  large-L accuracy dominate.
* ``kinematic_bubble`` has the same node count on a deeper expression tree
  with q != 0 and PQ, so integrand evaluation dominates.
* ``spectra_check`` never reaches integrand, ballquad or asymfit, so a
  quadrature change must leave it unchanged.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

EPSILON = 0.1
# Relative distance from the oracle beyond which a stage's value is wrong
# outright (a failed operation) rather than merely inaccurate.
SANITY_REL = 1e-2
# The reduced-integral oracle is good to about this relative accuracy, so
# smaller errors are not resolved: relative errors read at least this much,
# and an error estimate is not expected to bound an error below it.
ORACLE_REL = 1e-12
# Eigen-residual and eigenvalue error (relative) that the closed form must meet.
SPECTRA_TOL = 1e-10
# Recomputing a residual in double precision costs a few ulps itself, so the
# spectra errors read at least this much; round-off below it is not resolved.
ROUNDOFF = 1e-14


@dataclass
class Outcome:
    """What the checks found in one pass."""

    failed: set = field(default_factory=set)  # stages that broke
    wrong: set = field(default_factory=set)  # stages that ran but answered wrongly
    accuracy: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)  # stage -> hash of its compared artifact
    messages: list = field(default_factory=list)

    def fail(self, stage, message):
        self.failed.add(stage)
        self.messages.append(f"{stage}: {message}")


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def _child_seed(seed, name):
    """An integer stream per workload, so workloads never share draws."""
    key = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, key])


@dataclass(frozen=True)
class CutoffWorkload:
    """integrate -> fit --model auto -> regularize --model log on one integrand."""

    name: str
    integrand: str
    start: float
    ratio: float
    count: int
    q_norm: float
    m: float = 1.0

    stage_names = ("integrate", "fit", "regularize")

    def inputs(self, seed):
        q = np.zeros(4)
        if self.q_norm:
            v = _child_seed(seed, self.name).standard_normal(4)
            q = self.q_norm * v / np.linalg.norm(v)
        return {
            "integrand_im": self.integrand,
            "m": self.m,
            "q": [float(x) for x in q],
            "L_grid": {"start": self.start, "ratio": self.ratio, "count": self.count},
        }

    def write_inputs(self, inputs, directory):
        _write_json(directory / "integrate.json", inputs)

    def grid(self):
        return self.start * self.ratio ** np.arange(self.count)

    def reference(self, inputs):
        grid = self.grid()
        if self.q_norm:
            return oracles.bubble_reduced(grid, float(np.linalg.norm(inputs["q"])), self.m)
        return oracles.radial_closed_form(grid, self.m)

    def stages(self, inputs, inputs_dir, out):
        samples = str(out / "samples.csv")
        return [
            ("integrate", ["integrate", "--config", str(inputs_dir / "integrate.json")]),
            ("fit", ["fit", "--model", "auto", "--samples", samples]),
            ("regularize",
             ["regularize", "--model", "log", "--epsilon", str(EPSILON), "--samples", samples]),
        ]

    def check(self, out, results, reference):
        outcome = Outcome()
        for stage, result in results.items():
            if result.exit_code != 0:
                outcome.fail(stage, f"exit code {result.exit_code}")
        try:
            data = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            outcome.fail("integrate", f"unreadable samples.csv: {exc}")
        else:
            self._check_samples(data, reference, outcome)
            outcome.digests["integrate"] = _digest(out / "samples.csv")
        try:
            kind = _read_json(out / "fit.json")["model"]["kind"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome.fail("fit", f"unreadable fit.json: {exc}")
        else:
            outcome.digests["fit"] = _digest(out / "fit.json")
            if kind != "log":
                outcome.wrong.add("fit")
                outcome.messages.append(f"fit: auto model is {kind!r} on a log divergence")
        try:
            phi = _read_json(out / "deviation_factor.json")["c_ln"][0] / EPSILON**2
            last = float(_read_json(out / "convergence.json")["last_difference"])
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            outcome.fail("regularize", f"unreadable regularize output: {exc}")
        else:
            coef_err = abs(phi - oracles.PHI_EXACT) / oracles.PHI_EXACT
            if not (coef_err <= SANITY_REL and math.isfinite(last)):
                outcome.fail("regularize", f"phi = {phi!r}, last difference {last!r}")
            outcome.accuracy.update(coef_rel_err=max(coef_err, ORACLE_REL), reg_last_diff=last)
        return outcome

    def _check_samples(self, data, reference, outcome):
        if data.shape != (self.count, 4):
            outcome.fail("integrate", f"samples.csv has shape {data.shape}")
            return
        grid, re, im, err = data.T
        if not np.allclose(grid, self.grid(), rtol=1e-12, atol=0):
            outcome.fail("integrate", "cutoff grid differs from the configured one")
        if np.any(re != 0) or not np.all(np.isfinite(im)) or np.any(~(err >= 0)):
            outcome.fail("integrate", "real part, value or error estimate malformed")
        true_err = np.abs(im - reference)
        rel = true_err / np.abs(reference)
        if not np.all(rel <= SANITY_REL):
            outcome.fail("integrate", f"worst relative error {np.max(rel):.3e}")
        bounded = err >= true_err - ORACLE_REL * np.abs(reference)
        outcome.accuracy.update(max_rel_err=max(float(np.max(rel)), ORACLE_REL),
                                err_bound_frac=float(np.mean(bounded)))


@dataclass(frozen=True)
class SpectraWorkload:
    """spectra on a momentum grid, then the randomized check suite."""

    name: str
    m: float
    q_min: float
    q_max: float
    q_count: int
    trials: int

    stage_names = ("spectra", "check")

    def inputs(self, seed):
        return {
            "spectra": {"m": self.m,
                        "q_grid": {"min": self.q_min, "max": self.q_max, "count": self.q_count}},
            "check": {"trials": self.trials},
            "seed": int(_child_seed(seed, self.name).integers(2**31)),
        }

    def write_inputs(self, inputs, directory):
        _write_json(directory / "spectra.json", inputs["spectra"])
        _write_json(directory / "check.json", inputs["check"])

    def reference(self, inputs):
        axis = np.linspace(self.q_min, self.q_max, self.q_count)
        return np.array([(a, b, c) for a in axis for b in axis for c in axis])

    def stages(self, inputs, inputs_dir, out):
        return [
            ("spectra", ["spectra", "--config", str(inputs_dir / "spectra.json")]),
            ("check", ["check", "--config", str(inputs_dir / "check.json"),
                       "--seed", str(inputs["seed"])]),
        ]

    def check(self, out, results, reference):
        outcome = Outcome()
        for stage, result in results.items():
            if result.exit_code != 0:
                outcome.fail(stage, f"exit code {result.exit_code}")
        if not results["check"].stdout.startswith("check: all suites passed"):
            outcome.fail("check", "the check suite did not report success")
        try:
            rows = np.loadtxt(out / "spectra.csv", delimiter=",", skiprows=1, ndmin=2)
            entries = _read_json(out / "eigenvectors.json")
            bound = float(results["spectra"].stdout.rsplit(" ", 1)[1])
        except (OSError, ValueError, IndexError) as exc:
            outcome.fail("spectra", f"unreadable spectra output: {exc}")
            return outcome
        outcome.digests["spectra"] = _digest(out / "spectra.csv")
        if rows.shape != (len(reference), 8) or len(entries) != len(reference):
            outcome.fail("spectra", f"spectra.csv has shape {rows.shape}")
            return outcome
        if not np.allclose(rows[:, :3], reference, rtol=0, atol=1e-12):
            outcome.fail("spectra", "momentum grid differs from the configured one")
        errors = oracles.spectra_errors(entries, self.m)
        residual, eig_err, unitarity = errors.max(axis=0)
        if not (residual <= SPECTRA_TOL and eig_err <= SPECTRA_TOL):
            outcome.fail("spectra", f"residual {residual:.3e}, eigenvalue error {eig_err:.3e}")
        outcome.accuracy.update(
            max_rel_err=max(float(residual), ROUNDOFF),
            coef_rel_err=max(float(eig_err), ROUNDOFF),
            err_bound_frac=float(np.mean(errors[:, 0] <= bound)),
            reg_last_diff=max(float(unitarity), ROUNDOFF),
        )
        return outcome


WORKLOADS = {
    w.name: w
    for w in (
        CutoffWorkload("radial_sweep", "1/(P2+m^2)^2",
                       start=10.0, ratio=math.sqrt(10.0), count=9, q_norm=0.0),
        CutoffWorkload("kinematic_bubble", "1/((P2+m^2)*(P2+2*PQ+Q2+m^2))",
                       start=10.0, ratio=10.0 ** 0.375, count=9, q_norm=1.5),
        SpectraWorkload("spectra_check", m=0.5, q_min=-5.0, q_max=5.0, q_count=16,
                        trials=2000),
    )
}
