"""Batch command-line front end.

Subcommands: spectra | integrate | fit | regularize | check | resum.  Each
reads a JSON config (--config), writes plot-ready CSV/JSON into --out, prints
a one-line summary on stdout and diagnostics on stderr.

Exit codes: 0 success, 1 check-suite failure, 2 invalid config, 3 integrand
parse error, 4 singular integrand, 5 model mismatch / unclassified divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import asymfit, ballquad, deviation, dirac
from .asymfit import IllPosedFitError, ModelMismatchError, UnclassifiedDivergenceError
from .ballquad import CutoffSamples, QuadratureSpec, SingularIntegrandError
from .integrand import EvaluationError, IntegrandSyntaxError, parse_integrand

EXIT_CHECK_FAILED = 1

# Exit code per exception, first match wins.  The library errors are all
# ValueErrors, so the bad-config fallback (2) comes last; an OverflowError
# comes from an extreme config value.
_EXIT_CODES = (
    (IntegrandSyntaxError, 3),
    ((SingularIntegrandError, EvaluationError), 4),
    ((ModelMismatchError, UnclassifiedDivergenceError, IllPosedFitError), 5),
    ((ValueError, OSError, OverflowError), 2),
)


def _fmt(x):
    return f"{float(x):.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path} must hold a JSON object")
    return payload


def _is(value, kind):
    if isinstance(kind, list):
        return isinstance(value, list) and all(_is(v, kind[0]) for v in value)
    if isinstance(kind, tuple):
        return any(_is(value, k) for k in kind)
    types = (int, float) if kind is float else kind
    return isinstance(value, types) and not isinstance(value, bool)


def _get(config, key, kind, default=...):
    """``config[key]``, checked to be of ``kind`` and converted to it.

    ``kind`` is float (which accepts an integer), int, str or dict; [kind] for
    a list of that kind; or a tuple of kinds, whose value is returned as is.
    Without a ``default`` the key is required.
    """
    if key not in config:
        if default is ...:
            raise ValueError(f"config is missing required key '{key}'")
        return default
    value = config[key]
    if not _is(value, kind):
        raise ValueError(f"config key '{key}' has the wrong type: {value!r}")
    if isinstance(kind, list):
        return [kind[0](v) for v in value]
    return value if isinstance(kind, tuple) else kind(value)


def _settings(args):
    """The JSON config with each given flag merged over the key it overrides.

    ``--out`` has a default, so it always wins.  In regularize an explicit
    model dict beats ``--model``.
    """
    config = _read_json(args.config) if args.config else {}
    flags = {
        k: v for k, v in vars(args).items()
        if v is not None and k not in ("command", "config", "threads")
    }
    quadrature = flags.pop("quad_orders", {})
    if "quad_seed" in flags:
        quadrature["seed"] = flags.pop("quad_seed")
    if quadrature:
        config["quadrature"] = {**_get(config, "quadrature", dict, {}), **quadrature}
    if args.command == "regularize":
        if isinstance(_get(config, "model", (dict, str), None), dict):
            flags.pop("model", None)
    config.update(flags)
    return config


def _out_dir(config):
    out = Path(_get(config, "out", str))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _l_grid(config):
    spec = _get(config, "L_grid", dict)
    start = _get(spec, "start", float)
    ratio = _get(spec, "ratio", float)
    count = _get(spec, "count", int)
    if start <= 0 or ratio <= 1 or count < 1:
        raise ValueError("L_grid needs start > 0, ratio > 1, count >= 1")
    return start * ratio ** np.arange(count)


def _quad_spec(config):
    spec = _get(config, "quadrature", dict, {})
    return QuadratureSpec(
        method=_get(spec, "method", str, "tensor-gauss"),
        radial_order=_get(spec, "radial_order", int, 64),
        angular_orders=tuple(_get(spec, "angular_orders", [int], [32, 32, 32])),
        samples=_get(spec, "samples", int, 100_000),
        seed=_get(spec, "seed", int, None),
    )


def _parse_expr(config, key):
    source = _get(config, key, str, None)
    return None if source is None else parse_integrand(source)


def _sample(config):
    """Cutoff samples of the config's integrands over its L grid."""
    grid = _l_grid(config)
    q = _get(config, "q", [float], [0.0, 0.0, 0.0, 0.0])
    m = _get(config, "m", float, 0.0)
    spec = _quad_spec(config)
    f_re = _parse_expr(config, "integrand_re")
    f_im = _parse_expr(config, "integrand_im")
    if f_re is None and f_im is None:
        raise ValueError("config needs 'integrand_re' and/or 'integrand_im'")
    return ballquad.sample_over_cutoffs(f_re, f_im, q, m, grid, spec)


def _read_samples_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] < 3:
        raise ValueError(f"samples file {path} needs columns L,re,im[,err]")
    err = data[:, 3] if data.shape[1] > 3 else None
    return CutoffSamples(
        q=(0.0, 0.0, 0.0, 0.0),
        m=0.0,
        grid=data[:, 0],
        values=data[:, 1] + 1j * data[:, 2],
        errors=err,
    )


def _get_samples(config):
    path = _get(config, "samples_file", str, "")
    if path:
        return _read_samples_csv(path)
    if "integrand_re" not in config and "integrand_im" not in config:
        raise ValueError("provide --samples, 'samples_file', or integrand + L_grid")
    return _sample(config)


def _fit_model(samples, config):
    """The fit report of the config's model kind; "auto" classifies."""
    kind = _get(config, "model", str, "auto")
    tail = _get(config, "tail_fraction", float, 0.5)
    degree = _get(config, "degree", int, 2)
    if kind == "auto":
        return asymfit.classify(samples, tail_fraction=tail, max_degree=degree + 2)
    return asymfit.fit(samples, kind, tail_fraction=tail, degree=degree)


def cmd_spectra(config):
    m = _get(config, "m", float)
    if "q" in config:
        points = np.array([_get(config, "q", [float])])
    elif "q_grid" in config:
        spec = _get(config, "q_grid", dict)
        axis = np.linspace(
            _get(spec, "min", float), _get(spec, "max", float), _get(spec, "count", int)
        )
        points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    else:
        raise ValueError("config needs 'q' or 'q_grid'")
    vals = dirac.eigenvalues(points, m)
    vecs = dirac.eigenvectors_closed_form(points, m).vectors
    h = dirac.build_hamiltonian(points, m)
    # relative to ||H||_F = 2E, which overflows long before E does; H = 0
    # where E = 0, so those rows report 0
    e = np.where(vals[:, 3] > 0, vals[:, 3], np.inf)[:, None, None]
    res = np.linalg.norm((h @ vecs - vecs * vals[:, None, :]) / e, axis=1) / 2
    worst = float(np.max(res, initial=0.0))
    out = _out_dir(config)
    _write_csv(
        out / "spectra.csv",
        ["q1", "q2", "q3", "m", "lambda1", "lambda2", "lambda3", "lambda4"],
        np.column_stack([points, np.full(len(points), m), vals]),
    )
    keys = ("q", "eigenvalues", "vectors_re", "vectors_im")
    entries = zip(points.tolist(), vals.tolist(), vecs.real.tolist(), vecs.imag.tolist())
    _write_json(out / "eigenvectors.json", [dict(zip(keys, e)) for e in entries])
    print(f"spectra: {len(points)} points, max relative eigen-residual {worst:.3e}")
    return 0


def cmd_integrate(config):
    samples = _sample(config)
    out = _out_dir(config)
    _write_csv(
        out / "samples.csv",
        ["L", "re", "im", "err"],
        zip(samples.grid, samples.values.real, samples.values.imag, samples.errors),
    )
    grid = samples.grid
    print(
        f"integrate: {len(samples)} cutoffs in [{grid[0]:g}, {grid[-1]:g}], "
        f"max error estimate {np.max(samples.errors):.3e}"
    )
    return 0


def cmd_fit(config):
    samples = _get_samples(config)
    try:
        report = _fit_model(samples, config)
    except UnclassifiedDivergenceError as exc:
        _write_json(
            _out_dir(config) / "fit.json",
            {"error": "unclassified divergence",
             "attempts": [r.to_dict() for r in exc.reports]},
        )
        raise
    _write_json(_out_dir(config) / "fit.json", report.to_dict())
    names = (
        [f"ln^{p}" for p in range(len(report.model.coefficients))]
        if report.model.kind == "polylog"
        else ["phi", "psi", "nu", "mu"][: len(report.model.coefficients)]
    )
    summary = ", ".join(
        f"{n}={c:.6g}" for n, c in zip(names, report.model.coefficients)
    )
    print(f"fit: {report.model.kind} [{summary}], decay_ok={report.decay_ok}")
    return 0


def cmd_regularize(config):
    samples = _get_samples(config)
    eps = _get(config, "epsilon", float, 0.1)
    model = _get(config, "model", (dict, str), "auto")
    fit_report = _get(config, "fit_report", str, None)
    if isinstance(model, dict):
        model = asymfit.model_from_dict(model)
    elif fit_report is not None:
        model = asymfit.model_from_dict(_get(_read_json(fit_report), "model", dict))
    else:
        model = _fit_model(samples, config).model
    regular = deviation.regularize_coefficient(samples, model)
    factor = deviation.factor_from_model(model, eps)
    out = _out_dir(config)
    _write_json(out / "deviation_factor.json", factor.to_dict())
    _write_csv(
        out / "regularized.csv",
        ["L", "re", "im"],
        zip(regular.grid, regular.values.real, regular.values.imag),
    )
    diffs = np.abs(np.diff(regular.values))
    converged = bool(diffs.size and diffs[-1] <= 1e-2 and np.all(np.diff(diffs) <= 0))
    _write_json(
        out / "convergence.json",
        {
            "last_difference": float(diffs[-1]) if diffs.size else 0.0,
            "differences": [float(d) for d in diffs],
            "shrinking": converged,
        },
    )
    print(
        "regularize: last |difference| "
        f"{diffs[-1] if diffs.size else 0.0:.3e}, shrinking={converged}"
    )
    return 0


def _check_spectra_suite(rng, trials, tamper):
    failures = []
    for _ in range(trials):
        q = rng.uniform(-10, 10, size=3)
        m = rng.uniform(0, 10)
        h = dirac.build_hamiltonian(q, m)
        sys_ = dirac.eigenvectors_closed_form(q, m)
        res = np.linalg.norm(h @ sys_.vectors - sys_.vectors * sys_.values, axis=0)
        if np.max(res) > 1e-10 * np.linalg.norm(h):
            failures.append(f"eigen-residual {np.max(res):.3e} at q={q}, m={m}")
            continue
        doubled = rng.random() < 0.5
        seed = int(rng.integers(2**32))
        s = dirac.random_commuting_unitary(q, m, seed=seed, doubled=doubled)
        if tamper:
            s = s + tamper * np.eye(s.shape[0]) * 1j  # breaks unitarity/commutation
        try:
            diag = dirac.simultaneous_diagonalize(q, m, s)
        except (dirac.CommutationError, dirac.SubspaceLeakageError) as exc:
            failures.append(f"seed {seed}, q={q}, m={m}: {exc}")
            continue
        if np.max(np.abs(np.abs(diag.diagonal) - 1)) > 1e-10:
            failures.append(f"seed {seed}: |d_k| deviates from 1")
        elif np.linalg.norm(diag.reconstruct() - s) > 1e-9:
            failures.append(f"seed {seed}: reconstruction defect")
    return failures


def _check_factor_suite(rng, trials):
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
    log_only = deviation.DeviationFactor(log_coeffs=(0.25,))
    linear = deviation.DeviationFactor(linear_coeff=0.01)
    grid = np.geomspace(10, 1e4, 16)
    if not deviation.class_a_check(log_only, 1.0, grid).verdict:
        failures.append("pure-log factor not recognized as class A")
    lin_check = deviation.class_a_check(linear, 1.0, grid)
    if lin_check.verdict:
        failures.append("e^{i eps^2 L} factor wrongly in class A")
    expected = np.exp(1j * 0.01 * 1.0)
    if np.max(np.abs(lin_check.ratios - expected)) > 1e-14:
        failures.append("linear-exponent ratio is not the constant e^{i c L0}")
    return failures, lin_check.verdict


def cmd_check(config):
    seed = _get(config, "seed", int, 20260826)
    trials = _get(config, "trials", int, 200)
    tamper = _get(config, "tamper", float, 0.0)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    failures = _check_spectra_suite(rng, trials, tamper)
    factor_failures, linear_in_class_a = _check_factor_suite(rng, trials)
    failures += factor_failures
    if failures:
        for line in failures[:20]:
            print(f"check failure: {line}", file=sys.stderr)
        print(f"check: {len(failures)} failures (seed {seed})")
        return EXIT_CHECK_FAILED
    print(
        f"check: all suites passed (seed {seed}, {trials} trials); "
        f"linear factor in class A: {linear_in_class_a}"
    )
    return 0


def cmd_resum(config):
    psi = _get(config, "psi", [float])
    phi = _get(config, "phi", float)
    eps = _get(config, "epsilon", float, 0.1)
    nmax = _get(config, "order", int, len(psi) - 1)
    l_values = _get(config, "L_values", [float], [1.0, np.e, 10.0, 100.0])
    rows = []
    worst = 0.0
    for L in l_values:
        result = deviation.resum_coulomb_series(psi, phi, eps, nmax, L)
        for order, residual in enumerate(result.residuals):
            rows.append([L, order, residual])
        worst = max(worst, float(np.max(result.residuals)))
    out = _out_dir(config)
    _write_csv(out / "resum_residuals.csv", ["L", "order", "residual"], rows)
    print(f"resum: max per-order residual {worst:.3e}")
    return 0 if worst <= 1e-12 else EXIT_CHECK_FAILED


def _quad_orders(text):
    try:
        r, a1, a2, a3 = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expects four integers r,a1,a2,a3") from None
    return {"radial_order": r, "angular_orders": [a1, a2, a3]}


# (flag, the subcommands that take it, add_argument keywords).  A flag's dest
# is the config key it overrides; "quad_*" dests override keys of the
# "quadrature" table.
_SAMPLING = ("integrate", "fit", "regularize")
_FLAGS = (
    ("--samples", ("fit", "regularize"),
     dict(dest="samples_file", metavar="CSV",
          help="CSV file of cutoff samples (L,re,im[,err])")),
    ("--model", ("fit", "regularize"),
     dict(choices=["log", "powerlog", "polylog", "auto"])),
    ("--seed", _SAMPLING,
     dict(type=int, dest="quad_seed", metavar="SEED", help="monte-carlo seed")),
    ("--quad-orders", _SAMPLING,
     dict(type=_quad_orders, metavar="R,A1,A2,A3", help="quadrature orders")),
    ("--threads", ("integrate",),
     dict(type=int, default=1,
          help="advisory worker count; results are identical for any value")),
    ("--seed", ("check",), dict(type=int, help="random seed")),
    ("--epsilon", ("regularize", "resum"), dict(type=float, help="coupling value")),
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="scatreg",
        description="cutoff-regularization pipeline: spectra, ball integrals, "
        "divergence fits, deviation factors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name in ("spectra", "integrate", "fit", "regularize", "check", "resum"):
        commands[name] = sub.add_parser(name)
        commands[name].add_argument("--config", help="JSON config file")
        commands[name].add_argument("--out", default=".", help="output directory")
    for flag, names, options in _FLAGS:
        for name in names:
            commands[name].add_argument(flag, **options)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # looked up at call time, so a patched cmd_* runs
        return globals()[f"cmd_{args.command}"](_settings(args))
    except (ValueError, OSError, OverflowError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
