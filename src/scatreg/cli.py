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

# Library modules are imported by the commands that use them, so a fresh
# process loads only what its subcommand runs.  parse_integrand forwards to
# the parser, so the stage that parses can still be wrapped through this name.

EXIT_CHECK_FAILED = 1


def parse_integrand(source):
    from .integrand import parse_integrand as parse

    return parse(source)


def _formatted(values, fmt):
    """``fmt % v`` for each float of ``values``, as nested lists of str.  Each
    distinct value is formatted once: values are told apart by their bits (so
    -0.0 is not 0.0), sorted, and each value's string is found by binary
    search among the first of each run of equal bits."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    ordered = np.sort(bits, axis=None)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    strings = np.array([fmt % v for v in distinct.view(float).tolist()], dtype=object)
    return strings[np.searchsorted(distinct, bits)].tolist()


def _write_csv(path, header, rows):
    template = ",".join(["%s"] * len(header)) + "\n"
    cells = _formatted(list(rows), "%.17g")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(template % tuple(row) for row in cells)


def _write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_json_rows(path, columns):
    """The bytes of ``_write_json(path, [{name: column[i].tolist() ...} ...])``
    for named float arrays of one length, written row by row: ``json`` lays
    out one entry with a ``%s`` slot per value, and each row fills it with its
    values' reprs (``json`` writes a finite float as its repr)."""
    columns = dict(sorted(columns.items()))
    n = len(next(iter(columns.values())))
    flat = np.concatenate(
        [a.reshape(n, np.prod(a.shape[1:], dtype=int)) for a in columns.values()], axis=1
    )
    if not np.isfinite(flat).all():
        raise ValueError(f"{path.name}: non-finite value, which JSON cannot hold")
    slots = {k: np.full(a.shape[1:], "%s", dtype=object).tolist() for k, a in columns.items()}
    entry = json.dumps([slots], indent=2).replace('"%s"', "%s")[1:-2]
    with open(path, "w", newline="\n") as fh:
        if not n:
            fh.write("[]\n")
            return
        rows = _formatted(flat, "%r")
        fh.write("[" + entry % tuple(rows[0]))
        later = "," + entry
        fh.writelines(later % tuple(row) for row in rows[1:])
        fh.write("\n]\n")


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
    """The JSON config with each given flag merged over the key it overrides;
    a key that the subcommand does not read is refused.

    In regularize an explicit model dict beats ``--model``.
    """
    config = _read_json(args.config) if args.config else {}
    # every flag dest but those two, which override no top-level key
    known = set(_KEYS[args.command]).union(vars(args)) - {
        "command", "config", "threads", "quad_orders"
    }
    unknown = sorted(set(config) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    flags = {
        k: v for k, v in vars(args).items()
        if v is not None and k not in ("command", "config", "threads")
    }
    quadrature = flags.pop("quad_orders", {})
    if quadrature:
        config["quadrature"] = {**_get(config, "quadrature", dict, {}), **quadrature}
    if args.command == "regularize":
        if isinstance(_get(config, "model", (dict, str), None), dict):
            flags.pop("model", None)
    config.update(flags)
    return config


def _out_dir(config):
    out = Path(_get(config, "out", str, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _l_grid(config):
    spec = _get(config, "L_grid", dict)
    start = _get(spec, "start", float)
    ratio = _get(spec, "ratio", float)
    count = _get(spec, "count", int)
    if start <= 0 or ratio <= 1 or count < 1:
        raise ValueError("L_grid needs start > 0, ratio > 1, count >= 1")
    with np.errstate(over="ignore"):
        grid = start * ratio ** np.arange(count)
    if not np.all(np.isfinite(grid)):
        raise ValueError("L_grid cutoffs must be finite")
    return grid


def _quad_spec(config):
    from .ballquad import QuadratureSpec

    spec = _get(config, "quadrature", dict, {})
    unknown = sorted(set(spec) - {"radial_order", "angular_orders"})
    if unknown:
        raise ValueError(f"unknown quadrature keys: {', '.join(unknown)}")
    return QuadratureSpec(
        radial_order=_get(spec, "radial_order", int, 64),
        angular_orders=tuple(_get(spec, "angular_orders", [int], [32, 32, 32])),
    )


def _parse_expr(config, key):
    source = _get(config, key, str, None)
    return None if source is None else parse_integrand(source)


def _sample(config):
    """Cutoff samples of the config's integrands over its L grid."""
    from . import ballquad

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
    from .ballquad import CutoffSamples

    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] < 3:
        raise ValueError(f"samples file {path} needs columns L,re,im[,err]")
    err = data[:, 3] if data.shape[1] > 3 else None
    return CutoffSamples(grid=data[:, 0], values=data[:, 1] + 1j * data[:, 2], errors=err)


def _get_samples(config):
    path = _get(config, "samples_file", str, "")
    if path:
        return _read_samples_csv(path)
    if "integrand_re" not in config and "integrand_im" not in config:
        raise ValueError("provide --samples, 'samples_file', or integrand + L_grid")
    return _sample(config)


def _fitter(config):
    """The fit of the config's model kind as a function of the samples; "auto"
    classifies.  The config's fit keys are checked now, before any sampling."""
    from . import asymfit

    kind = _get(config, "model", str, "auto")
    tail = _get(config, "tail_fraction", float, 0.5)
    degree = _get(config, "degree", int, 2)
    if kind == "auto":
        return lambda samples: asymfit.classify(samples, tail_fraction=tail, max_degree=degree + 2)
    return lambda samples: asymfit.fit(samples, kind, tail_fraction=tail, degree=degree)


def cmd_spectra(config):
    from . import dirac

    m = _get(config, "m", float)
    if "q" in config:
        points = np.array([_get(config, "q", [float])])
    elif "q_grid" in config:
        spec = _get(config, "q_grid", dict)
        lo, hi = _get(spec, "min", float), _get(spec, "max", float)
        # refused here, since linspace would make inf/NaN nodes with numpy
        # warnings before dirac refused them with this message
        if not np.isfinite([lo, hi, hi - lo]).all():
            raise ValueError("momentum components must be finite")
        axis = np.linspace(lo, hi, _get(spec, "count", int))
        points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    else:
        raise ValueError("config needs 'q' or 'q_grid'")
    vals = dirac.eigenvalues(points, m)
    vecs = dirac.eigenvectors_closed_form(points, m).vectors
    h = dirac.build_hamiltonian(points, m)
    # relative to ||H||_F = 2E, which overflows long before E does; H = 0
    # where E = 0, so those rows report 0.  The complex division by a
    # subnormal E overflows, so those rows are first scaled by 2^600 (exact).
    up = np.where(vals[:, 3] < np.finfo(float).tiny, 2.0**600, 1.0)[:, None, None]
    e = np.where(vals[:, 3] > 0, vals[:, 3], np.inf)[:, None, None]
    res = np.linalg.norm((h @ vecs - vecs * vals[:, None, :]) * up / (e * up), axis=1) / 2
    worst = float(np.max(res, initial=0.0))
    out = _out_dir(config)
    _write_csv(
        out / "spectra.csv",
        ["q1", "q2", "q3", "m", "lambda1", "lambda2", "lambda3", "lambda4"],
        np.column_stack([points, np.full(len(points), m), vals]),
    )
    _write_json_rows(
        out / "eigenvectors.json",
        {"q": points, "eigenvalues": vals, "vectors_re": vecs.real, "vectors_im": vecs.imag},
    )
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
    from .asymfit import UnclassifiedDivergenceError

    fit_model = _fitter(config)
    samples = _get_samples(config)
    try:
        report = fit_model(samples)
    except UnclassifiedDivergenceError as exc:
        _write_json(
            _out_dir(config) / "fit.json",
            {"error": "unclassified divergence",
             "attempts": [r.to_dict() for r in exc.reports]},
        )
        raise
    _write_json(_out_dir(config) / "fit.json", report.to_dict())
    model = report.model
    summary = ", ".join(f"{n}={c:.6g}" for n, c in zip(model.names, model.coefficients))
    print(f"fit: {model.kind} [{summary}], decay_ok={report.decay_ok}")
    return 0


def cmd_regularize(config):
    from . import asymfit, deviation

    eps = _get(config, "epsilon", float, 0.1)
    model = _get(config, "model", (dict, str), "auto")
    fit_report = _get(config, "fit_report", str, None)
    if isinstance(model, dict):
        model = asymfit.model_from_dict(model)
    elif fit_report is not None:
        model = asymfit.model_from_dict(_get(_read_json(fit_report), "model", dict))
    fit_model = _fitter(config) if isinstance(model, str) else None
    samples = _get_samples(config)
    if fit_model:
        model = fit_model(samples).model
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


# trials per stacked pass of either check suite, so memory stays bounded for
# any number of trials
_CHUNK = 256


def _check_spectra_suite(rng, trials, tamper):
    """Closed-form eigenpairs and joint diagonalization on random trials, in
    stacked passes.  Each pass draws one call per column (q, m, then the 4x4
    or 8x8 choice), then the Haar blocks of its 4x4 and of its 8x8 trials; a
    trial whose eigen-residual fails is reported and skips the joint check.
    Failures name the trial's index, so seed, trials and index reproduce one."""
    from . import dirac

    failures = []
    for start in range(0, trials, _CHUNK):
        k = min(trials - start, _CHUNK)
        q = rng.uniform(-10, 10, (k, 3))
        m = rng.uniform(0, 10, k)
        doubled = rng.random(k) < 0.5
        h = dirac.build_hamiltonian(q, m)
        sys_ = dirac.eigenvectors_closed_form(q, m)
        vectors, values = sys_.vectors, sys_.values[:, None, :]
        res = np.max(np.linalg.norm(h @ vectors - vectors * values, axis=1), axis=1)
        bad = res > 1e-10 * np.linalg.norm(h, axis=(1, 2))
        messages = {i: f"eigen-residual {res[i]:.3e}" for i in np.flatnonzero(bad)}
        for flag in (False, True):
            rows = np.flatnonzero(~bad & (doubled == flag))
            if not rows.size:
                continue
            s = dirac.random_commuting_unitary(q[rows], m[rows], rng, doubled=flag)
            if tamper:
                s = s + tamper * np.eye(s.shape[-1]) * 1j  # breaks unitarity/commutation
            diag, errors = dirac.joint_diagonalize(q[rows], m[rows], s)
            off_circle = np.max(np.abs(np.abs(diag.diagonal) - 1), axis=-1)
            defect = np.linalg.norm(diag.reconstruct() - s, axis=(-2, -1))
            for row, error, off, rec in zip(rows, errors, off_circle, defect):
                if error is not None:
                    messages[row] = str(error)
                elif off > 1e-10:
                    messages[row] = "|d_k| deviates from 1"
                elif rec > 1e-9:
                    messages[row] = "reconstruction defect"
        failures += [
            f"trial {start + i}, q={q[i]}, m={m[i].item()}: {messages[i]}" for i in sorted(messages)
        ]
    return failures


def _check_factor_suite(rng, trials):
    """|U0(L)| = 1 for random deviation factors in stacked passes, drawn as one
    factor per trial: L2, L and three log coefficients, gauge, log10 L."""
    from . import deviation

    lo, hi = np.array([[-1, -1, -1, -1, -1, -np.pi, -2], [1, 1, 1, 1, 1, np.pi, 6]])
    failures = []
    while trials > 0:
        c = rng.uniform(lo, hi, size=(min(trials, _CHUNK), 7))
        # Python's pow: L is printed, and numpy's array power may round apart
        L = [10.0**x for x in c[:, 6].tolist()]
        theta = deviation._exponent(c[:, 0], c[:, 1], c[:, 2:5].T, c[:, 5], np.array(L))
        off = np.abs(np.abs(np.exp(1j * theta)) - 1) > 1e-14
        failures += [f"|U0| deviates from 1 at L={l}" for l, bad in zip(L, off) if bad]
        trials -= len(c)
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
    if not np.isfinite(tamper):
        raise ValueError("tamper must be finite")
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
    from . import deviation

    psi = _get(config, "psi", [float])
    phi = _get(config, "phi", float)
    eps = _get(config, "epsilon", float, 0.1)
    nmax = _get(config, "order", int, len(psi) - 1)
    l_values = _get(config, "L_values", [float], [1.0, np.e, 10.0, 100.0])
    if not l_values:
        raise ValueError("L_values must not be empty")
    rows = []
    for L in l_values:
        result = deviation.resum_coulomb_series(psi, phi, eps, nmax, L)
        for order, residual in enumerate(result.residuals):
            rows.append([L, order, residual])
    # np.max, unlike max, keeps a NaN
    worst = np.max([row[2] for row in rows])
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
# is the config key it overrides; "quad_orders" overrides keys of the
# "quadrature" table.
_FLAGS = (
    ("--samples", ("fit", "regularize"),
     dict(dest="samples_file", metavar="CSV",
          help="CSV file of cutoff samples (L,re,im[,err])")),
    ("--model", ("fit", "regularize"),
     dict(choices=["log", "powerlog", "polylog", "auto"])),
    ("--quad-orders", ("integrate", "fit", "regularize"),
     dict(type=_quad_orders, metavar="R,A1,A2,A3", help="quadrature orders")),
    ("--threads", ("integrate",),
     dict(type=int, default=1,
          help="advisory worker count; results are identical for any value")),
    ("--seed", ("check",), dict(type=int, help="random seed")),
    ("--epsilon", ("regularize", "resum"), dict(type=float, help="coupling value")),
)


_SAMPLING = ("integrand_re", "integrand_im", "L_grid", "q", "m", "quadrature")
# the config keys each subcommand reads besides the keys its flags override;
# any other key is refused
_KEYS = {
    "spectra": ("m", "q", "q_grid"),
    "integrate": _SAMPLING,
    "fit": _SAMPLING + ("tail_fraction", "degree"),
    "regularize": _SAMPLING + ("tail_fraction", "degree", "fit_report"),
    "check": ("trials", "tamper"),
    "resum": ("psi", "phi", "order", "L_values"),
}


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
        commands[name].add_argument("--out", help="output directory (default: .)")
    for flag, names, options in _FLAGS:
        for name in names:
            commands[name].add_argument(flag, **options)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # looked up at call time, so a patched cmd_* runs
        return globals()[f"cmd_{args.command}"](_settings(args))
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        # first match wins; any other error (bad config, extreme values) exits 2
        from .asymfit import IllPosedFitError, ModelMismatchError, UnclassifiedDivergenceError
        from .ballquad import SingularIntegrandError
        from .integrand import EvaluationError, IntegrandSyntaxError

        codes = (
            (IntegrandSyntaxError, 3),
            ((SingularIntegrandError, EvaluationError), 4),
            ((ModelMismatchError, UnclassifiedDivergenceError, IllPosedFitError), 5),
        )
        return next((code for kinds, code in codes if isinstance(exc, kinds)), 2)


if __name__ == "__main__":
    sys.exit(main())
