"""Batch command-line front end.

Subcommands: spectra | integrate | fit | regularize | check | resum.  Each
reads a JSON config (--config), writes plot-ready CSV/JSON into --out, prints
a one-line summary on stdout and diagnostics on stderr.

Exit codes: 0 success, 1 check-suite failure, 2 invalid config, 3 integrand
parse error, 4 singular integrand, 5 model mismatch / unclassified divergence.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # start-up's objects live until exit, so the collector stays off while
    # they load; entry() freezes them and turns it back on
    gc.disable()

import argparse
import json
import math
import sys
from pathlib import Path

# Library modules, numpy among them, are imported by the commands that use
# them, so a fresh process loads only what its subcommand runs: fit and
# regularize load no numpy.  parse_integrand forwards to the parser, so the
# stage that parses can still be wrapped through this name.

EXIT_CHECK_FAILED = 1


def parse_integrand(source):
    from .integrand import parse_integrand as parse

    return parse(source)


_BLOCK = 256  # rows per write, so the writer holds one block's strings at a time


def _write_rows(path, head, entry, rows, fmt, sep="", tail=""):
    """Write ``head``, then ``entry`` per row of the 2-D float array ``rows``,
    its ``%s`` slots filled by ``fmt % value`` and joined by ``sep``, then
    ``tail``.  Each distinct value (by its bits, so -0.0 is not 0.0) is formatted
    once; a block of rows finds its strings by binary search among them."""
    import numpy as np

    bits = np.ascontiguousarray(rows, dtype=float).view(np.int64)
    # not np.unique, which imports numpy.ma in numpy >= 2.3 (≈12 ms a process)
    ordered = np.sort(bits, axis=None)
    distinct = np.concatenate([ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]])
    strings = np.array([fmt % v for v in distinct.view(float).tolist()], dtype=object)
    cells = np.empty((_BLOCK, 2 * entry.count("%s") + 1), dtype=object)
    cells[:, 0::2] = np.array((sep + entry).split("%s"), dtype=object)
    with open(path, "w", newline="\n") as fh:
        fh.write(head)
        for start in range(0, len(bits), _BLOCK):
            block = bits[start:start + _BLOCK]
            cells[: len(block), 1::2] = strings[np.searchsorted(distinct, block)]
            text = "".join(cells[: len(block)].ravel().tolist())
            fh.write(text[len(sep):] if start == 0 else text)
        fh.write(tail)


def _write_csv(path, header, rows):
    """``header``, then each row's values as ``%.17g``, comma-separated."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join("%.17g" % float(x) for x in row) + "\n" for row in rows)


def _write_table(path, header, rows):
    """The bytes of ``_write_csv`` for a 2-D float array, from numpy: on
    ``spectra``'s thousands of rows, formatting each distinct value once pays
    for the import."""
    import numpy as np

    values = np.asarray(rows, dtype=float).reshape(-1, len(header))
    _write_rows(path, ",".join(header) + "\n", ",".join(["%s"] * len(header)) + "\n",
                values, "%.17g")


def _write_json(path, payload):
    """``payload`` as JSON; a non-finite number is refused before the file opens."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError(f"{path.name}: non-finite value, which JSON cannot hold") from None
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def _write_json_rows(path, columns):
    """The bytes of ``_write_json(path, [{name: column[i].tolist() ...} ...])``
    for named float arrays of one length, from one entry that ``json`` lays out
    with a ``%s`` slot per value (``json`` writes a finite float as its repr)."""
    import numpy as np

    columns = dict(sorted(columns.items()))
    n = len(next(iter(columns.values())))
    flat = np.hstack([a.reshape(n, np.prod(a.shape[1:], dtype=int)) for a in columns.values()])
    if not np.isfinite(flat).all():
        raise ValueError(f"{path.name}: non-finite value, which JSON cannot hold")
    slots = {k: np.full(a.shape[1:], "%s", dtype=object).tolist() for k, a in columns.items()}
    entry = json.dumps([slots], indent=2).replace('"%s"', "%s")[1:-2]
    _write_rows(path, "[", entry, flat, "%r", sep=",", tail="\n]\n" if n else "]\n")


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


def _get(config, key, kind, default=..., keys=None):
    """``config[key]``, checked to be of ``kind`` and converted to it.

    ``kind`` is float (which accepts an integer), int, str or dict; [kind] for
    a list of that kind; or a tuple of kinds, whose value is returned as is.
    Without a ``default`` the key is required.  A dict with a key outside
    ``keys``, when they are given, is refused.
    """
    if key not in config:
        if default is ...:
            raise ValueError(f"config is missing required key '{key}'")
        return default
    value = config[key]
    if not _is(value, kind):
        raise ValueError(f"config key '{key}' has the wrong type: {value!r}")
    if keys is not None and (unknown := sorted(set(value) - set(keys))):
        raise ValueError(f"unknown {key} keys: {', '.join(unknown)}")
    if isinstance(kind, list):
        return [kind[0](v) for v in value]
    return value if isinstance(kind, tuple) else kind(value)


def _settings(args):
    """The JSON config with each given flag merged over the key it overrides;
    a key that the subcommand does not read is refused.

    In regularize an explicit model dict beats ``--model``.
    """
    config = _read_json(args.config) if args.config else {}
    # every flag's dest is the key it overrides, but --config's and --threads'
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config", "threads")}
    unknown = sorted(set(config) - set(_KEYS[args.command]) - set(flags))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    if args.command == "regularize":
        if isinstance(_get(config, "model", (dict, str), None), dict):
            flags.pop("model")
    config.update((k, v) for k, v in flags.items() if v is not None)
    return config


def _out_dir(config):
    out = Path(_get(config, "out", str, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _l_grid(config):
    import numpy as np

    spec = _get(config, "L_grid", dict, keys=("start", "ratio", "count"))
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

    spec = _get(config, "quadrature", dict, {}, keys=("radial_order", "angular_orders"))
    return QuadratureSpec(
        radial_order=_get(spec, "radial_order", int, 64),
        angular_orders=tuple(_get(spec, "angular_orders", [int], [32, 32, 32])),
    )


def _parse_expr(config, key):
    source = _get(config, key, str, None)
    return None if source is None else parse_integrand(source)


def _number(field, row, column):
    """The float that ``np.loadtxt`` reads in ``field``: Python's float syntax
    between whitespace, without its underscores and non-ASCII digits."""
    text = field.strip()
    try:
        if not text.isascii() or "_" in text:
            raise ValueError
        return float(text)
    except ValueError:
        raise ValueError(f"could not convert string {field!r:.100} to float64 "
                         f"at row {row}, column {column}.") from None


def _rows(lines):
    """The rows of comma-separated floats in ``lines``, read as ``np.loadtxt``
    reads them, with its refusals: text from a ``#`` on is a comment, a line
    left empty is skipped, and every row has the first row's field count."""
    rows = []
    for line in lines:
        line = line.split("#", 1)[0].rstrip("\n")
        if not line:
            continue
        fields = line.split(",")
        if rows and len(fields) != len(rows[0]):
            raise ValueError(
                f"the number of columns changed from {len(rows[0])} to {len(fields)} at row "
                f"{len(rows) + 1}; use `usecols` to select a subset and avoid this error")
        rows.append([_number(f, len(rows), i) for i, f in enumerate(fields, 1)])
    return rows


def _read_samples(config):
    """The cutoff samples of the CSV file ``samples_file``, which ``integrate``
    writes: a header line ``L,re,im`` or ``L,re,im,err``, then one row per cutoff."""
    from .samples import CutoffSamples

    path = _get(config, "samples_file", str, "")
    if not path:
        raise ValueError("needs --samples CSV (or the key 'samples_file'), which integrate writes")
    with open(path) as fh:
        # the header names each column, so it is decided before any row is parsed:
        # a file without one is refused whatever its rows; an empty file's is ""
        columns = {"": 0, "L,re,im": 3, "L,re,im,err": 4}.get(fh.readline().strip())
        if columns is None:
            raise ValueError(f"samples file {path} needs columns L,re,im[,err]")
        rows = _rows(fh)
    if not rows:
        raise ValueError(f"samples file {path} has no rows")
    if len(rows[0]) != columns:
        raise ValueError(f"samples file {path} needs columns L,re,im[,err]")
    grid, re, im, *err = zip(*rows)
    # complex(re, im) keeps a -0.0 real part, which re + 1j * im would not
    values = [complex(a, b) for a, b in zip(re, im)]
    return CutoffSamples(grid=grid, values=values, errors=err[0] if err else None)


def _fit(config, samples):
    """The fit of ``samples`` by the config's model kind; "auto" classifies."""
    from . import asymfit

    kind = _get(config, "model", str, "auto")
    tail = _get(config, "tail_fraction", float, 0.5)
    degree = _get(config, "degree", int, 2)
    if kind == "auto":
        return asymfit.classify(samples, tail_fraction=tail, max_degree=degree + 2)
    return asymfit.fit(samples, kind, tail_fraction=tail, degree=degree)


def _eigen_residuals(q, m, solved):
    """Per momentum, max_k ||H v_k - lambda_k v_k|| / ||H||_F of the eigenpairs
    ``solved`` of H(q, m)."""
    import numpy as np

    from . import dirac

    vals, vecs = solved.values, solved.vectors
    h = dirac.build_hamiltonian(q, m)
    # relative to ||H||_F = 2E, which overflows long before E does; H = 0
    # where E = 0, so those rows report 0.  The complex division by a
    # subnormal E overflows, so those rows are first scaled by 2^600 (exact).
    up = np.where(vals[:, 3] < np.finfo(float).tiny, 2.0**600, 1.0)[:, None, None]
    e = np.where(vals[:, 3] > 0, vals[:, 3], np.inf)[:, None, None]
    res = np.linalg.norm((h @ vecs - vecs * vals[:, None, :]) * up / (e * up), axis=1) / 2
    return np.max(res, axis=1)


def cmd_spectra(config):
    import numpy as np

    from . import dirac

    m = _get(config, "m", float)
    if ("q" in config) == ("q_grid" in config):
        raise ValueError("config needs exactly one of 'q' and 'q_grid'")
    if "q" in config:
        points = np.array([_get(config, "q", [float])])
    else:
        spec = _get(config, "q_grid", dict, keys=("min", "max", "count"))
        lo, hi = _get(spec, "min", float), _get(spec, "max", float)
        # refused here, since linspace would make inf/NaN nodes with numpy
        # warnings before dirac refused them with this message
        if not np.isfinite([lo, hi, hi - lo]).all():
            raise ValueError("momentum components must be finite")
        count = _get(spec, "count", int)
        if count < 0:
            raise ValueError(f"q_grid count must be at least 0, got {count}")
        axis = np.linspace(lo, hi, count)
        points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    solved = dirac.eigenvectors_closed_form(points, m)
    vals, vecs = solved.values, solved.vectors
    worst = float(np.max(_eigen_residuals(points, m, solved), initial=0.0))
    out = _out_dir(config)
    _write_table(
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
    from . import ballquad

    grid = _l_grid(config)
    q = _get(config, "q", [float], [0.0, 0.0, 0.0, 0.0])
    m = _get(config, "m", float, 0.0)
    spec = _quad_spec(config)
    f_re = _parse_expr(config, "integrand_re")
    f_im = _parse_expr(config, "integrand_im")
    if f_re is None and f_im is None:
        raise ValueError("config needs 'integrand_re' and/or 'integrand_im'")
    samples = ballquad.sample_over_cutoffs(f_re, f_im, q, m, grid, spec)
    grid, values, errors = samples.grid, samples.values, samples.errors
    _write_csv(
        _out_dir(config) / "samples.csv",
        ["L", "re", "im", "err"],
        [(L, v.real, v.imag, e) for L, v, e in zip(grid, values, errors)],
    )
    print(
        f"integrate: {len(samples)} cutoffs in [{grid[0]:g}, {grid[-1]:g}], "
        f"max error estimate {max(errors):.3e}"
    )
    return 0


def cmd_fit(config):
    from .asymfit import UnclassifiedDivergenceError

    samples = _read_samples(config)
    try:
        report = _fit(config, samples)
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
    if isinstance(model, dict):
        model = asymfit.model_from_dict(model)
    samples = _read_samples(config)
    if isinstance(model, str):
        model = _fit(config, samples).model
    regular = deviation.regularize_coefficient(samples, model)
    factor = deviation.factor_from_model(model, eps)
    out = _out_dir(config)
    _write_json(out / "deviation_factor.json", factor.to_dict())
    values = regular.values
    _write_csv(
        out / "regularized.csv",
        ["L", "re", "im"],
        [(L, v.real, v.imag) for L, v in zip(regular.grid, values)],
    )
    # math.hypot, not abs, which raises where |b - a| overflows
    diffs = [math.hypot(b.real - a.real, b.imag - a.imag) for a, b in zip(values, values[1:])]
    last = diffs[-1] if diffs else 0.0
    converged = bool(diffs) and last <= 1e-2 and all(b - a <= 0 for a, b in zip(diffs, diffs[1:]))
    _write_json(
        out / "convergence.json",
        {"last_difference": last, "differences": diffs, "shrinking": converged},
    )
    print(f"regularize: last |difference| {last:.3e}, shrinking={converged}")
    return 0


# trials per stacked pass of the check's spectra suite, so memory stays
# bounded for any number of trials
_CHUNK = 256


def _check_spectra_suite(rng, trials):
    """Closed-form eigenpairs and joint diagonalization on random trials, in
    stacked passes.  Each pass draws one call per column (q, m, then the 4x4
    or 8x8 choice), then the Haar blocks of its 4x4 and of its 8x8 trials; a
    trial whose eigen-residual fails is reported and skips the joint check.
    Failures name the trial's index, so seed, trials and index reproduce one."""
    import numpy as np

    from . import dirac

    failures = []
    for start in range(0, trials, _CHUNK):
        k = min(trials - start, _CHUNK)
        q = rng.uniform(-10, 10, (k, 3))
        m = rng.uniform(0, 10, k)
        doubled = rng.random(k) < 0.5
        res = _eigen_residuals(q, m, dirac.eigenvectors_closed_form(q, m))
        # every verdict reads not (value <= bound), so a NaN fails it
        bad = ~(res <= 1e-10)
        messages = {i: f"eigen-residual {res[i]:.3e}" for i in np.flatnonzero(bad)}
        for flag in (False, True):
            rows = np.flatnonzero(~bad & (doubled == flag))
            if not rows.size:
                continue
            s = dirac.random_commuting_unitary(q[rows], m[rows], rng, doubled=flag)
            diag, errors = dirac.joint_diagonalize(q[rows], m[rows], s)
            # d_k = d/|d| is unit-modulus by construction; a row with an error
            # has a zero diagonal, which rebuilds 0, so it fails here too
            unrebuilt = ~(np.linalg.norm(diag.reconstruct() - s, axis=(-2, -1)) <= 1e-9)
            for i in np.flatnonzero(unrebuilt):
                messages[rows[i]] = str(errors[i] or "reconstruction defect")
        failures += [
            f"trial {start + i}, q={q[i]}, m={m[i].item()}: {messages[i]}" for i in sorted(messages)
        ]
    return failures


def cmd_check(config):
    import numpy as np

    seed = _get(config, "seed", int, 20260826)
    trials = _get(config, "trials", int, 200)
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    failures = _check_spectra_suite(rng, trials)
    if failures:
        for line in failures[:20]:
            print(f"check failure: {line}", file=sys.stderr)
        print(f"check: {len(failures)} failures (seed {seed})")
        return EXIT_CHECK_FAILED
    print(f"check: all suites passed (seed {seed}, {trials} trials)")
    return 0


def cmd_resum(config):
    import numpy as np

    from . import deviation

    psi = _get(config, "psi", [float])
    phi = _get(config, "phi", float)
    eps = _get(config, "epsilon", float, 0.1)
    # every order up to len(psi) - 1; an empty psi is refused by resum_coulomb_series
    nmax = max(len(psi) - 1, 0)
    l_values = _get(config, "L_values", [float], [1.0, np.e, 10.0, 100.0])
    if not l_values:
        raise ValueError("L_values must not be empty")
    residuals = [deviation.resum_coulomb_series(psi, phi, eps, nmax, L).residuals
                 for L in l_values]
    rows = [[L, *row] for L, r in zip(l_values, residuals) for row in enumerate(r)]
    worst = np.max(residuals)
    out = _out_dir(config)
    _write_csv(out / "resum_residuals.csv", ["L", "order", "residual"], rows)
    print(f"resum: max per-order residual {worst:.3e}")
    return 0 if worst <= 1e-12 else EXIT_CHECK_FAILED


# (flag, the subcommands that take it, add_argument keywords).  A flag's dest
# is the config key it overrides.
_FLAGS = (
    ("--samples", ("fit", "regularize"),
     dict(dest="samples_file", metavar="CSV",
          help="CSV file of cutoff samples (L,re,im[,err])")),
    ("--model", ("fit", "regularize"),
     dict(choices=["log", "powerlog", "polylog", "auto"])),
    ("--threads", ("integrate",),
     dict(type=int, default=1,
          help="advisory worker count; results are identical for any value")),
    ("--seed", ("check",), dict(type=int, help="random seed")),
    ("--epsilon", ("regularize", "resum"), dict(type=float, help="coupling value")),
)


# the config keys each subcommand reads besides the keys its flags override;
# any other key is refused
_KEYS = {
    "spectra": ("m", "q", "q_grid"),
    "integrate": ("integrand_re", "integrand_im", "L_grid", "q", "m", "quadrature"),
    "fit": ("tail_fraction", "degree"),
    "regularize": ("tail_fraction", "degree"),
    "check": ("trials",),
    "resum": ("psi", "phi", "L_values"),
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


# (library module, its error classes, exit code); the first match wins, and
# any other error (bad config, extreme values) exits 2
_EXIT_CODES = (
    ("integrand", ("IntegrandSyntaxError",), 3),
    ("ballquad", ("SingularIntegrandError",), 4),
    ("integrand", ("EvaluationError",), 4),
    ("asymfit", ("ModelMismatchError", "UnclassifiedDivergenceError", "IllPosedFitError"), 5),
)

# the subcommands that load no numpy; entry() loads it for every other one
_NUMPY_FREE = ("fit", "regularize")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # looked up at call time, so a patched cmd_* runs
        return globals()[f"cmd_{args.command}"](_settings(args))
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        # an error cannot come from a module that was never imported, so the
        # classes are looked up only in the loaded ones, and none is loaded here
        for module, names, code in _EXIT_CODES:
            home = sys.modules.get(f"{__package__}.{module}")
            if home and isinstance(exc, tuple(getattr(home, name) for name in names)):
                return code
        return 2


def entry():
    """The program's entry point, for ``python -m scatreg.cli`` and the
    ``scatreg`` script.  What start-up loaded lives until exit, so it is
    frozen out of the collector's passes (and the final one at exit); the
    collector stays on for the garbage the run itself makes.  Every
    subcommand but fit and regularize runs numpy, so numpy is loaded first
    and frozen too.  ``main`` leaves the collector alone, so a caller in a
    longer-lived process keeps its own policy."""
    command = sys.argv[1] if len(sys.argv) > 1 else None
    if command not in _NUMPY_FREE:
        import numpy  # noqa: F401
    gc.freeze()
    gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
