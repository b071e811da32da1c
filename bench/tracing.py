"""Spans around scatreg's public functions, recorded from outside the package.

The traced run patches module attributes for the duration of a pass, so a
call made through the patched name opens a span: name, start, end, parent
span and pass id, plus a count of the work the call was handed.  Spans stay in
memory and are written out once, when the benchmark ends.  Per-layer metrics
are derived from them afterwards, so the wrappers themselves do no arithmetic
beyond the count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from contextlib import contextmanager
from time import perf_counter


def _bound(fn):
    signature = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def _points_counter(fn):
    """Points handed to ``evaluate``: the length of the bound p0 array."""
    arguments = _bound(fn)

    def count(args, kwargs):
        ctx = arguments(args, kwargs)["ctx"]
        return int(getattr(ctx.get("p0"), "size", 1))

    return count


def _base_points_counter(fn):
    """Points of the base tensor rule, the only sum ``integrate_ball`` returns."""
    arguments = _bound(fn)

    def count(args, kwargs):
        bound = arguments(args, kwargs)
        spec = bound["spec"]
        if spec.method != "tensor-gauss":
            return 0
        exprs = sum(bound[name] is not None for name in ("f_re", "f_im"))
        return exprs * spec.radial_order * math.prod(spec.angular_orders)

    return count


# (module, attribute, span name, counter factory).  ballquad calls evaluate
# and screen_singularities through the names it imported from integrand, and
# cli reaches every other layer through module attributes, so these are the
# names the pipeline actually looks up.
TARGETS = (
    ("scatreg.cli", "main", "cli.main", None),
    ("scatreg.cli", "cmd_integrate", "cli.integrate", None),
    ("scatreg.cli", "cmd_fit", "cli.fit", None),
    ("scatreg.cli", "cmd_regularize", "cli.regularize", None),
    ("scatreg.cli", "cmd_spectra", "cli.spectra", None),
    ("scatreg.cli", "cmd_check", "cli.check", None),
    ("scatreg.cli", "parse_integrand", "integrand.parse", None),
    ("scatreg.ballquad", "evaluate", "integrand.evaluate", _points_counter),
    ("scatreg.ballquad", "screen_singularities", "integrand.screen", None),
    ("scatreg.ballquad", "sample_over_cutoffs", "ballquad.sample_over_cutoffs", None),
    ("scatreg.ballquad", "integrate_ball", "ballquad.integrate_ball", _base_points_counter),
    ("scatreg.asymfit", "fit", "asymfit.fit", None),
    ("scatreg.asymfit", "classify", "asymfit.classify", None),
    ("scatreg.deviation", "regularize_coefficient", "deviation.regularize", None),
    ("scatreg.deviation", "factor_from_model", "deviation.factor", None),
    ("scatreg.dirac", "eigenvectors_closed_form", "dirac.eigenvectors", None),
    ("scatreg.dirac", "spectral_subspaces", "dirac.subspaces", None),
    ("scatreg.dirac", "simultaneous_diagonalize", "dirac.simdiag", None),
    ("scatreg.dirac", "random_commuting_unitary", "dirac.commuting_unitary", None),
)

# span fields, in the order they are stored
NAME, START, END, PARENT, PASS, COUNT = range(6)


class Tracer:
    """In-memory span recorder.  Each span is [name, start, end, parent, pass,
    count]; ``parent`` indexes the span list of the same pass, -1 for a root."""

    def __init__(self):
        self.passes = {}  # pass id -> that pass's spans
        self.pass_id = self.spans = None
        self._open = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            count = counter(args, kwargs) if counter else 0
            self.spans.append([name, perf_counter(), 0.0, parent, self.pass_id, count])
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][END] = perf_counter()

        return traced

    @contextmanager
    def installed(self, pass_id, targets=TARGETS):
        """Patch every target for one pass; the originals come back afterwards."""
        self.pass_id = pass_id
        self.spans = self.passes[pass_id] = []
        saved = []
        try:
            for module_name, attr, span, counter in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original, counter and counter(original)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.pass_id = self.spans = None

    def write(self, path):
        with open(path, "w") as fh:
            for spans in self.passes.values():
                for span in spans:
                    fh.write(json.dumps(span) + "\n")


def summarize(spans):
    """Per span name: calls, total and self seconds, summed counts, and the
    number of its spans whose parent has each name.

    A span's self time is its duration minus the durations of its children.
    Children of one span run one after another, so they never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out = {}
    for i, span in enumerate(spans):
        entry = out.setdefault(
            span[NAME], {"calls": 0, "total": 0.0, "self": 0.0, "count": 0, "parents": {}}
        )
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - child_time[i]
        entry["count"] += span[COUNT]
        parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
        entry["parents"][parent] = entry["parents"].get(parent, 0) + 1
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, bytes_written):
    """The per-layer metrics of one pass, from that pass's spans.

    Times are totals over the pass unless the name says per point or per
    call.  A metric whose layer the pass never entered reads 0.
    """
    s = summarize(spans)
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "count": 0, "parents": {}}

    def get(name):
        return s.get(name, empty)

    evaluate = get("integrand.evaluate")
    integral = get("ballquad.integrate_ball")
    classify = get("asymfit.classify")
    return {
        "integrand.eval_ns_per_point": 1e9 * _ratio(evaluate["total"], evaluate["count"]),
        "integrand.points_evaluated": evaluate["count"],
        "integrand.screen_ms": 1e3 * get("integrand.screen")["total"],
        "integrand.parse_us": 1e6 * get("integrand.parse")["total"],
        "ballquad.integral_ms": 1e3 * integral["total"],
        "ballquad.self_ms": 1e3 * integral["self"],
        "ballquad.useful_point_frac": _ratio(integral["count"], evaluate["count"]),
        "asymfit.fit_ms": 1e3 * get("asymfit.fit")["total"],
        "asymfit.classify_ms": 1e3 * classify["total"],
        "asymfit.fits_per_classify": _ratio(
            get("asymfit.fit")["parents"].get("asymfit.classify", 0), classify["calls"]
        ),
        "deviation.regularize_us": 1e6 * get("deviation.regularize")["total"],
        "deviation.factor_us": 1e6 * get("deviation.factor")["total"],
        "dirac.eig_us_per_point": 1e6 * _per_call(get("dirac.eigenvectors")),
        "dirac.subspaces_us_per_point": 1e6 * _per_call(get("dirac.subspaces")),
        "dirac.simdiag_us_per_call": 1e6 * _per_call(get("dirac.simdiag")),
        "dirac.commuting_unitary_us_per_call": 1e6 * _per_call(get("dirac.commuting_unitary")),
        "cli.integrate_s": get("cli.integrate")["total"],
        "cli.fit_s": get("cli.fit")["total"],
        "cli.regularize_s": get("cli.regularize")["total"],
        "cli.spectra_s": get("cli.spectra")["total"],
        "cli.check_s": get("cli.check")["total"],
        "cli.self_s": sum(v["self"] for k, v in s.items() if k.startswith("cli.")),
        "cli.bytes_written": bytes_written,
    }


def _per_call(entry):
    return _ratio(entry["total"], entry["calls"])
