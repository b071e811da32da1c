"""Benchmark of the scatreg command-line pipeline.

    python3 bench/run.py --workload radial_sweep --seed 1 --seconds 32 --trace 0

With ``--trace 0`` every CLI stage of the workload runs as a user runs it:
``python -m scatreg.cli`` in a fresh process with ``PYTHONPATH=src``, one
stage at a time.  Passes over all stages repeat while another one fits in
``--seconds`` (at least three, so there is a median and artifacts can be
compared byte for byte), and each timing is the median over passes.  ``setup_s`` is the median of
several fresh-process imports, taken before the passes.  With ``--trace 1``
the passes call ``scatreg.cli.main`` in this process instead, alternating
untraced passes with passes traced from outside the package (see
tracing.py), and the per-layer metrics are reported.

Every pass is checked against oracles that do not use scatreg (see
oracles.py).  Human-readable metric lines go first; the last line of stdout
is one JSON object with keys correct, attempted, failed and metrics.
Artifacts, logs and spans are kept under ``.bench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "max_rel_err": "1",
    "coef_rel_err": "1",
    "err_bound_frac": "1",
    "reg_last_diff": "1",
    "ok_frac": "1",
}
PER_LAYER = {
    "integrand.eval_ns_per_point": "ns",
    "integrand.points_evaluated": "count",
    "integrand.screen_ms": "ms",
    "integrand.parse_us": "us",
    "ballquad.integral_ms": "ms",
    "ballquad.self_ms": "ms",
    "ballquad.useful_point_frac": "1",
    "asymfit.fit_ms": "ms",
    "asymfit.classify_ms": "ms",
    "asymfit.fits_per_classify": "count",
    "deviation.regularize_us": "us",
    "deviation.factor_us": "us",
    "dirac.eig_us_per_point": "us",
    "dirac.subspaces_us_per_point": "us",
    "dirac.simdiag_us_per_call": "us",
    "dirac.commuting_unitary_us_per_call": "us",
    "cli.integrate_s": "s",
    "cli.fit_s": "s",
    "cli.regularize_s": "s",
    "cli.spectra_s": "s",
    "cli.check_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "count",
    "trace.overhead_frac": "1",
}

MIN_PASSES = 3
SETUP_SAMPLES = 5
SETUP_CODE = (
    "import time; t = time.perf_counter(); import scatreg.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass
class StageResult:
    exit_code: int
    stdout: str
    seconds: float
    max_rss_kb: int = 0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(argv, log_prefix):
    """Run one child to completion; its stdout and stderr go to log files."""
    with open(f"{log_prefix}.out", "w") as out, open(f"{log_prefix}.err", "w") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = Path(f"{log_prefix}.out").read_text()
    return StageResult(proc.returncode, stdout, seconds, usage.ru_maxrss)


def measure_setup(logs):
    """Median time of a fresh-process ``import scatreg.cli``, after one warm-up."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        result = _spawn([sys.executable, "-c", SETUP_CODE], logs / f"setup_{i}")
        if result.exit_code != 0:
            raise RuntimeError(f"import scatreg.cli failed; see {logs}/setup_{i}.err")
        if i:
            samples.append(float(result.stdout))
    return statistics.median(samples)


def run_pass_subprocess(stages, logs, index):
    results = {}
    start = perf_counter()
    for name, argv in stages:
        results[name] = _spawn(
            [sys.executable, "-m", "scatreg.cli", *argv], logs / f"pass{index}_{name}"
        )
    return results, perf_counter() - start


def run_pass_inprocess(stages, logs, index):
    import scatreg.cli

    results = {}
    start = perf_counter()
    for name, argv in stages:
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = scatreg.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback: the exit code Python would give
                traceback.print_exc()
                code = 1
        results[name] = StageResult(code, stdout.getvalue(), perf_counter() - t0)
        (logs / f"pass{index}_{name}.out").write_text(stdout.getvalue())
        (logs / f"pass{index}_{name}.err").write_text(stderr.getvalue())
    return results, perf_counter() - start


def _bytes_in(directory):
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


class Run:
    """One benchmark run: inputs, passes, checks and the result line."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seconds = seconds
        self.home = WORK / workload.name
        shutil.rmtree(self.home, ignore_errors=True)
        self.inputs_dir = self.home / "inputs"
        self.logs = self.home / "logs"
        self.inputs_dir.mkdir(parents=True)
        self.logs.mkdir()
        self.inputs = workload.inputs(seed)
        workload.write_inputs(self.inputs, self.inputs_dir)
        self.reference = workload.reference(self.inputs)
        self.outcomes = []
        self.messages = []

    def stages(self, index):
        out = self.home / f"pass{index}"
        out.mkdir()
        stages = self.workload.stages(self.inputs, self.inputs_dir, out)
        return out, [(name, argv + ["--out", str(out)]) for name, argv in stages]

    def check(self, out, results):
        self.outcomes.append(self.workload.check(out, results, self.reference))

    def tally(self):
        """(attempted, failed, wrong) over all passes, counting a stage whose
        compared artifact differs from the first pass's as failed."""
        first = self.outcomes[0].digests
        attempted = failed = wrong = 0
        for i, outcome in enumerate(self.outcomes):
            for stage, digest in outcome.digests.items():
                if first.get(stage) != digest:
                    outcome.fail(stage, f"artifact bytes differ from pass 0 in pass {i}")
            attempted += len(self.workload.stage_names)
            failed += len(outcome.failed)
            wrong += len(outcome.wrong - outcome.failed)
            self.messages += [f"pass {i}: {m}" for m in outcome.messages]
        return attempted, failed, wrong

    def accuracy(self):
        out = {}
        for name in ("max_rel_err", "coef_rel_err", "err_bound_frac", "reg_last_diff"):
            values = [o.accuracy[name] for o in self.outcomes if name in o.accuracy]
            if not values:
                raise RuntimeError(f"no pass produced the outputs {name} needs")
            out[name] = statistics.median(values)
        return out


def _another_pass(durations, seconds, minimum=MIN_PASSES):
    """Whether one more pass fits in ``seconds``, judged by the mean pass so far."""
    if len(durations) < minimum:
        return True
    return sum(durations) * (1 + 1 / len(durations)) <= seconds


def end_to_end(run):
    setup = measure_setup(run.logs)
    walls, rss, stage_seconds = [], [], {}
    while _another_pass(walls, run.seconds):
        out, stages = run.stages(len(walls))
        results, wall = run_pass_subprocess(stages, run.logs, len(walls))
        walls.append(wall)
        for name, result in results.items():
            stage_seconds.setdefault(name, []).append(result.seconds)
        rss.append(max(r.max_rss_kb for r in results.values()) / 1024)
        run.check(out, results)
    attempted, failed, wrong = run.tally()
    for name, seconds in {"wall_s": walls, **stage_seconds}.items():
        run.messages.append(f"{name} over {len(seconds)} passes: "
                            + ", ".join(f"{s:.3f}" for s in seconds))
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(rss),
        **run.accuracy(),
        "ok_frac": 1 - (failed + wrong) / attempted,
    }
    return attempted, failed, metrics


def traced(run):
    sys.path.insert(0, str(SRC))
    import scatreg.cli  # noqa: F401  (warm import, so no pass pays it)

    tracer = tracing.Tracer()
    plain, traced_walls, per_pass = [], [], []
    pairs = []
    while _another_pass(pairs, run.seconds, minimum=1):
        start = perf_counter()
        for trace in (False, True):
            index = len(plain) + len(traced_walls)
            out, stages = run.stages(index)
            if trace:
                with tracer.installed(index):
                    results, wall = run_pass_inprocess(stages, run.logs, index)
                traced_walls.append(wall)
                per_pass.append(tracing.layer_metrics(tracer.passes[index], _bytes_in(out)))
            else:
                results, wall = run_pass_inprocess(stages, run.logs, index)
                plain.append(wall)
            run.check(out, results)
        pairs.append(perf_counter() - start)
    tracer.write(run.home / "spans.jsonl")
    attempted, failed, _ = run.tally()
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    untraced = statistics.median(plain)
    metrics["trace.overhead_frac"] = (statistics.median(traced_walls) - untraced) / untraced
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scatreg" / "cli.py").is_file():
        print(f"bench: no scatreg sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds)
    attempted, failed, metrics = (traced if args.trace else end_to_end)(run)
    for line in run.messages:
        print(line, file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"{args.workload:18s} {name:38s} {value:.10g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
