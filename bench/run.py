#!/usr/bin/env python3
"""Exact-result benchmark for fsig.

    python3 bench/run.py --workload sig-families --seed 20250811 --seconds 40 --trace 0

Run from a checkout: the benchmark imports fsig from src/ next to this
directory and exits with code 2 when that is missing.  It is single-process
and single-threaded, a closed loop with one caller: each operation starts
after the previous one has returned and its exact result has been checked.
The corpus of the workload (see workloads.py) is solved in passes, at least
one, until --seconds have elapsed; untraced, each pass is followed by a few
`fsig signature <doc> --json` subprocesses.  Timings are corrected for the
host's speed as described in speed.py.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
tracer.py (alternating untraced and traced passes, so that the ratio of the
two is the tracing overhead) and writes the spans to .bench_out/.  Every
metric is printed as `name value unit`; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when every check passed and 1 otherwise.
"""

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import workloads
from speed import SpeedMeter, Timing, corrected
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPS = 7
MIN_PASSES = 2
CLI_MIN_REPS = 3
CLI_SECONDS = 1.0
OP_BUDGET_S = 60.0
CLI_TIMEOUT_S = 60.0
FSIG_MODULES = ("exact", "semigroup", "cone", "signature", "frobenius", "families")


class OpBudgetExceeded(Exception):
    """An operation ran longer than OP_BUDGET_S."""


@contextmanager
def op_budget(seconds: float):
    def expire(signum, frame):
        raise OpBudgetExceeded(f"operation exceeded its {seconds:g} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_fsig() -> SimpleNamespace:
    """Import fsig afresh from the checkout's src/ and return its modules."""
    for name in [n for n in sys.modules if n == "fsig" or n.startswith("fsig.")]:
        del sys.modules[name]
    fsig = importlib.import_module("fsig")
    if not Path(fsig.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"fsig was imported from {fsig.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"fsig.{m}") for m in FSIG_MODULES})


class Run:
    """Operation results, timings and failures of one benchmark process."""

    def __init__(self, corpus, meter: SpeedMeter, cli_reps=(CLI_MIN_REPS, CLI_SECONDS)):
        self.corpus = corpus
        self.meter = meter
        self.cli_min_reps, self.cli_seconds = cli_reps
        self.first = {}  # op index -> result of its first checked run
        self.attempted = 0
        self.failures = []

    def fail(self, name: str, message: str) -> None:
        self.failures.append(f"{name}: {message}")

    def execute(self, op, tracer=None):
        """Run one operation and its timed check; returns (timing, result, ok)."""
        self.attempted += 1
        mark = self.meter.mark(fresh=False)
        start = time.perf_counter()
        try:
            with op_budget(OP_BUDGET_S):
                result = tracer.span("op", op.run) if tracer else op.run()
            ok = op.expected is None or result == op.expected
        except Exception as exc:  # a raising operation is a failed operation
            timing = self.meter.close(mark, time.perf_counter() - start)
            self.fail(op.name, f"raised {type(exc).__name__}: {exc}")
            return timing, None, False
        timing = self.meter.close(mark, time.perf_counter() - start)
        if not ok:
            self.fail(op.name, f"returned {result!r}, expected {op.expected!r}")
        return timing, result, ok

    def check_untimed(self, index: int, op, result) -> None:
        """First result: the op's own untimed check.  Later: equal to the first."""
        if index in self.first:
            if result != self.first[index]:
                self.fail(op.name, f"returned {result!r}, earlier pass {self.first[index]!r}")
            return
        message = None
        if op.verify is not None:
            try:
                with op_budget(OP_BUDGET_S):
                    message = op.verify(result)
            except Exception as exc:
                message = f"check raised {type(exc).__name__}: {exc}"
        if message:
            self.fail(op.name, message)
        else:
            self.first[index] = result

    def run_pass(self, tracer=None) -> list[Timing]:
        """One pass over the corpus; returns the per-operation timings."""
        timings = []
        self.meter.probe()
        for index, op in enumerate(self.corpus.ops):
            if tracer is not None:
                tracer.op_id = index
            timing, result, ok = self.execute(op, tracer)
            timings.append(timing)
            if ok:
                self.check_untimed(index, op, result)
        return timings

    def probe_heap_mb(self) -> float:
        """Python heap peak of the workload's probe operation, under tracemalloc."""
        index, op = next((i, op) for i, op in enumerate(self.corpus.ops) if op.probe)
        tracemalloc.start()
        try:
            _, result, ok = self.execute(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if ok:
            self.check_untimed(index, op, result)
        return peak / 2**20

    def cli_times(self) -> list[Timing]:
        """`fsig signature <doc> --json` subprocesses, output checked: at least
        cli_min_reps, and more until cli_seconds have elapsed."""
        OUT_DIR.mkdir(exist_ok=True)
        doc = OUT_DIR / f"cli-{self.corpus.workload}-{os.getpid()}.json"
        importlib.import_module("fsig.cli").emit_document(str(doc), self.corpus.cli_presentation)
        expected = self.corpus.cli_expected
        expected_text = f"{expected.numerator}/{expected.denominator}"
        cmd = [sys.executable, "-m", "fsig.cli", "signature", str(doc), "--json"]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        name = f"fsig signature {self.corpus.cli_presentation.name} --json"
        timings = []
        deadline = time.perf_counter() + self.cli_seconds
        while len(timings) < self.cli_min_reps or time.perf_counter() < deadline:
            self.attempted += 1
            mark = self.meter.mark()
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
                )
            except subprocess.TimeoutExpired:
                timings.append(self.meter.close(mark, time.perf_counter() - start))
                self.fail(name, f"exceeded its {CLI_TIMEOUT_S:g} s budget")
                continue
            timings.append(self.meter.close(mark, time.perf_counter() - start))
            if proc.returncode != 0:
                self.fail(name, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            try:
                got = json.loads(proc.stdout)["signature"]
            except (ValueError, KeyError) as exc:
                self.fail(name, f"unreadable output ({exc}): {proc.stdout[:200]!r}")
                continue
            if got != expected_text:
                self.fail(name, f"printed {got}, expected {expected_text}")
        doc.unlink()
        return timings

    def in_process_signature_times(self, fs, reps: int) -> list[Timing]:
        timings = []
        deadline = time.perf_counter() + self.cli_seconds
        while len(timings) < self.cli_min_reps or time.perf_counter() < deadline:
            self.attempted += 1
            mark = self.meter.mark()
            start = time.perf_counter()
            value = fs.signature.f_signature(self.corpus.cli_presentation).value
            timings.append(self.meter.close(mark, time.perf_counter() - start))
            if value != self.corpus.cli_expected:
                self.fail("in-process f_signature of the CLI document", f"returned {value}")
        return timings


def setup(args, meter: SpeedMeter) -> tuple[SimpleNamespace, object, list[Timing]]:
    """Import fsig and build the corpus SETUP_REPS times; returns the last."""
    timings = []
    for _ in range(SETUP_REPS):
        mark = meter.mark()
        start = time.perf_counter()
        fs = import_fsig()
        corpus = workloads.build(args.workload, fs, args.seed, args.corpus)
        timings.append(meter.close(mark, time.perf_counter() - start))
    return fs, corpus, timings


def run_passes(args, run: Run, traced: bool):
    """Passes until --seconds have elapsed.

    Untraced: at least MIN_PASSES, each followed by CLI subprocesses.
    Traced: at least one untraced pass, each followed by a traced one.  Returns the untraced pass timings, the
    traced pass timings, the CLI timings and the tracer.
    """
    deadline = time.perf_counter() + args.seconds
    untraced, traced_passes, cli = [], [], []
    tracer = Tracer() if traced else None
    run.meter.start()
    try:
        while True:
            untraced.append(run.run_pass())
            if tracer is not None:
                with tracer:
                    traced_passes.append(run.run_pass(tracer))
            else:
                cli.extend(run.cli_times())
            last = untraced[-1] + (traced_passes[-1] if traced_passes else [])
            enough = len(untraced) >= (1 if traced else MIN_PASSES)
            if enough and time.perf_counter() + sum(t.raw for t in last) > deadline:
                break
    finally:
        run.meter.stop()
    return untraced, traced_passes, cli, tracer


def measure(args, run: Run, setup_times: list[Timing]) -> dict:
    """End-to-end metrics, untraced, corrected for the host's speed (speed.py).

    corpus_s is the median over passes of the summed operation latencies;
    each operation's latency is its median over the passes.
    """
    passes, _, cli, _ = run_passes(args, run, traced=False)
    pass_sums = [sum(corrected(t) for t in p) for p in passes]
    latencies = [statistics.median(corrected(t) for t in op) for op in zip(*passes)]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw_sums = " ".join(f"{sum(t.raw for t in p):.3f}" for p in passes)
    print(
        f"passes {len(passes)}  op_samples {len(latencies)}  raw pass sums {raw_sums} s  "
        f"host slowdown (median reference / REFERENCE_S) {run.meter.slowdown():.3f}"
    )
    return {
        "corpus_s": (statistics.median(pass_sums), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_p90_s": (statistics.quantiles(latencies, n=10)[-1], "s"),
        "cli_signature_s": (statistics.median(corrected(t) for t in cli), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (statistics.median(corrected(t) for t in setup_times), "s"),
    }


def measure_traced(args, run: Run, fs) -> dict:
    """Per-layer metrics (raw times) from alternating untraced and traced passes."""
    untraced, traced, _, tracer = run_passes(args, run, traced=True)
    metrics = tracer.layer_metrics(len(traced))
    heap_mb = run.probe_heap_mb()
    process = statistics.median(corrected(t) for t in run.cli_times())
    in_process = statistics.median(corrected(t) for t in run.in_process_signature_times(fs, CLI_MIN_REPS))
    metrics["cli.process_s"] = (process, "s")
    metrics["cli.overhead_s"] = (process - in_process, "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(sum(corrected(t) for t in p) for p in traced)
        / statistics.median(sum(corrected(t) for t in p) for p in untraced),
        "ratio",
    )
    metrics["memory.tracemalloc_peak_mb"] = (heap_mb, "MB")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"ops": [op.name for op in run.corpus.ops], "spans": tracer.spans_json()}, handle)
    print(f"passes {len(untraced)} untraced + {len(traced)} traced  spans {spans_path}")
    return metrics


def result_line(run: Run, metrics: dict) -> dict:
    """The final JSON object; fail_ratio is failed / attempted."""
    failed = len(run.failures)
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corpus",
        choices=("full", "smoke"),
        default="full",
        help="smoke: a few small operations and one CLI run per pass, for testing the benchmark",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fsig" / "__init__.py").is_file():
        print(f"error: {SRC / 'fsig'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and the fsig subprocesses it starts, so that
    # the reference kernel samples the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    meter = SpeedMeter()
    fs, corpus, setup_times = setup(args, meter)
    run = Run(corpus, meter, (CLI_MIN_REPS, CLI_SECONDS) if args.corpus == "full" else (1, 0.0))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops/pass {len(corpus.ops)}")
    if args.trace:
        metrics = measure_traced(args, run, fs)
    else:
        metrics = measure(args, run, setup_times)
    for line in run.failures[:20]:
        print(f"FAIL {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = result_line(run, metrics)
    print(f"fail_ratio {result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
