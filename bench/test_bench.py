"""Tests of the benchmark itself, on the smoke corpus.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import importlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fsig_modules():
    return SimpleNamespace(**{m: importlib.import_module(f"fsig.{m}") for m in run.FSIG_MODULES})


# Every workload untraced; counting, which runs every layer but the volume, traced.
SMOKE_JOBS = [(w, 0) for w in workloads.WORKLOADS] + [("counting", 1)]


@pytest.fixture(scope="module")
def smoke_runs():
    results = {}
    for workload, trace in SMOKE_JOBS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seconds", "0",
             "--trace", str(trace), "--corpus", "smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        results[(workload, trace)] = (proc.returncode, proc.stdout, proc.stderr)
    return results


@pytest.mark.parametrize("workload,trace", SMOKE_JOBS)
def test_smoke_run_prints_every_metric(smoke_runs, workload, trace):
    code, out, err = smoke_runs[(workload, trace)]
    assert code == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_planted_wrong_expected_value_is_a_failure():
    corpus = workloads.build("sig-families", fsig_modules(), workloads.DEFAULT_SEED, "smoke")
    corpus.ops[0].expected = Fraction(1, 7)
    bench_run = run.Run(corpus, SpeedMeter())
    bench_run.run_pass()
    result = run.result_line(bench_run, {})
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["failed"] / result["attempted"] > 0


def test_failed_untimed_check_is_a_failure():
    corpus = workloads.build("sig-random", fsig_modules(), 7, "smoke")
    corpus.ops[0].verify = lambda result: "planted"
    bench_run = run.Run(corpus, SpeedMeter())
    bench_run.run_pass()
    bench_run.run_pass()
    assert bench_run.failures == [f"{corpus.ops[0].name}: planted"] * 2


def test_sig_random_default_seed_matches_golden_prefix():
    corpus = workloads.build("sig-random", fsig_modules(), workloads.DEFAULT_SEED, "smoke")
    assert all(op.expected is not None for op in corpus.ops)
    other = workloads.build("sig-random", fsig_modules(), 1, "smoke")
    assert all(op.expected is None and op.verify is not None for op in other.ops)


def test_missing_kernel_reads_as_absent(monkeypatch):
    fs = fsig_modules()
    monkeypatch.delattr(fs.exact, "rational_determinant")
    tracer = Tracer()
    with tracer:
        value = fs.signature.f_signature(fs.families.veronese_generators(2, 2)).value
    assert value == Fraction(1, 2)
    metrics = tracer.layer_metrics(1)
    assert "exact.rational_determinant_calls" not in metrics
    assert metrics["exact.matrix_rank_calls"][0] > 0
    assert metrics["signature.volume_s"][0] > 0


def test_tracer_restores_the_library():
    fs = fsig_modules()
    before = (fs.signature.polytope_volume, fs.cone.matrix_rank, fs.frobenius.MonomialIdeal.minimal_generators)
    with Tracer():
        assert fs.signature.polytope_volume is not before[0]
    assert (fs.signature.polytope_volume, fs.cone.matrix_rank, fs.frobenius.MonomialIdeal.minimal_generators) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "counting", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
