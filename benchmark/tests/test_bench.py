"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest benchmark/tests -q
They use the workloads' tiny variants, so the whole file takes seconds.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from ops import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_checks_every_output(workload):
    result, detail = run.run(workload, seed=3, seconds=0, trace=False, tiny=True)
    assert result["correct"]
    assert result["attempted"] == detail["ops_per_batch"] * detail["timed_batches"] >= 1
    assert all(f["known_defect"] for f in detail["failures"])
    assert result["failed"] == sum(f["count"] for f in detail["failures"])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(workload):
    plain, _ = run.run(workload, seed=4, seconds=0, trace=False, tiny=True)
    traced, detail = run.run(workload, seed=4, seconds=0, trace=True, tiny=True)
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == units(section)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert Path(detail["spans_file"]).is_file()
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def test_a_corrupted_result_counts_as_a_failure(monkeypatch):
    real = run.fresh_import

    def corrupted():
        R = real()
        R.rinv = lambda a: a  # wrong for every element that is not an involution
        return R

    monkeypatch.setattr(run, "fresh_import", corrupted)
    result, detail = run.run("series_group", seed=5, seconds=0, trace=False, tiny=True)
    wrong = [f for f in detail["failures"] if f["op"].startswith("rinv")]
    assert wrong and all(f["reason"] == "wrong answer" and not f["known_defect"] for f in wrong)
    assert not result["correct"]
    assert result["metrics"]["error_rate"]["value"] > 0
    assert result["attempted"] == detail["ops_per_batch"]  # the run went on to the end


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_spans_never_outlast_their_operation(workload):
    module = run.WORKLOADS[workload]
    tracer = Tracer()
    ops = module.build(run.fresh_import(), tracer, module.generate(random.Random(6), tiny=True))
    batch = run.Batch(ops, tracer, tracer)
    inside = [s for s in batch.spans if s[3] != "setup"]
    assert inside
    for name, start, end, op_id in inside:
        assert 0 <= end - start <= batch.latencies[op_id], name


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_inputs_depend_on_the_seed_alone(workload):
    module = run.WORKLOADS[workload]

    def digest(seed):
        return run.inputs_digest(module.generate(random.Random(f"{workload}/{seed}")))

    assert digest(11) == digest(11)
    assert digest(11) != digest(12)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "series_group", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
