"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def test_self_time_of_a_synthetic_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.5, 4.0, 6.0, 9.0, 10.0])
    tr = spans.Tracer(clock=lambda: next(ticks))
    root = tr.open("root")
    a = tr.open("a")
    leaf = tr.open("leaf")
    tr.close(leaf)
    tr.close(a)
    b = tr.open("b")
    tr.close(b)
    tr.close(root)
    assert tr.parents == [-1, 0, 1, 0]
    # root [0,10] minus a [1,4] and b [6,9]; a [1,4] minus leaf [2,3.5]
    assert spans.self_times(tr) == pytest.approx([4.0, 1.5, 1.5, 3.0])
    assert tr.self_time("root") == pytest.approx(4.0)
    assert tr.total("a") == pytest.approx(3.0)


def test_self_time_merges_overlapping_and_clips_stray_children():
    tr = spans.Tracer()
    tr.names = ["p", "c1", "c2", "c3"]
    tr.starts = [0.0, 1.0, 2.0, 9.0]
    tr.ends = [10.0, 3.0, 5.0, 12.0]
    tr.parents = [-1, 0, 0, 0]
    # children cover [1,5] and [9,10] of the parent
    assert spans.self_times(tr)[0] == pytest.approx(5.0)


def _record(outcome):
    return {"problems": outcome.problems, "digests": outcome.digests}


def test_an_altered_artifact_fails_its_operation(tmp_path, monkeypatch):
    seed = 5
    clean = workloads.experiment_diameter(
        workloads.Context(seed, tmp_path / "clean", smoke=True))
    assert not any(clean.problems.values())

    real = workloads.harness.run_experiment

    def tampered(spec):
        index = real(spec)
        path = Path(spec.out_dir) / f"tree_seed{seed}.json"
        path.write_text(path.read_text().replace('"max_degree": ', '"max_degree": 1'))
        return index

    monkeypatch.setattr(workloads.harness, "run_experiment", tampered)
    bad = workloads.experiment_diameter(
        workloads.Context(seed, tmp_path / "bad", smoke=True))

    attempted, failed, reasons = run.score([_record(clean), _record(bad)], None)
    assert attempted == 2 * len(clean.problems)
    assert failed == 1
    assert f"write:tree_seed{seed}.json" in reasons[0]
    reference = {name: sha for name, (_, sha) in clean.digests.items()}
    assert run.score([_record(bad)], reference)[1] == 1
    assert run.score([_record(clean)], reference)[1] == 0


def test_timings_are_scaled_to_the_reference_speed():
    # a CPU twice as slow as the reference: timings halve, the rest stays
    slow = 2 * run.CALIBRATION_REF_S
    it = {"calibration_s": [slow] * 9 + [100.0], "grow_s": 3.0, "setup_s": 0.8,
          "peak_rss_mb": 90.0}
    assert run.at_reference_speed(it, "grow_s") == pytest.approx(1.5)
    assert run.at_reference_speed(it, "setup_s") == 0.8
    assert run.at_reference_speed(it, "peak_rss_mb") == 90.0
    assert len(run.calibrate_s()) == run.CALIBRATION_PIECES


def test_a_crashed_iteration_counts_as_a_failure():
    assert run.score([{"error": "boom"}], None) == (1, 1, ["iteration 0: boom"])


def test_declared_names_are_well_formed_and_mapped():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    layers = json.loads((HERE / "layers.json").read_text())
    assert set(layers) == {m["name"] for m in bench["per_layer"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    for name, entry in layers.items():
        assert entry["moves"] in e2e, name
        assert set(entry["on"]) <= set(run.WORKLOADS), name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - t0 < 60
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.declared()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME.match(name)
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "narrow-write-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
