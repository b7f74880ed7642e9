"""Smoke tests of the benchmark at its tiny scale.

Each run happens in a copy of the checkout under pytest's temporary
directory, so corrupting a reference never touches the real one.
Run from the root of the repository: python3 -m pytest perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.DEFAULT_SEED
PER_LAYER_UNITS = {name: unit for name, unit, _ in tracer.PER_LAYER}


def make_checkout(dst: Path, with_src: bool = True) -> Path:
    skip = shutil.ignore_patterns("__pycache__", "tests")
    shutil.copytree(BENCH, dst / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    if with_src:
        shutil.copytree(ROOT / "src", dst / "src", ignore=skip)
    return dst


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    return make_checkout(tmp_path_factory.mktemp("bench"))


def test_benchmark_json_lists_the_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    # gf2_n10k is runnable but not listed; see workloads.py
    assert [w["name"] for w in spec["workloads"]] == ["campaign_n500", "gf3_audit"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.PARAMS))
def test_every_metric_is_printed_with_its_unit(checkout, workload, trace):
    p = run_bench(checkout, workload, trace)
    assert p.returncode == 0, p.stdout + p.stderr
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER_UNITS if trace else bench_run.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith("failed_frac = 0 ratio") for line in lines)


@pytest.mark.parametrize("workload, corrupt", [
    ("campaign_n500", lambda ref: ref["trial_digests"].__setitem__(3, "0" * 16)),
    ("gf2_n10k", lambda ref: ref["trial_digests"].__setitem__(0, "0" * 16)),
    ("gf3_audit", lambda ref: ref["result"].__setitem__("fraction", 0.5)),
])
def test_a_corrupted_reference_fails_the_run(tmp_path, workload, corrupt):
    root = make_checkout(tmp_path)
    refs_path = root / "perfbench" / "refs.json"
    refs = json.loads(refs_path.read_text(encoding="utf-8"))
    corrupt(refs["units"][f"{workload}/tiny/{SEED}"])
    refs_path.write_text(json.dumps(refs), encoding="utf-8")
    p = run_bench(root, workload, 0)
    assert p.returncode != 0
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert "CHECK FAILED" in p.stdout


def test_without_fflab_sources_the_run_fails_and_prints_no_result(tmp_path):
    root = make_checkout(tmp_path, with_src=False)
    p = run_bench(root, "gf3_audit", 0)
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def test_wall_time_is_shared_between_parallel_spans():
    # a dispatch span of 10 s in pid 1 whose two workers are busy from 2 s to 8 s
    spans = [((1, 1), None, "harness._pool_map", 0, 10_000_000_000, None),
             ((2, 1), (1, 1), "gf2.gf2_rank_nullspace", 2_000_000_000, 8_000_000_000, 1),
             ((3, 1), (1, 1), "models.sample", 2_000_000_000, 8_000_000_000, None)]
    by_layer, covered = tracer.attribute(spans)
    assert covered == pytest.approx(10.0)
    assert by_layer == pytest.approx({"harness": 4.0, "gf2": 3.0, "models": 3.0})


def test_times_scale_by_the_host_speed_and_the_rest_stays_as_measured():
    raw = {"units": [{"wall_s": 3.0, "loop_s": 2.0, "trials": 2000},
                     {"wall_s": 5.0, "loop_s": 4.0, "trials": 2000}],
           "host_speed_samples_s": [hostspeed.REFERENCE_S[2] * 2] * 3,
           "params": {"workers": 2}, "rss_kb": 2048}
    as_measured = bench_run.end_to_end(raw, [1.0, 1.5, 9.0], scaled=False)
    assert as_measured == {"wall_s": 4.0, "trials_per_s": 750.0, "setup_s": 1.5,
                           "peak_rss_mb": 2.0}
    # a host running at half the reference speed: unit times halve
    scaled = bench_run.end_to_end(raw, [1.0, 1.5, 9.0], scaled=True)
    assert scaled == pytest.approx({"wall_s": 2.0, "trials_per_s": 1500.0, "setup_s": 1.5,
                                    "peak_rss_mb": 2.0})
    probe = hostspeed.Probe(2)
    try:
        assert probe.sample() > 0
    finally:
        probe.close()
