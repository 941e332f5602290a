"""The CI bench-regression gate (benchmarks/check_regression.py)."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SCRIPT = REPO / "benchmarks" / "check_regression.py"


def run_gate(tmp_path, records, baselines=None):
    results = tmp_path / "bench-results.jsonl"
    results.write_text("\n".join(json.dumps(record) for record in records) + "\n")
    command = [sys.executable, str(SCRIPT), str(results)]
    if baselines is not None:
        path = tmp_path / "baselines.json"
        path.write_text(json.dumps(baselines))
        command += ["--baselines", str(path)]
    return subprocess.run(command, capture_output=True, text=True)


BASELINES = {
    "tolerance": 0.5,
    "benchmarks": {
        "demo": {
            "flags": ["parity"],
            "floors": {"speedup": 4.0},
            "equals": {"scalar_evals": 0},
        }
    },
}


def good_record(**overrides):
    row = {"parity": True, "speedup": 6.0, "scalar_evals": 0}
    row.update(overrides)
    return {"benchmark": "demo", "rows": [row], "wall_time": 1.0}


def test_passes_on_healthy_records(tmp_path):
    outcome = run_gate(tmp_path, [good_record()], BASELINES)
    assert outcome.returncode == 0, outcome.stderr
    assert "no bench regressions" in outcome.stdout


def test_tolerance_absorbs_timing_noise(tmp_path):
    # floor 4.0 with tolerance 0.5 means 2.0 still passes, 1.9 fails
    assert run_gate(tmp_path, [good_record(speedup=2.0)], BASELINES).returncode == 0
    outcome = run_gate(tmp_path, [good_record(speedup=1.9)], BASELINES)
    assert outcome.returncode == 1
    assert "below floor" in outcome.stderr


def test_parity_flag_regression_fails_without_tolerance(tmp_path):
    outcome = run_gate(tmp_path, [good_record(parity=False)], BASELINES)
    assert outcome.returncode == 1
    assert "parity regression" in outcome.stderr


def test_stringified_flags_are_understood(tmp_path):
    # record_result serialises with default=str, so flags may arrive as text
    assert run_gate(tmp_path, [good_record(parity="True")], BASELINES).returncode == 0
    assert run_gate(tmp_path, [good_record(parity="False")], BASELINES).returncode == 1


def test_exact_work_counter_mismatch_fails(tmp_path):
    outcome = run_gate(tmp_path, [good_record(scalar_evals=3)], BASELINES)
    assert outcome.returncode == 1
    assert "baseline requires 0" in outcome.stderr


def test_missing_baselined_benchmark_fails(tmp_path):
    other = {"benchmark": "other", "rows": [{"x": 1}], "wall_time": 1.0}
    outcome = run_gate(tmp_path, [other], BASELINES)
    assert outcome.returncode == 1
    assert "no recorded rows" in outcome.stderr


def test_unbaselined_benchmark_is_reported_but_passes(tmp_path):
    records = [good_record(), {"benchmark": "new-bench", "rows": [{"x": 1}], "wall_time": 1.0}]
    outcome = run_gate(tmp_path, records, BASELINES)
    assert outcome.returncode == 0
    assert "new-bench" in outcome.stdout


def test_committed_baselines_accept_a_real_smoke_run(tmp_path):
    # the committed floors must pass records shaped like the CI smoke runs
    records = [
        {
            "benchmark": "engine_parity",
            "rows": [{"parity": True, "speedup": 8.0, "engine_scalar_evals": 0}],
            "wall_time": 1.0,
        },
        {
            "benchmark": "empirical_kernel",
            "rows": [{"parity": True, "speedup": 6.0, "fast_scalar_evals": 0}],
            "wall_time": 1.0,
        },
        {
            "benchmark": "merge_kernel",
            "rows": [
                {
                    "parity": True,
                    "streaming_parity": True,
                    "midstream_parity": True,
                    "speedup": 20.0,
                    "pruned_fraction": 0.2,
                }
            ],
            "wall_time": 1.0,
        },
        {
            "benchmark": "tree_merge",
            "rows": [
                {
                    "parity": True,
                    "counter_parity": True,
                    "attribution_parity": True,
                    "pruned_fraction": 0.75,
                }
            ],
            "wall_time": 1.0,
        },
        {
            "benchmark": "bench_cluster_shard_scaling",
            "rows": [
                {"shards": shards, "scaling_2_to_1": 0.8, "scaling_4_to_1": 0.56}
                for shards in (1, 2, 4)
            ],
            "wall_time": 1.0,
        },
        {
            "benchmark": "runtime_procs",
            "rows": [
                {
                    "parity_serial": True,
                    "parity_wide": True,
                    "scaling_1_to_n": 0.66,
                    "procs_x1_msgs_per_s": 1500.0,
                }
            ],
            "wall_time": 1.0,
        },
        {
            "benchmark": "recovery",
            "rows": [
                {
                    "parity_clean": True,
                    "parity_recovered": True,
                    "worker_restarts": 1,
                    "lost_shards": 0,
                    "recovery_efficiency": 0.3,
                }
            ],
            "wall_time": 1.0,
        },
    ]
    outcome = run_gate(tmp_path, records)  # default committed baselines.json
    assert outcome.returncode == 0, outcome.stderr + outcome.stdout
