"""Tests of the benchmark itself.

    python3 -m pytest benchmark -q        (from the repository root)

They run every workload at the smoke size (2-D cutoff 2, a few members and
steps), so they take well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_declared_metrics_and_tracing_changes_no_bits(workload):
    details = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = run_bench(workload, trace)
        assert done.returncode == 0, done.stderr
        *_, detail_line, result_line = done.stdout.splitlines()
        result = json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        details[trace] = json.loads(detail_line)
    assert details[1]["samples"]["trace.span_coverage"]["median"] >= 0.9
    # one checksum across untraced runs, traced runs and both modes
    assert len(details[1]["final_state_sha256"]) == 1
    assert details[0]["final_state_sha256"] == details[1]["final_state_sha256"]


def test_broken_expected_value_makes_ops_failed_frac_positive(tmp_path, monkeypatch):
    import worker

    texts = workloads.stage_configs("sweep-diag-2d", 5, smoke=True)
    cfg = worker.config.parse_config(next(iter(texts.values())))
    system = cfg.build_system(cfg.build_basis())
    out, caught = workloads.run_recorded(worker.SF, "sweep-diag-2d", cfg, texts, system,
                                         tmp_path)
    checks = workloads.check_outputs(worker.SF, out, caught)
    assert checks.failed == 0 and checks.attempted > 0

    label, written, read = out.roundtrips[0]
    states = written["states"].copy()
    states[-1, 0] = np.nextafter(states[-1, 0], np.inf)
    out.roundtrips[0] = (label, {**written, "states": states}, read)
    checks = workloads.check_outputs(worker.SF, out, caught)
    assert checks.failed == 1  # ops_failed_frac = 1 / attempted > 0
    assert [r["check"] for r in checks.records if not r["pass"]] == [f"roundtrip.{label}"]

    monkeypatch.setattr(workloads, "CONSERVATION_TOL", -1.0)
    checks = workloads.check_outputs(worker.SF, out, caught)
    assert checks.failed > 1


def test_same_seed_gives_same_configs_and_another_seed_does_not():
    for name in workloads.WORKLOADS:
        assert workloads.stage_configs(name, 3) == workloads.stage_configs(name, 3)
        assert workloads.stage_configs(name, 3) != workloads.stage_configs(name, 4)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("struct3d-evgap", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
