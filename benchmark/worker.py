"""One repetition of one workload, in a fresh process.

    python3 benchmark/worker.py <workload> <seed> <trace 0|1> <smoke 0|1>

Prints one JSON object: the end-to-end quantities of this repetition, the
output checks, a SHA-256 of the final states and an environment record; with
tracing on, also the per-layer metrics and a per-span table.  `run.py`
starts one of these per repetition, because allocator state left by earlier
work changes later timings within a process.
"""

from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()

import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import stochflow  # noqa: E402
from stochflow import diagnostics, ensemble, experiments, noise, sde  # noqa: E402
from stochflow.io_cli import config, storage  # noqa: E402

IMPORT_S = time.perf_counter() - _T_IMPORT

import spans  # noqa: E402
import workloads  # noqa: E402

SF = SimpleNamespace(config=config, diagnostics=diagnostics, ensemble=ensemble,
                     experiments=experiments, noise=noise, sde=sde, storage=storage)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    """What the timings depend on besides the code; recorded, never changed."""
    return {
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "stochflow": stochflow.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("OPENBLAS_", "OMP_", "MALLOC_"))},
    }


def _sum_attr(chosen, key) -> float:
    return sum(s.attrs.get(key, 0) for s in chosen)


def layer_metrics(tr: spans.Tracer, t0: float, t1: float, outdir_bytes: int) -> dict:
    """Per-layer metrics from the spans of the timed region."""
    apply = tr.named("basis.ConvectionTensor.apply")
    entries = _sum_attr(apply, "entries")
    apply_bytes = _sum_attr(apply, "bytes")
    own = dict(zip(map(id, tr.spans), tr.self_times()))
    caches = tr.named("basis.BasisSpec.mode_values") + tr.named("basis.BasisSpec.mode_gradients")
    grids = tr.named("diagnostics.velocity_gradient") + tr.named("basis.evaluate_field")
    samples = _sum_attr(grids, "samples")
    batches = tr.named("sde.integrate_batch")
    m = {
        "basis.convection_tensor_s": tr.total("basis.convection_tensor"),
        "basis.nnz": max((s.attrs["nnz"] for s in tr.named("basis.convection_tensor")),
                         default=0),
        "basis.apply_ns_per_member_entry":
            1e9 * tr.total("basis.ConvectionTensor.apply") / entries if entries else 0.0,
        "basis.apply_bytes_computed": apply_bytes,
        "basis.apply_flops_per_byte": _sum_attr(apply, "flops") / apply_bytes
        if apply_bytes else 0.0,
        "basis.mode_cache_build_s": sum(s.duration for s in caches if s.attrs["miss"]),
        "basis.grid_transform_ms_per_sample":
            1e3 * sum(own[id(s)] for s in grids) / samples if samples else 0.0,
        "noise.build_noise_s": tr.total("noise.build_noise"),
        "sde.batch_increments_s": tr.total("sde.batch_increments"),
        "sde.integrate_batch_s": tr.total("sde.integrate_batch"),
        "sde.member_steps": sum(s.attrs["members"] * s.attrs["steps"] for s in batches),
        "ensemble.run_ensemble_s": tr.total("ensemble.run_ensemble"),
        "ensemble.chunks": sum(1 for s in batches
                               if s.parent >= 0
                               and tr.spans[s.parent].name == "ensemble.run_ensemble"),
        "ensemble.peak_alloc_mb": tr.peak_alloc / 2 ** 20,
        "diagnostics.gap_battery_s": tr.total("diagnostics.make_test_processes",
                                              "diagnostics.energy_variational_gap"),
        "diagnostics.gap_evals": len(tr.named("diagnostics.energy_variational_gap")),
        "diagnostics.weak_residual_s": tr.total("diagnostics.dissipative_weak_residual"),
        "diagnostics.defect_s": tr.total("diagnostics.reynolds_defect"),
        "experiments.viscosity_sweep_s": tr.total("experiments.viscosity_sweep"),
        "io_cli.parse_config_s": tr.total("io_cli.config.parse_config"),
        "io_cli.save_s": tr.total("io_cli.storage.save_ensemble",
                                  "io_cli.storage.save_trajectory"),
        "io_cli.load_s": tr.total("io_cli.storage.load_trajectory",
                                  "io_cli.storage.load_container"),
        "io_cli.bytes_written": outdir_bytes,
        "io_cli.bytes_read": _sum_attr(tr.named("io_cli.storage.load_container"), "bytes"),
        "trace.span_coverage": tr.covered(t0, t1),
    }
    for scheme in sde.SCHEMES:
        for kind, pick in (("batch", lambda s: s.attrs["members"] > 1),
                           ("single", lambda s: s.attrs["members"] == 1)):
            chosen = [s for s in batches if s.attrs["scheme"] == scheme and pick(s)]
            steps = sum(s.attrs["members"] * s.attrs["steps"] for s in chosen)
            m[f"sde.step_us_per_member.{scheme}.{kind}"] = (
                1e6 * sum(s.duration for s in chosen) / steps if steps else 0.0)
    return m


def kernel_table(tr: spans.Tracer) -> dict:
    """`ConvectionTensor.apply` counters per batch size (rows = members x times)."""
    rows: dict[int, dict] = {}
    for s in tr.named("basis.ConvectionTensor.apply"):
        row = rows.setdefault(s.attrs["rows"], {"calls": 0, "seconds": 0.0, "flops": 0, "bytes": 0})
        row["calls"] += 1
        row["seconds"] += s.duration
        row["flops"] += s.attrs["flops"]
        row["bytes"] += s.attrs["bytes"]
    return {str(k): v for k, v in sorted(rows.items())}


def run_rep(name: str, seed: int, trace: bool, smoke: bool) -> dict:
    texts = workloads.stage_configs(name, seed, smoke)
    first = next(iter(texts.values()))
    hashes = {stage: config.parse_config(text).hash() for stage, text in texts.items()}
    tr = spans.Tracer(track_alloc=trace)
    tr.install(spans.LAYERS if trace else spans.INTEGRATION)
    outdir = ROOT / workloads.OUT_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    try:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        cfg = config.parse_config(first)
        system = cfg.build_system(cfg.build_basis())
        t_setup = time.perf_counter()
        out, caught = workloads.run_recorded(SF, name, cfg, texts, system, outdir)
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        n_spans = len(tr.spans)
        written = sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())

        workloads.load_roundtrips(SF, out)
        checks = workloads.check_outputs(SF, out, caught)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            outdir.parent.rmdir()  # only succeeds once no other worker is using it

    del tr.spans[n_spans:]
    integration = tr.outermost({"ensemble.run_ensemble", "sde.integrate"})
    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "configs": hashes,
        "setup_s": t_setup - t0,
        "wall_s": t1 - t0,
        "member_steps": sum(s.attrs["member_steps"] for s in integration),
        "integration_s": sum(s.duration for s in integration),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "proc.import_s": IMPORT_S,
        "proc.minflt": ru1.ru_minflt - ru0.ru_minflt,
        "proc.cpu_user_s": ru1.ru_utime - ru0.ru_utime,
        "proc.cpu_sys_s": ru1.ru_stime - ru0.ru_stime,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_checks": [r for r in checks.records if not r["pass"]],
        "sha256": workloads.final_state_sha256(out),
        "info": out.info,
        "environment": environment(),
    }
    if trace:
        result["layers"] = layer_metrics(tr, t0, t1, written)
        result["spans"] = tr.table()
        result["kernel"] = kernel_table(tr)
    return result


def main(argv: list[str]) -> int:
    name, seed, trace, smoke = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    if name not in workloads.WORKLOADS:
        print(f"unknown workload {name!r}", file=sys.stderr)
        return 2
    print(json.dumps(run_rep(name, seed, trace, smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
