"""Command-line surface: simulate, ensemble, diagnose, sweep, verify.

All commands exit 0 only if every requested check passed; failures are
reported as NDJSON records on stdout so runs can be audited mechanically.
Every artifact written embeds the config hash, and `diagnose` refuses to mix
data across configurations.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from ..diagnostics import energy_residual, gap_battery
from ..ensemble import run_ensemble
from ..experiments import viscosity_sweep
from ..sde import BrownianPath, integrate
from .config import ConfigError, DEFAULTS, RunConfig, emit_config, parse_config
from .storage import (HashMismatchError, StorageError, _write_atomic, load_trajectory,
                      save_ensemble, save_trajectory)
from .verify import run_battery

ENV_SEED = "STOCHFLOW_SEED"
ENV_OUT = "STOCHFLOW_OUT"


def _plain(obj):
    # numpy values as Python ones, and non-finite floats as None, which strict
    # JSON has no token for
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(val) for val in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit(record: dict):
    sys.stdout.write(json.dumps(_plain(record), allow_nan=False) + "\n")


def _load_config(args) -> RunConfig:
    """The config with the seed and output overrides applied, validated with them."""
    text = Path(args.config).read_text() if args.config else json.dumps(DEFAULTS)
    cfg = parse_config(text)
    if args.seed is not None:
        cfg.data["ensemble"]["base_seed"] = args.seed
    if args.out is not None:
        cfg.data["output_dir"] = args.out
    return parse_config(cfg.canonical())


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    system = cfg.build_system()
    sampler = cfg.initial_sampler(system.basis)
    seeds = np.array([cfg["ensemble"]["base_seed"]], dtype=np.uint64)
    a0 = sampler(seeds, system.basis)[0]
    path = BrownianPath.generate(cfg["ensemble"]["base_seed"], cfg["dt"],
                                 cfg.n_steps, system.n_brownian)
    traj = integrate(system, a0, path, scheme=cfg["scheme"],
                     store_every=cfg["ensemble"]["store_every"])
    out = _outdir(cfg) / "trajectory.bin"
    save_trajectory(out, traj, cfg.hash())
    _emit({"written": str(out), "config_hash": cfg.hash(),
           "n_saved": int(traj.times.size),
           "blowup_time": traj.blowup_time})
    return 0 if traj.blowup_time is None else 3


def cmd_ensemble(args) -> int:
    cfg = _load_config(args)
    system = cfg.build_system()
    sampler = cfg.initial_sampler(system.basis)
    ens_cfg = cfg["ensemble"]
    probe = ens_cfg["probe_times"]
    ens = run_ensemble(
        system, sampler, ens_cfg["members"], ens_cfg["base_seed"],
        cfg["dt"], cfg.n_steps, scheme=cfg["scheme"],
        store_every=ens_cfg["store_every"],
        probe_times=tuple(probe) if probe else None,
        threads=args.threads or 1,
    )
    paths = save_ensemble(_outdir(cfg) / "ensemble", ens, cfg.hash())
    _emit({"written": [str(p) for p in paths.values()],
           "config_hash": cfg.hash(), "members": ens.n_members,
           "blowups": int(np.sum(ens.blowup_step >= 0))})
    return 0


def cmd_diagnose(args) -> int:
    cfg = _load_config(args)
    try:
        traj, stored_hash = load_trajectory(args.data, expect_hash=cfg.hash())
    except HashMismatchError as exc:
        _emit({"error": "config hash mismatch", "file_hash": exc.found,
               "config_hash": exc.expected})
        return 2
    except StorageError as exc:
        _emit({"error": str(exc)})
        return 2
    system = cfg.build_system()
    failures = 0
    t_final = float(traj.times[-1])
    tol = 10.0 * np.sqrt(traj.dt)
    for check in cfg["diagnostics"]:
        if check == "energy_residual":
            value = energy_residual(traj, system, 0.0, t_final)
            ok = abs(value) <= tol
            _emit({"check": check, "interval": [0.0, t_final], "value": value,
                   "tolerance": tol, "pass": ok})
            failures += not ok
        elif check == "gap_battery":
            for label, value in gap_battery(traj, system, cfg["ensemble"]["base_seed"]):
                ok = value <= tol
                _emit({"check": f"gap[{label}]", "value": value, "tolerance": tol, "pass": ok})
                failures += not ok
        else:  # a requested check that did not run has not passed
            _emit({"check": check, "skipped": "needs ensemble data", "pass": False})
            failures += 1
    return 0 if failures == 0 else 2


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if cfg["sweep"] is None:
        _emit({"error": "config has no sweep section"})
        return 1
    system = cfg.build_system()
    report = viscosity_sweep(cfg.sweep_plan(), system, cfg.initial_sampler(system.basis))
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["parameter", "statistic", "value", "stderr"])
    for point in report["points"]:
        mom = point["moment"]
        _emit({"config_hash": cfg.hash(), **{k: v for k, v in point.items() if k != "moment"},
               "sup_moment": mom["sup_moment"], "sup_moment_stderr": mom["sup_moment_stderr"]})
        writer.writerows((point["nu"], stat, value, se) for stat, value, se in (
            ("sup_moment", mom["sup_moment"], mom["sup_moment_stderr"]),
            ("viscous_functional", point["viscous_functional"], 0.0),
            ("weighted_viscous", point["weighted_viscous"], 0.0),
            ("residual_mean", point["residual_mean"], point["residual_stderr"])))
    _emit({"config_hash": cfg.hash(),
           "weighted_exponent": report["weighted_exponent"],
           "sup_moment_uniformity": report["sup_moment_uniformity"],
           "cauchy_differences": report["cauchy_differences"],
           "euler_gaps_smallest_nu": report["euler_gaps_smallest_nu"]})
    _write_atomic(_outdir(cfg) / "sweep.csv", lambda fh: fh.write(text.getvalue().encode()))
    return 0


def cmd_verify(args) -> int:
    results = run_battery()
    failures = 0
    for res in results:
        _emit(res.record())
        failures += not res.passed
    _emit({"checks": len(results), "failures": failures})
    return 0 if failures == 0 else 2


def cmd_emit(args) -> int:
    cfg = _load_config(args)
    sys.stdout.write(emit_config(cfg) + "\n")
    return 0


def _thread_count(text: str) -> int:
    """--threads: a count of worker threads, 0 meaning auto."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected 0 (auto) or a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochflow",
        description="Stochastic spectral Galerkin solver for incompressible "
                    "Navier-Stokes/Euler with additive and transport noise",
    )
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--seed", type=int, default=os.environ.get(ENV_SEED),
                        help=f"override the base seed (or set {ENV_SEED})")
    parser.add_argument("--out", default=os.environ.get(ENV_OUT),
                        help=f"override the output directory (or set {ENV_OUT})")
    parser.add_argument("--threads", type=_thread_count, default=0,
                        help="worker threads for ensemble chunks, 0 = auto; they start only "
                             "when the 256 MiB chunk budget gives more than one chunk")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="integrate one trajectory").set_defaults(fn=cmd_simulate)
    sub.add_parser("ensemble", help="run a Monte-Carlo ensemble").set_defaults(fn=cmd_ensemble)
    diag = sub.add_parser("diagnose", help="run diagnostics on stored data")
    diag.add_argument("--data", required=True, help="trajectory container to check")
    diag.set_defaults(fn=cmd_diagnose)
    sub.add_parser("sweep", help="viscosity sweep experiment").set_defaults(fn=cmd_sweep)
    sub.add_parser("verify", help="run the invariant battery").set_defaults(fn=cmd_verify)
    sub.add_parser("emit-config", help="print the canonical config").set_defaults(fn=cmd_emit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads == 0:
        args.threads = min(4, os.cpu_count() or 1)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for err in exc.errors:
            _emit({"config_error": err})
        return 1


if __name__ == "__main__":
    sys.exit(main())
