"""The benchmark's workloads: configs made from a seed, the runs, the output checks.

A workload is a list of stages, each a `RunConfig` JSON document that the
matching CLI command (`ensemble`, `sweep`, `simulate` + `diagnose`) would
accept.  All stages of one workload share basis, noise, viscosity and initial
law, so the system is set up once, from the first stage.  The stages call the
same public functions the CLI does, in the same order.

Why these three:

* `ens2d-wide` -- the `stochflow ensemble` path at M=1024.  The (M, nnz)
  gather in `ConvectionTensor.apply` and the Heun step dominate; any kernel,
  layout or step change shows here, an assembly change barely does.
* `sweep-diag-2d` -- `sweep` + `simulate` + `diagnose` on the same system:
  narrow batches (M=64, M=1), full-resolution regeneration for the weak
  residual, and container writes beside reads.  A change that speeds wide
  batches but slows narrow ones or full-resolution paths shows here.
* `struct3d-evgap` -- 3-D, where set-up and the 3-D grid transforms of the
  relaxed gap battery (`neg_sup_series`) dominate and the time loop is small.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("ens2d-wide", "sweep-diag-2d", "struct3d-evgap")

# Stage sizes.  `steps` are integration steps; `probes` are step indices.
SIZES = {
    "ens2d-wide": {
        "dim": 2, "cutoff": 4, "nu": 0.05,
        "stages": {
            "ensemble": {"scheme": "heun", "dt": 2e-3, "steps": 12, "members": 1024,
                         "store_every": 4, "probes": (0, 4, 12)},
        },
    },
    "sweep-diag-2d": {
        "dim": 2, "cutoff": 4, "nu": 0.05,
        "stages": {
            "sweep": {"scheme": "euler_maruyama", "dt": 2e-3, "steps": 50, "members": 64,
                      "store_every": 10, "nus": (0.1, 0.05, 0.025)},
            "ensemble": {"scheme": "euler_maruyama", "dt": 2e-3, "steps": 25, "members": 64,
                         "store_every": 1},
            "simulate": {"scheme": "heun", "dt": 1e-3, "steps": 500, "members": 1,
                         "store_every": 1},
        },
    },
    "struct3d-evgap": {
        "dim": 3, "cutoff": 1, "nu": 0.05,
        "stages": {
            "ensemble": {"scheme": "euler_maruyama", "dt": 2e-3, "steps": 150, "members": 32,
                         "store_every": 10},
            "simulate": {"scheme": "euler_maruyama", "dt": 2e-3, "steps": 100, "members": 1,
                         "store_every": 1},
        },
    },
}

# Noise supports: additive noise on Brownian mode 0, one transport field on mode 1.
LABELS = {
    2: {"additive": ("0,1:cos", "1,1:sin"), "transport": ("1,0:cos", "0,1:sin")},
    3: {"additive": ("0,0,1:p0:cos", "1,1,0:p1:sin"),
        "transport": ("0,1,0:p0:cos", "1,0,1:p0:sin")},
}

OUT_DIR = ".benchmark_out"
GAPS = 10                # test processes in a gap battery
MOMENT_P = 4.0


def diagnose_tol(dt: float) -> float:
    """The tolerance `stochflow diagnose` applies to gaps and energy residuals."""
    return 10.0 * math.sqrt(dt)
def _smoke(stage: dict) -> dict:
    """The same stage at a size that runs in well under a second."""
    small = {**stage, "members": min(stage["members"], 8), "steps": 20}
    if "probes" in stage:
        small["probes"] = (0, 4, 20)
    return small


def stage_configs(name: str, seed: int, smoke: bool = False) -> dict[str, str]:
    """Config JSON per stage; the same (name, seed, smoke) gives the same text."""
    spec = SIZES[name]
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    dim, cutoff = (2, 2) if smoke else (spec["dim"], spec["cutoff"])

    def coeffs(kind):
        return {label: round(float(rng.uniform(0.15, 0.4)), 6) for label in LABELS[dim][kind]}

    common = {
        "basis": {"dim": dim, "cutoff": cutoff},
        "viscosity": spec["nu"],
        "noise": {"additive": [{"mode": 0, "coeffs": coeffs("additive")}],
                  "transport": [{"mode": 1, "coeffs": coeffs("transport")}]},
        "initial": {"kind": "gaussian", "scale": round(float(rng.uniform(0.8, 1.2)), 6)},
        "output_dir": OUT_DIR,
    }
    base_seed = int(rng.integers(2 ** 31))
    texts = {}
    for stage, size in spec["stages"].items():
        if smoke:
            size = _smoke(size)
        dt, t_final = size["dt"], round(size["steps"] * size["dt"], 12)
        data = dict(common, scheme=size["scheme"], dt=dt, t_final=t_final)
        data["ensemble"] = {
            "members": size["members"], "base_seed": base_seed,
            "store_every": size["store_every"],
            "probe_times": [round(s * dt, 12) for s in size["probes"]]
            if "probes" in size else None,
        }
        if stage == "sweep":
            data["sweep"] = {"nus": list(size["nus"]), "members": size["members"], "dt": dt,
                             "t_final": t_final, "store_every": size["store_every"],
                             "scheme": size["scheme"], "moment_p": MOMENT_P}
        data["diagnostics"] = {
            "simulate": ["energy_residual", "gap_battery"],
            "ensemble": ["reynolds_defect", "moment_report", "weak_residual"],
        }.get(stage, [])
        texts[stage] = json.dumps(data, sort_keys=True)
    return texts


# -- runs ------------------------------------------------------------------------


@dataclass
class Outputs:
    """What a workload produced, for the checks after the timed region."""

    system: object
    ensembles: list = field(default_factory=list)
    trajectories: list = field(default_factory=list)
    sweeps: list = field(default_factory=list)
    defects: list = field(default_factory=list)      # (DefectField, min eigenvalue)
    gaps: list = field(default_factory=list)         # (label, value, tolerance)
    residuals: list = field(default_factory=list)    # (label, value, tolerance)
    roundtrips: list = field(default_factory=list)   # (label, written, read back)
    info: dict = field(default_factory=dict)


def _ensemble(sf, cfg, system):
    ens_cfg = cfg["ensemble"]
    probes = ens_cfg["probe_times"]
    return sf.ensemble.run_ensemble(
        system, cfg.initial_sampler(system.basis), ens_cfg["members"], ens_cfg["base_seed"],
        cfg["dt"], cfg.n_steps, scheme=cfg["scheme"], store_every=ens_cfg["store_every"],
        probe_times=tuple(probes) if probes else None, threads=1,
    )


def _simulate(sf, cfg, system):
    seed = cfg["ensemble"]["base_seed"]
    a0 = cfg.initial_sampler(system.basis)(np.array([seed], dtype=np.uint64), system.basis)[0]
    path = sf.sde.BrownianPath.generate(seed, cfg["dt"], cfg.n_steps, system.n_brownian)
    return sf.sde.integrate(system, a0, path, scheme=cfg["scheme"],
                            store_every=cfg["ensemble"]["store_every"])


def _gap_battery(sf, traj, system, seed, out: Outputs, relax: float | None) -> list:
    """The battery `diagnose` runs; with `relax`, against E = 1/2|u|^2 + relax.

    A relaxed energy makes the weight term 2|(grad phi)_sym,-| (1/2|u|^2 - E)
    nonzero, so every call evaluates `neg_sup_series` on two grids.
    """
    dt_s = float(traj.times[1] - traj.times[0])
    energy = None if relax is None else traj.energy + relax
    battery = sf.diagnostics.make_test_processes(system, traj.times.size - 1, dt_s,
                                                 seed=seed, count=GAPS)
    for phi in battery:
        value = sf.diagnostics.energy_variational_gap(traj, system, phi, 0.0,
                                                      float(traj.times[-1]),
                                                      energy_series=energy)
        out.gaps.append((f"gap[{phi.label}]" + ("" if relax is None else ".relaxed"),
                         value, diagnose_tol(traj.dt)))
    return battery


def ens2d_wide(sf, cfg, texts, system, outdir: Path) -> Outputs:
    out = Outputs(system)
    ens = _ensemble(sf, cfg, system)
    paths = sf.storage.save_ensemble(outdir / "ensemble", ens, cfg.hash())
    out.ensembles.append(ens)
    out.roundtrips.append(("ensemble.summary", {
        "energy": ens.energy, "final_states": ens.final_states,
        "blowup_step": ens.blowup_step}, paths["summary"]))
    out.roundtrips.append(("ensemble.probes", {"probe_states": ens.probe_states},
                           paths["probes"]))
    return out


def sweep_diag_2d(sf, cfg, texts, system, outdir: Path) -> Outputs:
    out = Outputs(system)
    sw = cfg["sweep"]
    plan = sf.experiments.SweepPlan(
        nus=tuple(sw["nus"]), n_members=sw["members"], base_seed=cfg["ensemble"]["base_seed"],
        dt=sw["dt"], n_steps=int(round(sw["t_final"] / sw["dt"])), scheme=sw["scheme"],
        store_every=sw["store_every"], moment_p=sw["moment_p"],
    )
    report = sf.experiments.viscosity_sweep(plan, system, cfg.initial_sampler(system.basis))
    out.sweeps.append(report)

    cfg = sf.config.parse_config(texts["ensemble"])
    ens = _ensemble(sf, cfg, system)
    out.ensembles.append(ens)
    phi = np.zeros(system.n_modes)
    low = np.nonzero(system.basis.k_sq <= 2.0)[0]
    phi[low] = 0.5 / math.sqrt(low.size)
    weak = sf.diagnostics.dissipative_weak_residual(ens, phi, ens.t_final)
    defect = sf.diagnostics.reynolds_defect(ens.final_states, system.basis)
    out.defects.append((defect, defect.min_eigenvalue()))
    measure = sf.ensemble.empirical_measure(ens)
    moments = sf.ensemble.moment_report(ens, MOMENT_P)
    out.info.update(weak_residual=weak["residual"], weak_stderr=weak["stderr"],
                    mean_field_norm=float(np.linalg.norm(measure.mean_field())),
                    sup_moment=moments["sup_moment"])

    cfg = sf.config.parse_config(texts["simulate"])
    traj = _simulate(sf, cfg, system)
    path = outdir / "trajectory.bin"
    sf.storage.save_trajectory(path, traj, cfg.hash())
    loaded, _ = sf.storage.load_trajectory(path, expect_hash=cfg.hash())
    out.trajectories.append(traj)
    out.roundtrips.append(("trajectory", vars(traj), vars(loaded)))
    t_final = float(loaded.times[-1])
    out.residuals.append(("energy_residual",
                          abs(sf.diagnostics.energy_residual(loaded, system, 0.0, t_final)),
                          diagnose_tol(loaded.dt)))
    battery = _gap_battery(sf, loaded, system, cfg["ensemble"]["base_seed"], out, relax=None)
    phi0 = battery[0]
    relaxed = sf.diagnostics.energy_variational_gap(
        loaded, system, phi0, 0.0, t_final, energy_series=loaded.energy + 0.05)
    out.gaps.append((f"gap[{phi0.label}].relaxed", relaxed, diagnose_tol(loaded.dt)))
    return out


def struct3d_evgap(sf, cfg, texts, system, outdir: Path) -> Outputs:
    out = Outputs(system)
    ens = _ensemble(sf, cfg, system)
    out.ensembles.append(ens)
    defect = sf.diagnostics.reynolds_defect(ens.final_states, system.basis)
    out.defects.append((defect, defect.min_eigenvalue()))

    cfg = sf.config.parse_config(texts["simulate"])
    traj = _simulate(sf, cfg, system)
    out.trajectories.append(traj)
    _gap_battery(sf, traj, system, cfg["ensemble"]["base_seed"], out, relax=0.05)
    return out


RUNS = {"ens2d-wide": ens2d_wide, "sweep-diag-2d": sweep_diag_2d,
        "struct3d-evgap": struct3d_evgap}


# -- checks ----------------------------------------------------------------------

CONSERVATION_TOL = 1e-12     # |a.B(a,a)| / |a|^3, as in `verify`
DEFECT_PSD_TOL = 1e-10       # as in `verify`
TRACE_IDENTITY_TOL = 1e-12   # as in `verify`
BALANCE_WINDOW_SE = 3.0      # Monte-Carlo window of the mean energy balance, as in `verify`


@dataclass
class Checks:
    """Output checks and integrated members; failures count against both."""

    records: list = field(default_factory=list)
    members: int = 0
    blowups: int = 0

    def leq(self, name: str, value: float, tol: float):
        self.records.append({"check": name, "value": float(value), "tolerance": float(tol),
                             "pass": bool(value <= tol)})

    def integrated(self, blowup_step):
        blowup_step = np.atleast_1d(blowup_step)
        self.members += blowup_step.size
        self.blowups += int(np.sum(blowup_step >= 0))

    @property
    def attempted(self) -> int:
        return len(self.records) + self.members

    @property
    def failed(self) -> int:
        return sum(not r["pass"] for r in self.records) + self.blowups


def _balance_residual(ens, hs2: float) -> np.ndarray:
    return (ens.energy[-1] - ens.energy[0] + ens.system.nu * ens.grad_int[-1]
            - ens.stoch_int[-1] - 0.5 * ens.t_final * hs2)


def _conservation(conv, states: np.ndarray) -> float:
    states = np.atleast_2d(states)
    norms = np.linalg.norm(states, axis=1)
    ok = norms > 0
    ratio = np.abs(np.einsum("mn,mn->m", states, conv.apply(states)))[ok] / norms[ok] ** 3
    return float(ratio.max(initial=0.0))


def check_outputs(sf, out: Outputs, caught: list) -> Checks:
    """Every check uses the tolerance `stochflow verify` / `diagnose` uses."""
    checks = Checks()
    conv = out.system.conv
    hs2 = sf.noise.hs_norm(out.system.noise.additive)
    checks.leq("no_runtime_warnings", len(caught), 0)
    for n, ens in enumerate(out.ensembles):
        checks.integrated(ens.blowup_step)
        guard = out.system.stability_dt(float(np.linalg.norm(ens.initial_states, axis=1).max()))
        checks.leq(f"ensemble[{n}].dt_under_guardrail", ens.dt, guard)
        checks.leq(f"ensemble[{n}].energy_conservation",
                   _conservation(conv, ens.final_states), CONSERVATION_TOL)
        resid = _balance_residual(ens, hs2)
        se = float(resid.std(ddof=1) / math.sqrt(resid.size))
        checks.leq(f"ensemble[{n}].energy_balance", abs(float(resid.mean())),
                   BALANCE_WINDOW_SE * se)
    for n, traj in enumerate(out.trajectories):
        checks.integrated(-1 if traj.blowup_time is None else 0)
        checks.leq(f"trajectory[{n}].energy_conservation",
                   _conservation(conv, traj.states[-1]), CONSERVATION_TOL)
    for report in out.sweeps:
        tol = diagnose_tol(report["plan"].dt)
        for point in report["points"]:
            checks.members += report["plan"].n_members
            checks.blowups += point["blowups"]
            checks.leq(f"sweep[nu={point['nu']}].energy_balance", abs(point["residual_mean"]),
                       BALANCE_WINDOW_SE * point["residual_stderr"])
        for i, gap in enumerate(report["euler_gaps_smallest_nu"]):
            checks.leq(f"sweep.euler_gap[{i}]", gap, tol)
    for n, (defect, min_eig) in enumerate(out.defects):
        checks.leq(f"defect[{n}].psd", max(0.0, -min_eig), DEFECT_PSD_TOL)
        checks.leq(f"defect[{n}].trace_identity",
                   abs(defect.trace_integral - (defect.e_hat - defect.mean_kinetic)),
                   TRACE_IDENTITY_TOL)
    for label, value, tol in out.gaps + out.residuals:
        checks.leq(label, value, tol)
    for label, written, read in out.roundtrips:
        diff = sum(not _bit_equal(written[key], read[key]) for key in written)
        checks.leq(f"roundtrip.{label}", diff, 0)
    return checks


def _bit_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def final_state_sha256(out: Outputs) -> str:
    """Digest of every final state the workload produced (information, not a gate)."""
    h = hashlib.sha256()
    for ens in out.ensembles:
        h.update(np.ascontiguousarray(ens.final_states).tobytes())
    for traj in out.trajectories:
        h.update(np.ascontiguousarray(traj.states[-1]).tobytes())
    for report in out.sweeps:
        h.update(np.asarray(report["cauchy_differences"], dtype=np.float64).tobytes())
    return h.hexdigest()


def load_roundtrips(sf, out: Outputs):
    """Replace container paths in `out.roundtrips` by the arrays read back."""
    out.roundtrips = [
        (label, written, read if isinstance(read, dict)
         else sf.storage.load_container(read)["arrays"])
        for label, written, read in out.roundtrips
    ]


def run_recorded(sf, name: str, cfg, texts: dict, system, outdir: Path):
    """Run one workload with warnings recorded; returns (outputs, caught).

    `cfg` is the parsed first stage, the one set-up built `system` from.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = RUNS[name](sf, cfg, texts, system, outdir)
    return out, list(caught)
