"""Reproducible limit experiments: viscosity sweeps and order studies.

The viscosity sweep always couples Brownian paths across the nu axis: every
nu runs on the same member seeds, so each member is one probabilistically
strong solution path seen at several viscosities.  That turns the
vanishing-viscosity program into something observable at desk scale:
per-member field differences between consecutive nu values act as a Cauchy
surrogate for the limit, while moments and the weighted viscous functional
are tracked for uniformity and decay.

The order study measures strong convergence rates by dyadic refinement of a
single family of Brownian paths against a finer reference run: the members'
paths are refined together level by level, never regenerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import gap_battery
from .ensemble import mean_stderr, member_seeds, moment_report, run_ensemble
from .noise import hs_norm
from .sde import (GalerkinSystem, _grid_index, _refine, batch_increments, build_system,
                  integrate_batch)


class ExperimentError(ValueError):
    """Invalid experiment plan."""


@dataclass
class SweepPlan:
    """Axis and run choices for a parameter sweep on coupled paths."""

    nus: tuple[float, ...]
    n_members: int = 64
    base_seed: int = 0
    dt: float = 1e-2
    n_steps: int = 1000
    scheme: str = "euler_maruyama"
    store_every: int = 10
    moment_p: float = 4.0

    def validate(self):
        if len(self.nus) < 1:
            raise ExperimentError("empty viscosity axis")
        if not all(0 < nu < math.inf for nu in self.nus):
            raise ExperimentError("viscosity axis must be positive and finite")
        if any(a <= b for a, b in zip(self.nus, self.nus[1:])):
            raise ExperimentError("viscosity axis must be strictly decreasing")


def viscosity_sweep(
    plan: SweepPlan,
    base_system: GalerkinSystem,
    initial,
) -> dict:
    """Run the nu axis with shared paths and collect the limit diagnostics.

    Per nu: a moment report at plan.moment_p, member statistics of the energy
    residual over [0, T], the viscous functional nu E[int |grad u|^2], and
    the weighted viscous term sqrt(nu) * sqrt(nu E[int |grad u|^2]) *
    |grad phi| whose fitted log-log exponent against nu is the decay
    observable; phi is the static field with the same coefficient on every
    mode with |k|^2 <= 2 and |phi| = 1/2.  Consecutive-axis field differences
    at T are reported, and the inviscid-form gap battery runs on one member
    of the smallest-nu ensemble.
    """
    plan.validate()
    t_final = plan.dt * plan.n_steps
    hs2 = hs_norm(base_system.noise.additive)
    test_field = np.zeros(base_system.n_modes)
    low = np.nonzero(base_system.basis.k_sq <= 2.0)[0]
    test_field[low] = 0.5 / math.sqrt(low.size)
    # |grad phi|_{L^2(0,T;L^2)} of the static field
    grad_phi = math.sqrt(t_final * float(base_system.basis.k_sq @ (test_field ** 2)))

    points = []
    finals = []
    for nu in plan.nus:
        system = build_system(base_system.basis, base_system.noise, nu=nu,
                              conv=base_system.conv)
        ens = run_ensemble(
            system, initial, plan.n_members, plan.base_seed, plan.dt, plan.n_steps,
            scheme=plan.scheme, store_every=plan.store_every,
        )
        finals.append(ens.final_states)
        mom = moment_report(ens, plan.moment_p)
        resid = (
            ens.energy[-1] - ens.energy[0]
            + nu * ens.grad_int[-1]
            - ens.stoch_int[-1]
            - 0.5 * t_final * hs2
        )
        resid_mean, resid_se = mean_stderr(resid)
        grad_mean = float(ens.grad_int[-1].mean())
        viscous_functional = nu * grad_mean
        weighted = math.sqrt(nu) * math.sqrt(max(viscous_functional, 0.0)) * grad_phi
        points.append({
            "nu": nu,
            "moment": mom,
            "residual_mean": resid_mean,
            "residual_stderr": resid_se,
            "viscous_functional": viscous_functional,
            "weighted_viscous": weighted,
            "blowups": int(np.sum(ens.blowup_step >= 0)),
        })

    # Cauchy surrogate under coupling: mean |u_{nu_i} - u_{nu_{i+1}}|(T)
    cauchy = [float(np.linalg.norm(f0 - f1, axis=1).mean())
              for f0, f1 in zip(finals, finals[1:])]

    sup_moments = [p["moment"]["sup_moment"] for p in points]
    uniformity = max(sup_moments) / min(sup_moments) if min(sup_moments) > 0 else math.inf
    weighted_vals = [p["weighted_viscous"] for p in points]
    if len(plan.nus) >= 2 and all(w > 0 for w in weighted_vals):
        exponent = float(np.polyfit(np.log(plan.nus), np.log(weighted_vals), 1)[0])
    else:
        exponent = math.nan

    # inviscid-form gap battery on the smallest-nu endpoint, the last run
    gaps = [gap for _, gap in gap_battery(ens.member_trajectory(0), ens.system,
                                          plan.base_seed, euler_form=True)]

    return {
        "plan": plan,
        "t_final": t_final,
        "points": points,
        "cauchy_differences": cauchy,
        "sup_moment_uniformity": uniformity,
        "weighted_exponent": exponent,
        "grad_phi_norm": grad_phi,
        "euler_gaps_smallest_nu": gaps,
    }


def order_study(
    system: GalerkinSystem,
    initial: np.ndarray,
    scheme: str,
    dt_values: tuple[float, ...],
    n_members: int = 64,
    base_seed: int = 0,
    t_final: float = 0.5,
    ref_levels: int = 2,
) -> dict:
    """Strong order: regression slope of E|a_dt(T) - a_ref(T)| against dt.

    The dt axis must be dyadic (each value half the previous); the reference
    solution runs ref_levels further refinements below the finest axis point
    on the same Brownian paths.
    """
    if len(dt_values) < 3:
        raise ExperimentError("order study needs at least 3 dt values")
    if n_members < 1:
        raise ExperimentError(f"order study needs at least one member, got {n_members}")
    for a, b in zip(dt_values, dt_values[1:]):
        if not math.isclose(b, a / 2.0, rel_tol=1e-12):
            raise ExperimentError("dt axis must halve between consecutive points")
    dt = dt_values[0]
    n0 = _grid_index(t_final, dt, math.inf,
                     ExperimentError("t_final must be a multiple of the coarsest dt"))

    seeds = member_seeds(base_seed, n_members)
    inc = batch_increments(seeds, dt, n0, system.n_brownian)
    levels = len(dt_values) + ref_levels
    finals = []
    a0 = np.tile(np.asarray(initial, dtype=np.float64), (n_members, 1))
    for lvl in range(levels):
        if lvl:
            inc = _refine(seeds, inc, dt, lvl - 1)
            dt = dt / 2.0
        if not (lvl < len(dt_values) or lvl == levels - 1):
            continue
        out = integrate_batch(system, a0, inc, dt, scheme, store_every=max(inc.shape[1], 1))
        finals.append(out.states[-1])
    ref = finals.pop()
    errors = [float(np.linalg.norm(f - ref, axis=1).mean()) for f in finals]
    slope = float(np.polyfit(np.log(dt_values), np.log(errors), 1)[0])
    return {
        "dt_values": list(dt_values),
        "errors": errors,
        "slope": slope,
        "n_members": n_members,
        "scheme": scheme,
    }
