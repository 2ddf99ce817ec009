"""The `verify` battery: every structural invariant checked at desk scale.

Each check returns (name, value, tolerance, passed) and is emitted as one
NDJSON record by the CLI.  Oracles used here are independent of the code
paths they certify: the convection tensor is cross-checked against direct
tensor-product quadrature of the advection integrand, eigenmode decay against
the exact exponential, and the additive energy balance against its closed
form.  Scales are chosen so the whole battery runs in well under a minute;
the full-tolerance acceptance criteria live in the pytest suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..basis import (build_basis, convection_tensor, default_grid, evaluate_field,
                     project_field, velocity_gradient)
from ..diagnostics import (
    TestProcessRep,
    energy_residual,
    energy_variational_gap,
    make_test_processes,
    neg_sup_series,
    reynolds_defect,
)
from ..ensemble import run_ensemble
from ..noise import build_noise, hs_norm
from ..sde import SCHEMES, BrownianPath, build_system, integrate, integrate_batch


@dataclass
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool
    note: str = ""

    def record(self) -> dict:
        return {
            "check": self.name,
            "value": self.value,
            "tolerance": self.tolerance,
            "pass": bool(self.passed),
            "note": self.note,
        }


def _leq(name, value, tol, note="") -> CheckResult:
    return CheckResult(name, float(value), float(tol), bool(value <= tol), note)


def quadrature_advection_oracle(basis, i, k, j, factor: int = 4) -> float:
    """Direct tensor-product quadrature of integral (v_i . grad) v_k . v_j.

    Independent of the closed-form assembly: modes are evaluated from their
    (wavevector, polarization, phase) data and the advection integrand is
    integrated with the uniform rectangle rule on a grid that resolves
    triple products exactly.
    """
    n = factor * basis.cutoff + 1
    x = basis.grid(n)

    def mode(idx):
        kvec = basis.mode_k(idx).astype(float)
        p = basis.mode_p(idx)
        theta = x @ kvec
        trig = np.cos(theta) if basis.mode_phase[idx] == 0 else np.sin(theta)
        dtrig = -np.sin(theta) if basis.mode_phase[idx] == 0 else np.cos(theta)
        val = basis.norm_const * p[None, :] * trig[:, None]
        grad = basis.norm_const * kvec[:, None, None] * p[None, :, None] * dtrig[None, None, :]
        return val, grad  # (G, d), (d_axis, d_comp, G)

    vi, _ = mode(i)
    _, gk = mode(k)
    vj, _ = mode(j)
    advect = np.einsum("gm,mcg->gc", vi, gk)
    return basis.quad_weight(n) * float(np.einsum("gc,gc->", advect, vj))


def run_battery(seed: int = 20240901) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    # --- basis --------------------------------------------------------------
    for dim, cutoffs in ((2, (1, 2, 3, 4)), (3, (1,))):
        worst = 0.0
        for cutoff in cutoffs:
            b = build_basis(dim, cutoff)
            n = default_grid(cutoff)
            eye = np.eye(b.n_modes)
            gram = project_field(b, evaluate_field(b, eye, n), n)
            worst = max(worst, float(np.abs(gram - eye).max()))
        results.append(_leq(f"basis.gram.{dim}d", worst, 1e-12))

    b = build_basis(2, 2)
    conv = convection_tensor(b)

    # a draw nothing reads, so the draws of the checks below stay as they were
    rng.normal(size=b.n_modes)

    dense = conv.to_dense()
    results.append(_leq("conv.skew.bitwise",
                        np.abs(dense + dense.transpose(0, 2, 1)).max(), 0.0))
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=b.n_modes)
        worst = max(worst, abs(a @ conv.apply(a)) / np.linalg.norm(a) ** 3)
    results.append(_leq("conv.energy_conservation", worst, 1e-12))
    # own stream, so the draws of the checks below stay as they were
    states = np.random.default_rng(seed + 1).normal(size=(257, b.n_modes))
    batch = conv.apply(states)
    mismatched = sum(batch[r].tobytes() != conv.apply(states[r]).tobytes()
                     for r in range(len(states)))
    results.append(_leq("conv.apply.batch_invariant", mismatched, 0.0,
                        note="rows of a batch of 257 that differ from their row alone"))

    worst = 0.0
    stored = set(zip(conv.i_idx.tolist(), conv.k_idx.tolist(), conv.j_idx.tolist()))
    checked = 0
    for i in range(b.n_modes):
        for k in range(b.n_modes):
            for j in range(b.n_modes):
                if (i, k, j) in stored:
                    continue
                if checked % 17 == 0:  # spot-check a sixteenth of the zeros
                    worst = max(worst, abs(quadrature_advection_oracle(b, i, k, j)))
                checked += 1
    results.append(_leq("conv.sparsity_exact", worst, 1e-12,
                        note="absent entries vanish under the quadrature oracle"))
    worst = 0.0
    for pos in rng.choice(conv.nnz, size=min(50, conv.nnz), replace=False):
        i, k, j = int(conv.i_idx[pos]), int(conv.k_idx[pos]), int(conv.j_idx[pos])
        worst = max(worst, abs(conv.values[pos] - quadrature_advection_oracle(b, i, k, j)))
    results.append(_leq("conv.closed_form_vs_quadrature", worst, 1e-12))

    # --- noise ----------------------------------------------------------------
    tfield = np.zeros(b.n_modes)
    tfield[b.index_of("1,0:cos")] = 0.5
    tfield[b.index_of("0,1:sin")] = 0.3
    eta_vec = np.zeros(b.n_modes)
    eta_vec[b.index_of("0,1:cos")] = 0.5
    noise = build_noise(b, sigma1_modes=[(0, eta_vec)], transport_fields=[(1, tfield)])
    zeta = noise.transport.zeta[0]
    results.append(_leq("noise.zeta.skew.bitwise", np.abs(zeta + zeta.T).max(), 0.0))
    corr = noise.transport.correction()
    eig = np.linalg.eigvalsh(corr)
    results.append(_leq("noise.corr.psd", max(0.0, -float(eig.min())),
                        1e-12 * max(1.0, float(eig.max()))))
    eta = noise.additive.eta
    loop = sum(eta[j, l] ** 2 for j in range(eta.shape[0]) for l in range(eta.shape[1]))
    results.append(_leq("noise.hs_norm.oracle", abs(hs_norm(noise.additive) - loop), 1e-15))
    perm = rng.permutation(b.n_modes)
    results.append(_leq("noise.hs_norm.reorder",
                        abs(float(np.sum(eta[perm] ** 2)) - hs_norm(noise.additive)), 0.0))
    worst = 0.0
    for _ in range(20):
        a = rng.normal(size=b.n_modes)
        lhs = a @ corr @ a
        rhs = 0.5 * sum(np.linalg.norm(noise.transport.zeta[s] @ a) ** 2
                        for s in range(noise.transport.zeta.shape[0]))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    results.append(_leq("noise.corr.quadratic_identity", worst, 1e-13))

    # --- sde -------------------------------------------------------------------
    system = build_system(b, noise, nu=0.0)
    worst = 0.0
    for _ in range(20):
        a = rng.normal(size=b.n_modes)
        col = zeta @ a
        worst = max(worst, abs(a @ col) / np.linalg.norm(a) ** 2)
    results.append(_leq("sde.transport_diffusion_orthogonal", worst, 1e-13))

    # 2-D c=4 (N = 80) with a transport field on every mode of |k|^2 <= 2 and
    # two dense additive columns, so the drift and noise matrices have full
    # rows, where products whose rounding depends on the batch size show; own
    # stream, so the draws of the other checks stay as they were
    b4 = build_basis(2, 4)
    draws = np.random.default_rng(seed + 5)
    field4 = draws.normal(scale=0.3, size=b4.n_modes) * (b4.k_sq <= 2)
    cols = draws.normal(scale=0.2, size=(2, b4.n_modes))
    noise4 = build_noise(b4, sigma1_modes=[(0, cols[0]), (2, cols[1])],
                         transport_fields=[(1, field4)])
    sys_mixed = build_system(b4, noise4, nu=0.05)
    states = draws.normal(size=(7, b4.n_modes))
    incs = draws.normal(scale=math.sqrt(1e-3), size=(7, 1, sys_mixed.n_brownian))

    def one_step(rows, scheme):
        return integrate_batch(sys_mixed, states[rows], incs[rows], 1e-3, scheme).states[1]

    mismatched = 0
    for scheme in SCHEMES:
        batch = one_step(slice(None), scheme)
        mismatched += sum(batch[m].tobytes() != one_step([m], scheme)[0].tobytes()
                          for m in range(len(states)))
    results.append(_leq("sde.step.batch_invariant", mismatched, 0.0,
                        note="rows of one EM and one Heun step of 7 members (2-D c=4) "
                             "that differ from the member stepped alone"))
    ops = sys_mixed._step_operators()
    heun = np.vstack((noise4.transport.zeta.reshape(-1, b4.n_modes), noise4.additive.eta.T))
    dense = {"eta": noise4.additive.eta, "heun": heun,
             "em": np.vstack((heun, sys_mixed.nu * np.diag(b4.k_sq) + sys_mixed.corr))}
    mismatched = sum(getattr(ops, name).toarray().tobytes() != np.ascontiguousarray(m).tobytes()
                     for name, m in dense.items())
    results.append(_leq("sde.step_operators.exact", mismatched, 0.0,
                        note="cached CSR step operators and stacks whose toarray() differs "
                             "from their dense matrix or np.vstack of blocks"))

    sys_visc = build_system(b, build_noise(b), nu=0.1)
    a0 = np.zeros(b.n_modes)
    a0[b.index_of("1,0:cos")] = 1.0
    path = BrownianPath.generate(seed, 1e-3, 1000, 0)
    traj = integrate(sys_visc, a0, path)
    results.append(_leq("sde.viscous_decay_oracle",
                        abs(2 * traj.energy[-1] - math.exp(-0.2)), 1e-3))
    results.append(_leq("sde.energy_monotone",
                        float(np.max(np.diff(traj.energy), initial=-1.0)), 0.0,
                        note="no noise, dt under the stability bound"))

    sys_t = build_system(b, build_noise(b, transport_fields=[(0, tfield)]), nu=0.0)
    rng2 = np.random.default_rng(seed + 1)
    at = rng2.normal(size=b.n_modes)
    at *= 0.5 / np.linalg.norm(at)
    path_t = BrownianPath.generate(seed, 1e-3, 500, 1)
    traj_t = integrate(sys_t, at, path_t, scheme="heun")
    results.append(_leq("sde.heun_transport_conservation",
                        abs(traj_t.energy[-1] - traj_t.energy[0]) / traj_t.energy[0], 1e-3))

    p = BrownianPath.generate(seed, 0.01, 64, 2)
    p2 = p.refine()
    results.append(_leq("sde.brownian_refinement",
                        np.abs(p2.increments[0::2] + p2.increments[1::2] - p.increments).max(),
                        1e-12))

    sys_add = build_system(b, noise, nu=0.0)
    ens = run_ensemble(sys_add, at, 2000, base_seed=seed, dt=2e-3, n_steps=250)
    gain = ens.energy[-1] - ens.energy[0]
    target = 0.5 * ens.t_final * hs_norm(noise.additive)
    se = float(gain.std(ddof=1) / math.sqrt(ens.n_members))
    results.append(_leq("ensemble.additive_energy_balance",
                        abs(float(gain.mean()) - target), 3 * se,
                        note=f"target {target:.6f}, 3SE window {3 * se:.2e}"))
    ens_b = run_ensemble(sys_add, at, 64, base_seed=seed, dt=2e-3, n_steps=50)
    ens_c = run_ensemble(sys_add, at, 64, base_seed=seed, dt=2e-3, n_steps=50)
    results.append(CheckResult("ensemble.determinism",
                               0.0 if np.array_equal(ens_b.energy, ens_c.energy) else 1.0,
                               0.0,
                               np.array_equal(ens_b.energy, ens_c.energy),
                               note="bitwise repeatability"))

    df = reynolds_defect(ens.states_at(ens.t_final), b)
    results.append(_leq("diagnostics.defect.psd", max(0.0, -df.min_eigenvalue()), 1e-10))
    results.append(_leq("diagnostics.defect.trace_identity",
                        abs(df.trace_integral - (df.e_hat - df.mean_kinetic)), 1e-12))

    traj_d = integrate(sys_add, at, BrownianPath.generate(seed + 3, 1e-3, 500, 2))
    r = energy_residual(traj_d, sys_add, 0.0, 0.5)
    zero_phi = TestProcessRep(phi0=np.zeros(b.n_modes))
    g = energy_variational_gap(traj_d, sys_add, zero_phi, 0.0, 0.5)
    results.append(CheckResult("diagnostics.gap.phi0_reduction", abs(g - r), 0.0,
                               g == r, note="bitwise reduction to the energy residual"))
    battery = make_test_processes(sys_add, 500, 1e-3, seed=seed)
    worst = max(abs(energy_variational_gap(traj_d, sys_add, phi, 0.0, 0.5))
                for phi in battery)
    results.append(_leq("diagnostics.gap.battery", worst, 0.05,
                        note="desk-scale sanity bound on the battery's largest |gap|"))

    # own stream, so the draws of the checks above stay as they were
    b3 = build_basis(3, 1)
    series = np.random.default_rng(seed + 2).normal(size=(37, b3.n_modes)) * 0.5

    def lapack_sup(grid_n):
        grads = velocity_gradient(b3, series, grid_n)
        sym = 0.5 * (grads + np.swapaxes(grads, -1, -2))
        return np.maximum(0.0, -np.linalg.eigvalsh(sym)[..., 0]).max(axis=-1)

    n3 = default_grid(b3.cutoff)
    oracle = np.maximum(lapack_sup(n3), lapack_sup(2 * n3))
    got = neg_sup_series(b3, series)
    mismatched = sum(x.tobytes() != y.tobytes() for x, y in zip(got, oracle))
    results.append(_leq("diagnostics.neg_sup.screen_exact", mismatched, 0.0,
                        note="time rows of a 3-D series of 37 that differ from "
                             "LAPACK on every gradient sample"))
    return results
