"""Bitwise pins of the diagnostics layer: eigenvalue weights, gaps, residuals.

Each digest is the SHA-256 of the little-endian bytes of one output, and each
scalar is pinned by `float.hex`.  They were recorded from the code in which
`neg_sup_series` ran LAPACK `eigvalsh` on every 3-D gradient sample of the
whole (T, G, 3, 3) stack and `dissipative_weak_residual` integrated every
member through all `n_steps`.  The pins hold any later arrangement of those
computations (screening, blocking, shorter integration) to the same bits.
The weak-residual pins were re-recorded once, with the integration pins, when
the step's linear operators became CSR products and the residual's sums
became independent of the chunk partition.

The three `neg_sup_series` pins and the relative-energy `rate` pin were
re-recorded once, when `velocity_gradient` became blocked BLAS products
against the mode table and its samples moved in their last bits (at most
4.4e-16).  They were recorded from the brute-force definition on the new
transform, not from the screened path: the larger of the base and the 2x
refined grid's maxima of max(0, -lambda_min(sym)) over every gradient
sample, by LAPACK `eigvalsh` in 3-D (`oracles.neg_part_max`) and by the
2 x 2 closed form of `_min_sym_eig` in 2-D, with 1 and with 2 BLAS threads
alike.  Every other pin, the relaxed gap's included, kept its bits.

The relaxed gap pin was re-recorded once, when the gap's convection term
became -phi . B(a, a), the skew form of sum b[i,k,j] a_i phi_k a_j, instead
of <B(a, phi), a>.  One of its ten gaps moved, by 1.6e-16 relative.  Before
recording, all ten agreed with `oracles.energy_variational_gap`, which
contracts the dense tensor, to 3.2e-16 relative (1e-13 allowed), with 1 and
with 2 BLAS threads alike.  Every other pin kept its bits.

Both gap pins were re-recorded once, when the battery's martingale processes
took a B row on every Brownian mode instead of the additive ones only, so
that their gaps read the transport trace term u^T zeta_l B_l.  The static
and modulated gaps kept their bits; before recording, all ten gaps of each
pin agreed with `oracles.energy_variational_gap` to 2.7e-15 relative, with 1
and with 2 BLAS threads alike.  The weak-residual pin at t_final was
re-recorded at the same time, when the residual's quadratic term became the
pairing u . (P u) with one sparse matrix instead of -phi . B(u, u) from the
convection kernel: its mean moved by 2 units in the last place and its
standard error and the t = 0.01 pin kept their bits.
"""

import hashlib

import numpy as np
import pytest

from stochflow.basis import build_basis, convection_tensor
from stochflow.diagnostics import (
    _neg_part_max,
    dissipative_weak_residual,
    energy_variational_gap,
    make_test_processes,
    neg_sup_series,
    relative_energy,
)
from stochflow.ensemble import gaussian_initial, member_seeds, run_ensemble
from stochflow.noise import build_noise
from stochflow.sde import BrownianPath, build_system, integrate


def _digest(arr):
    arr = np.asarray(arr)
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes()
    ).hexdigest()


def coeff_series(dim, cutoff, T, seed):
    """T random coefficient vectors with a spectrum decaying like 1/(1+|k|^2)."""
    basis = build_basis(dim, cutoff)
    gen = np.random.default_rng(seed)
    return basis, gen.normal(size=(T, basis.n_modes)) * (0.5 / (1.0 + basis.k_sq))


SERIES = {"2d-c4": (2, 4, 500, 1), "3d-c1": (3, 1, 100, 2), "3d-c2": (3, 2, 8, 3)}


def gradient_stacks():
    """3-D gradient-sample stacks: random, scaled to 1e-150 and 1e150, several
    leading axes, and a stack whose symmetric parts are all PSD."""
    gen = np.random.default_rng(5)
    base = gen.normal(size=(400, 3, 3))
    psd = np.einsum("gij,gkj->gik", base, base)
    return {
        "normal": base,
        "tiny": base * 1e-150,
        "huge": base * 1e150,
        "batched": gen.normal(size=(4, 50, 3, 3)),
        "psd": psd,
    }


def system3d():
    """The benchmark's 3-D c=1 noise layout: additive noise on Brownian mode 0,
    one transport field on mode 1."""
    b = build_basis(3, 1)
    eta = np.zeros(b.n_modes)
    eta[b.index_of("0,0,1:p0:cos")] = 0.3
    eta[b.index_of("1,1,0:p1:sin")] = 0.2
    field = np.zeros(b.n_modes)
    field[b.index_of("0,1,0:p0:cos")] = 0.4
    field[b.index_of("1,0,1:p0:sin")] = 0.3
    noise = build_noise(b, sigma1_modes=[(0, eta)], transport_fields=[(1, field)])
    return build_system(b, noise, nu=0.05, conv=convection_tensor(b))


def trajectory3d(system, n_steps=100, dt=2e-3, seed=9):
    a0 = gaussian_initial(0.5)(member_seeds(seed, 1), system.basis)[0]
    return integrate(system, a0, BrownianPath.generate(seed, dt, n_steps, system.n_brownian))


def gap_battery(relax):
    system = system3d()
    traj = trajectory3d(system)
    energy = None if relax is None else traj.energy + relax
    battery = make_test_processes(system, traj.times.size - 1, traj.dt, seed=9, count=10)
    return np.array([energy_variational_gap(traj, system, phi, 0.0, float(traj.times[-1]),
                                            energy_series=energy) for phi in battery])


def relative_energy_case():
    """3-D c=1 against c=2 on one path, the fine data carrying a mode beyond
    the coarse cutoff."""
    coarse_b, fine_b = build_basis(3, 1), build_basis(3, 2)
    sys_c = build_system(coarse_b, build_noise(coarse_b), nu=0.05)
    sys_f = build_system(fine_b, build_noise(fine_b), nu=0.05)
    a0f = gaussian_initial(0.5, max_ksq=5.0)(member_seeds(13, 1), fine_b)[0]
    path = BrownianPath.generate(13, 2e-3, 8, 0)
    traj_c = integrate(sys_c, a0f[coarse_b.embedding_into(fine_b)], path)
    traj_f = integrate(sys_f, a0f, path)
    return relative_energy(traj_c, traj_f, coarse_b, fine_b, 0.0, float(traj_c.times[-1]))


def weak_residual_ensemble(system):
    return run_ensemble(system, gaussian_initial(0.5), 12, base_seed=21, dt=1e-3,
                        n_steps=40, scheme="euler_maruyama")


def weak_phi(system):
    phi = np.zeros(system.n_modes)
    low = np.nonzero(system.basis.k_sq <= 2.0)[0]
    phi[low] = 0.5 / np.sqrt(low.size)
    return phi


GOLDEN = {
    ("neg_sup_series", "2d-c4"): "edab17effde1d3034706b9b6722545da244aae95e615f82f119e8cf1ee330112",
    ("neg_sup_series", "3d-c1"): "313a8cf8bd702bf29677e1f7d37d964bce5c5d9ca304f9237346f20126fc2c9d",
    ("neg_sup_series", "3d-c2"): "0de87b608f4a409298f76be54990ea7890233a71a588bf3b35653b85d46984aa",
    ("neg_part_spectral_sup", "batched"): "0x1.2c4df5503e2f5p+2",
    ("neg_part_spectral_sup", "huge"): "0x1.1e60f957535bcp+500",
    ("neg_part_spectral_sup", "normal"): "0x1.d4b700101c496p+1",
    ("neg_part_spectral_sup", "psd"): "0x0.0p+0",
    ("neg_part_spectral_sup", "tiny"): "0x1.7f925a727890cp-497",
    ("energy_variational_gap", "plain"): "989e780d682962466ca72353b25891d1670a7a3d950ccae228d7f37c71602c5b",
    ("energy_variational_gap", "relaxed"): "91795d4fdeeedc690dcc9dca6d27b5bd8a612c8a898b793fce008fe38384ee0f",
    ("relative_energy", "rate"): "3e700b72c91f6a978368d8dff9282b05bb48fdb321db3eb0b1d6f9de309f53cc",
    ("relative_energy", "re"): "ba7e6aaa597e2597917bef0e012d6e21eed23f476a0b7e3f596386861ab094ad",
    ("weak_residual", "0.01"): ("0x1.1ac7debac4cc5p-12", "0x1.811b51361421dp-9"),
    ("weak_residual", "t_final"): ("-0x1.af603d7980c95p-10", "0x1.cb16fa2f0f243p-9"),
}


@pytest.mark.parametrize("case", sorted(SERIES))
def test_neg_sup_series_bitwise(case):
    basis, series = coeff_series(*SERIES[case])
    out = neg_sup_series(basis, series)
    assert out.shape == (series.shape[0],)
    assert _digest(out) == GOLDEN[("neg_sup_series", case)]


@pytest.mark.parametrize("case", sorted(gradient_stacks()))
def test_neg_part_spectral_sup_bitwise(case):
    # the supremum over every sample of a stack: +0.0 when no sample has a
    # negative part ("psd")
    value = _neg_part_max(gradient_stacks()[case].reshape(-1, 3, 3))
    assert value.shape == ()
    assert float(value).hex() == GOLDEN[("neg_part_spectral_sup", case)]


@pytest.mark.parametrize("relax", [None, 0.05], ids=["plain", "relaxed"])
def test_energy_variational_gap_bitwise(relax):
    gaps = gap_battery(relax)
    assert gaps.shape == (10,)
    assert _digest(gaps) == GOLDEN[("energy_variational_gap",
                                    "plain" if relax is None else "relaxed")]


def test_relative_energy_bitwise():
    out = relative_energy_case()
    assert out["rate"].shape == (9,)
    assert _digest(out["rate"]) == GOLDEN[("relative_energy", "rate")]
    assert _digest(out["re"]) == GOLDEN[("relative_energy", "re")]


@pytest.mark.parametrize("t", [0.01, "t_final"])
def test_weak_residual_bitwise(mixed_system_c4, t):
    ens = weak_residual_ensemble(mixed_system_c4)
    out = dissipative_weak_residual(ens, weak_phi(mixed_system_c4),
                                    ens.t_final if t == "t_final" else t)
    assert (out["residual"].hex(), out["stderr"].hex()) == GOLDEN[("weak_residual", str(t))]
