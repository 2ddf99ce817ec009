"""Bitwise pins of the integration layer: Brownian paths, ensembles, studies.

Each digest is the SHA-256 of the little-endian bytes of one output, recorded
from the code in which `BrownianPath.generate` regenerated every level from
the level-0 draw, `batch_increments` drew level 0 on its own and the ensemble
driver ran each chunk through its own copy of the member loop.  The pins hold
any later arrangement of those paths to the same bits: a member's increments
and its integration are one pure function of its seed.
"""

import hashlib

import numpy as np
import pytest

from stochflow.ensemble import gaussian_initial, member_seeds, run_ensemble
from stochflow.experiments import SweepPlan, order_study, viscosity_sweep
from stochflow.sde import SCHEMES, BrownianPath, batch_increments, integrate

import oracles


def _digest(arr):
    arr = np.asarray(arr)
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes()
    ).hexdigest()


PATH_SEED, PATH_K = 2024, 3


def path_case(level):
    """The path on [0, 0.32] at dt = 0.02 / 2**level."""
    return BrownianPath.generate(PATH_SEED, 0.02 / 2 ** level, 16 * 2 ** level, PATH_K,
                                 level=level)


# one seed above 2**63 exercises the full uint64 key word
BATCH_SEEDS = np.append(member_seeds(5, 6), np.uint64(2 ** 63 + 11))


def batch_case():
    return batch_increments(BATCH_SEEDS, 1e-3, 20, 4)


ENSEMBLE_FIELDS = ("final_states", "energy", "stoch_int", "grad_int", "probe_states")


def ensemble_case(system, scheme):
    return run_ensemble(system, gaussian_initial(0.5), 12, base_seed=3, dt=1e-3,
                        n_steps=20, scheme=scheme, store_every=4,
                        probe_times=(0.0, 0.008, 0.02))


def order_case(system, scheme):
    a0 = gaussian_initial(0.5)(member_seeds(1, 1), system.basis)[0]
    return order_study(system, a0, scheme, (0.02, 0.01, 0.005), n_members=6,
                       base_seed=2, t_final=0.08, ref_levels=2)


def sweep_case(system):
    plan = SweepPlan(nus=(0.1, 0.05, 0.02), n_members=6, base_seed=4, dt=1e-2,
                     n_steps=20, store_every=4, gap_battery=2)
    return viscosity_sweep(plan, system, gaussian_initial(0.5))


GOLDEN = {
    ("generate", 0): "b4918bf18fe10b3045c72bcdf6d499335e03d7268463cb1d2f9b9447652355ed",
    ("generate", 1): "1a00d314d4a7929acd0263a1e6346276c33fb8c2469432164a069b411178c4e0",
    ("generate", 2): "8ef9f8a2fdbe1a12df1e0b6804fd9cb26c2b58bf3bb54b6a82350558f44af061",
    ("generate", 3): "c66d3a1f271b102c4e28cc616985fa6aa027e9353bb1bab124b37f0c098947b3",
    ("refine",): "d4d1a284c8209c5aa84bd306a935b07267ec54f389b0ef2c33ebabff9ba3d50a",
    ("batch_increments",): "fe0ab1021a8ba83a8dbf5ce2e635f5e8480acc7551d3559bd5e0a27decf0d405",
    ("run_ensemble", "euler_maruyama", "final_states"): "1efa18e7afb4628b70f62756510eda1020ec2883232541742acf11d5c9b685ad",
    ("run_ensemble", "euler_maruyama", "energy"): "b4dddb6b2ad09c5548504f6d61677b87f33e2ec3bb7e306eb939e96b8f3560fd",
    ("run_ensemble", "euler_maruyama", "stoch_int"): "95dda61f307fed046894fed0e9ca2803add9ae8818672cb11cf5100002bef7ee",
    ("run_ensemble", "euler_maruyama", "grad_int"): "661b54f1c751e46c2ccff1e6aa616c92e8020cc94adf09069500f366e43ef4c9",
    ("run_ensemble", "euler_maruyama", "probe_states"): "0693717356ff8305e11e8fcfee005765a5d00239976384307a1e85b7e0f02693",
    ("run_ensemble", "heun", "final_states"): "b989930d870b46b05fc424b582c71dd8a3c4a350c4de1915e18fe7921b3f32df",
    ("run_ensemble", "heun", "energy"): "6a9b0d9f488b35e2bd408684104ddaf8a62a6e10ff345b5ae0d12fce780aca21",
    ("run_ensemble", "heun", "stoch_int"): "3e8bb087e16e5f2fb5d54816f446089d0ca98303e543afa2a2ee0074d0c390f4",
    ("run_ensemble", "heun", "grad_int"): "0e1cc8ab2575c01d47c6587626a1699c885949aa26da28d0f5f4f482ad644015",
    ("run_ensemble", "heun", "probe_states"): "2165773f07a123437d5c513922ce50c6305a861d12f03a218d08d3fbb620406c",
    ("member_trajectory", "euler_maruyama"): "0176a8d2f6e592a38df9e46528132f585db77c3e48eb97049747ef425bddd79f",
    ("member_trajectory", "heun"): "e9f8c30046c578510ad50902ff6429242dfadf3fb8e43245ca686dd2d1514363",
    ("order_study", "euler_maruyama"): "80cb70ee50fbe029c4d0f3deb8d5ebb65b5adf950f6f0579e4c4fe674921746b",
    ("order_study", "heun"): "a6f159546ada17af7421b4e35428b14affa506fc1632c0f2f02290834da26b7a",
    ("viscosity_sweep", "cauchy_differences"): "fee6878b168b4a8dc9b5750721ea7699ad861536b92425a848f5d32ca1eb3d55",
    ("viscosity_sweep", "residual_mean"): "213451c4b25dd3b3403ee0af6c5ebf64c4752afd70c92193dcd7b37c940c9e4a",
}


@pytest.mark.parametrize("level", range(4))
def test_generate_bitwise(level):
    path = path_case(level)
    assert path.increments.shape == (16 * 2 ** level, PATH_K)
    assert _digest(path.increments) == GOLDEN[("generate", level)]


def test_refine_bitwise():
    fine = path_case(3).refine()
    assert (fine.level, fine.n_steps, fine.dt) == (4, 256, 0.00125)
    assert _digest(fine.increments) == GOLDEN[("refine",)]


def test_batch_increments_bitwise():
    assert _digest(batch_case()) == GOLDEN[("batch_increments",)]


def test_batch_increments_rows_are_level0_paths():
    batch = batch_case()
    for m, seed in enumerate(BATCH_SEEDS):
        path = BrownianPath.generate(int(seed), 1e-3, 20, 4)
        assert oracles.bit_equal(batch[m], path.increments), m


@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_ensemble_bitwise(mixed_system_c4, scheme):
    ens = ensemble_case(mixed_system_c4, scheme)
    for name in ENSEMBLE_FIELDS:
        assert _digest(getattr(ens, name)) == GOLDEN[("run_ensemble", scheme, name)], name


@pytest.mark.parametrize("scheme", SCHEMES)
def test_member_trajectory_bitwise(mixed_system_c4, scheme):
    traj = ensemble_case(mixed_system_c4, scheme).member_trajectory(7)
    assert traj.states.shape == (21, mixed_system_c4.n_modes)
    assert _digest(traj.states) == GOLDEN[("member_trajectory", scheme)]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_order_study_bitwise(mixed_system, scheme):
    errors = order_case(mixed_system, scheme)["errors"]
    assert _digest(np.array(errors)) == GOLDEN[("order_study", scheme)]


def test_viscosity_sweep_bitwise(mixed_system):
    out = sweep_case(mixed_system)
    residuals = [p["residual_mean"] for p in out["points"]]
    assert _digest(np.array(out["cauchy_differences"])) == \
        GOLDEN[("viscosity_sweep", "cauchy_differences")]
    assert _digest(np.array(residuals)) == GOLDEN[("viscosity_sweep", "residual_mean")]


def test_saved_spacing_is_dt_times_store_every(mixed_system, mixed_system_c4):
    # the diagnostics take the saved spacing as dt * store_every; on the golden
    # grids it is bit for bit the spacing of the saved times
    grids = []
    for scheme in SCHEMES:
        ens = ensemble_case(mixed_system_c4, scheme)
        grids.append(ens)
        grids.append(ens.member_trajectory(7))
    a0 = gaussian_initial(0.5)(member_seeds(1, 1), mixed_system.basis)[0]
    for level in range(4):
        path = BrownianPath.generate(PATH_SEED, 0.02 / 2 ** level, 16 * 2 ** level,
                                     mixed_system.n_brownian, level=level)
        grids.append(integrate(mixed_system, a0, path, store_every=4))
    grids.append(run_ensemble(mixed_system, gaussian_initial(0.5), 2, base_seed=4, dt=1e-2,
                              n_steps=20, store_every=4))
    for grid in grids:
        spacing = grid.times[1] - grid.times[0]
        assert (grid.dt * grid.store_every).hex() == float(spacing).hex(), grid.dt
