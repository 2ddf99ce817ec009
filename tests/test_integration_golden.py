"""Bitwise pins of the integration layer: Brownian paths, ensembles, studies.

Each digest is the SHA-256 of the little-endian bytes of one output, recorded
from the code in which `BrownianPath.generate` regenerated every level from
the level-0 draw, `batch_increments` drew level 0 on its own and the ensemble
driver ran each chunk through its own copy of the member loop.  The pins hold
any later arrangement of those paths to the same bits: a member's increments
and its integration are one pure function of its seed.  The ensemble, member,
order-study and sweep pins were re-recorded once, when the time loop came to
keep its state member-minor and to apply the step's linear operators as CSR
products; the path pins were not.
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
    ("run_ensemble", "euler_maruyama", "final_states"): "309f610b6e29b7545abc2b207623a6a62d505b3d7e280c51d5fbcd9f078cb51d",
    ("run_ensemble", "euler_maruyama", "energy"): "7fd9355978acc47700c96bd77b13ad11a3e831ae4bd0dff30f80872b2b99cf80",
    ("run_ensemble", "euler_maruyama", "stoch_int"): "ad3627a2081e1808779200cbe8cc3cdd69b9cdb4c2946386b0aa941392cf2566",
    ("run_ensemble", "euler_maruyama", "grad_int"): "1af36fd02c43007a0a778afd6d6ad3f6b9f62c7915e20134fb8e30bdc48156d8",
    ("run_ensemble", "euler_maruyama", "probe_states"): "717c79d3b11ca23b52d72b59af1ad6f8931ae2598327d032e54ec7df01f47188",
    ("run_ensemble", "heun", "final_states"): "f0685f2a882801fa0a83078f9c4e29f982cd44243767ca8cdbe6f6efd01c334e",
    ("run_ensemble", "heun", "energy"): "b86c49ae2dc4afceb73e84d3c376a35b47e233b5f47d21aac529141beabe49f7",
    ("run_ensemble", "heun", "stoch_int"): "13765d2a0015d93d02926b8df6dfe1c575cbe8850bf98410edd2f5e44aa1d5de",
    ("run_ensemble", "heun", "grad_int"): "aaf94d30edf91ca7ca9af29fd7a4a022338e3ba58d9c1714a03c5c665c994f33",
    ("run_ensemble", "heun", "probe_states"): "c2e72d8aa855b5d604f257effaedf5cf6ba51d104c7b9ba7209895799462e7d6",
    ("member_trajectory", "euler_maruyama"): "53ac2d5b4f92975f42df6238d6154586ca92b554542d02a071b8b1ac0ae708f1",
    ("member_trajectory", "heun"): "71e66e15d43d4397ad41591eafdddc0b708f9bfd18951a80478ce380ecdf33f0",
    ("order_study", "euler_maruyama"): "979dcc7e438f556614e2887456eb0a3666c13ad9c3c9ac43ff01b803e45c2453",
    ("order_study", "heun"): "325b215ac9b6546cc28be3ec8a18fe6de44893e4a2b119b50b90f09efbb2d485",
    ("viscosity_sweep", "cauchy_differences"): "6352a10fb2ea82e4927b86c37fbe0096c841ed67c8ee4982c29060c351b24897",
    ("viscosity_sweep", "residual_mean"): "16179c33c2b790f0a7a47a7bf71b38c6c43fe34e5fba6fad2bb15e0072af2c60",
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
