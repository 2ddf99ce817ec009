"""Bitwise pins of the integration layer: Brownian paths, ensembles, studies.

Each digest is the SHA-256 of the little-endian bytes of one output, recorded
from the code in which `BrownianPath.generate` regenerated every level from
the level-0 draw, `batch_increments` drew level 0 on its own and the ensemble
driver ran each chunk through its own copy of the member loop.  The pins hold
any later arrangement of those paths to the same bits: a member's increments
and its integration are one pure function of its seed.  The ensemble, member,
order-study and sweep pins were re-recorded once, when the time loop came to
keep its state member-minor and to apply the step's linear operators as CSR
products; the path pins were not.  The `integrate_batch` pins, every field of
a `BatchResult`, were recorded from the loop that reduced its series and
accumulators step by step, and hold any blocked reduction of them to its bits.
"""

import hashlib
import warnings

import numpy as np
import pytest

from stochflow.ensemble import gaussian_initial, member_seeds, run_ensemble
from stochflow.experiments import SweepPlan, order_study, viscosity_sweep
from stochflow.sde import SCHEMES, BrownianPath, batch_increments, integrate, integrate_batch

import oracles


def _digest(arr):
    arr = np.asarray(arr)
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes()
    ).hexdigest()


PATH_SEED, PATH_K = 2024, 3


def path_case(level, n_brownian=PATH_K):
    """The path on [0, 0.32] at dt = 0.02 / 2**level: the level-0 path at
    dt = 0.02, refined `level` times."""
    path = BrownianPath.generate(PATH_SEED, 0.02, 16, n_brownian)
    for _ in range(level):
        path = path.refine()
    return path


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
                     n_steps=20, store_every=4)
    return viscosity_sweep(plan, system, gaussian_initial(0.5))


BATCH_FIELDS = ("times", "states", "energy", "grad_energy", "stoch_int", "grad_int",
                "increments", "sup_energy", "blowup_step")

# (members, n_steps, store_every): a thinned batch, and one member saved at
# every step over more steps than one block of the time loop's bookkeeping
LOOP_CASES = {"m12": (12, 200, 4), "m1": (1, 1000, 1)}


def loop_case(system, scheme, case):
    members, n_steps, store_every = LOOP_CASES[case]
    seeds = member_seeds(6, members)
    a0 = gaussian_initial(0.5)(seeds, system.basis)
    inc = batch_increments(seeds, 1e-3, n_steps, system.n_brownian)
    return integrate_batch(system, a0, inc, 1e-3, scheme, store_every)


def blowup_case(system, scheme):
    """Seven members at a step past the guardrail; members 1 and 4 start at
    1e4 times their draw and blow up, the others stay finite."""
    seeds = member_seeds(8, 7)
    a0 = gaussian_initial(0.5)(seeds, system.basis)
    a0[[1, 4]] *= 1e4
    inc = batch_increments(seeds, 1e-2, 24, system.n_brownian)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the guardrail, overflow
        return integrate_batch(system, a0, inc, 1e-2, scheme, store_every=3)


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
    ("integrate_batch", "m12", "euler_maruyama", "times"): "3dc6ee200e5fcdc225e93a92341bbb2fc29c5fedb90dbad1fcf2ef79e1c1e92e",
    ("integrate_batch", "m12", "euler_maruyama", "states"): "18dbbf0373ee54e8980a6c69ac39b5e6e73f7da7887c57b9b3b484ad2f96465c",
    ("integrate_batch", "m12", "euler_maruyama", "energy"): "cd9c3dafe50940529e392c0ed96c2dd97000a6e9e86169c5007e779f5f8f450b",
    ("integrate_batch", "m12", "euler_maruyama", "grad_energy"): "1e8c9494ae019ccff8e640624c6ee0f6940a360a9406c436448313e53640e70c",
    ("integrate_batch", "m12", "euler_maruyama", "stoch_int"): "c394f38aa7f65aee1c613508d2a20fea802ff7c18e5bc430446763361d65e9bf",
    ("integrate_batch", "m12", "euler_maruyama", "grad_int"): "9149108d75efe42ecf90ebc37c430276aaf51f5c6e24038e95d6fc5fc5089cdd",
    ("integrate_batch", "m12", "euler_maruyama", "increments"): "1ac3554406f78d04aaff66c64e14039abee8f492486f7cb2109b6c0f1d3323a6",
    ("integrate_batch", "m12", "euler_maruyama", "sup_energy"): "8d25a50ba8ef0372751c41c6a52cb1f6f724c357e14f819db3c28564b7e76cbd",
    ("integrate_batch", "m12", "euler_maruyama", "blowup_step"): "ce65609cc564ce3d8cb72d46bc44cd5495afbad7bc61b5edfa0799baa5063191",
    ("integrate_batch", "m1", "euler_maruyama", "times"): "be069d7d0c6719743ada6aed42916e2798ddc937afaa56bd63d766dcca764331",
    ("integrate_batch", "m1", "euler_maruyama", "states"): "c0b9d3b73a0ff600af4ec0830e6ec06b300d362b00406f13ad93cb08503af0b1",
    ("integrate_batch", "m1", "euler_maruyama", "energy"): "4d9589bd49f5a779644db47d1fa3bc53516f9e61980be3324a85f20d108b8073",
    ("integrate_batch", "m1", "euler_maruyama", "grad_energy"): "e1e5b78b071f9c4e753d02c9e1cffaafe6aebad6bc0fc560da77552946ff0b26",
    ("integrate_batch", "m1", "euler_maruyama", "stoch_int"): "6b8b51338cdf8e1c0ac118180d4981e3040750f52085857887fa9c634ff7816a",
    ("integrate_batch", "m1", "euler_maruyama", "grad_int"): "0865320d4bd9d1bd76d5c01a057ebd2a46d3e33d965268bcd68ea462e0331d1f",
    ("integrate_batch", "m1", "euler_maruyama", "increments"): "5909b10f17d61f45020e0618915088dea8a5664d0c9493c68b245d7a93cf5749",
    ("integrate_batch", "m1", "euler_maruyama", "sup_energy"): "2fe302deebc57eff1f6384d63d913a88b8cd2f2e33ea4469ea5018a4ba4684ea",
    ("integrate_batch", "m1", "euler_maruyama", "blowup_step"): "12a3ae445661ce5dee78d0650d33362dec29c4f82af05e7e57fb595bbbacf0ca",
    ("integrate_batch", "blowup", "euler_maruyama", "times"): "c9e7ffc3752e1374d04bf13def5fb704fd499445c40c8d729e1198ab44b660cc",
    ("integrate_batch", "blowup", "euler_maruyama", "states"): "29e1260a35ed2dda6650723480ad2751101516a594f8bc030f96066252901b62",
    ("integrate_batch", "blowup", "euler_maruyama", "energy"): "624bcb5086379d93fbeed37d34388880e9bae099f1e87fa0ce82d4d548884d21",
    ("integrate_batch", "blowup", "euler_maruyama", "grad_energy"): "450fe09f969893a506b82b5e65ab27d32e32e67ba3f173c25cf6c8cf9a79304d",
    ("integrate_batch", "blowup", "euler_maruyama", "stoch_int"): "57274c6a120de9a406979090763621166d268fc501415c03b26cf6a8e67fc83c",
    ("integrate_batch", "blowup", "euler_maruyama", "grad_int"): "8f7e7cc262f6afa82e11dc5d3dbdbf21b38ec35701479ae2b7a5558d9728982b",
    ("integrate_batch", "blowup", "euler_maruyama", "increments"): "0cdf278fd878fc0995a7997b83141e9f4cb1c69c39cd1db322334b3ca6c9431b",
    ("integrate_batch", "blowup", "euler_maruyama", "sup_energy"): "ce7dd0e21da0f809ae4d91167135916af8819d5be22813fc4ee6e5d17bb0c573",
    ("integrate_batch", "blowup", "euler_maruyama", "blowup_step"): "6a0c8529133931c97bd9e491cdca964ced31d8c06658505d3c0fe9dc30400803",
    ("integrate_batch", "m12", "heun", "times"): "3dc6ee200e5fcdc225e93a92341bbb2fc29c5fedb90dbad1fcf2ef79e1c1e92e",
    ("integrate_batch", "m12", "heun", "states"): "51221f369f34ea6333b899ccee0f8916eeee0b6c21f6bdc36ebbc06283a9fae4",
    ("integrate_batch", "m12", "heun", "energy"): "10ca1ea47eef6cd9b383bc85173a076ae6c4eec7cb6f209bfe1be05f484fad37",
    ("integrate_batch", "m12", "heun", "grad_energy"): "a828e55abe2bf66aa997420ae35920de4b2ee9136c7043a398766087f831ea6a",
    ("integrate_batch", "m12", "heun", "stoch_int"): "22811741b39847a627007f035fc54de833785192cc3323c5d0e35efcc27a4cbf",
    ("integrate_batch", "m12", "heun", "grad_int"): "4b8ff484b42ea627a91e184aa860426f0cf4a7136b85ca1a090d28ee8f7967ac",
    ("integrate_batch", "m12", "heun", "increments"): "1ac3554406f78d04aaff66c64e14039abee8f492486f7cb2109b6c0f1d3323a6",
    ("integrate_batch", "m12", "heun", "sup_energy"): "fc584b85e48e78b255059d364de8d5612f56da090e452775550050e93f6d5ea8",
    ("integrate_batch", "m12", "heun", "blowup_step"): "ce65609cc564ce3d8cb72d46bc44cd5495afbad7bc61b5edfa0799baa5063191",
    ("integrate_batch", "m1", "heun", "times"): "be069d7d0c6719743ada6aed42916e2798ddc937afaa56bd63d766dcca764331",
    ("integrate_batch", "m1", "heun", "states"): "7f0c9e2107396adc3a70219cb91a83ae29fba18f623a7c8fe657d7e0cc6296aa",
    ("integrate_batch", "m1", "heun", "energy"): "f115cbe19ad1bf854f09739011ab91fe1daa6cd2abc2ec986a34fcf64d871015",
    ("integrate_batch", "m1", "heun", "grad_energy"): "bd33c2531c3597a6cba01783511b6b45a8958b63a812be394ccba628517aa34d",
    ("integrate_batch", "m1", "heun", "stoch_int"): "9acfb52196aa6ad5df7f8e30769057e4e5e1e2a2b9a4e2f314443a7ef10b6ea0",
    ("integrate_batch", "m1", "heun", "grad_int"): "e0ecf9acf84b3afd010cdb752f695b89734bddc8481ed83947a69bd7a10b0272",
    ("integrate_batch", "m1", "heun", "increments"): "5909b10f17d61f45020e0618915088dea8a5664d0c9493c68b245d7a93cf5749",
    ("integrate_batch", "m1", "heun", "sup_energy"): "81701c2e50a0b96c7784d858f8c4bb5c96fc8e83cd239cf077cfd2c006ab76cc",
    ("integrate_batch", "m1", "heun", "blowup_step"): "12a3ae445661ce5dee78d0650d33362dec29c4f82af05e7e57fb595bbbacf0ca",
    ("integrate_batch", "blowup", "heun", "times"): "c9e7ffc3752e1374d04bf13def5fb704fd499445c40c8d729e1198ab44b660cc",
    ("integrate_batch", "blowup", "heun", "states"): "b1f82270d0412ebc8734a73b11e46203febb31ed7832c5ac396c7ccd9e252bfd",
    ("integrate_batch", "blowup", "heun", "energy"): "ea298a52ac368bd3434786ce65e4abc91062fa46813bdf59170b37039b88175b",
    ("integrate_batch", "blowup", "heun", "grad_energy"): "b3b8537684a2da29e9c44f91d66d106c0cce93969615b8892e7d3464b7bda34e",
    ("integrate_batch", "blowup", "heun", "stoch_int"): "016fd8a187fab21a4294c02bb7b0055ef9282a87a2a6c09d7acbd99cc01c517d",
    ("integrate_batch", "blowup", "heun", "grad_int"): "e30cc90f0b8930fb92fa98a1b725db2fcb1ff24fb8166bbb2452e68f0eb17ff8",
    ("integrate_batch", "blowup", "heun", "increments"): "0cdf278fd878fc0995a7997b83141e9f4cb1c69c39cd1db322334b3ca6c9431b",
    ("integrate_batch", "blowup", "heun", "sup_energy"): "85b328b0caa539864e6565fd49bb485bff18d13b2663be0f7a171e82e411ff87",
    ("integrate_batch", "blowup", "heun", "blowup_step"): "66fa7ebef7f2ed23766b0d014d75400b3b9d2426e5c9eab871125f140c4dadfa",
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


@pytest.mark.parametrize("case", LOOP_CASES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_integrate_batch_bitwise(mixed_system_c4, scheme, case):
    out = loop_case(mixed_system_c4, scheme, case)
    for name in BATCH_FIELDS:
        assert _digest(getattr(out, name)) == GOLDEN[("integrate_batch", case, scheme, name)], name


@pytest.mark.parametrize("scheme", SCHEMES)
def test_integrate_batch_blowup_bitwise(mixed_system_c4, scheme):
    out = blowup_case(mixed_system_c4, scheme)
    assert list(np.flatnonzero(out.blowup_step >= 0)) == [1, 4]
    for name in BATCH_FIELDS:
        assert _digest(getattr(out, name)) == GOLDEN[("integrate_batch", "blowup", scheme, name)], name


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
        grids.append(integrate(mixed_system, a0, path_case(level, mixed_system.n_brownian),
                               store_every=4))
    grids.append(run_ensemble(mixed_system, gaussian_initial(0.5), 2, base_seed=4, dt=1e-2,
                              n_steps=20, store_every=4))
    for grid in grids:
        spacing = grid.times[1] - grid.times[0]
        assert (grid.dt * grid.store_every).hex() == float(spacing).hex(), grid.dt
