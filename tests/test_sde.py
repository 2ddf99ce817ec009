import dataclasses
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochflow.basis import _csr_product
from stochflow.io_cli.storage import load_trajectory, save_trajectory
from stochflow.noise import build_noise
from stochflow.sde import (
    SCHEMES,
    BrownianPath,
    SdeError,
    Trajectory,
    _diffusion,
    _drift,
    batch_increments,
    build_system,
    integrate,
    integrate_batch,
)

import oracles


def drift(system, a):
    """The Ito drift of one state, as one member-minor column."""
    left = _csr_product(system._step_operators().em, a[:, None])
    return _drift(system, a[:, None], left[-system.n_modes:])[:, 0]


def diffusion(system, a, dW):
    """The noise increment of one state and one increment, as columns; the
    zeta rows lead the Heun stack's product."""
    za = _csr_product(system._step_operators().heun, a[:, None])
    additive = _csr_product(system._step_operators().eta, dW[:, None])
    return _diffusion(system, za, dW[:, None], additive)[:, 0]


def step(system, a, dW, dt, scheme):
    """One step of one member."""
    return integrate_batch(system, a[None], dW[None, None], dt, scheme).states[1, 0]


# -- drift ---------------------------------------------------------------------


def test_drift_zero_state(viscous_system):
    out = drift(viscous_system, np.zeros(viscous_system.n_modes))
    assert np.abs(out).max() == 0.0


def test_drift_single_viscous_mode(viscous_system):
    b = viscous_system.basis
    m = b.index_of("1,0:cos")
    a = np.zeros(b.n_modes)
    a[m] = 1.0
    out = drift(viscous_system, a)
    expected = np.zeros(b.n_modes)
    expected[m] = -0.1  # nu |k|^2 = 0.1 * 1; self-convection vanishes
    assert np.abs(out - expected).max() <= 1e-15


def test_convection_orthogonal_to_state(viscous_system, rng):
    for _ in range(100):
        a = rng.normal(size=viscous_system.n_modes)
        assert abs(a @ viscous_system.conv.apply(a)) <= 1e-12 * np.linalg.norm(a) ** 3


# -- diffusion ------------------------------------------------------------------


def test_diffusion_at_zero_state(additive_system, rng):
    eta = additive_system.noise.additive.eta
    dW = rng.normal(size=additive_system.n_brownian)
    out = diffusion(additive_system, np.zeros(additive_system.n_modes), dW)
    # one Brownian mode, so each entry is a single product
    assert np.array_equal(out, eta @ dW)


def test_transport_diffusion_energy_orthogonal(transport_system, rng):
    unit = np.eye(transport_system.n_brownian)
    for _ in range(50):
        a = rng.normal(size=transport_system.n_modes)
        for dW in unit:
            inc = diffusion(transport_system, a, dW)
            assert abs(a @ inc) <= 1e-13 * np.linalg.norm(a) ** 2


def test_diffusion_matches_dense_oracle(transport_system, rng):
    a = rng.normal(size=transport_system.n_modes)
    dW = rng.normal(size=transport_system.n_brownian)
    tr = transport_system.noise.transport
    dense = oracles.dense_diffusion(transport_system.noise.additive.eta,
                                    tr.zeta, tr.modes, a)
    assert np.abs(diffusion(transport_system, a, dW) - dense @ dW).max() <= 1e-13


# -- single steps ----------------------------------------------------------------


def test_em_zero_everything(additive_system):
    a = np.zeros(additive_system.n_modes)
    out = step(additive_system, a, np.zeros(additive_system.n_brownian), 1e-2,
               "euler_maruyama")
    assert np.abs(out).max() == 0.0


def test_em_viscous_decay_oracle(viscous_system):
    b = viscous_system.basis
    a = np.zeros(b.n_modes)
    a[b.index_of("1,0:cos")] = 1.0
    dt = 1e-3
    a = integrate_batch(viscous_system, a[None], np.zeros((1, 1000, 0)), dt).states[-1, 0]
    exact = oracles.eigenmode_energy(0.1, 1.0, 1.0)
    assert abs(float(a @ a) - exact) <= 1e-3


def test_em_refinement_strong_order_half(transport_system, rng):
    a0 = rng.normal(size=transport_system.n_modes) * 0.2
    errs = []
    for m in range(8):
        p1 = BrownianPath.generate(100 + m, 1e-2, 50, transport_system.n_brownian)
        p2 = p1.refine()
        t1 = integrate(transport_system, a0, p1)
        t2 = integrate(transport_system, a0, p2, store_every=2)
        errs.append(np.linalg.norm(t1.states[-1] - t2.states[-1]))
    # coupled half-step difference scales like sqrt(dt): nonzero but small
    assert 0 < np.mean(errs) < 0.3 * np.linalg.norm(a0)


def test_heun_deterministic_matches_rk2(viscous_system, rng):
    a = rng.normal(size=viscous_system.n_modes) * 0.5
    dt = 1e-2

    def f(y):
        return drift(viscous_system, y)

    ref = oracles.rk2_step(f, a, dt)
    out = step(viscous_system, a, np.zeros(0), dt, "heun")
    assert np.abs(out - ref).max() <= 1e-14


def test_heun_transport_energy_conservation(transport_system, rng):
    a0 = rng.normal(size=transport_system.n_modes)
    a0 *= 0.5 / np.linalg.norm(a0)
    path = BrownianPath.generate(17, 1e-3, 1000, 1)
    traj = integrate(transport_system, a0, path, scheme="heun")
    drift_rel = abs(traj.energy[-1] - traj.energy[0]) / traj.energy[0]
    assert drift_rel <= 1e-4


def test_heun_equals_em_for_state_independent_coefficients(basis2_1, rng):
    # no drift (nu = 0, single mode has no self-triad) and additive-only noise
    eta_vec = np.zeros(basis2_1.n_modes)
    eta_vec[2] = 0.4
    system = build_system(basis2_1, build_noise(basis2_1, [(0, eta_vec)]), nu=0.0)
    a = np.zeros(basis2_1.n_modes)
    a[basis2_1.index_of("1,0:cos")] = 0.7
    assert np.abs(drift(system, a)).max() == 0.0
    dW = rng.normal(size=1) * np.sqrt(1e-2)
    em = step(system, a, dW, 1e-2, "euler_maruyama")
    heun = step(system, a, dW, 1e-2, "heun")
    assert np.array_equal(em, heun)


# -- brownian paths --------------------------------------------------------------


def test_path_reproducible():
    p1 = BrownianPath.generate(9, 1e-2, 128, 3)
    p2 = BrownianPath.generate(9, 1e-2, 128, 3)
    assert np.array_equal(p1.increments, p2.increments)
    p3 = BrownianPath.generate(10, 1e-2, 128, 3)
    assert not np.array_equal(p1.increments, p3.increments)


def test_path_refinement_consistency():
    p = BrownianPath.generate(3, 0.02, 64, 2)
    fine = p.refine()
    assert fine.dt == 0.01 and fine.n_steps == 128
    recon = fine.increments[0::2] + fine.increments[1::2]
    assert np.abs(recon - p.increments).max() <= 1e-12
    finer = fine.refine()
    recon2 = finer.increments[0::2] + finer.increments[1::2]
    assert np.abs(recon2 - fine.increments).max() <= 1e-12


BAD_SEEDS = [-1, -2 ** 63, 2 ** 64, 1.5, 2.0, np.float64(3.0), "3", None]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_draws_refuse_seeds_outside_uint64(seed):
    # numpy would wrap a negative seed, truncate a float and overflow past 2**64
    with pytest.raises(SdeError, match="seeds must be integers"):
        BrownianPath.generate(seed, 1e-3, 4, 2)
    with pytest.raises(SdeError, match="seeds must be integers"):
        batch_increments([3, seed], 1e-3, 4, 2)
    with pytest.raises(SdeError, match="seeds must be integers"):
        batch_increments(np.array([3, seed]), 1e-3, 4, 2)
    path = BrownianPath.generate(3, 1e-3, 4, 2)
    with pytest.raises(SdeError, match="seeds must be integers"):
        dataclasses.replace(path, seed=seed).refine()


def test_draws_key_every_uint64_seed():
    # a list that mixes seeds below and above 2**63, which numpy casts to
    # float, draws the rows of its uint64 array; so do an int64 array and
    # numpy integers
    seeds = [0, 2 ** 63 + 11, 2 ** 64 - 1, np.uint64(7), np.int64(5)]
    want = batch_increments(np.array([int(s) for s in seeds], dtype=np.uint64), 1e-3, 4, 2)
    assert np.array_equal(batch_increments(seeds, 1e-3, 4, 2), want)
    assert np.array_equal(batch_increments(np.array([0, 5]), 1e-3, 4, 2), want[[0, 4]])
    for m, seed in enumerate(seeds):
        assert np.array_equal(BrownianPath.generate(seed, 1e-3, 4, 2).increments, want[m])


def test_path_increment_statistics():
    p = BrownianPath.generate(4, 0.25, 4000, 2)
    sigma = p.increments.std()
    assert abs(sigma - 0.5) < 0.02


# -- integrate -------------------------------------------------------------------


def test_integrate_zero_horizon(viscous_system, rng):
    a0 = rng.normal(size=viscous_system.n_modes)
    path = BrownianPath.generate(1, 1e-3, 0, 0)
    traj = integrate(viscous_system, a0, path)
    assert traj.times.shape == (1,)
    assert np.array_equal(traj.states[0], a0)


def test_integrate_monotone_viscous_energy(viscous_system, rng):
    a0 = rng.normal(size=viscous_system.n_modes) * 0.3
    path = BrownianPath.generate(2, 1e-3, 500, 0)
    traj = integrate(viscous_system, a0, path)
    assert np.all(np.diff(traj.energy) <= 0)


def test_integrate_deterministic_bitwise(additive_system, rng):
    a0 = rng.normal(size=additive_system.n_modes) * 0.3
    path = BrownianPath.generate(5, 1e-3, 300, additive_system.n_brownian)
    t1 = integrate(additive_system, a0, path)
    t2 = integrate(additive_system, a0, path)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.stoch_int, t2.stoch_int)


def test_integrate_flags_blowup(basis2_2, conv2_2):
    system = build_system(basis2_2, build_noise(basis2_2), nu=50.0, conv=conv2_2)
    a0 = np.ones(basis2_2.n_modes)
    path = BrownianPath.generate(1, 0.5, 400, 0)
    with pytest.warns(RuntimeWarning):
        traj = integrate(system, a0, path)
    assert traj.blowup_time is not None
    assert np.all(np.isfinite(traj.states))  # frozen at the last finite state


@pytest.mark.parametrize("scheme", ["euler_maruyama", "heun"])
def test_blowup_flagged_not_raised(basis2_2, conv2_2, scheme):
    system = build_system(basis2_2, build_noise(basis2_2), nu=0.0, conv=conv2_2)
    a0 = 50.0 * np.random.default_rng(0).normal(size=basis2_2.n_modes)
    path = BrownianPath.generate(1, 0.5, 40, 0)
    with pytest.warns(RuntimeWarning):
        traj = integrate(system, a0, path, scheme=scheme)
    assert traj.blowup_time is not None
    assert np.all(np.isfinite(traj.states))  # frozen at the last finite state


def test_heun_blowup_leaves_other_members_bitwise(basis2_2, conv2_2, rng):
    system = build_system(basis2_2, build_noise(basis2_2), nu=0.0, conv=conv2_2)
    calm = 0.1 * rng.normal(size=(2, basis2_2.n_modes))
    wild = calm.copy()
    wild[1] = 50.0 * np.random.default_rng(0).normal(size=basis2_2.n_modes)
    inc = np.zeros((2, 40, 0))
    with pytest.warns(RuntimeWarning):  # the dt guardrail
        out = integrate_batch(system, wild, inc, 0.5, scheme="heun")
        ref = integrate_batch(system, calm, inc, 0.5, scheme="heun")
    assert out.blowup_step[0] == -1 and out.blowup_step[1] > 0
    assert np.array_equal(out.states[:, 0], ref.states[:, 0])
    assert np.all(np.isfinite(out.states))


def _two_transport_system(basis, conv):
    """nu = 0.05, additive noise on Brownian modes 0 and 2 and transport
    fields on modes 1 and 3 (K = 4)."""
    gen = np.random.default_rng(23)
    low = basis.k_sq <= 2
    sigma1 = [(ell, gen.normal(scale=0.2, size=basis.n_modes)) for ell in (0, 2)]
    fields = [(ell, gen.normal(scale=0.3, size=basis.n_modes) * low) for ell in (1, 3)]
    return build_system(basis, build_noise(basis, sigma1, fields), nu=0.05, conv=conv)


@pytest.mark.parametrize("n_members", [1, 2, 5, 33])
@pytest.mark.parametrize("scheme", ["euler_maruyama", "heun"])
@given(seed=st.integers(0, 2 ** 32 - 1), wild=st.integers(0, 32))
@settings(max_examples=4, deadline=None)
def test_integrate_batch_member_invariant(basis2_2, conv2_2, n_members, scheme, seed, wild):
    # every member, the one forced to blow up included, is a pure function of
    # its own state and increments: alone it equals its batch column bit for bit
    system = _two_transport_system(basis2_2, conv2_2)
    gen = np.random.default_rng(seed)
    a0 = gen.normal(scale=0.3, size=(n_members, system.n_modes))
    wild %= n_members
    a0[wild] *= 1e4
    dt, n_steps = 1e-2, 12
    inc = gen.normal(scale=np.sqrt(dt), size=(n_members, n_steps, system.n_brownian))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the guardrail, overflow
        batch = integrate_batch(system, a0, inc, dt, scheme, store_every=3)
        alone = [integrate_batch(system, a0[m:m + 1], inc[m:m + 1], dt, scheme, store_every=3)
                 for m in range(n_members)]
    assert batch.blowup_step[wild] > 0
    for m, one in enumerate(alone):
        for key in ("states", "energy", "grad_energy", "stoch_int", "grad_int", "increments"):
            col = np.ascontiguousarray(getattr(batch, key)[:, m])
            assert oracles.bit_equal(col, getattr(one, key)[:, 0]), (m, key)
        for key in ("sup_energy", "blowup_step"):
            assert oracles.bit_equal(getattr(batch, key)[m:m + 1], getattr(one, key)), (m, key)


def test_stability_dt_reuses_transport_norms(basis2_2, conv2_2, monkeypatch):
    system = _two_transport_system(basis2_2, conv2_2)
    rate = system.nu * float(system.basis.k_sq.max()) + 0.7 * system.conv.frobenius
    for zeta in system.noise.transport.zeta:
        rate += float(np.linalg.norm(zeta, 2)) ** 2
    assert system.stability_dt(0.7) == 0.5 / rate
    # the spectral norms are cached with the step operators: no second SVD

    def no_norm(*args, **kwargs):
        raise AssertionError("spectral norm recomputed")

    monkeypatch.setattr(np.linalg, "norm", no_norm)
    assert system.stability_dt(0.7) == 0.5 / rate


@pytest.mark.parametrize("scheme", ["euler_maruyama", "heun"])
def test_integrate_batch_rejects_bad_shapes_and_dt(basis2_2, conv2_2, scheme):
    system = _two_transport_system(basis2_2, conv2_2)
    N, K = system.n_modes, system.n_brownian
    inc = np.zeros((2, 3, K))
    with pytest.raises(SdeError, match="state has shape"):
        integrate_batch(system, np.zeros((2, N - 1)), inc, 1e-3, scheme)
    with pytest.raises(SdeError, match="state has shape"):
        integrate_batch(system, np.zeros((2, N - 1)), np.zeros((2, 0, K)), 1e-3, scheme)
    for bad in (np.zeros((3, 3, K)), np.zeros((2, 3, K - 1)), np.zeros((2, 3)),
                np.zeros((2, 3, K, 1)), np.zeros((2, 3, K)).tolist()):
        with pytest.raises(SdeError, match="increment array inconsistent"):
            integrate_batch(system, np.zeros((2, N)), bad, 1e-3, scheme)
    with pytest.raises(SdeError, match="increment array inconsistent"):
        integrate(system, np.zeros(N), BrownianPath.generate(1, 1e-3, 3, K - 1), scheme)
    for dt in (0.0, -1e-3, np.nan, np.inf, -np.inf):
        with pytest.raises(SdeError, match="dt must be positive"):
            integrate_batch(system, np.zeros((2, N)), inc, dt, scheme)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_integrators_refuse_nonfinite_initial_state(basis2_2, conv2_2, scheme, bad):
    # refused once at the boundary; the loop freezes a member that blows up
    # at its last finite state, so no step starts from a non-finite state
    system = _two_transport_system(basis2_2, conv2_2)
    N, K = system.n_modes, system.n_brownian
    a0 = np.zeros((3, N))
    a0[1, N // 2] = bad
    with pytest.raises(SdeError, match="non-finite initial state"):
        integrate_batch(system, a0, np.zeros((3, 4, K)), 1e-3, scheme)
    with pytest.raises(SdeError, match="non-finite initial state"):
        integrate(system, a0[1], BrownianPath.generate(1, 1e-3, 4, K), scheme)


@pytest.mark.parametrize("store_every", [0, -2, 2.5])
def test_integrators_refuse_bad_store_every(basis2_2, conv2_2, store_every):
    # refused by name, before `n_steps % store_every` or the saved grid's
    # shape can misreport it
    system = _two_transport_system(basis2_2, conv2_2)
    N, K = system.n_modes, system.n_brownian
    with pytest.raises(SdeError, match="store_every must be a positive integer"):
        integrate_batch(system, np.zeros((2, N)), np.zeros((2, 4, K)), 1e-3,
                        store_every=store_every)
    with pytest.raises(SdeError, match="store_every must be a positive integer"):
        integrate(system, np.zeros(N), BrownianPath.generate(1, 1e-3, 4, K),
                  store_every=store_every)


@pytest.mark.parametrize("dt", [0.0, np.nan, np.inf, -np.inf])
def test_steps_and_paths_refuse_bad_dt(basis2_2, conv2_2, dt):
    # `dt <= 0` is False for NaN, so a non-finite dt needs its own refusal
    system = _two_transport_system(basis2_2, conv2_2)
    N, K = system.n_modes, system.n_brownian
    for scheme in SCHEMES:
        with pytest.raises(SdeError, match="dt must be positive"):
            step(system, np.zeros(N), np.zeros(K), dt, scheme)
    with pytest.raises(SdeError, match="dt > 0"):
        BrownianPath.generate(1, dt, 4, K)


@pytest.mark.parametrize("nu", [-1e-3, np.nan, np.inf])
def test_build_system_refuses_bad_viscosity(basis2_2, conv2_2, nu):
    with pytest.raises(SdeError, match="viscosity"):
        build_system(basis2_2, nu=nu, conv=conv2_2)


def test_corr_is_the_noise_correction(mixed_system):
    # the system reads the noise's cached correction and holds no copy that a
    # caller could set apart from the noise
    assert mixed_system.corr is mixed_system.noise.transport.correction()
    with pytest.raises(TypeError):
        dataclasses.replace(mixed_system, corr=np.zeros_like(mixed_system.corr))


def test_energy_series_is_parseval(additive_system, rng):
    a0 = rng.normal(size=additive_system.n_modes) * 0.4
    path = BrownianPath.generate(8, 1e-3, 100, additive_system.n_brownian)
    traj = integrate(additive_system, a0, path)
    recomputed = 0.5 * np.einsum("tn,tn->t", traj.states, traj.states)
    assert np.abs(traj.energy - recomputed).max() <= 1e-15 * max(1.0, traj.energy.max())
    gradE = np.einsum("n,tn->t", additive_system.basis.k_sq, traj.states ** 2)
    assert np.abs(traj.grad_energy - gradE).max() <= 1e-13


def test_store_every_thins_grid(additive_system, rng):
    a0 = rng.normal(size=additive_system.n_modes) * 0.4
    path = BrownianPath.generate(8, 1e-3, 100, additive_system.n_brownian)
    full = integrate(additive_system, a0, path)
    thin = integrate(additive_system, a0, path, store_every=10)
    assert thin.times.shape == (11,)
    assert np.array_equal(thin.states[1], full.states[10])
    # pathwise accumulators keep full resolution
    assert thin.stoch_int[-1] == full.stoch_int[-1]
    assert np.abs(thin.increments[0] - full.increments[:10].sum(axis=0)).max() <= 1e-15


# -- the time grid ------------------------------------------------------------------


@given(dt=st.floats(1e-5, 0.1), store_every=st.integers(1, 20), n_save=st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_time_grid_rule(dt, store_every, n_save):
    # a saved time names its own index, in memory and after a container
    # round trip; a time up to 1e-9 * max(1, |t|) above it names it too
    spacing = dt * store_every
    times = np.arange(n_save + 1) * spacing
    traj = Trajectory(
        times=times, states=np.zeros((n_save + 1, 1)), energy=np.zeros(n_save + 1),
        grad_energy=np.zeros(n_save + 1), stoch_int=np.zeros(n_save + 1),
        grad_int=np.zeros(n_save + 1), increments=np.zeros((n_save, 0)), seed=0,
        dt=dt, store_every=store_every, scheme="euler_maruyama", nu=0.0)
    with tempfile.TemporaryDirectory() as tmp:
        save_trajectory(Path(tmp) / "t.bin", traj, "ab" * 32)
        loaded, _ = load_trajectory(Path(tmp) / "t.bin")
    for j, t in enumerate(times):
        assert traj.index_of_time(t) == j
        assert loaded.index_of_time(t) == j
        assert traj.index_of_time(t + 0.5e-9 * max(1.0, t)) == j
    off_grid = [(j + 0.5) * spacing for j in range(n_save)]
    off_grid += [times[-1] + spacing, -spacing]
    for t in off_grid:
        for tr in (traj, loaded):
            with pytest.raises(SdeError, match="saved grid"):
                tr.index_of_time(t)
