import itertools
from dataclasses import fields

import numpy as np
import pytest

from stochflow import ensemble as ensemble_mod
from stochflow.ensemble import (
    Ensemble,
    EnsembleError,
    empirical_measure,
    gaussian_initial,
    member_seeds,
    moment_report,
    run_ensemble,
)
from stochflow.noise import hs_norm
from stochflow.sde import SCHEMES

import oracles


def test_member_seeds_distinct():
    seeds = member_seeds(123, 1000)
    assert len(set(seeds.tolist())) == 1000


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_member_seeds_distinct_across_base_seeds():
    # ensembles with different base seeds share no member stream
    assert not set(member_seeds(0, 64).tolist()) & set(member_seeds(1, 64).tolist())


def test_single_member_deterministic(viscous_system, rng):
    a0 = rng.normal(size=viscous_system.n_modes) * 0.3
    ens = run_ensemble(viscous_system, a0, 1, base_seed=0, dt=1e-3, n_steps=100)
    traj = ens.member_trajectory(0)
    assert np.array_equal(traj.states[-1], ens.final_states[0])
    assert ens.n_members == 1


def test_members_differ(additive_system, rng):
    a0 = rng.normal(size=additive_system.n_modes) * 0.3
    ens = run_ensemble(additive_system, a0, 2, base_seed=5, dt=1e-3, n_steps=50)
    assert not np.array_equal(ens.final_states[0], ens.final_states[1])


def test_repeatability_bitwise(additive_system, rng):
    a0 = rng.normal(size=additive_system.n_modes) * 0.3
    e1 = run_ensemble(additive_system, a0, 32, base_seed=5, dt=1e-3, n_steps=50)
    e2 = run_ensemble(additive_system, a0, 32, base_seed=5, dt=1e-3, n_steps=50)
    assert np.array_equal(e1.energy, e2.energy)
    assert np.array_equal(e1.final_states, e2.final_states)
    assert np.array_equal(e1.sup_energy, e2.sup_energy)


def test_threaded_matches_serial(mixed_system, mixed_system_c4, monkeypatch):
    sample = gaussian_initial(0.5)
    kw = dict(base_seed=5, dt=1e-3, n_steps=20, store_every=4, probe_times=(0.0, 0.008, 0.02))
    for system, scheme in itertools.product((mixed_system, mixed_system_c4), SCHEMES):
        one = run_ensemble(system, sample, 64, scheme=scheme, **kw)
        with monkeypatch.context() as patch:
            patch.setattr(ensemble_mod, "_chunk_size", lambda *args: 5)
            for threads in (1, 4):
                many = run_ensemble(system, sample, 64, scheme=scheme, threads=threads, **kw)
                for f in fields(Ensemble):
                    assert oracles.bit_equal(getattr(many, f.name), getattr(one, f.name)), \
                        (system.n_modes, scheme, threads, f.name)


class _Stop(Exception):
    pass


def test_chunk_memory_bounded_in_steps(mixed_system, monkeypatch):
    # record the first chunk's member count, then stop before integrating it
    sizes = []

    def first_chunk(seeds, *args):
        sizes.append(len(seeds))
        raise _Stop

    monkeypatch.setattr(ensemble_mod, "batch_increments", first_chunk)
    N, K = mixed_system.n_modes, mixed_system.n_brownian
    for n_members, n_steps, store_every in ((1024, 12, 12), (10_000, 10_000, 10_000),
                                            (4, 10_000_000, 10_000_000),
                                            (10_000, 10_000, 100)):
        with pytest.raises(_Stop):
            run_ensemble(mixed_system, np.zeros(N), n_members, base_seed=0, dt=1e-3,
                         n_steps=n_steps, store_every=store_every)
        chunk = sizes.pop()
        # per member, the saved states (n_save + 1, N) and four (n_save + 1)
        # series, the drawn increments (n_steps, K) and the saved (n_save, K)
        n_save = n_steps // store_every
        held = chunk * ((n_save + 1) * (N + 4) + (n_steps + n_save) * K) * 8
        assert chunk == 1 or held <= 2 ** 30, (n_steps, chunk)
        # the states a batch does not save do not shrink its chunk
        assert chunk == n_members or held >= 2 ** 26, (n_steps, store_every, chunk)
        # a short run stays one chunk; a member too large for a budget runs alone
        assert chunk == {12: n_members, 10_000_000: 1}.get(n_steps, chunk), (n_steps, chunk)


@pytest.mark.parametrize("chunk, threads", [(None, 1), (5, 1), (5, 4)],
                         ids=["one-chunk", "chunks-of-5", "chunks-of-5-threads-4"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_member_trajectory_matches_ensemble(mixed_system, monkeypatch, scheme, chunk, threads):
    if chunk is not None:
        monkeypatch.setattr(ensemble_mod, "_chunk_size", lambda *args: chunk)
    ens = run_ensemble(mixed_system, gaussian_initial(0.5), 24, base_seed=9, dt=1e-3,
                       n_steps=20, scheme=scheme, threads=threads)
    for m in range(ens.n_members):
        traj = ens.member_trajectory(m)
        assert np.array_equal(traj.states[-1], ens.final_states[m]), m
        for key in ("energy", "grad_energy", "stoch_int", "grad_int"):
            assert np.array_equal(getattr(traj, key), getattr(ens, key)[:, m]), (m, key)


@pytest.mark.parametrize("base_seed", [-1, 2 ** 64, 1.5, np.float64(2.0), "3"], ids=repr)
def test_rejects_base_seed_outside_uint64(additive_system, base_seed):
    with pytest.raises(EnsembleError, match="base seed"):
        member_seeds(base_seed, 4)
    with pytest.raises(EnsembleError, match="base seed"):
        run_ensemble(additive_system, np.zeros(additive_system.n_modes), 2,
                     base_seed=base_seed, dt=1e-3, n_steps=4)
    # the largest base seed keys its members' streams
    assert member_seeds(2 ** 64 - 1, 2).tolist() == [2 ** 64 - 1, 2 ** 64 - 2]


def test_rejects_empty_ensemble(additive_system):
    with pytest.raises(EnsembleError):
        run_ensemble(additive_system, np.zeros(additive_system.n_modes), 0,
                     base_seed=0, dt=1e-3, n_steps=10)
    # a sampler or fixed state of the wrong shape
    N = additive_system.n_modes
    for initial in (np.zeros(N + 1), lambda seeds, basis: np.zeros((len(seeds) + 1, N))):
        with pytest.raises(EnsembleError, match="initial states have shape"):
            run_ensemble(additive_system, initial, 3, base_seed=0, dt=1e-3, n_steps=10)


@pytest.mark.parametrize("dt,n_steps", [(np.nan, 10), (np.inf, 10), (-np.inf, 10), (0.0, 10),
                                        (-1e-3, 10), (1e-3, -3)])
def test_rejects_bad_time_grid(additive_system, dt, n_steps):
    # refused by name, before the probe-grid check can misreport it
    with pytest.raises(EnsembleError, match="dt must be|n_steps must be"):
        run_ensemble(additive_system, np.zeros(additive_system.n_modes), 2,
                     base_seed=0, dt=dt, n_steps=n_steps)


@pytest.mark.parametrize("store_every,n_steps", [(0, 10), (0, 0), (-2, 10), (2.5, 10)])
def test_rejects_bad_store_every(additive_system, store_every, n_steps):
    # refused by name, before the saved grid divides by it or the probe-grid
    # check misreports it
    with pytest.raises(EnsembleError, match="store_every must be a positive integer"):
        run_ensemble(additive_system, np.zeros(additive_system.n_modes), 2,
                     base_seed=0, dt=1e-3, n_steps=n_steps, store_every=store_every)


def test_gaussian_initial_reproducible(basis2_2):
    sampler = gaussian_initial(0.4, max_ksq=2.0)
    seeds = member_seeds(7, 16)
    a = sampler(seeds, basis2_2)
    b = sampler(seeds, basis2_2)
    assert np.array_equal(a, b)
    assert np.all(a[:, basis2_2.k_sq > 2.0] == 0.0)


# -- young measures -----------------------------------------------------------


def test_young_identity_is_mean_field(additive_system, rng):
    a0 = rng.normal(size=additive_system.n_modes) * 0.3
    ens = run_ensemble(additive_system, a0, 32, base_seed=3, dt=1e-3,
                       n_steps=100, probe_times=(0.0, 0.1))
    ym = empirical_measure(ens)
    mean = ym.mean_field()
    direct = np.einsum("pmn,ndg->pgd",
                       ens.probe_states,
                       additive_system.basis.mode_values(ym.grid_n)) / ens.n_members
    assert np.abs(mean - direct).max() <= 1e-15


def test_young_energy_growth_matches_closed_form(additive_system):
    # E |u(t)|^2 = |u0|^2 + t |sigma1|_HS^2 for nu = 0, sigma2 = 0; with an
    # orthonormal basis |u|^2 = |a|^2 = 2 E, on every saved time
    ens = run_ensemble(additive_system, np.zeros(additive_system.n_modes),
                       4000, base_seed=17, dt=1e-3, n_steps=200, store_every=10)
    sq = 2.0 * ens.energy                                   # (n_save + 1, M)
    mean = sq.mean(axis=1)
    stderr = sq.std(axis=1, ddof=1) / np.sqrt(ens.n_members)
    exact = ens.times * hs_norm(additive_system.noise.additive)
    assert np.all(np.abs(mean - exact) <= 3 * stderr + 1e-3 * exact)


def test_jensen_pointwise(additive_system, rng):
    a0 = rng.normal(size=additive_system.n_modes) * 0.3
    ens = run_ensemble(additive_system, a0, 64, base_seed=23, dt=1e-3,
                       n_steps=50, probe_times=(0.05,))
    ym = empirical_measure(ens)
    sq = np.einsum("pmgd,pmgd->pmg", ym.samples, ym.samples).mean(axis=1)
    mean_sq = np.einsum("pgd,pgd->pg", ym.mean_field(), ym.mean_field())
    assert np.all(sq - mean_sq >= -1e-12)


# -- moments ---------------------------------------------------------------------


def test_moment_zero_data(viscous_system):
    ens = run_ensemble(viscous_system, np.zeros(viscous_system.n_modes),
                       8, base_seed=0, dt=1e-3, n_steps=10)
    rep = moment_report(ens, 4)
    assert rep["sup_moment"] == 0.0
    assert rep["viscous_moment"] == 0.0


def test_moment_decaying_mode_sup_is_initial(viscous_system):
    b = viscous_system.basis
    a0 = np.zeros(b.n_modes)
    a0[b.index_of("1,0:cos")] = 0.8
    ens = run_ensemble(viscous_system, a0, 4, base_seed=0, dt=1e-3, n_steps=200)
    rep = moment_report(ens, 4)
    assert rep["sup_moment"] == pytest.approx(0.8 ** 4, rel=1e-12)


def test_moment_rejects_small_exponent(viscous_system):
    ens = run_ensemble(viscous_system, np.zeros(viscous_system.n_modes),
                       2, base_seed=0, dt=1e-3, n_steps=5)
    with pytest.raises(EnsembleError):
        moment_report(ens, 1)


def test_moment_stable_under_doubling(additive_system):
    e1 = run_ensemble(additive_system, np.zeros(additive_system.n_modes),
                      1000, base_seed=3, dt=1e-3, n_steps=100)
    e2 = run_ensemble(additive_system, np.zeros(additive_system.n_modes),
                      2000, base_seed=3, dt=1e-3, n_steps=100)
    r1, r2 = moment_report(e1, 4), moment_report(e2, 4)
    combined = np.hypot(r1["sup_moment_stderr"], r2["sup_moment_stderr"])
    assert abs(r1["sup_moment"] - r2["sup_moment"]) <= 2 * combined


def test_probe_off_grid_rejected(additive_system):
    with pytest.raises(EnsembleError):
        run_ensemble(additive_system, np.zeros(additive_system.n_modes), 2,
                     base_seed=0, dt=1e-3, n_steps=10, probe_times=(0.0055,))


def test_states_at_reads_the_time_grid(additive_system):
    # a time names the probe on the same saved index, by the solver's one rule
    ens = run_ensemble(additive_system, np.zeros(additive_system.n_modes), 2, base_seed=0,
                       dt=1e-3, n_steps=20, store_every=4, probe_times=(0.0, 0.008, 0.02))
    assert not oracles.bit_equal(ens.probe_states[1], ens.probe_states[2])
    for t in (0.008, 0.008 + 5e-10):
        assert oracles.bit_equal(ens.states_at(t), ens.probe_states[1])
    for t in (0.004, 0.0081, 0.024, -0.004):  # saved but no probe, off grid, past the end
        with pytest.raises(EnsembleError, match="probe schedule"):
            ens.states_at(t)
