import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stochflow import diagnostics as diagnostics_mod, ensemble as ensemble_mod
from stochflow.basis import ConvectionTensor, _csr_product, build_basis
from stochflow.diagnostics import (
    DiagnosticsError,
    TestProcessRep,
    _neg_part_max,
    dissipative_weak_residual,
    energy_residual,
    energy_variational_gap,
    gap_battery,
    make_test_processes,
    neg_sup_series,
    relative_energy,
    reynolds_defect,
)
from stochflow.ensemble import run_ensemble
from stochflow.noise import build_noise
from stochflow.sde import SCHEMES, BrownianPath, SdeError, _drift, build_system, integrate

import oracles


# -- energy residual ---------------------------------------------------------


def test_residual_viscous_decay(viscous_system):
    b = viscous_system.basis
    a0 = np.zeros(b.n_modes)
    a0[b.index_of("1,0:cos")] = 1.0
    path = BrownianPath.generate(3, 1e-3, 1000, 0)
    traj = integrate(viscous_system, a0, path)
    assert abs(energy_residual(traj, viscous_system, 0.0, 1.0)) <= 1e-3


def test_residual_zero_interval(additive_system, rng):
    a0 = rng.normal(size=additive_system.n_modes) * 0.3
    path = BrownianPath.generate(3, 1e-3, 100, additive_system.n_brownian)
    traj = integrate(additive_system, a0, path)
    assert energy_residual(traj, additive_system, 0.05, 0.05) == 0.0


def test_residual_rejects_offgrid(additive_system, rng):
    a0 = rng.normal(size=additive_system.n_modes) * 0.3
    path = BrownianPath.generate(3, 1e-3, 100, additive_system.n_brownian)
    traj = integrate(additive_system, a0, path)
    with pytest.raises(SdeError):
        energy_residual(traj, additive_system, 0.0, 0.0505)


def test_residual_additive_mean_small_ensemble(additive_system):
    ens = run_ensemble(additive_system, np.zeros(additive_system.n_modes),
                       2000, base_seed=11, dt=1e-3, n_steps=200)
    from stochflow.noise import hs_norm

    hs2 = hs_norm(additive_system.noise.additive)
    resid = (ens.energy[-1] - ens.energy[0]) + 0.0 - ens.stoch_int[-1] \
        - 0.5 * 0.2 * hs2
    se = resid.std(ddof=1) / np.sqrt(ens.n_members)
    assert abs(resid.mean()) <= 3 * se


# -- spectral negative part ---------------------------------------------------


def test_neg_part_examples():
    assert _neg_part_max(np.array([[[1.0, 0.0], [0.0, -2.0]]])) == 2.0
    assert _neg_part_max(np.eye(2)[None]) == 0.0
    assert _neg_part_max(np.array([[[0.0, 1.0], [1.0, 0.0]]])) == 1.0


@given(data=st.lists(st.floats(-5, 5), min_size=8, max_size=8))
# PSD with a tiny entry, whose square the unscaled closed form lost
@example(data=[0.0, 0.0, 0.0, 3.92e-161, 1.0, 0.0, 0.0, 1.0])
@settings(max_examples=100, deadline=None)
def test_neg_part_matches_eig_oracle(data):
    mats = np.array(data).reshape(2, 2, 2)
    got = _neg_part_max(mats)
    sym = 0.5 * (mats + mats.transpose(0, 2, 1))
    expect = max(max(0.0, -np.linalg.eigvalsh(s).min()) for s in sym)
    assert got == pytest.approx(expect, abs=1e-12)
    # zero iff pointwise PSD, up to eigensolver round-off
    eigmin = min(np.linalg.eigvalsh(s).min() for s in sym)
    if got == 0.0:
        assert eigmin >= -1e-12
    else:
        assert eigmin < 0


def test_neg_part_3d_matrices(rng):
    mats = rng.normal(size=(7, 3, 3))
    got = _neg_part_max(mats)
    sym = 0.5 * (mats + mats.transpose(0, 2, 1))
    expect = max(max(0.0, -np.linalg.eigvalsh(s).min()) for s in sym)
    assert got == pytest.approx(expect, rel=1e-12)


def test_neg_sup_series_refined_grid(basis2_2, rng):
    series = rng.normal(size=(3, basis2_2.n_modes)) * 0.5
    out = neg_sup_series(basis2_2, series)
    assert out.shape == (3,)
    assert np.all(out >= 0)


SAMPLE_KINDS = ("normal", "repeated", "identity", "zero", "rank_one", "psd", "antisymmetric")


def _sample(gen, kind):
    """One 3 x 3 gradient sample of a kind the eigenvalue screen finds hard."""
    Q = np.linalg.qr(gen.normal(size=(3, 3)))[0]
    if kind == "normal":
        return gen.normal(size=(3, 3))
    if kind == "repeated":
        a, b = gen.normal(size=2)
        return Q @ np.diag([a, a, b]) @ Q.T
    if kind == "identity":
        return gen.normal() * np.eye(3)
    if kind == "zero":
        return np.zeros((3, 3))
    if kind == "rank_one":
        v = gen.normal(size=3)
        return -np.outer(v, v)
    A = gen.normal(size=(3, 3))
    return A @ A.T if kind == "psd" else A - A.T


@given(seed=st.integers(0, 2 ** 32 - 1),
       kinds=st.lists(st.lists(st.sampled_from(SAMPLE_KINDS), min_size=1, max_size=24),
                      min_size=1, max_size=3),
       exponent=st.integers(-150, 150),
       ties=st.booleans())
@settings(max_examples=200, deadline=None)
def test_neg_part_max_matches_lapack_bitwise(seed, kinds, exponent, ties):
    # rows of mixed kinds and scales 1e-153..1e153; with `ties`, each row also
    # holds an exact copy and 1-ulp neighbours of its largest-weight sample
    gen = np.random.default_rng(seed)
    S = max(map(len, kinds))
    mats = np.zeros((len(kinds), S, 3, 3))
    for r, row in enumerate(kinds):
        for s_, kind in enumerate(row):
            mats[r, s_] = _sample(gen, kind) * 10.0 ** (exponent + gen.integers(-3, 4))
    if ties:
        top = oracles.neg_part_max(mats[:, :, None]).argmax(axis=-1)
        best = mats[np.arange(len(kinds)), top]
        near = [best, np.nextafter(best, np.inf), np.nextafter(best, -np.inf)]
        mats = np.concatenate([mats, np.stack(near, axis=1)], axis=1)
    assert oracles.bit_equal(_neg_part_max(mats), oracles.neg_part_max(mats))


def _spectral(gen, eigenvalues):
    """A sample whose symmetric part has the given eigenvalues, plus a random
    antisymmetric part."""
    Q = np.linalg.qr(gen.normal(size=(3, 3)))[0]
    A = gen.normal(size=(3, 3))
    return Q @ np.diag(eigenvalues) @ Q.T + 0.5 * (A - A.T)


@given(seed=st.integers(0, 2 ** 32 - 1),
       kinds=st.lists(st.lists(st.sampled_from(SAMPLE_KINDS), min_size=1, max_size=24),
                      min_size=1, max_size=4),
       exponent=st.integers(-150, 150),
       pair=st.sampled_from(("smallest", "largest")),
       split=st.sampled_from((0.0, 1e-15, 1e-9, 1e-4)),
       lead=st.sampled_from((0.0, 1e-15, 1e-9, 1e-4)))
@settings(max_examples=200, deadline=None)
def test_layered_screen_near_degenerate_maximum(seed, kinds, exponent, pair, split, lead):
    # each row's maximum sits on a sample with a (near) double eigenvalue,
    # where the cheap bounds are tight (pair "largest" reaches 2p - q,
    # "smallest" p - q) and the closed form is least accurate; it beats the
    # row's other samples by a relative `lead`, 0 for a near tie
    gen = np.random.default_rng(seed)
    S = max(map(len, kinds)) + 1
    mats = np.zeros((len(kinds), S, 3, 3))
    for r, row in enumerate(kinds):
        for s_, kind in enumerate(row):
            mats[r, s_] = _sample(gen, kind)
        t = max(float(oracles.neg_part_max(mats[r])), 1.0) * (1.0 + lead)
        if pair == "smallest":
            eig = [-t, -t * (1.0 - split), gen.uniform(-t, 2.0 * t)]
        else:
            v = gen.uniform(-t, 2.0 * t)
            eig = [-t, v, v * (1.0 + split)]
        mats[r, gen.integers(S)] = _spectral(gen, eig)
    mats *= 10.0 ** exponent
    assert oracles.bit_equal(_neg_part_max(mats), oracles.neg_part_max(mats))


def test_layered_screen_margin_at_a_tight_bound():
    # row [B, A]: A's eigenvalues (-t, t/2, t/2) make its cheap upper bound
    # 2p - q exact, B's (-s, -s, 2s) make B's twice its value, so B is the
    # LAPACK candidate; with s within a few ulps of t, A survives only through
    # the screen's margin for rounding
    gen = np.random.default_rng(11)
    rows = []
    for _ in range(200):
        t = gen.uniform(0.5, 2.0)
        for k in range(-6, 7):
            s_ = t * (1.0 + k * 2.0 ** -52)
            rows.append([_spectral(gen, [-s_, -s_, 2.0 * s_]),
                         _spectral(gen, [-t, 0.5 * t, 0.5 * t])])
    mats = np.array(rows)
    assert oracles.bit_equal(_neg_part_max(mats), oracles.neg_part_max(mats))


@pytest.mark.parametrize("exponent", [-300, -150, -108, 0, 108, 150, 300])
def test_neg_part_max_across_scales(exponent):
    # near 1e-108 the closed form's p^3 is subnormal: the screen is only right
    # because it works on samples scaled to a largest |entry| of 1
    gen = np.random.default_rng(exponent + 1000)
    for _ in range(8):
        mats = gen.normal(size=(8, 50, 3, 3)) * 10.0 ** exponent
        assert oracles.bit_equal(_neg_part_max(mats), oracles.neg_part_max(mats))


@pytest.mark.parametrize("exponent", [-300, -160, -108, 0, 108, 160, 300])
def test_neg_part_max_2d_across_scales(exponent):
    # the 2 x 2 closed form scales each sample by a power of two, so its
    # squares neither underflow to a spurious weight on a PSD sample nor
    # overflow to -inf (with a RuntimeWarning)
    gen = np.random.default_rng(exponent + 2000)
    g = gen.normal(size=(8, 50, 2, 2))
    for mats in (g, g @ g.swapaxes(-1, -2)):
        mats = mats * 10.0 ** exponent
        scale = np.abs(mats).max(axis=(-3, -2, -1))
        err = np.abs(_neg_part_max(mats) - oracles.neg_part_max(mats))
        assert np.all(err <= 2e-12 * scale), exponent


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_neg_part_max_non_finite_as_lapack(rng, bad):
    # every non-finite sample reaches LAPACK, which raises for NaN off the
    # diagonal and returns NaN for some others; the screen must not drop it
    def outcome(f, mats):
        try:
            return np.asarray(f(mats)).tobytes()
        except np.linalg.LinAlgError:
            return "LinAlgError"

    for i, j in np.ndindex(3, 3):
        mats = rng.normal(size=(2, 9, 3, 3))
        mats[1, 4, i, j] = bad
        expect = outcome(oracles.neg_part_max, mats)
        assert outcome(_neg_part_max, mats) == expect, (i, j)
        if np.isnan(bad) and i != j:
            assert expect == "LinAlgError"


@pytest.mark.parametrize("dim,cutoff,T", [(2, 4, 50), (3, 1, 40)])
def test_neg_sup_series_row_by_row(dim, cutoff, T):
    # the series is walked in blocks of time rows; every row matches its own call
    b = build_basis(dim, cutoff)
    series = np.random.default_rng(7).normal(size=(T, b.n_modes)) * 0.5 / (1.0 + b.k_sq)
    rows = np.concatenate([neg_sup_series(b, series[t:t + 1]) for t in range(T)])
    assert oracles.bit_equal(neg_sup_series(b, series), rows)
    assert neg_sup_series(b, series[:0]).shape == (0,)


def test_neg_sup_series_memory_bounded_in_length():
    b = build_basis(3, 1)
    series = np.random.default_rng(8).normal(size=(2000, b.n_modes)) * 0.3
    neg_sup_series(b, series[:1])  # fills the basis's grid caches
    tracemalloc.start()
    try:
        neg_sup_series(b, series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


# -- test processes -------------------------------------------------------------


def test_process_reproduction(additive_system, rng):
    a0 = rng.normal(size=additive_system.n_modes) * 0.3
    path = BrownianPath.generate(6, 1e-3, 300, additive_system.n_brownian)
    traj = integrate(additive_system, a0, path)
    battery = make_test_processes(additive_system, 300, 1e-3, seed=2)
    for phi in battery:
        series = phi.series(traj.increments, 1e-3)
        # direct reconstruction: phi0 + sum A dt + sum B dW
        direct = np.broadcast_to(phi.phi0, series.shape).copy()
        acc = np.zeros_like(phi.phi0)
        for m in range(300):
            if phi.A is not None:
                acc = acc + phi.A[m] * 1e-3
            if phi.B is not None:
                acc = acc + traj.increments[m] @ phi.B
            direct[m + 1] += acc
        assert np.abs(series - direct).max() <= 1e-14


@pytest.mark.parametrize("n_steps", [0, 1, 7, 300])
@pytest.mark.parametrize("parts", ["A", "B", "AB", "static", "B, K=1", "B, K=1, NaN dW"])
def test_process_series_bitwise_loop(rng, parts, n_steps):
    # the oracle forms dW[m] @ B one step at a time, as a loop over the rows
    N, K = 12, 1 if "K=1" in parts else 3
    phi0 = rng.normal(size=N)
    phi0[0] = -0.0  # a signed zero a static series must keep
    phi = TestProcessRep(phi0=phi0,
                         A=rng.normal(size=(n_steps, N)) if "A" in parts else None,
                         B=rng.normal(size=(K, N)) if "B" in parts else None)
    inc = rng.normal(scale=0.03, size=(n_steps, K))
    if "NaN" in parts and n_steps:
        inc[-1, -1] = np.nan  # on the last step, so every row before it is compared
    series = phi.series(inc, 1e-3)
    assert series.shape == (n_steps + 1, N)
    assert oracles.bit_equal(series, oracles.process_series(phi, inc, 1e-3))


def test_battery_structure(additive_system, mixed_system):
    for system in (additive_system, mixed_system):
        battery = make_test_processes(system, 100, 1e-3, seed=0, count=10)
        assert len(battery) == 10
        kinds = {p.label.split("-")[0] for p in battery}
        assert kinds == {"static", "modulated", "martingale"}
        # a B row on every Brownian mode, the transport ones too, so the
        # battery reads the trace term u^T zeta_l B_l
        for phi in battery[-3:]:
            assert phi.label.startswith("martingale") and np.all(np.any(phi.B, axis=1))


# -- energy-variational gap ------------------------------------------------------


def test_gap_zero_phi_bitwise(request, rng):
    # no shortcut: every phi term of a zero process is an exact zero, with
    # transport noise, in 3-D, on thinned grids and in both forms
    for name in ("additive_system", "mixed_system", "mixed_system_c4", "mixed_system_3d"):
        system = request.getfixturevalue(name)
        N, K = system.n_modes, system.n_brownian
        a0 = rng.normal(size=N) * 0.3 * (system.basis.k_sq <= 2.0)
        path = BrownianPath.generate(7, 1e-3, 200, K)
        for scheme, store_every in itertools.product(SCHEMES, (1, 4)):
            traj = integrate(system, a0, path, scheme=scheme, store_every=store_every)
            n_save = traj.increments.shape[0]
            static = TestProcessRep(phi0=np.zeros(N))
            full = TestProcessRep(phi0=np.zeros(N), A=np.zeros((n_save, N)), B=np.zeros((K, N)))
            for phi, (s, t), euler_form in itertools.product(
                    (static, full), ((0.0, 0.2), (0.04, 0.12)), (False, True)):
                gap = energy_variational_gap(traj, system, phi, s, t, euler_form=euler_form)
                resid = energy_residual(traj, system, s, t, nu=0.0 if euler_form else None)
                assert gap.hex() == resid.hex(), (name, scheme, store_every, s, euler_form)


def test_gap_phi_equals_u_on_em_path(additive_system, rng):
    a0 = rng.normal(size=additive_system.n_modes) * 0.3
    path = BrownianPath.generate(8, 1e-3, 500, additive_system.n_brownian)
    traj = integrate(additive_system, a0, path)
    # the Ito drift at each left point, as the Euler-Maruyama step forms it
    aT = np.ascontiguousarray(traj.states[:500].T)
    linear = _csr_product(additive_system._step_operators().em, aT)[-additive_system.n_modes:]
    A = np.ascontiguousarray(_drift(additive_system, aT, linear).T)
    phi_u = TestProcessRep(phi0=traj.states[0].copy(), A=A,
                           B=additive_system.noise.additive.eta.T.copy())
    assert np.abs(phi_u.series(traj.increments, 1e-3) - traj.states).max() == 0.0
    gap = energy_variational_gap(traj, additive_system, phi_u, 0.0, 0.5)
    resid = energy_residual(traj, additive_system, 0.0, 0.5)
    # the quadratic cancellations leave gap = -residual on the discrete path
    assert abs(gap + resid) <= 1e-13
    assert abs(gap) <= 0.05  # discretization scale, O(sqrt(dt))


def test_gap_battery_small(additive_system, rng):
    a0 = rng.normal(size=additive_system.n_modes) * 0.3
    path = BrownianPath.generate(9, 1e-3, 1000, additive_system.n_brownian)
    traj = integrate(additive_system, a0, path)
    battery = make_test_processes(additive_system, 1000, 1e-3, seed=5)
    for phi in battery:
        gap = energy_variational_gap(traj, additive_system, phi, 0.0, 1.0)
        assert gap <= 5e-3


def test_gap_weight_term_activates_with_external_energy(additive_system, rng):
    a0 = rng.normal(size=additive_system.n_modes) * 0.3
    path = BrownianPath.generate(10, 1e-3, 100, additive_system.n_brownian)
    traj = integrate(additive_system, a0, path)
    phi = make_test_processes(additive_system, 100, 1e-3, seed=1)[0]
    slack = 0.05
    E = traj.energy + slack  # a strictly larger auxiliary energy
    g_plain = energy_variational_gap(traj, additive_system, phi, 0.0, 0.1)
    g_aux = energy_variational_gap(traj, additive_system, phi, 0.0, 0.1,
                                   energy_series=E)
    w = neg_sup_series(additive_system.basis,
                       phi.series(traj.increments, 1e-3)[:-1])
    expected_shift = -2.0 * float(np.sum(w * slack)) * 1e-3
    # boundary E terms cancel (constant shift), leaving the weight term
    assert g_aux - g_plain == pytest.approx(expected_shift, rel=1e-10)


def test_gap_scaling_of_linear_terms(additive_system, rng):
    """Linear-in-phi parts scale linearly; the weight scales linearly too."""
    a0 = rng.normal(size=additive_system.n_modes) * 0.3
    path = BrownianPath.generate(11, 1e-3, 100, additive_system.n_brownian)
    traj = integrate(additive_system, a0, path)
    psi = make_test_processes(additive_system, 100, 1e-3, seed=2)[0]
    resid = energy_residual(traj, additive_system, 0.0, 0.1)

    def lin_part(alpha):
        scaled = TestProcessRep(phi0=alpha * psi.phi0, label="scaled")
        g = energy_variational_gap(traj, additive_system, scaled, 0.0, 0.1)
        # subtract the phi-independent residual and the quadratic-in-phi = 0 parts
        return g - resid

    l1, l2 = lin_part(1.0), lin_part(2.0)
    assert l2 == pytest.approx(2.0 * l1, rel=1e-9)
    w1 = neg_sup_series(additive_system.basis, psi.phi0[None])[0]
    w2 = neg_sup_series(additive_system.basis, 2.0 * psi.phi0[None])[0]
    assert w2 == pytest.approx(2.0 * w1, rel=1e-12)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5], ids=repr)
def test_test_processes_refuse_seeds_outside_uint64(additive_system, seed):
    with pytest.raises(SdeError, match="seeds must be integers"):
        make_test_processes(additive_system, 10, 1e-3, seed=seed)


def test_gap_dimension_mismatch_rejected(additive_system):
    phi = TestProcessRep(phi0=np.zeros(3))
    path = BrownianPath.generate(1, 1e-3, 10, additive_system.n_brownian)
    traj = integrate(additive_system, np.zeros(additive_system.n_modes), path)
    with pytest.raises(DiagnosticsError):
        energy_variational_gap(traj, additive_system, phi, 0.0, 0.01)


@pytest.mark.parametrize("drop", ["increment columns", "last mode"])
def test_residual_and_gaps_refuse_a_run_of_another_system(mixed_system, drop):
    N, K = mixed_system.n_modes, mixed_system.n_brownian
    traj = integrate(mixed_system, np.full(N, 0.05), BrownianPath.generate(1, 1e-3, 10, K))
    if drop == "last mode":
        traj = replace(traj, states=traj.states[:, :-1])
    else:
        traj = replace(traj, increments=traj.increments[:, :0])
    with pytest.raises(DiagnosticsError, match="the system has"):
        energy_residual(traj, mixed_system, 0.0, 0.01)
    # one static, one modulated and one martingale test process
    for phi in make_test_processes(mixed_system, 10, 1e-3, seed=1, count=3):
        with pytest.raises(DiagnosticsError, match="the system has"):
            energy_variational_gap(traj, mixed_system, phi, 0.0, 0.01)


@pytest.mark.parametrize("bad", ["short A", "long A", "short series", "long series",
                                 "scalar series"])
def test_gap_rejects_malformed_A_and_energy_series(additive_system, rng, bad):
    N = additive_system.n_modes
    path = BrownianPath.generate(1, 1e-3, 10, additive_system.n_brownian)
    traj = integrate(additive_system, rng.normal(size=N) * 0.3, path)
    A = {"short A": 9, "long A": 11}.get(bad, 10)
    phi = TestProcessRep(phi0=rng.normal(size=N) * 0.3, A=rng.normal(size=(A, N)))
    energy = {"short series": traj.energy[:-1], "long series": np.append(traj.energy, 0.0),
              "scalar series": np.float64(1.0)}.get(bad)
    with pytest.raises(DiagnosticsError, match="A has shape" if "A" in bad else "energy"):
        energy_variational_gap(traj, additive_system, phi, 0.0, 0.005, energy_series=energy)


@pytest.mark.parametrize("variant", ["plain", "euler_form", "relaxed", "interior"])
@pytest.mark.parametrize("system_name", ["mixed_system", "mixed_system_c4", "mixed_system_3d"])
def test_gap_matches_three_operand_oracle(request, system_name, variant):
    """Transport and additive noise, every kind of test process, and one
    process with A and with B on every Brownian mode, transport ones too."""
    system = request.getfixturevalue(system_name)
    N, K = system.n_modes, system.n_brownian
    gen = np.random.default_rng(3)
    low = system.basis.k_sq <= 2.0
    a0 = gen.normal(scale=0.4, size=N) * low
    traj = integrate(system, a0, BrownianPath.generate(17, 2e-3, 60, K), store_every=2)
    n_save = traj.times.size - 1
    dt_s = traj.dt * traj.store_every
    battery = make_test_processes(system, n_save, dt_s, seed=4, count=6)
    battery.append(TestProcessRep(phi0=gen.normal(scale=0.3, size=N) * low,
                                  A=gen.normal(scale=0.5, size=(n_save, N)) * low,
                                  B=gen.normal(scale=0.3, size=(K, N)) * low, label="both"))
    assert {p.label.split("-")[0] for p in battery} == {"static", "modulated", "martingale",
                                                        "both"}
    s, t = (4 * dt_s, 26 * dt_s) if variant == "interior" else (0.0, float(traj.times[-1]))
    kwargs = {"euler_form": variant == "euler_form",
              "energy_series": None if variant == "plain" else traj.energy + 0.05}
    for phi in battery:
        got = energy_variational_gap(traj, system, phi, s, t, **kwargs)
        want = oracles.energy_variational_gap(traj, system, phi, s, t, **kwargs)
        assert abs(got - want) <= 1e-13 * abs(want), (phi.label, got, want)


def _memo_run(system):
    gen = np.random.default_rng(3)
    a0 = gen.normal(scale=0.4, size=system.n_modes) * (system.basis.k_sq <= 2.0)
    traj = integrate(system, a0, BrownianPath.generate(17, 2e-3, 60, system.n_brownian))
    return traj, make_test_processes(system, 60, 2e-3, seed=4, count=10)


def test_gap_battery_applies_the_kernel_once(mixed_system, monkeypatch):
    traj, battery = _memo_run(mixed_system)
    t = float(traj.times[-1])
    calls = []
    apply = ConvectionTensor._apply_members
    monkeypatch.setattr(ConvectionTensor, "_apply_members",
                        lambda self, aT: calls.append(aT.shape) or apply(self, aT))
    gaps = [energy_variational_gap(traj, mixed_system, phi, 0.0, t) for phi in battery]
    assert calls == [(mixed_system.n_modes, 60)]
    assert traj._gap_memo is not None and replace(traj)._gap_memo is None
    # the benchmark's round-trip check compares vars() of a saved and a loaded trajectory
    assert "_gap_memo" not in vars(replace(traj))
    for phi, gap in zip(battery, gaps):
        fresh = energy_variational_gap(replace(traj), mixed_system, phi, 0.0, t)
        assert gap.hex() == fresh.hex(), phi.label
    assert len(calls) == 1 + len(battery)


@pytest.mark.parametrize("euler_form", [False, True])
@pytest.mark.parametrize("store_every", [1, 3])
def test_gap_battery_is_the_per_process_loop(mixed_system, store_every, euler_form):
    # the loop `diagnose`, the sweep and `verify` each ran, on the saved spacing
    gen = np.random.default_rng(3)
    a0 = gen.normal(scale=0.4, size=mixed_system.n_modes) * (mixed_system.basis.k_sq <= 2.0)
    traj = integrate(mixed_system, a0,
                     BrownianPath.generate(17, 2e-3, 60, mixed_system.n_brownian),
                     store_every=store_every)
    got = gap_battery(traj, mixed_system, 4, euler_form=euler_form)
    fresh = replace(traj)
    battery = make_test_processes(mixed_system, fresh.times.size - 1,
                                  fresh.dt * fresh.store_every, seed=4)
    want = [(phi.label, energy_variational_gap(fresh, mixed_system, phi, 0.0,
                                               float(fresh.times[-1]), euler_form=euler_form))
            for phi in battery]
    assert len(got) == 10
    assert [(label, gap.hex()) for label, gap in got] == \
        [(label, gap.hex()) for label, gap in want]


@pytest.mark.parametrize("change", ["states edited in place", "other noise, same conv",
                                    "other interval"])
def test_gap_memo_recomputes_what_changed(mixed_system, change):
    traj, battery = _memo_run(mixed_system)
    system, s, t = mixed_system, 0.0, float(traj.times[-1])
    phi = battery[-1]  # a martingale process reads every memoized product
    energy_variational_gap(traj, system, phi, s, t)
    if change == "states edited in place":
        traj.states[5] *= 1.5
    elif change == "other noise, same conv":
        basis = system.basis
        gen = np.random.default_rng(5)
        field = gen.normal(scale=0.3, size=basis.n_modes) * (basis.k_sq <= 2)
        cols = gen.normal(scale=0.2, size=(3, basis.n_modes))
        noise = build_noise(basis, sigma1_modes=[(ell + 1, c) for ell, c in enumerate(cols)],
                            transport_fields=[(0, field)])
        system = build_system(basis, noise, nu=system.nu, conv=system.conv)
    else:
        s, t = 8e-3, 5.2e-2
    got = energy_variational_gap(traj, system, phi, s, t)
    assert got.hex() == energy_variational_gap(replace(traj), system, phi, s, t).hex()


# -- relative energy -------------------------------------------------------------


def test_relative_energy_identical(additive_system, rng):
    a0 = rng.normal(size=additive_system.n_modes) * 0.3
    path = BrownianPath.generate(12, 1e-3, 200, additive_system.n_brownian)
    traj = integrate(additive_system, a0, path)
    out = relative_energy(traj, traj, additive_system.basis,
                          additive_system.basis, 0.0, 0.2)
    assert np.abs(out["re"]).max() <= 1e-14
    assert np.all(out["re"] <= out["bound"] + 1e-14)


def test_relative_energy_rejects_mismatched_paths(additive_system, rng):
    a0 = rng.normal(size=additive_system.n_modes) * 0.3
    t1 = integrate(additive_system, a0,
                   BrownianPath.generate(1, 1e-3, 100, additive_system.n_brownian))
    t2 = integrate(additive_system, a0,
                   BrownianPath.generate(2, 1e-3, 100, additive_system.n_brownian))
    # one path seed, but saved spacings 1e-7 apart (relative): off the solver's
    # grid rule (1e-9 max(1, |t|)) at t = 0.1, though np.allclose passes them
    t3 = integrate(additive_system, a0, BrownianPath.generate(
        1, 1e-3 * (1 + 1e-7), 100, additive_system.n_brownian))
    for other in (t2, t3):
        with pytest.raises(DiagnosticsError, match="shared grid"):
            relative_energy(t1, other, additive_system.basis, additive_system.basis,
                            0.0, 0.1)


def test_relative_energy_refuses_bad_interval_and_energy(additive_system, rng):
    a0 = rng.normal(size=additive_system.n_modes) * 0.3
    traj = integrate(additive_system, a0,
                     BrownianPath.generate(1, 1e-3, 100, additive_system.n_brownian))
    b = additive_system.basis
    with pytest.raises(DiagnosticsError, match="s <= t"):
        relative_energy(traj, traj, b, b, 0.05, 0.01)
    for energy in (traj.energy[:-1], np.append(traj.energy, 0.0)):
        with pytest.raises(DiagnosticsError, match="energy_series"):
            relative_energy(traj, traj, b, b, 0.0, 0.1, energy_series=energy)


def test_relative_energy_refuses_trajectories_of_other_bases(additive_system, rng):
    traj = integrate(additive_system, rng.normal(size=additive_system.n_modes) * 0.3,
                     BrownianPath.generate(1, 1e-3, 20, additive_system.n_brownian))
    b, other = additive_system.basis, build_basis(2, 3)
    for coarse_basis, fine_basis in ((other, other), (b, other)):
        with pytest.raises(DiagnosticsError, match="basis has"):
            relative_energy(traj, traj, coarse_basis, fine_basis, 0.0, 0.02)


def test_relative_energy_coarse_fine(basis2_2, rng):
    fine_basis = build_basis(2, 3)
    eta_c = np.zeros(basis2_2.n_modes)
    eta_c[basis2_2.index_of("0,1:cos")] = 0.3
    eta_f = np.zeros(fine_basis.n_modes)
    eta_f[fine_basis.index_of("0,1:cos")] = 0.3
    sys_c = build_system(basis2_2, build_noise(basis2_2, [(0, eta_c)]), nu=0.05)
    sys_f = build_system(fine_basis, build_noise(fine_basis, [(0, eta_f)]), nu=0.05)
    a0f = np.zeros(fine_basis.n_modes)
    a0f[fine_basis.index_of("1,0:cos")] = 0.4
    a0f[fine_basis.index_of("2,3:cos")] = 0.15  # beyond the coarse cutoff
    emb = basis2_2.embedding_into(fine_basis)
    path = BrownianPath.generate(77, 1e-3, 500, 1)
    traj_c = integrate(sys_c, a0f[emb], path)
    traj_f = integrate(sys_f, a0f, path)
    out = relative_energy(traj_c, traj_f, basis2_2, fine_basis, 0.0, 0.5)
    assert out["re"][0] == pytest.approx(0.5 * 0.15 ** 2, rel=1e-12)
    assert np.all(out["re"] <= 1.1 * out["bound"])


# -- defect fields ----------------------------------------------------------------


def test_reynolds_defect_two_member_hand_case(basis2_2):
    c = 0.7
    states = np.zeros((2, basis2_2.n_modes))
    states[0, 1] = c
    states[1, 1] = -c
    df = reynolds_defect(states, basis2_2)
    vals = basis2_2.mode_values(df.grid_n)  # (N, d, G)
    v1 = vals[1]                            # (d, G)
    expected = c * c * np.einsum("dg,eg->gde", v1, v1)
    assert np.abs(df.r_hat - expected).max() <= 1e-14
    assert np.abs(df.mean_field).max() == 0.0


def test_reynolds_defect_rejects_single_member(basis2_2):
    with pytest.raises(DiagnosticsError):
        reynolds_defect(np.zeros((1, basis2_2.n_modes)), basis2_2)


def test_reynolds_defect_psd_and_trace(additive_system, rng):
    ens = run_ensemble(additive_system, np.zeros(additive_system.n_modes),
                       128, base_seed=21, dt=1e-3, n_steps=100)
    df = reynolds_defect(ens.states_at(0.1), additive_system.basis)
    assert df.min_eigenvalue() >= -1e-10
    assert abs(df.trace_integral - (df.e_hat - df.mean_kinetic)) <= 1e-12


# -- dissipative weak residual -----------------------------------------------------


def test_weak_residual_deterministic(viscous_system, rng):
    a0 = rng.normal(size=viscous_system.n_modes) * 0.3
    ens = run_ensemble(viscous_system, a0, 1, base_seed=4, dt=1e-3, n_steps=100)
    phi = rng.normal(size=viscous_system.n_modes) * 0.5
    out = dissipative_weak_residual(ens, phi, 0.1)
    assert abs(out["residual"]) <= 1e-13


def test_weak_residual_independent_of_store_every(viscous_system, rng):
    # the residual sums over every integration step, whatever the saved grid
    a0 = rng.normal(size=viscous_system.n_modes) * 0.3
    phi = rng.normal(size=viscous_system.n_modes) * 0.5
    outs = []
    for store_every in (1, 2, 10):
        ens = run_ensemble(viscous_system, a0, 1, base_seed=4, dt=1e-3, n_steps=100,
                           store_every=store_every)
        outs.append(dissipative_weak_residual(ens, phi, 0.1)["residual"])
        assert abs(outs[-1]) <= 1e-13, store_every
    assert all(oracles.bit_equal(out, outs[0]) for out in outs), outs
    for t in (-0.1, 0.1005, 0.101):
        with pytest.raises(DiagnosticsError, match="step grid"):
            dissipative_weak_residual(ens, phi, t)


def test_weak_residual_integrates_only_up_to_t(viscous_system, rng, monkeypatch):
    a0 = rng.normal(size=viscous_system.n_modes) * 0.3
    ens = run_ensemble(viscous_system, a0, 3, base_seed=4, dt=1e-3, n_steps=100)
    steps = []
    draw = ensemble_mod.batch_increments
    monkeypatch.setattr(ensemble_mod, "batch_increments",
                        lambda seeds, dt, n, K: steps.append(n) or draw(seeds, dt, n, K))
    dissipative_weak_residual(ens, rng.normal(size=viscous_system.n_modes), 0.01)
    assert steps == [10]


@pytest.mark.parametrize("t", [0.01, "t_final"])
def test_weak_residual_independent_of_chunking(mixed_system_c4, monkeypatch, t):
    # every member's residual is a pure function of its seed, so the chunk
    # partition the members are regenerated in cannot move a bit
    ens = run_ensemble(mixed_system_c4, ensemble_mod.gaussian_initial(0.5), 12, base_seed=21,
                       dt=1e-3, n_steps=40, scheme="euler_maruyama")
    phi = np.zeros(mixed_system_c4.n_modes)
    low = np.nonzero(mixed_system_c4.basis.k_sq <= 2.0)[0]
    phi[low] = 0.5 / np.sqrt(low.size)
    t = ens.t_final if t == "t_final" else t
    one = dissipative_weak_residual(ens, phi, t)
    monkeypatch.setattr(ensemble_mod, "_chunk_size", lambda *args: 5)
    chunked = dissipative_weak_residual(ens, phi, t)
    for key in ("residual", "stderr"):
        assert chunked[key].hex() == one[key].hex(), key


def test_weak_residual_runs_no_kernel_besides_the_integration(mixed_system, monkeypatch):
    ens = run_ensemble(mixed_system, ensemble_mod.gaussian_initial(0.5), 6, base_seed=2,
                       dt=1e-3, n_steps=20)
    phi = np.random.default_rng(4).normal(size=mixed_system.n_modes)
    depth, inside, stray = [0], [], []
    apply, run = ConvectionTensor._apply_members, diagnostics_mod._run_members

    def run_members(*args):
        depth[0] += 1
        try:
            return run(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(diagnostics_mod, "_run_members", run_members)
    monkeypatch.setattr(ConvectionTensor, "_apply_members",
                        lambda self, aT: (inside if depth[0] else stray).append(aT.shape)
                        or apply(self, aT))
    dissipative_weak_residual(ens, phi, ens.t_final)
    # one Euler-Maruyama step per kernel call regenerates the members
    assert len(inside) == 20 and stray == []


@pytest.mark.parametrize("system_name", ["mixed_system", "mixed_system_3d"])
def test_weak_residual_pairing_is_the_convection_term(request, monkeypatch, system_name):
    # u . (P u) with P[i, j] = sum_k b[i,k,j] phi_k, column by column, is
    # -phi . B(u, u) of the tensor assembled by quadrature
    system = request.getfixturevalue(system_name)
    ens = run_ensemble(system, ensemble_mod.gaussian_initial(0.5), 3, base_seed=5,
                       dt=1e-3, n_steps=12)
    phi = np.random.default_rng(6).normal(size=system.n_modes) * 0.5
    products = []
    product = diagnostics_mod._csr_product

    def spy(op, x):
        out = product(op, x)
        products.append((x.copy(), out.copy()))
        return out

    monkeypatch.setattr(diagnostics_mod, "_csr_product", spy)
    dissipative_weak_residual(ens, phi, ens.t_final)
    ((u, pu),) = products
    assert u.shape == (system.n_modes, 12 * 3)
    got = np.einsum("ic,ic->c", u, pu)
    dense = oracles.dense_convection(system.basis)
    want = -np.einsum("ikj,ic,kc,j->c", dense, u, u, phi, optimize=True)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_weak_residual_peak_within_its_chunk_charge(mixed_system_c4, monkeypatch):
    # the chunk budget once charged 0.69 MB per member for a 2.96 MB peak at
    # N = 80, 1000 steps; here N = 80, 200 steps
    ens = run_ensemble(mixed_system_c4, ensemble_mod.gaussian_initial(0.5), 16, base_seed=21,
                       dt=1e-3, n_steps=200)
    phi = np.zeros(mixed_system_c4.n_modes)
    phi[:4] = 0.5
    dissipative_weak_residual(ens, phi, ens.t_final)  # builds the step's kernel partition
    charges = []
    size = ensemble_mod._chunk_size
    monkeypatch.setattr(ensemble_mod, "_chunk_size",
                        lambda per_member: charges.append(per_member) or size(per_member))
    tracemalloc.start()
    try:
        dissipative_weak_residual(ens, phi, ens.t_final)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charges) == 1 and size(charges[0]) >= ens.n_members
    assert peak <= ens.n_members * charges[0], (peak / ens.n_members, charges[0])
    # a member holds two (T, N) arrays at a time: its states and the
    # member-minor operand, the operand and P's product, or the product and
    # its member-major copy (2.07 measured); 64 KiB cover the small arrays
    state = 8 * 200 * mixed_system_c4.n_modes
    assert peak <= ens.n_members * 2.5 * state + (1 << 16), peak / (ens.n_members * state)


def test_weak_residual_additive_ci(additive_system):
    ens = run_ensemble(additive_system, np.zeros(additive_system.n_modes),
                       2000, base_seed=31, dt=1e-3, n_steps=100)
    rng = np.random.default_rng(0)
    phi = rng.normal(size=additive_system.n_modes) * 0.5
    out = dissipative_weak_residual(ens, phi, 0.1)
    assert abs(out["residual"]) <= 3 * out["stderr"]

