"""Monte-Carlo ensembles, empirical Young measures, and moment reports.

An ensemble is a pure function of (system, base seed, member count, path
configuration): member m integrates along the level-0 Brownian path with
seed base_seed XOR m, so any member can be regenerated instead of stored.
These seeds are distinct within one ensemble, not across ensembles: two
base seeds whose XOR is below the member count share member streams.
One member runner over one chunk partition serves `run_ensemble`,
`member_trajectory` and `diagnostics.dissipative_weak_residual`, and
integration is invariant to batch size (see `stochflow.sde`), so a
regenerated member matches its ensemble bit for bit, whatever the chunking
and thread count.  Summary series (energy, pathwise integrals) are kept for
every member; full states are kept only at the start, at the probe times and
at the end.  Any other state is not stored: `member_trajectory` regenerates
a member at full resolution.

The empirical Young measure is the collection of member field samples at the
probe points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import BasisSpec, default_grid, evaluate_field
from .sde import (BatchResult, GalerkinSystem, Trajectory, _grid_index, _philox_streams,
                  batch_increments, integrate_batch)


class EnsembleError(ValueError):
    """Invalid ensemble configuration or request."""


def member_seeds(base_seed: int, n_members: int) -> np.ndarray:
    """Member seeds base_seed XOR index: distinct within one ensemble only,
    since two base seeds whose XOR is below n_members share seeds (0 and 1
    give the same 64 seeds in another order).  Raises EnsembleError unless
    base_seed is an integer in [0, 2**64)."""
    if not (isinstance(base_seed, (int, np.integer)) and 0 <= base_seed < 2 ** 64):
        raise EnsembleError(f"base seed must be an integer in [0, 2**64), got {base_seed!r}")
    return np.uint64(base_seed) ^ np.arange(n_members, dtype=np.uint64)


def mean_stderr(x: np.ndarray) -> tuple[float, float]:
    """Sample mean of x and its Monte-Carlo standard error (0 for one sample)."""
    se = float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return float(x.mean()), se


def gaussian_initial(scale: float, max_ksq: float = 2.0, decay: float = 1.0) -> Callable:
    """Sampler for random low-mode initial data, iid across members.

    Coefficients are independent N(0, (scale / (1+|k|^2)^decay)^2) on modes
    with |k|^2 <= max_ksq, zero elsewhere; drawn from a counter-based stream
    keyed by the member seed so the ensemble stays reproducible.
    """

    def sample(seeds: np.ndarray, basis: BasisSpec) -> np.ndarray:
        mask = basis.k_sq <= max_ksq
        sig = scale / (1.0 + basis.k_sq) ** decay * mask
        out = np.empty((len(seeds), basis.n_modes))
        for m, gen in enumerate(_philox_streams(seeds, 0x1717)):
            out[m] = gen.normal(size=basis.n_modes) * sig
        return out

    return sample


def constant_initial(a0: np.ndarray) -> Callable:
    def sample(seeds: np.ndarray, basis: BasisSpec) -> np.ndarray:
        return np.tile(np.asarray(a0, dtype=np.float64), (len(seeds), 1))

    return sample


# bytes of per-member arrays one chunk may hold
_CHUNK_BYTES = 1 << 28


def _chunk_size(n_modes: int, n_brownian: int, n_steps: int, store_every: int = 1) -> int:
    # per member, a batch keeps its n_save + 1 saved states and four series
    # and its n_steps drawn and n_save saved increments; a member that alone
    # exceeds the budget runs in a chunk of one
    n_save = n_steps // store_every
    per_member = 8 * ((n_save + 1) * (n_modes + 4) + (n_steps + n_save) * n_brownian)
    return max(1, _CHUNK_BYTES // per_member)


def _chunks(system: GalerkinSystem, n_members: int, n_steps: int,
            store_every: int = 1) -> list[slice]:
    chunk = _chunk_size(system.n_modes, system.n_brownian, n_steps, store_every)
    return [slice(lo, min(lo + chunk, n_members)) for lo in range(0, n_members, chunk)]


def _run_members(system: GalerkinSystem, seeds: np.ndarray, a0: np.ndarray, dt: float,
                 n_steps: int, scheme: str, store_every: int = 1) -> BatchResult:
    """Integrate the members with these seeds and initial states."""
    inc = batch_increments(seeds, dt, n_steps, system.n_brownian)
    return integrate_batch(system, a0, inc, dt, scheme, store_every)


@dataclass
class Ensemble:
    """Summary arrays for M independent trajectories plus regeneration metadata.

    Time series arrays are saved on the thinned grid (save spacing
    store_every * dt); sup_energy and the pathwise integrals are accumulated
    at full step resolution.  blowup_step is -1 for members that stayed
    finite.
    """

    system: GalerkinSystem
    base_seed: int
    scheme: str
    dt: float
    n_steps: int
    store_every: int
    seeds: np.ndarray           # (M,)
    initial_states: np.ndarray  # (M, N)
    times: np.ndarray           # (n_save + 1,)
    energy: np.ndarray          # (n_save + 1, M)
    grad_energy: np.ndarray
    stoch_int: np.ndarray
    grad_int: np.ndarray
    sup_energy: np.ndarray      # (M,)
    final_states: np.ndarray    # (M, N)
    blowup_step: np.ndarray     # (M,)
    probe_times: np.ndarray     # (P,)
    probe_states: np.ndarray    # (P, M, N)

    @property
    def n_members(self) -> int:
        return self.seeds.size

    @property
    def t_final(self) -> float:
        return self.n_steps * self.dt

    def member_trajectory(self, m: int) -> Trajectory:
        """Regenerate member m at full resolution (bitwise reproducible)."""
        sl = slice(m, m + 1)
        return _run_members(self.system, self.seeds[sl], self.initial_states[sl],
                            self.dt, self.n_steps, self.scheme).member(0, int(self.seeds[m]))

    def states_at(self, t: float) -> np.ndarray:
        """Member states (M, N) at the probe time that names the same saved index as t."""
        error = EnsembleError(f"time {t} is not in the probe schedule {self.probe_times}")
        spacing, last = self.dt * self.store_every, self.times.size - 1
        j = _grid_index(t, spacing, last, error)
        for p, probe in enumerate(self.probe_times):
            if _grid_index(probe, spacing, last, error) == j:
                return self.probe_states[p]
        raise error


def run_ensemble(
    system: GalerkinSystem,
    initial: Callable | np.ndarray,
    n_members: int,
    base_seed: int,
    dt: float,
    n_steps: int,
    scheme: str = "euler_maruyama",
    store_every: int = 1,
    probe_times: tuple[float, ...] | None = None,
    threads: int = 1,
) -> Ensemble:
    """Integrate M independent members; deterministic given the base seed.

    `initial` is either a fixed coefficient vector or a sampler
    f(seeds, basis) -> (M, N).  Members run in contiguous chunks (optionally
    on a thread pool); all reductions are written by member index, so results
    are bitwise independent of chunking and scheduling.

    Raises EnsembleError for fewer than one member, a dt that is not finite
    and positive, a negative n_steps or a store_every that is not a positive
    integer.
    """
    if n_members < 1:
        raise EnsembleError(f"need at least one member, got {n_members}")
    if not (np.isfinite(dt) and dt > 0):
        raise EnsembleError(f"dt must be finite and positive, got {dt}")
    if n_steps < 0:
        raise EnsembleError(f"n_steps must be nonnegative, got {n_steps}")
    if not (isinstance(store_every, (int, np.integer)) and store_every >= 1):
        raise EnsembleError(f"store_every must be a positive integer, got {store_every}")
    seeds = member_seeds(base_seed, n_members)
    sample = initial if callable(initial) else constant_initial(initial)
    a0 = sample(seeds, system.basis)
    if a0.shape != (n_members, system.n_modes):
        raise EnsembleError(f"initial states have shape {a0.shape}")

    if probe_times is None:
        probe_times = (0.0, n_steps * dt)
    probe_times = np.asarray(sorted(set(float(t) for t in probe_times)))
    n_save = n_steps // store_every if n_steps else 0
    saved_dt = dt * store_every
    probe_idx = [_grid_index(t, saved_dt, n_save,
                             EnsembleError(f"probe time {t} is not on the saved grid"))
                 for t in probe_times]
    times = np.arange(n_save + 1) * saved_dt
    energy = np.empty((n_save + 1, n_members))
    grad_energy = np.empty_like(energy)
    stoch_int = np.empty_like(energy)
    grad_int = np.empty_like(energy)
    sup_energy = np.empty(n_members)
    final_states = np.empty((n_members, system.n_modes))
    blowup = np.empty(n_members, dtype=np.int64)
    probe_states = np.empty((len(probe_times), n_members, system.n_modes))

    def run_chunk(sl: slice):
        out = _run_members(system, seeds[sl], a0[sl], dt, n_steps, scheme, store_every)
        energy[:, sl] = out.energy
        grad_energy[:, sl] = out.grad_energy
        stoch_int[:, sl] = out.stoch_int
        grad_int[:, sl] = out.grad_int
        sup_energy[sl] = out.sup_energy
        final_states[sl] = out.states[-1]
        blowup[sl] = out.blowup_step
        for p, j in enumerate(probe_idx):
            probe_states[p, sl] = out.states[j]

    slices = _chunks(system, n_members, n_steps, store_every)
    if threads > 1 and len(slices) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunk, slices))
    else:
        for sl in slices:
            run_chunk(sl)

    return Ensemble(
        system=system, base_seed=base_seed, scheme=scheme, dt=dt,
        n_steps=n_steps, store_every=store_every, seeds=seeds,
        initial_states=a0, times=times, energy=energy,
        grad_energy=grad_energy, stoch_int=stoch_int, grad_int=grad_int,
        sup_energy=sup_energy, final_states=final_states, blowup_step=blowup,
        probe_times=probe_times, probe_states=probe_states,
    )


# -- empirical Young measures ---------------------------------------------------


@dataclass
class EmpiricalYoungMeasure:
    """Member field samples u^(m)(t, x) at the probe schedule.

    samples[p, m, g, :] is member m's velocity at probe time p and grid
    point g; the pairing <mu, f> at a probe is the member average of f.
    """

    probe_times: np.ndarray     # (P,)
    grid_n: int
    samples: np.ndarray         # (P, M, G, d)

    def mean_field(self) -> np.ndarray:
        """<mu, identity> = ensemble mean field at each probe, (P, G, d)."""
        return self.samples.mean(axis=1)


def empirical_measure(ensemble: Ensemble) -> EmpiricalYoungMeasure:
    basis = ensemble.system.basis
    grid_n = default_grid(basis.cutoff)
    samples = evaluate_field(basis, ensemble.probe_states, grid_n)
    return EmpiricalYoungMeasure(
        probe_times=ensemble.probe_times,
        grid_n=grid_n,
        samples=samples,
    )


# -- moment reports ---------------------------------------------------------------


def moment_report(ensemble: Ensemble, p: float) -> dict:
    """E[sup_t |u|^p] and nu E[(int |grad u|^2)^{p/2}] with standard errors.

    The sup runs over every integration step (tracked online), not just the
    saved grid.
    """
    if p < 2:
        raise EnsembleError(f"moment exponent must be >= 2, got {p}")
    sup_norm_p = (2.0 * ensemble.sup_energy) ** (p / 2.0)
    grad_p = ensemble.grad_int[-1] ** (p / 2.0)
    sup_mean, sup_se = mean_stderr(sup_norm_p)
    grad_mean, grad_se = mean_stderr(ensemble.system.nu * grad_p)
    return {
        "p": p,
        "sup_moment": sup_mean,
        "sup_moment_stderr": sup_se,
        "viscous_moment": grad_mean,
        "viscous_moment_stderr": grad_se,
        "n_members": ensemble.n_members,
    }

