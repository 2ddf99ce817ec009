"""The finite-dimensional Galerkin SDE and its time integrators.

The coefficient vector a(t) in R^N solves, in Ito form,

    da_j = -B(a, a)_j dt - (D a)_j dt + sum_l (eta[j, l] + (zeta_l a)_j) dbeta_l

with B the quadratic convection contraction, D = nu * diag(|k|^2) + corr the
dissipation matrix (corr is the transport Ito correction), eta the additive
noise matrix and zeta_l the skew transport matrices.

Two explicit schemes are provided.  Euler-Maruyama integrates the Ito form
(correction inside the drift); the Heun predictor-corrector integrates the
Stratonovich form directly (drift without the correction, midpoint-averaged
diffusion).  Both converge to the same law as dt -> 0.

Brownian increments are counter-based: a path is a pure function of
(seed, dt, n_steps, K, level) through the Philox generator, keyed by
(seed, level).  `batch_increments` is the one level-0 draw, and
`BrownianPath.generate` is a row of it; one midpoint-bridge split,
`_refine`, serves one member (`BrownianPath.refine`) or many
(`experiments.order_study`).  It halves dt so that the refined path sums
pairwise to its parent, which is what coupled strong-order studies need.
Nothing has to be stored.

Every layer maps a time to a grid index by one rule, `_grid_index`: on a
grid of spacing h, time t names index j = round(t / h), accepted when
0 <= j <= last and |j h - t| <= 1e-9 * max(1, |t|).  Saved times are
`j * (dt * store_every)`, so the saved spacing is `dt * store_every`, bit for
bit.

`integrate_batch` runs the time loop for M members at once and returns a
`BatchResult`.  Its `member` method is the one place that turns a batch
column into a single-member `Trajectory`; `integrate` and
`Ensemble.member_trajectory` are both a batch of one viewed through it.

A member's bits do not depend on the batch it runs in.  The time loop keeps
the state member-minor, a contiguous (N, M) array whose columns are the
members, from the first step to the last.  Every linear operator of a step
is a CSR matrix built on first use and cached on the `GalerkinSystem`
(`_StepOperators`), and the convection kernel ends in CSR products too
(`ConvectionTensor._apply_members`).  Each product runs scipy's csr_matvecs
(csr_matvec at M = 1) through `basis._csr_product`, which skips scipy's
Python dispatch; the routine forms each output entry as the sequential sum
over the stored entries of its row, member by member, so its bits do not
depend on M.  A BLAS product blocks and vectorizes by batch size, and a
dense `np.einsum` over the (N, M) layout changes its loop with M, so neither
runs in a step.

Each step forms one product at its left point: the scheme's stack of the
zeta_l, eta^T and (Euler-Maruyama only) the Ito drift matrix, applied to
the state.  The rows of a CSR product sum independently, so each block of
the stack keeps the bits of its own product; the stochastic integral's
eta^T a comes from the same product as the step's terms.  Heun's corrector
applies the same Heun stack to its predictor and reads only the zeta rows,
so no step operator holds zeta alone.  The step does its arithmetic in
place wherever the order of operations stays that of the plain expression,
so the bits do too.  Finiteness is tested once per step over the whole
batch, and the per-member mask is built only when that fails.

The bookkeeping runs once per block of steps, not once per step.  The loop
collects the states after each step as member-major rows, up to `_BLOCK`
doubles and at least one step, and then reduces the block.  The per-member
series (energy, |grad u|^2) reduce over the modes of those rows: along axis 0
of the (N, M) state numpy would sum pairwise at M = 1 and row by row at
M > 1.  The left-point sums `stoch_int` and `grad_int` are one cumsum along
time over the block's terms, after the sum carried in; a cumsum adds in
sequence, so it is bitwise the per-step `+=`.  The supremum of the energy
is a max over the block, and the saved increments are summed once, before
the loop, in order from 0.0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np
from scipy import sparse

from .basis import BasisSpec, ConvectionTensor, _csr_product, convection_tensor
from .noise import NoiseSpec, build_noise

SCHEMES = ("euler_maruyama", "heun")

# doubles of member-major state rows the time loop collects before it reduces
# a block of steps: the energies, the accumulators and the saved rows
_BLOCK = 1 << 16


class SdeError(ValueError):
    """Invalid integration setup or state."""


@dataclass(frozen=True)
class _StepOperators:
    """The linear operators of one step as CSR matrices, each built from its
    dense matrix (a stack from the `np.vstack` of its blocks), so `toarray()`
    gives that matrix back bit for bit.

    A scheme's stack holds every linear map the step applies to the state at
    its left point, so one product serves them all: the rows zeta_s a (the
    leading S*N, S the number of transport modes), then eta^T a for the
    stochastic integral, then (Euler-Maruyama only) the Ito drift matrix
    nu * diag(|k|^2) + corr times a.  Heun's corrector applies `heun` to its
    predictor and reads only the zeta rows; a CSR row's sum does not depend
    on the rows stacked with it, so those rows keep the bits of a product by
    zeta alone.
    """

    eta: sparse.csr_matrix      # (N, K) additive noise, applied to dW
    em: sparse.csr_matrix       # (S*N + K + N, N) [zeta; eta^T; nu*diag(|k|^2) + corr]
    heun: sparse.csr_matrix     # (S*N + K, N) [zeta; eta^T]
    zeta_norms: tuple           # spectral norm of each zeta_s


@dataclass(frozen=True)
class GalerkinSystem:
    """Immutable bundle of everything the drift and diffusion need."""

    basis: BasisSpec
    conv: ConvectionTensor
    noise: NoiseSpec
    nu: float
    _ops: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_modes(self) -> int:
        return self.basis.n_modes

    @property
    def n_brownian(self) -> int:
        return self.noise.n_brownian

    @property
    def corr(self) -> np.ndarray:
        """(N, N) transport Ito correction, the noise's cached `correction()`."""
        return self.noise.transport.correction()

    def _step_operators(self) -> _StepOperators:
        """The step's CSR operators, built on first use and cached.

        Building them is deterministic, so threads that race to fill the
        cache store equal operators.
        """
        ops = self._ops.get("step")
        if ops is None:
            eta = self.noise.additive.eta
            zeta = self.noise.transport.zeta
            heun = np.vstack((zeta.reshape(-1, self.n_modes), eta.T))
            ops = _StepOperators(
                eta=sparse.csr_matrix(eta),
                em=sparse.csr_matrix(
                    np.vstack((heun, self.nu * np.diag(self.basis.k_sq) + self.corr))),
                heun=sparse.csr_matrix(heun),
                zeta_norms=tuple(float(np.linalg.norm(z, 2)) for z in zeta),
            )
            self._ops["step"] = ops
        return ops

    def stability_dt(self, a_norm: float) -> float:
        """Explicit-scheme guardrail dt <= c / (nu |k|^2_max + |a| |b|), c = 1/2."""
        rate = self.nu * float(np.max(self.basis.k_sq, initial=0.0))
        rate += a_norm * self.conv.frobenius
        for norm in self._step_operators().zeta_norms:
            rate += norm ** 2
        if rate == 0.0:
            return math.inf
        return 0.5 / rate


def build_system(basis: BasisSpec, noise: NoiseSpec | None = None, nu: float = 0.0,
                 conv: ConvectionTensor | None = None) -> GalerkinSystem:
    if not 0 <= nu < math.inf:
        raise SdeError(f"viscosity must be nonnegative and finite, got {nu}")
    if noise is None:
        noise = build_noise(basis)
    if conv is None:
        conv = convection_tensor(basis)
    if noise.transport.zeta.shape[1:] != (basis.n_modes, basis.n_modes):
        raise SdeError("noise and basis dimensions are inconsistent")
    if noise.additive.eta.shape[0] != basis.n_modes:
        raise SdeError("additive noise indexed inconsistently with basis")
    return GalerkinSystem(basis=basis, conv=conv, noise=noise, nu=nu)


# -- drift, diffusion and steps ----------------------------------------------
#
# Every function here works member-minor: a batch of M states is a
# contiguous (N, M) array aT whose columns are the members, and the
# increments are (K, M).  `left` is the product of the scheme's stack
# (`_StepOperators`) at aT, which the time loop forms once per step; a step
# overwrites its zeta rows.  They are private and reached only through
# `integrate_batch`, which owns the shape, dt and finiteness checks.


def _drift(system: GalerkinSystem, aT: np.ndarray, linear: np.ndarray | None = None) -> np.ndarray:
    """-B(a, a) minus the drift's linear part: `linear`, the Ito drift matrix
    times aT, or, if None, nu |k|^2 a (the Stratonovich drift)."""
    out = system.conv._apply_members(aT)
    np.negative(out, out=out)
    if linear is None:
        out -= system.nu * (system.basis.k_sq[:, None] * aT)
    else:
        out -= linear
    return out


def _diffusion(system: GalerkinSystem, left: np.ndarray, dWT: np.ndarray,
               additive: np.ndarray) -> np.ndarray:
    """eta dW + sum_l (zeta_l a) dW_l, from `additive` = eta dW, which is left
    as it is, and the products zeta_l a, the leading rows of `left`.  The sum
    is formed in place of zeta_0 a (in a copy of `additive` when there is no
    transport noise), with the terms in the order of a running `+=`."""
    modes = system.noise.transport.modes
    if not modes:
        return additive.copy()
    za = left[:len(modes) * additive.shape[0]].reshape(len(modes), *additive.shape)
    out = za[0]
    out *= dWT[modes[0]]
    out += additive
    for s, ell in enumerate(modes[1:], 1):
        za[s] *= dWT[ell]
        out += za[s]
    return out


def _euler_maruyama(system: GalerkinSystem, aT: np.ndarray, dWT: np.ndarray,
                    dt: float, left: np.ndarray) -> np.ndarray:
    out = _drift(system, aT, left[-system.n_modes:])
    out *= dt
    out += aT
    out += _diffusion(system, left, dWT, _csr_product(system._step_operators().eta, dWT))
    return out


def _heun(system: GalerkinSystem, aT: np.ndarray, dWT: np.ndarray, dt: float,
          left: np.ndarray) -> np.ndarray:
    """One Stratonovich Heun step: predictor plus trapezoidal corrector.

    Drift excludes the Ito correction; the midpoint-averaged diffusion
    supplies it in law.  For zero noise this is the deterministic RK2 rule.
    Members whose predictor is non-finite come out as NaN, for the caller to
    flag as blown up; the corrector is evaluated only for the others.
    """
    ops = system._step_operators()
    additive = _csr_product(ops.eta, dWT)
    f0 = _drift(system, aT)
    g0 = _diffusion(system, left, dWT, additive)
    pred = f0 * dt
    pred += aT
    pred += g0
    finite = None
    if not np.isfinite(pred).all():
        # stand the finite start state in for the blown-up predictors, so the
        # batch keeps its shape and every finite member its bits
        finite = np.isfinite(pred).all(axis=0)
        pred = np.where(finite, pred, aT)
    f1 = _drift(system, pred)
    g1 = _diffusion(system, _csr_product(ops.heun, pred), dWT, additive)
    del pred
    # aT + 0.5 dt (f0 + f1) + 0.5 (g0 + g1), in place and in that order
    out = f0
    out += f1
    out *= 0.5 * dt
    out += aT
    g0 += g1
    g0 *= 0.5
    out += g0
    if finite is not None:
        out = np.where(finite, out, np.nan)
    return out


_STEPPERS = {
    "euler_maruyama": _euler_maruyama,
    "heun": _heun,
}


# -- Brownian paths ----------------------------------------------------------


def _philox_streams(seeds: Iterable, word: int) -> Iterator[np.random.Generator]:
    """The stream of Philox(key=[seed, word]) for each seed in turn.

    One generator serves the whole call: it is re-keyed for every seed to the
    state a fresh `Generator(Philox(key))` starts in (zero counter, empty
    buffer), which costs far less than building one.  A caller finishes with
    each stream before it asks for the next.  The generator is local to the
    call, so threads never share it.  Raises SdeError unless every seed is an
    integer in [0, 2**64), which numpy would wrap, truncate or overflow; an
    integer array is checked in one pass, any other iterable (numpy casts a
    list of ints below and above 2**63 to float) element by element.
    """
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        valid = not seeds.size or seeds.min() >= 0
    else:
        seeds = list(seeds)
        valid = all(isinstance(s, (int, np.integer)) and 0 <= s < 2 ** 64 for s in seeds)
    if not valid:
        raise SdeError("seeds must be integers in [0, 2**64)")
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    zero = np.zeros(4, dtype=np.uint64)
    for seed in seeds:
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": zero, "key": np.array([int(seed), word], dtype=np.uint64)},
            "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        yield gen


@dataclass(frozen=True)
class BrownianPath:
    """Counter-based Brownian increments on a uniform grid.

    Level 0 is row 0 of `batch_increments` for the seed: n_steps x K normals
    of variance dt from Philox(seed, 0).  Each further level is one
    `refine()` of the level below.
    """

    seed: int
    dt: float
    n_steps: int
    n_brownian: int
    level: int = 0
    increments: np.ndarray = field(default=None, repr=False, compare=False)

    @classmethod
    def generate(cls, seed: int, dt: float, n_steps: int, n_brownian: int) -> "BrownianPath":
        if not 0 < dt < math.inf or n_steps < 0:
            raise SdeError("BrownianPath needs a finite dt > 0 and n_steps >= 0")
        return cls(seed=seed, dt=dt, n_steps=n_steps, n_brownian=n_brownian,
                   increments=batch_increments([seed], dt, n_steps, n_brownian)[0])

    def refine(self) -> "BrownianPath":
        """The same Brownian motion sampled at dt/2 (`_refine` of one member)."""
        inc = _refine([self.seed], self.increments[None], self.dt, self.level)[0]
        return replace(self, dt=self.dt / 2.0, n_steps=2 * self.n_steps,
                       level=self.level + 1, increments=inc)


def _refine(seeds, inc: np.ndarray, dt: float, level: int) -> np.ndarray:
    """Level-`level` increments (M, n, K) of step dt, refined to (M, 2n, K) at dt/2.

    Each increment of member m is split at its midpoint by a bridge normal
    from Philox(seeds[m], level + 1), so consecutive pairs sum to it.
    """
    bridge = np.stack([gen.normal(0.0, math.sqrt(dt / 2.0 / 2.0), size=inc.shape[1:])
                       for gen in _philox_streams(seeds, level + 1)])
    half = 0.5 * inc
    M, n, K = inc.shape
    return np.stack((half + bridge, half - bridge), axis=2).reshape(M, 2 * n, K)


def batch_increments(seeds: np.ndarray, dt: float, n_steps: int, n_brownian: int) -> np.ndarray:
    """Level-0 paths of many seeds as one (M, n_steps, K) array: row m holds
    n_steps x K normals of variance dt from Philox(seeds[m], 0)."""
    out = np.empty((len(seeds), n_steps, n_brownian))
    for m, gen in enumerate(_philox_streams(seeds, 0)):
        out[m] = gen.normal(0.0, math.sqrt(dt), size=(n_steps, n_brownian))
    return out


# -- the time grid -----------------------------------------------------------


def _grid_index(t: float, spacing: float, last: float, error: Exception) -> int:
    """The index in 0..last (math.inf: open-ended) that t names on the grid, else raise."""
    try:
        q = t / spacing if spacing else 0.0
        if math.isfinite(q):
            j = int(round(q))
            if 0 <= j <= last and abs(j * spacing - t) <= 1e-9 * max(1.0, abs(t)):
                return j
    except OverflowError:  # an integer past the float range names no grid point
        pass
    raise error


# -- trajectories ------------------------------------------------------------


@dataclass
class Trajectory:
    """Saved time series of one integration plus pathwise accumulators.

    `energy` is 1/2 |a|^2 (Parseval), `grad_energy` is sum |k_j|^2 a_j^2.
    `stoch_int` accumulates the left-point Ito sum of <u, sigma1 dW> and
    `grad_int` the left-point sum of |grad u|^2 dt, both at full step
    resolution regardless of thinning.  `increments` holds the Brownian
    increments aggregated to the saved grid.
    """

    times: np.ndarray          # (n_save + 1,)
    states: np.ndarray         # (n_save + 1, N)
    energy: np.ndarray
    grad_energy: np.ndarray
    stoch_int: np.ndarray
    grad_int: np.ndarray
    increments: np.ndarray     # (n_save, K)
    seed: int
    dt: float                  # integration step (not the saved spacing)
    store_every: int
    scheme: str
    nu: float
    blowup_time: float | None = None

    def index_of_time(self, t: float) -> int:
        return _grid_index(t, self.dt * self.store_every, self.times.size - 1,
                           SdeError(f"time {t} is not on the saved grid"))


@dataclass(frozen=True)
class BatchResult:
    """Everything one `integrate_batch` call produced for its M members.

    Arrays: times (n_save+1,), states (n_save+1, M, N),
    energy/grad_energy/stoch_int/grad_int (n_save+1, M), increments
    aggregated onto the saved grid (n_save, M, K), sup_energy (M,) over every
    step, and blowup_step (M,) with -1 for members that stayed finite.  The
    scalars are the integration settings a member view needs.
    """

    times: np.ndarray
    states: np.ndarray
    energy: np.ndarray
    grad_energy: np.ndarray
    stoch_int: np.ndarray
    grad_int: np.ndarray
    increments: np.ndarray
    sup_energy: np.ndarray
    blowup_step: np.ndarray
    dt: float
    store_every: int
    scheme: str
    nu: float

    def member(self, m: int, seed: int) -> Trajectory:
        """Member m as a `Trajectory` whose arrays are views into this batch."""
        blow = self.blowup_step[m]
        return Trajectory(
            times=self.times,
            states=self.states[:, m, :],
            energy=self.energy[:, m],
            grad_energy=self.grad_energy[:, m],
            stoch_int=self.stoch_int[:, m],
            grad_int=self.grad_int[:, m],
            increments=self.increments[:, m, :],
            seed=seed,
            dt=self.dt,
            store_every=self.store_every,
            scheme=self.scheme,
            nu=self.nu,
            blowup_time=None if blow < 0 else float(blow * self.dt),
        )


def integrate_batch(
    system: GalerkinSystem,
    a0: np.ndarray,                # (M, N)
    increments: np.ndarray,        # (M, n_steps, K)
    dt: float,
    scheme: str = "euler_maruyama",
    store_every: int = 1,
) -> BatchResult:
    """Vectorized integration over a member batch; the core time loop."""
    if scheme not in SCHEMES:
        raise SdeError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    step = _STEPPERS[scheme]
    a = np.array(a0, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != system.n_modes:
        raise SdeError(f"state has shape {a.shape}, expected (members, {system.n_modes})")
    M, N = a.shape
    if not 0 < dt < math.inf:  # also refuses NaN, which `dt <= 0` lets through
        raise SdeError(f"dt must be positive and finite, got {dt}")
    if not (isinstance(increments, np.ndarray) and increments.ndim == 3
            and increments.shape[::2] == (M, system.n_brownian)):
        raise SdeError("increment array inconsistent with batch and noise dimensions: "
                       f"expected an ({M}, n_steps, {system.n_brownian}) array")
    n_steps = increments.shape[1]
    if not (isinstance(store_every, (int, np.integer)) and store_every >= 1):
        raise SdeError(f"store_every must be a positive integer, got {store_every}")
    if n_steps % store_every != 0 and n_steps > 0:
        raise SdeError("store_every must divide n_steps")
    if not np.all(np.isfinite(a)):
        raise SdeError("non-finite initial state")

    guard = system.stability_dt(float(np.max(np.linalg.norm(a, axis=1), initial=0.0)))
    if dt > guard:
        warnings.warn(
            f"dt={dt:g} exceeds the explicit-scheme guardrail {guard:g}; "
            "integration may blow up",
            RuntimeWarning,
            stacklevel=2,
        )

    n_save = n_steps // store_every if n_steps else 0
    K = system.n_brownian
    ksq = system.basis.k_sq
    ops = system._step_operators()
    stack = ops.em if scheme == "euler_maruyama" else ops.heun
    zeta_rows = len(system.noise.transport.modes) * N
    sigma = slice(zeta_rows, zeta_rows + K)  # eta^T a in either stack

    times = np.arange(n_save + 1) * (dt * store_every)
    states = np.empty((n_save + 1, M, N))
    energy = np.empty((n_save + 1, M))
    grad_energy = np.empty((n_save + 1, M))
    stoch_series = np.empty((n_save + 1, M))
    grad_series = np.empty((n_save + 1, M))
    # each saved slot sums its store_every increments in turn from 0.0, as a
    # per-step `+=` would
    inc_saved = np.zeros((n_save, M, K))
    grouped = increments.reshape(M, n_save, store_every, K)
    for r in range(store_every):
        inc_saved += grouped[:, :, r].transpose(1, 0, 2)

    def _energies(x):  # over the modes of member-major rows
        return 0.5 * np.einsum("...j,...j->...", x, x), np.einsum("j,...j->...", ksq, x * x)

    states[0] = a
    energy[0], grad_energy[0] = _energies(a)
    stoch_series[0] = 0.0
    grad_series[0] = 0.0

    stoch_acc = np.zeros(M)
    grad_acc = np.zeros(M)
    g_left = grad_energy[0]                 # |grad u|^2 at the current left point
    sup_energy = energy[0].copy()
    blowup_step = np.full(M, -1, dtype=np.int64)
    alive = np.ones(M, dtype=bool)
    frozen = False

    # one block of steps at a time: the states after each step, member-major,
    # and the left-point terms of the accumulators, each after the sum carried
    # in, so that one sequential cumsum per block is bitwise the per-step `+=`
    per_block = max(1, min(n_steps, _BLOCK // max(1, M * N)))
    rows = np.empty((per_block, M, N))
    stoch_terms = np.empty((per_block * K + 1, M))
    grad_terms = np.empty((per_block + 1, M))
    left = np.empty((stack.shape[0], M))
    aT = np.ascontiguousarray(a.T)          # (N, M), the state the steps see
    del a
    for n0 in range(0, n_steps, per_block):
        n1 = min(n0 + per_block, n_steps)
        dWT_block = np.ascontiguousarray(increments[:, n0:n1].transpose(1, 2, 0),
                                         dtype=np.float64)
        for i, dWT in enumerate(dWT_block):
            _csr_product(stack, aT, left)
            np.multiply(left[sigma], dWT, out=stoch_terms[1 + i * K:1 + (i + 1) * K])
            aT_new = step(system, aT, dWT, dt, left)
            if frozen:
                aT_new[:, ~alive] = aT[:, ~alive]  # dead members stay frozen
            if not np.isfinite(aT_new).all():
                bad = ~np.isfinite(aT_new).all(axis=0)
                blowup_step[bad & alive] = n0 + i + 1
                alive &= ~bad
                frozen = True
                aT_new[:, bad] = aT[:, bad]  # freeze at the last finite state
            aT = aT_new
            rows[i] = aT.T
        b = n1 - n0
        x = rows[:b]
        e, g = _energies(x)
        np.maximum(sup_energy, e.max(axis=0), out=sup_energy)
        grad_terms[0] = grad_acc
        np.multiply(g_left, dt, out=grad_terms[1])
        np.multiply(g[:b - 1], dt, out=grad_terms[2:b + 1])
        stoch_terms[0] = stoch_acc
        grad_cum = np.cumsum(grad_terms[:b + 1], axis=0)
        stoch_cum = np.cumsum(stoch_terms[:b * K + 1], axis=0)
        grad_acc, stoch_acc, g_left = grad_cum[b], stoch_cum[b * K], g[b - 1]
        # the saved steps in (n0, n1] and their rows in the block
        saved = np.arange(-(-(n0 + 1) // store_every) * store_every, n1 + 1, store_every)
        idx, slot = saved - (n0 + 1), saved // store_every
        states[slot] = x[idx]
        energy[slot] = e[idx]
        grad_energy[slot] = g[idx]
        stoch_series[slot] = stoch_cum[(idx + 1) * K]
        grad_series[slot] = grad_cum[idx + 1]

    return BatchResult(
        times=times, states=states, energy=energy, grad_energy=grad_energy,
        stoch_int=stoch_series, grad_int=grad_series, increments=inc_saved,
        sup_energy=sup_energy, blowup_step=blowup_step,
        dt=dt, store_every=store_every, scheme=scheme, nu=system.nu,
    )


def integrate(
    system: GalerkinSystem,
    a0: np.ndarray,
    path: BrownianPath,
    scheme: str = "euler_maruyama",
    store_every: int = 1,
) -> Trajectory:
    """Integrate one trajectory along a Brownian path.

    Blow-up is flagged and the trajectory truncated (state frozen at the last
    finite value, `blowup_time` set); it is never clamped silently.
    """
    a0 = np.asarray(a0, dtype=np.float64)
    if a0.shape != (system.n_modes,):
        raise SdeError(f"initial state has shape {a0.shape}, expected ({system.n_modes},)")
    inc = path.increments.reshape(1, path.n_steps, path.n_brownian)
    return integrate_batch(system, a0[None, :], inc, path.dt, scheme,
                           store_every).member(0, path.seed)
