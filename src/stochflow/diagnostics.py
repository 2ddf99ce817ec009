"""Energy identities, energy-variational gaps, relative energy, and defect fields.

Every check here evaluates, on discrete trajectory or ensemble data, an
identity or inequality that holds exactly for the continuous-time Galerkin
system: the pathwise energy balance, the family of energy-variational
inequalities indexed by test processes, the relative-energy/Gronwall bound
against a resolved reference, and the positive-semidefinite second-moment
defect of an ensemble together with its trace identity.  The inviscid
(Euler) form of a check is the check against the nu = 0 system.

Conventions, fixed once for all residuals: time integrals are left-point
Riemann sums on the saved grid, stochastic integrals are left-point (Ito)
sums along the stored increments, and the L-infinity norm of the negative
symmetric part of a gradient field is the spectral norm evaluated as a grid
supremum on the twice refined quadrature grid.  The base grid's points are
every other point of the refined grid, and `velocity_gradient` gives them
bitwise the same samples on both grids, so the refined supremum is the
larger of the two grids' bit for bit and the base grid needs no pass of its
own.

In 3-D that supremum's values come from LAPACK `eigvalsh`.  A layered
eigenvalue screen (cheap bounds, a LAPACK floor per row, a closed form on
the samples that reach it) only chooses which gradient samples can reach
the maximum and go to LAPACK, so the result is bitwise that of LAPACK on
every sample.  Time series are walked in blocks of time rows of a fixed
workspace, so the memory of `neg_sup_series` is bounded in the series
length.

`gap_battery` runs the battery on a trajectory's own saved spacing, and its
gaps share their phi-independent products: the trajectory keeps
`conv.apply(a)`, a @ corr and a @ zeta for the last interval a gap read, one
entry of (S + 2) T N doubles plus the bytes of the T N states that guard it.
The weak residual pairs states with a static field phi through one sparse
matrix P[i, j] = sum_k b[i,k,j] phi_k and runs no convection kernel.

The energy-variational gap contracts no more than two operands at a time.
Over T saved steps, N modes and S transport fields, a matrix product with
the trajectory comes first (`a @ corr`, `a @ zeta`, or `zeta_l B_l` before
`a`), so each term costs one BLAS product of O(S T N^2) flops, or O(S N^2 +
S T N) for the martingale trace.  Written as one three-operand `np.einsum`,
the same term runs as a naive loop over every index: 45 to 400 times slower
at T = 500, N = 80, S = 1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .basis import (BasisSpec, _csr_product, _gradient_block_rows, default_grid,
                    evaluate_field, velocity_gradient)
from .ensemble import _chunks, _run_members, mean_stderr
from .noise import hs_norm
from .sde import GalerkinSystem, Trajectory, _grid_index, _normals


class DiagnosticsError(ValueError):
    """Inconsistent diagnostic inputs."""


# -- the spectral negative-part weight ------------------------------------------


def _min_eig_2x2(a: np.ndarray, c: np.ndarray, b: np.ndarray) -> tuple:
    """Smallest eigenvalue of [[a, b], [b, c]] in closed form, and the squared
    radius 0.25 (a - c)^2 + b^2 it took."""
    r2 = 0.25 * (a - c) ** 2 + b ** 2
    return 0.5 * (a + c) - np.sqrt(r2), r2


def _min_sym_eig(mats: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the symmetric part, vectorized over leading axes.

    For d = 2 the closed form runs on the samples as they are, and again on
    each sample scaled by a power of two to a largest |entry| in [0.5, 1)
    wherever its squared radius left [2^-960, 2^960] or its value is not
    finite: there a square under- or overflowed.  The scaling is exact, so
    the redone samples lose nothing to the range, and the others keep the
    unscaled bits.
    """
    sym = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    d = sym.shape[-1]
    if d == 2:
        a = sym[..., 0, 0]
        c = sym[..., 1, 1]
        b = sym[..., 0, 1]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            lam, r2 = _min_eig_2x2(a, c, b)
        redo = ~((r2 >= 2.0 ** -960) & (r2 <= 2.0 ** 960) & np.isfinite(lam))
        if redo.any():
            a, c, b = a[redo], c[redo], b[redo]
            _, ex = np.frexp(np.maximum(np.maximum(np.abs(a), np.abs(c)), np.abs(b)))
            low, _ = _min_eig_2x2(np.ldexp(a, -ex), np.ldexp(c, -ex), np.ldexp(b, -ex))
            lam[redo] = np.ldexp(low, ex)
        return lam
    return np.linalg.eigvalsh(sym)[..., 0]


# margin of the 3 x 3 screen's bounds: relative to a sample's largest |entry|
# for the closed form, about 60x its worst error near repeated eigenvalues
# (~sqrt(eps)), and relative to the row's largest bound 2p + |q| on the
# spectral radius for the cheap bounds; the absolute terms cover products
# that underflow (unscaled squares in the cheap bounds lose at most ~1e-161)
_SCREEN_REL = 1e-6
_SCREEN_ABS = 1e-300
_BOUND_ABS = 1e-150

# the six entries (i, j) of a symmetric 3 x 3 matrix, diagonal first
_SYM_I = np.array([0, 1, 2, 0, 0, 1])
_SYM_J = np.array([0, 1, 2, 1, 2, 2])


def _sym_entries(mats: np.ndarray) -> np.ndarray:
    """(n, 6) entries of `_min_sym_eig`'s sym = 0.5 * (mats + mats^T) of
    (n, 3, 3) samples, bitwise."""
    return 0.5 * (mats[:, _SYM_I, _SYM_J] + mats[:, _SYM_J, _SYM_I])


def _lapack_neg_part(e: np.ndarray) -> np.ndarray:
    """max(0, -lambda_min) by LAPACK `eigvalsh` of the samples with entries e."""
    sym = np.empty((len(e), 3, 3))
    sym[:, _SYM_I, _SYM_J] = e
    sym[:, _SYM_J, _SYM_I] = e
    return np.maximum(0.0, -np.linalg.eigvalsh(sym)[..., 0])


def _screened_neg_part(mats: np.ndarray) -> np.ndarray:
    """max(0, -lambda_min(sym)) per 3 x 3 sample, exact where it can matter.

    LAPACK `eigvalsh` supplies every value that can reach the maximum of its
    row (the last sample axis); the others hold +0.0.  The screen runs in
    layers, each on fewer samples:

    1. Cheap bounds on every sample, with no scaling and no trigonometry:
       with q = tr/3 and p = |dev sym|_F / sqrt(6), the deviator's
       eigenvalues lie in [-2p, -p] at the smallest, so -lambda_min lies in
       [p - q, 2p - q].
    2. Each row's floor is LAPACK's value on its sample of the largest cheap
       upper bound.
    3. The classical closed form (O. K. Smith, Comm. ACM 4(4), 1961), on
       each sample scaled to a largest |entry| of 1, runs only on the
       samples whose cheap upper bound reaches the floor; its lower bounds
       raise the floor.
    4. LAPACK runs on the samples whose closed-form upper bound reaches the
       raised floor.

    A non-finite sample has a NaN or infinite bound, so it always goes to
    LAPACK, which raises or returns NaN for it.  So a max over whole rows
    gives the bits of LAPACK on every sample, signed zeros included: a row
    with a positive maximum keeps it, and in a row whose maximum is 0 every
    ruled-out sample is positive definite, where LAPACK's weight is +0.0 too.
    """
    S = mats.shape[-3]
    m = mats.reshape((-1, S, 3, 3))
    rows = np.arange(len(m))
    # 1. cheap bounds
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        q = m[..., 0, 0] + m[..., 1, 1]
        q += m[..., 2, 2]
        q *= 1.0 / 3.0
        # 12 p^2 = 2 sum_i (m_ii - q)^2 + sum_{i<j} (m_ij + m_ji)^2, in place
        x = m[..., 0, 0] - q
        dev = x * x
        for i in (1, 2):
            np.subtract(m[..., i, i], q, out=x)
            x *= x
            dev += x
        dev *= 2.0
        for i, j in ((0, 1), (0, 2), (1, 2)):
            np.add(m[..., i, j], m[..., j, i], out=x)
            x *= x
            dev += x
        two_p = np.sqrt(dev, out=dev)
        two_p *= 1.0 / np.sqrt(3.0)
        # 2p + |q| bounds the spectral radius of sym
        np.abs(q, out=x)
        x += two_p
        tol = _SCREEN_REL * x.max(axis=-1) + _BOUND_ABS
        upper = np.subtract(two_p, q, out=two_p)
    # 2. the floor; a NaN weight (non-finite sample) leaves it at 0
    best = upper.argmax(axis=-1)
    w_best = _lapack_neg_part(_sym_entries(m[rows, best]))
    floor = np.fmax(w_best, 0.0)
    # 3. the closed form on the survivors; NaN bounds compare false, so
    # non-finite samples survive every layer
    r, c = np.nonzero(~(upper < (floor - tol)[:, None]))
    e = _sym_entries(m[r, c])
    scale = np.abs(e).max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        b = e / np.where(scale > 0, scale, 1.0)[:, None]
        b00, b11, b22, b01, b02, b12 = b.T
        q = (b00 + b11 + b22) / 3.0
        d0, d1, d2 = b00 - q, b11 - q, b22 - q
        p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (b01 * b01 + b02 * b02 + b12 * b12))
                    / 6.0)
        det = (d0 * (d1 * d2 - b12 * b12) - b01 * (b01 * d2 - b12 * b02)
               + b02 * (b01 * b12 - d1 * b02))
        cos = np.clip(np.where(p > 0, det / (2.0 * p * p * p), 0.0), -1.0, 1.0)
        neg = -(q + 2.0 * p * np.cos(np.arccos(cos) / 3.0 + 2.0 * np.pi / 3.0))
        lower = (neg - _SCREEN_REL) * scale - _SCREEN_ABS
        upper = (neg + _SCREEN_REL) * scale + _SCREEN_ABS
    # non-finite bounds: a non-finite sample (its scale is inf or NaN) or one
    # near overflow; both go to LAPACK
    unsure = ~(np.isfinite(lower) & np.isfinite(upper))
    lower[unsure] = -np.inf
    upper[unsure] = np.inf
    np.maximum.at(floor, r, lower)
    # 4. LAPACK on the final picks; each row's candidate has its value already
    w = np.zeros((len(m), S))
    w[rows, best] = w_best
    pick = (upper >= floor[r]) & (c != best[r])
    w[r[pick], c[pick]] = _lapack_neg_part(e[pick])
    return w.reshape(mats.shape[:-2])


def _neg_part_max(mats: np.ndarray) -> np.ndarray:
    """max over the sample axis of max(0, -lambda_min(sym part)).

    `mats` is (..., S, d, d) with S >= 1 and the result (...).  Bitwise
    `np.maximum(0.0, -_min_sym_eig(mats)).max(axis=-1)`, which runs LAPACK
    on every sample unless d = 2.
    """
    if mats.shape[-1] == 3 and mats.size:
        w = _screened_neg_part(mats)
    else:
        w = np.maximum(0.0, -_min_sym_eig(mats))
    return w.max(axis=-1)


def neg_sup_series(basis: BasisSpec, coeff_series: np.ndarray) -> np.ndarray:
    """Per-time grid supremum of |(grad phi)_sym,-| in the spectral norm.

    Evaluated on the 2x refined quadrature grid (the grid sup is a lower
    bound of the true supremum; refinement tightens it).  The base grid's
    points are every other point of the refined grid and their gradient
    samples are bitwise the refined grid's, so the refined sup is the larger
    of the two grids' bit for bit.

    Time rows are walked in the B-row blocks of `velocity_gradient`'s BLAS
    products (B is fixed by the basis and the grid, about 2^16 doubles of
    samples), and each block's gradients are written into one workspace per
    call.  So memory does not grow with the series length and every row's
    value is that of its own call.  In 3-D each block's eigenvalue supremum
    is screened in layers (`_screened_neg_part`): cheap bounds on every
    sample, LAPACK on each row's best candidate for a floor, the closed form
    on the samples that reach it, then LAPACK on the final picks.
    """
    n = 2 * default_grid(basis.cutoff)
    d, G = basis.dim, n ** basis.dim
    series = np.asarray(coeff_series, dtype=np.float64)
    flat = series.reshape(-1, series.shape[-1])
    rows = _gradient_block_rows(basis, n)
    # grid points innermost, as velocity_gradient lays them out
    work = np.empty((min(rows, len(flat)), d, d, G)).transpose(0, 3, 1, 2)
    sup = np.empty(len(flat))
    for t in range(0, len(flat), rows):
        block = flat[t:t + rows]
        grads = velocity_gradient(basis, block, n, out=work[:len(block)])
        sup[t:t + len(block)] = _neg_part_max(grads)
    return sup.reshape(series.shape[:-1])


# -- the energy residual -------------------------------------------------------


def _check_run(traj: Trajectory, system: GalerkinSystem) -> None:
    if (traj.states.shape[1:] != (system.n_modes,)
            or traj.increments.shape[1:] != (system.n_brownian,)):
        raise DiagnosticsError(
            f"trajectory has states {traj.states.shape} and increments "
            f"{traj.increments.shape}; the system has {system.n_modes} modes and "
            f"{system.n_brownian} Brownian motions")


def energy_residual(
    traj: Trajectory,
    system: GalerkinSystem,
    s: float,
    t: float,
) -> float:
    """Residual of the pathwise energy identity over [s, t].

    [E(t) - E(s)] + nu * int_s^t |grad u|^2 - int_s^t <u, sigma1 dW>
                  - 1/2 (t - s) |sigma1|_HS^2

    Zero for the exact SDE; O(sqrt(dt)) pathwise and O(dt) in the mean for
    the discrete schemes.  Both integrals come from the full-resolution
    left-point accumulators stored on the trajectory.  Raises
    DiagnosticsError when traj is not a run of the system or when t < s.
    """
    _check_run(traj, system)
    if t < s:
        raise DiagnosticsError(f"need s <= t, got s={s}, t={t}")
    i = traj.index_of_time(s)
    j = traj.index_of_time(t)
    hs2 = hs_norm(system.noise.additive)
    return float(
        (traj.energy[j] - traj.energy[i])
        + system.nu * (traj.grad_int[j] - traj.grad_int[i])
        - (traj.stoch_int[j] - traj.stoch_int[i])
        - 0.5 * (traj.times[j] - traj.times[i]) * hs2
    )


# -- test processes -----------------------------------------------------------


@dataclass
class TestProcessRep:
    """Finite representation of a test process phi = phi0 + int A dt + int B dW.

    A is piecewise constant on the saved grid ((n_steps, N) or None), B is
    constant per Brownian mode ((K, N) or None).  All coefficient vectors
    live in the solenoidal basis, so phi(t) is divergence-free by
    construction.
    """

    phi0: np.ndarray
    A: np.ndarray | None = None
    B: np.ndarray | None = None
    label: str = "phi"

    __test__ = False  # not a pytest class, despite the name

    def series(self, increments: np.ndarray, dt: float) -> np.ndarray:
        """phi on the grid implied by the increments, shape (n_steps + 1, N).

        phi(m + 1) = (phi(m) + A[m] dt) + dW[m] @ B, summed strictly in that
        order: one cumulative sum runs down [phi0, A[0] dt, dW[0] @ B, ...].
        """
        n_steps = increments.shape[0]
        per_step = (self.A is not None) + (self.B is not None)
        if not per_step:
            return np.repeat(np.asarray(self.phi0, dtype=np.float64)[None], n_steps + 1, axis=0)
        terms = np.empty((1 + per_step * n_steps, self.phi0.size))
        terms[0] = self.phi0
        if self.A is not None:
            terms[1::per_step] = self.A[:n_steps] * dt
        if self.B is not None:
            # numpy's vector-matrix product per row, as `dw @ B` forms it: a
            # (n_steps, K) @ (K, N) product may round otherwise
            terms[per_step::per_step] = np.matmul(increments[:, None, :], self.B)[:, 0]
        # each step's last term sits on a row the grid keeps
        return np.cumsum(terms, axis=0)[::per_step]


def make_test_processes(
    system: GalerkinSystem,
    n_steps: int,
    dt: float,
    seed: int = 0,
    count: int = 10,
) -> list[TestProcessRep]:
    """A deterministic battery spanning the three structural cases.

    Static solenoidal fields (A = B = 0), deterministically time-modulated
    fields (B = 0, A from smooth profiles sampled consistently on the grid),
    and martingale-type processes with a constant B row on every Brownian
    mode, additive and transport alike, so the battery reads both trace
    terms, sigma1 . B and u^T zeta_l B_l.  Raises DiagnosticsError for a
    negative count.
    """
    if count < 0:
        raise DiagnosticsError(f"count must be >= 0, got {count}")
    N = system.n_modes
    K = system.n_brownian
    n_static, n_each = count - 2 * (count // 3), count // 3
    # N normals per vector, in the order the loops below read them
    draws = iter(_normals([seed], 0x7E57, (count + n_each * (K + 1), N))[0])
    low = system.basis.k_sq <= max(2.0, float(np.median(system.basis.k_sq)))
    reps: list[TestProcessRep] = []

    def low_mode_vec(scale):
        v = next(draws) * low
        nrm = np.linalg.norm(v)
        return scale * v / nrm if nrm > 0 else v

    for idx in range(n_static):
        reps.append(TestProcessRep(phi0=low_mode_vec(0.5), label=f"static-{idx}"))
    tgrid = np.arange(n_steps + 1) * dt
    for idx in range(n_each):
        psi = low_mode_vec(0.5)
        omega = 1.0 + idx
        profile = np.sin(omega * tgrid) * np.cos(tgrid)
        A = np.diff(profile)[:, None] / dt * psi[None, :]
        reps.append(TestProcessRep(phi0=low_mode_vec(0.3), A=A, label=f"modulated-{idx}"))
    for idx in range(n_each):
        B = np.zeros((K, N))
        for ell in range(K):
            B[ell] = low_mode_vec(0.3)
        reps.append(TestProcessRep(phi0=low_mode_vec(0.3), B=B if K else None,
                                   label=f"martingale-{idx}"))
    return reps


# -- the energy-variational gap ------------------------------------------------


def _trajectory_products(traj: Trajectory, system: GalerkinSystem, i: int, j: int) -> tuple:
    """(conv.apply(a_l), a_l @ corr, a_l @ zeta or None) for a_l = traj.states[i:j].

    Reused from `traj._gap_memo` while the interval, the operators (by
    identity) and the bytes of a_l are those it was built from, so an
    in-place edit of the states recomputes.  Otherwise one attribute
    assignment replaces the entry: concurrent callers at worst compute twice.
    """
    a_l = traj.states[i:j]
    ops = (system.conv, system.corr, system.noise.transport.zeta)
    rows = a_l.tobytes()
    memo = traj._gap_memo
    if memo is not None:
        interval, memo_ops, memo_rows, products = memo
        if interval == (i, j) and all(map(operator.is_, memo_ops, ops)) and memo_rows == rows:
            return products
    conv, corr, zeta = ops
    products = (conv.apply(a_l), a_l @ corr, a_l @ zeta if zeta.shape[0] else None)
    traj._gap_memo = ((i, j), ops, rows, products)
    return products


def energy_variational_gap(
    traj: Trajectory,
    system: GalerkinSystem,
    phi: TestProcessRep,
    s: float,
    t: float,
    energy_series: np.ndarray | None = None,
) -> float:
    """LHS minus RHS of the energy-variational inequality over [s, t].

    A valid solution gives a nonpositive gap up to discretization error; for
    Galerkin data with E = 1/2 |u|^2 the continuous-time gap is exactly zero
    for test processes in the span of the basis.

    The viscous coupling is the system's: the inviscid form of the inequality,
    on a trajectory of any viscosity, is the gap against the nu = 0 system of
    the same basis, noise and kernel.  Passing an `energy_series` overrides
    E(t); the weight term with
    2 |(grad phi)_sym,-| * (1/2 |u|^2 - E) is then active.

    For phi == 0 every phi-dependent term is an exact zero, so the value is
    bitwise that of `energy_residual`.

    Over the T = j - i steps of [s, t], with N modes and S transport fields:
    the Ito correction is the row-wise dot of (a @ corr) with phi, T N^2
    flops; the transport integrand the row-wise dot of (a @ zeta_l) with
    phi, S T N^2; the martingale trace a @ (zeta_l B_l), S N^2 + S T N; the
    convection term the row-wise dot of one `conv.apply(a)` over T rows with
    phi.  The test process itself is one cumulative sum
    (`TestProcessRep.series`).  A relaxed `energy_series` adds
    `neg_sup_series` over T rows (one row if phi is static).

    The phi-independent products `conv.apply(a)`, a @ corr and a @ zeta
    are kept on the trajectory for the last [s, t] (`_trajectory_products`),
    so a battery on one trajectory pays for them once.  The one entry holds
    (S + 2) T N doubles plus the bytes of a that guard it, and every gap is
    bitwise that of a fresh trajectory.

    Raises DiagnosticsError when traj is not a run of the system, phi's B is
    not (K, N), phi0 not (N,), A not (n_saved_steps, N), or `energy_series`
    not of `traj.energy`'s shape.
    """
    _check_run(traj, system)
    if phi.B is not None and phi.B.shape != (system.n_brownian, system.n_modes):
        raise DiagnosticsError(
            f"test-process B has shape {phi.B.shape}; system expects "
            f"{(system.n_brownian, system.n_modes)}"
        )
    if phi.phi0.shape != (system.n_modes,):
        raise DiagnosticsError("test-process dimension mismatch with system")
    n_steps = traj.increments.shape[0]
    if phi.A is not None and phi.A.shape != (n_steps, system.n_modes):
        raise DiagnosticsError(
            f"test-process A has shape {phi.A.shape}; the trajectory expects "
            f"{(n_steps, system.n_modes)}"
        )
    if energy_series is not None and np.shape(energy_series) != traj.energy.shape:
        raise DiagnosticsError(
            f"energy_series has shape {np.shape(energy_series)}; the trajectory's "
            f"energy has {traj.energy.shape}"
        )
    i = traj.index_of_time(s)
    j = traj.index_of_time(t)
    gap = energy_residual(traj, system, s, t)
    dt_s = traj.dt * traj.store_every
    inc = traj.increments
    phi_series = phi.series(inc, dt_s)
    a = traj.states
    E = traj.energy if energy_series is None else np.asarray(energy_series)
    ksq = system.basis.k_sq
    eta = system.noise.additive.eta
    tr = system.noise.transport

    sl = slice(i, j)            # left points of the steps inside [s, t)
    a_l = a[sl]
    conv_a, a_corr, a_zeta = _trajectory_products(traj, system, i, j)
    phi_l = phi_series[sl]
    dW = inc[sl]

    # boundary term of -<u, phi>
    gap += -(a[j] @ phi_series[j]) + (a[i] @ phi_series[i])
    # -nu int grad u : grad phi
    if system.nu:
        gap += -system.nu * float(np.einsum("tn,n,tn->", a_l, ksq, phi_l)) * dt_s
    # int [u (x) u] : grad phi  ==  sum b[i,k,j] a_i phi_k a_j  ==  -phi . B(a, a),
    # as b is skew in its last two slots
    gap -= float(np.einsum("tn,tn->", conv_a, phi_l)) * dt_s
    # weight term 2 |(grad phi)_sym,-| (1/2|u|^2 - E)
    slack = 0.5 * np.einsum("tn,tn->t", a_l, a_l) - E[sl]
    if np.any(slack):
        # every row of a static phi (A = B = None) is phi0, and rows of
        # neg_sup_series are independent bit for bit: one row serves all
        static = phi.A is None and phi.B is None
        w = neg_sup_series(system.basis, phi_l[:1] if static else phi_l)
        gap += float(2.0 * np.sum(w * slack)) * dt_s
    # int A . u
    if phi.A is not None:
        gap += float(np.einsum("tn,tn->", phi.A[sl], a_l)) * dt_s
    # int 1/2 [P(sigma2.grad)]^2 phi . u  ==  -a^T corr phi
    gap += -float(np.einsum("tm,tm->", a_corr, phi_l)) * dt_s
    # minus the phi-dependent stochastic integral:
    #   int (-phi . sigma1 + u^T zeta phi - u . B) dW
    integrand = -(phi_l @ eta)                        # (T, K)
    if tr.zeta.shape[0]:
        uzp = np.einsum("sti,ti->ts", a_zeta, phi_l)
        integrand[:, list(tr.modes)] += uzp
    if phi.B is not None:
        integrand -= np.einsum("tn,ln->tl", a_l, phi.B)
    gap -= float(np.einsum("tl,tl->", integrand, dW))
    # plus the trace term int Tr(sigma1 . B - u^T zeta B)
    if phi.B is not None:
        gap += float(np.einsum("nl,ln->", eta, phi.B)) * (j - i) * dt_s
        if tr.zeta.shape[0]:
            uzB = a_l @ np.einsum("sji,si->sj", tr.zeta, phi.B[list(tr.modes)]).T
            gap -= float(np.sum(uzB)) * dt_s
    return gap


def gap_battery(traj: Trajectory, system: GalerkinSystem, seed: int) -> list[tuple[str, float]]:
    """(label, gap) of each of the ten `make_test_processes` over the whole
    trajectory, on its saved spacing dt * store_every."""
    t = float(traj.times[-1])
    return [(phi.label, energy_variational_gap(traj, system, phi, 0.0, t))
            for phi in make_test_processes(system, traj.times.size - 1,
                                           traj.dt * traj.store_every, seed=seed)]


# -- relative energy and the Gronwall bound ------------------------------------


def relative_energy(
    coarse: Trajectory,
    fine: Trajectory,
    coarse_basis: BasisSpec,
    fine_basis: BasisSpec,
    s: float,
    t: float,
    energy_series: np.ndarray | None = None,
) -> dict:
    """Relative energy RE = E - <u, u~> + 1/2 |u~|^2 and its Gronwall envelope.

    `coarse` provides (u, E) and `fine` the reference u~ on the same time
    grid and Brownian path (the comparison is only meaningful under
    coupling).  The envelope is RE(s) * exp(int_s^t 2 |(grad u~)_sym,-|),
    with the rate evaluated as a grid supremum of the fine field.

    Raises DiagnosticsError when a trajectory's states are not of its
    basis's modes, when the two trajectories do not share a grid and a path,
    when t < s, or when `energy_series` is not of `coarse.energy`'s shape.
    """
    for name, traj, basis in (("coarse", coarse, coarse_basis), ("fine", fine, fine_basis)):
        if traj.states.shape[1:] != (basis.n_modes,):
            raise DiagnosticsError(f"{name} states have shape {traj.states.shape}; its "
                                   f"basis has {basis.n_modes} modes")
    shared = DiagnosticsError("relative energy requires a shared grid and Brownian path")
    spacing, last = coarse.dt * coarse.store_every, coarse.times.size - 1
    if coarse.seed != fine.seed or coarse.times.shape != fine.times.shape or any(
            _grid_index(t, spacing, last, shared) != i for i, t in enumerate(fine.times.tolist())):
        raise shared
    if t < s:
        raise DiagnosticsError(f"need s <= t, got s={s}, t={t}")
    if energy_series is not None and np.shape(energy_series) != coarse.energy.shape:
        raise DiagnosticsError(f"energy_series has shape {np.shape(energy_series)}; the "
                               f"coarse trajectory's energy has {coarse.energy.shape}")
    i = coarse.index_of_time(s)
    j = coarse.index_of_time(t)
    emb = coarse_basis.embedding_into(fine_basis)
    sl = slice(i, j + 1)
    a_c = coarse.states[sl]
    a_f = fine.states[sl]
    E = (coarse.energy if energy_series is None else np.asarray(energy_series))[sl]
    cross = np.einsum("tn,tn->t", a_c, a_f[:, emb])
    re = E - cross + 0.5 * np.einsum("tn,tn->t", a_f, a_f)

    rate = 2.0 * neg_sup_series(fine_basis, a_f)
    dt_s = coarse.dt * coarse.store_every
    # left-point integral of the rate, then the Gronwall envelope
    cum = np.concatenate([[0.0], np.cumsum(rate[:-1]) * dt_s])
    bound = re[0] * np.exp(cum)
    return {
        "times": coarse.times[sl],
        "re": re,
        "rate": rate,
        "bound": bound,
    }


# -- ensemble defect fields -----------------------------------------------------


@dataclass
class DefectField:
    """Second-moment defect of an ensemble at one time on a spatial grid."""

    grid_n: int
    r_hat: np.ndarray          # (G, d, d) sample second-moment defect
    mean_field: np.ndarray     # (G, d)
    e_hat: float               # ensemble-mean energy 1/2 |u|^2
    mean_kinetic: float        # 1/2 |u-bar|^2
    trace_integral: float      # 1/2 int tr r_hat dx (grid quadrature)

    def min_eigenvalue(self) -> float:
        return float(_min_sym_eig(self.r_hat).min())


def reynolds_defect(states: np.ndarray, basis: BasisSpec) -> DefectField:
    """R(x) = mean[u (x) u] - u-bar (x) u-bar over ensemble member states.

    `states` is the (members, modes) coefficient array at one time.  The
    result is symmetric PSD up to round-off, and its half-trace integral
    equals the energy defect E-hat - 1/2 |u-bar|^2 as an algebraic identity
    of sample moments (exact quadrature).
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2:
        raise DiagnosticsError("expected a (members, modes) state array")
    M = states.shape[0]
    if M < 2:
        raise DiagnosticsError("defect fields need at least two ensemble members")
    grid_n = default_grid(basis.cutoff)
    fields = evaluate_field(basis, states, grid_n)        # (M, G, d)
    mean_field = fields.mean(axis=0)
    second = np.einsum("mgd,mge->gde", fields, fields) / M
    r_hat = second - np.einsum("gd,ge->gde", mean_field, mean_field)
    w = basis.quad_weight(grid_n)
    trace_integral = 0.5 * w * float(np.einsum("gdd->", r_hat))
    e_hat = 0.5 * float(np.einsum("mn,mn->", states, states)) / M
    a_bar = states.mean(axis=0)
    mean_kinetic = 0.5 * float(a_bar @ a_bar)
    return DefectField(
        grid_n=grid_n,
        r_hat=r_hat,
        mean_field=mean_field,
        e_hat=e_hat,
        mean_kinetic=mean_kinetic,
        trace_integral=trace_integral,
    )


def dissipative_weak_residual(ensemble, phi, t: float) -> dict:
    """Ensemble-mean residual of the weak formulation against a static field.

    `phi` is the test field's (N,) solenoidal basis coefficients.  The
    quadratic term is evaluated member-wise, which is algebraically identical
    to the mean-field weak form with the second-moment defect substituted;
    the martingale term is averaged out, so the mean residual decays like
    M^(-1/2) with standard error reported alongside.  For viscous systems the
    weak form includes the viscous coupling.  The quadratic term
    sum b[i,k,j] u_i phi_k u_j is u . (P u), with P applied as one CSR
    product to every step's and member's state as a column of its own.
    """
    system = ensemble.system
    basis, conv = system.basis, system.conv
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (basis.n_modes,):
        raise DiagnosticsError(f"test field has shape {phi.shape}, expected ({basis.n_modes},)")
    lin = system.nu * (basis.k_sq * phi) + system.corr @ phi
    pairing = sparse.csr_matrix((conv.values * phi[conv.k_idx], (conv.i_idx, conv.j_idx)),
                                shape=(basis.n_modes,) * 2)
    # members are regenerated at every step up to t, whatever the saved grid
    dt = ensemble.dt
    j = _grid_index(t, dt, ensemble.n_steps,
                    DiagnosticsError(f"time {t} is not on the ensemble's step grid"))
    residuals = np.empty(ensemble.n_members)
    # held besides the batch, per member and step: two rows of N, the operand
    # and P's product or the linear term's member-major copy and tile
    held = 16 * j * system.n_modes
    # every sum over a member's steps and modes runs along one contiguous
    # member-major row, so its bits do not depend on the chunk's size
    for sl in _chunks(system, ensemble.n_members, j, 1, held):
        a = _run_members(system, ensemble.seeds[sl], ensemble.initial_states[sl], dt, j,
                         ensemble.scheme).states            # (j+1, M, N)
        _, M, N = a.shape
        boundary = np.einsum("mn,n->m", a[j] - a[0], phi)
        linear = np.einsum("mk,k->m", a[:-1].transpose(1, 0, 2).reshape(M, -1), np.tile(lin, j))
        # columns in (step, member) order; the product forms each column alone
        aT = np.ascontiguousarray(a[:-1].reshape(-1, N).T)
        del a
        quad = _csr_product(pairing, aT)
        quad *= aT
        del aT
        quad = quad.reshape(N, j, M).transpose(2, 1, 0).reshape(M, -1).sum(axis=1)
        residuals[sl] = -boundary + (quad - linear) * dt
    mean, se = mean_stderr(residuals)
    return {"residual": mean, "stderr": se, "n_members": ensemble.n_members, "t": t}
