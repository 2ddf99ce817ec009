"""Independent oracles for the test suite.

Everything here is computed from first principles (direct quadrature, dense
linear algebra, closed-form solutions), sharing no code with the assembly or
integration paths it is used to check.  Mode evaluation is reimplemented from
the basis metadata alone.
"""

import itertools

import numpy as np
from scipy import sparse

TWO_PI = 2.0 * np.pi


def bit_equal(a, b) -> bool:
    """Arrays: same dtype, shape and bytes.  Anything else: the same object,
    or the same type and an equal value."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a is b or (type(a) is type(b) and a == b)


def torus_grid(dim, n):
    axes = [np.arange(n) * (TWO_PI / n)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def basis_tables(dim, cutoff):
    """(wavevectors, integer polarizations, mode_wave, mode_pol, mode_phase)
    of the basis, by loops: every canonical k of the cube (first nonzero entry
    positive) sorted by (|k|^2, k), the polarizations k^perp in 2-D and
    c1 = k x h, c2 = k x c1 in 3-D (h = e_z, or e_x on the z axis), and the
    modes wavevector-major, then polarization, then cos before sin."""
    waves = [k for k in itertools.product(range(-cutoff, cutoff + 1), repeat=dim)
             if next((c for c in k if c), 0) > 0]
    waves.sort(key=lambda k: (sum(c * c for c in k), k))
    pols = []
    for k in waves:
        if dim == 2:
            pols.append([[-k[1], k[0]]])
        else:
            h = (1, 0, 0) if k[0] == 0 and k[1] == 0 else (0, 0, 1)
            c1 = np.cross(k, h)
            pols.append([c1, np.cross(k, c1)])
    modes = [(w, p, phase) for w in range(len(waves)) for p in range(dim - 1)
             for phase in (0, 1)]
    mode_wave, mode_pol, mode_phase = (np.array(m, dtype=np.int64) for m in zip(*modes))
    return (np.array(waves, dtype=np.int64), np.array(pols, dtype=np.int64),
            mode_wave, mode_pol, mode_phase)


def mode_c(basis, idx):
    """Unnormalized integer polarization of mode idx, read from `pol_int`."""
    return basis.pol_int[basis.mode_wave[idx], basis.mode_pol[idx]]


def eval_mode(basis, idx, x):
    """Mode value (G, d) and gradient (G, d_axis, d_comp) from metadata only."""
    k = basis.mode_k(idx).astype(float)
    c_int = mode_c(basis, idx)
    p = c_int / np.linalg.norm(c_int)
    c = np.sqrt(2.0 / TWO_PI ** basis.dim)
    theta = x @ k
    if basis.mode_phase[idx] == 0:
        trig, dtrig = np.cos(theta), -np.sin(theta)
    else:
        trig, dtrig = np.sin(theta), np.cos(theta)
    val = c * p[None, :] * trig[:, None]
    grad = c * k[None, :, None] * p[None, None, :] * dtrig[:, None, None]
    return val, grad


def quad_weight(dim, n):
    return (TWO_PI / n) ** dim


def advection_integral(basis, i, k, j, factor=4):
    """integral (v_i . grad) v_k . v_j by brute-force rectangle quadrature."""
    n = factor * basis.cutoff + 1
    x = torus_grid(basis.dim, n)
    vi, _ = eval_mode(basis, i, x)
    _, gk = eval_mode(basis, k, x)
    vj, _ = eval_mode(basis, j, x)
    advect = np.einsum("gm,gmc->gc", vi, gk)
    return quad_weight(basis.dim, n) * float(np.einsum("gc,gc->", advect, vj))


def dense_convection(basis, factor=4):
    """The full dense rank-3 tensor by quadrature, feasible for cutoff <= 3."""
    n = factor * basis.cutoff + 1
    x = torus_grid(basis.dim, n)
    N = basis.n_modes
    vals = np.empty((N, x.shape[0], basis.dim))
    grads = np.empty((N, x.shape[0], basis.dim, basis.dim))
    for idx in range(N):
        vals[idx], grads[idx] = eval_mode(basis, idx, x)
    # advect[i, k, g, c] = v_i(g) . grad_k(g, :, c)
    advect = np.einsum("igm,kgmc->ikgc", vals, grads, optimize=True)
    w = quad_weight(basis.dim, n)
    return w * np.einsum("ikgc,jgc->ikj", advect, vals, optimize=True)


def _lookup(keys, values, query):
    # values at `query` in the sorted unique `keys`, 0.0 where absent
    pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    return np.where(keys[pos] == query, values[pos], 0.0)


def skew_entries(n, i, k, j, values):
    """(b[i,k,j] - b[i,j,k]) / 2 over the union of the stored triples and
    their mirrors (`np.union1d`, then a sorted lookup of each key and of its
    mirror, 0.0 where absent), nonzero entries ordered by a three-key
    `lexsort` on (j, i, k), and the scatter matrix built from COO.
    Returns (i, k, j, w, scatter)."""
    key = (i * n + k) * n + j
    order = np.argsort(key)
    key, values = key[order], values[order]
    full = np.union1d(key, (i * n + j) * n + k)
    fi, rest = np.divmod(full, n * n)
    fk, fj = np.divmod(rest, n)
    mirror = (fi * n + fj) * n + fk
    w = 0.5 * (_lookup(key, values, full) - _lookup(key, values, mirror))
    keep = w != 0.0
    order = np.lexsort((fk[keep], fi[keep], fj[keep]))
    i, k, j, w = fi[keep][order], fk[keep][order], fj[keep][order], w[keep][order]
    return i, k, j, w, sparse.csr_matrix((w, (j, np.arange(w.size))), shape=(n, w.size))


def gram_matrix(basis, n=None):
    from stochflow.basis import default_grid

    if n is None:
        n = default_grid(basis.cutoff)
    x = torus_grid(basis.dim, n)
    N = basis.n_modes
    vals = np.stack([eval_mode(basis, i, x)[0] for i in range(N)])
    return quad_weight(basis.dim, n) * np.einsum("igd,jgd->ij", vals, vals)


def eigenmode_energy(nu, ksq, t, a0=1.0):
    """Exact squared L2 norm of a single decaying Stokes eigenmode."""
    return a0 ** 2 * np.exp(-2.0 * nu * ksq * t)


def rk2_step(f, y, dt):
    """Deterministic Heun / RK2 reference step."""
    k1 = f(y)
    k2 = f(y + dt * k1)
    return y + 0.5 * dt * (k1 + k2)


def dense_diffusion(eta, zeta_list, zeta_modes, a):
    """Diffusion matrix via explicit dense loops."""
    N, K = eta.shape
    out = np.array(eta, dtype=float, copy=True)
    for s, ell in enumerate(zeta_modes):
        for jj in range(N):
            out[jj, ell] += float(zeta_list[s][jj] @ a)
    return out


def neg_part_max(mats):
    """max(0, -lambda_min) of the symmetric parts, LAPACK on every sample,
    reduced by max over the sample axis."""
    sym = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    w = np.maximum(0.0, -np.linalg.eigvalsh(sym)[..., 0])
    return w.max(axis=-1)


def process_series(phi, increments, dt):
    """phi0 + sum A dt + sum dW @ B on the saved grid, one step at a time."""
    n_steps = increments.shape[0]
    out = np.empty((n_steps + 1, phi.phi0.size))
    out[0] = phi.phi0
    cur = phi.phi0.copy()
    for m in range(n_steps):
        if phi.A is not None:
            cur = cur + phi.A[m] * dt
        if phi.B is not None:
            cur = cur + increments[m] @ phi.B
        out[m + 1] = cur
    return out


def energy_variational_gap(traj, system, phi, s, t, euler_form=False, energy_series=None):
    """The energy-variational gap term by term, each contraction of three
    operands as one `np.einsum` and the test process stepped in a loop.

    The convection term contracts the dense tensor b[i,k,j] with u, phi
    and u, so it shares no code with the kernel.  Only the grid supremum
    `neg_sup_series`, pinned bitwise on its own, is the package's.
    """
    from stochflow.diagnostics import neg_sup_series

    i, j = traj.index_of_time(s), traj.index_of_time(t)
    dt_s = traj.dt * traj.store_every
    nu = 0.0 if euler_form else system.nu
    eta = system.noise.additive.eta
    tr = system.noise.transport
    gap = ((traj.energy[j] - traj.energy[i]) + nu * (traj.grad_int[j] - traj.grad_int[i])
           - (traj.stoch_int[j] - traj.stoch_int[i])
           - 0.5 * (traj.times[j] - traj.times[i]) * float(np.sum(eta * eta)))
    inc = traj.increments
    phi_series = process_series(phi, inc, dt_s)
    a = traj.states
    E = traj.energy if energy_series is None else np.asarray(energy_series)
    a_l, phi_l, dW = a[i:j], phi_series[i:j], inc[i:j]
    gap += -(a[j] @ phi_series[j]) + (a[i] @ phi_series[i])
    if nu:
        gap += -nu * float(np.einsum("tn,n,tn->", a_l, system.basis.k_sq, phi_l)) * dt_s
    gap += float(np.einsum("ikj,ti,tk,tj->", system.conv.to_dense(), a_l, phi_l, a_l,
                           optimize=True)) * dt_s
    slack = 0.5 * np.einsum("tn,tn->t", a_l, a_l) - E[i:j]
    if np.any(slack):
        gap += float(2.0 * np.sum(neg_sup_series(system.basis, phi_l) * slack)) * dt_s
    if phi.A is not None:
        gap += float(np.einsum("tn,tn->", phi.A[i:j], a_l)) * dt_s
    gap += -float(np.einsum("tn,nm,tm->", a_l, system.corr, phi_l)) * dt_s
    integrand = -(phi_l @ eta)
    if tr.zeta.shape[0]:
        integrand[:, list(tr.modes)] += np.einsum("tj,sji,ti->ts", a_l, tr.zeta, phi_l)
    if phi.B is not None:
        integrand -= np.einsum("tn,ln->tl", a_l, phi.B)
    gap -= float(np.einsum("tl,tl->", integrand, dW))
    if phi.B is not None:
        gap += float(np.einsum("nl,ln->", eta, phi.B)) * (j - i) * dt_s
        if tr.zeta.shape[0]:
            uzB = np.einsum("tj,sji,si->ts", a_l, tr.zeta, phi.B[list(tr.modes)])
            gap -= float(np.sum(uzB)) * dt_s
    return gap
