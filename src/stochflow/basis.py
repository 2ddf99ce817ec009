"""Solenoidal spectral basis on the periodic torus and the Galerkin structure tensors.

The domain is the torus [0, 2pi)^d with d in {2, 3}.  Velocity fields are
expanded in real divergence-free trigonometric modes

    v(x) = c * p * cos(k.x)   or   c * p * sin(k.x),

where k is a nonzero integer wavevector, p is a unit polarization vector with
p.k = 0 (one choice in 2-D, two in 3-D), and c = sqrt(2) / (2pi)^(d/2) makes
each mode have unit L2 norm.  On the torus these modes diagonalize the Stokes
operator with eigenvalue |k|^2, and the Helmholtz/Leray projection acts
algebraically per wavevector as I - k k^T / |k|^2.

Wavevectors come in +/- pairs that generate the same two-dimensional span of
cos/sin modes, so only a canonical representative (first nonzero component
positive) is enumerated.  The zero mode is excluded throughout: all fields are
mean-free.

The nonlinear structure tensor

    b[i, k, j] = integral over the torus of (v_i . grad) v_k . v_j

and the transport matrices <(w . grad) v_i, v_j> share one vectorized triad
kernel.  The integral of a triple product of trigonometric modes vanishes
unless the three wavevectors admit a signed sum s1 k1 + s2 k2 + s3 k3 = 0, so
the only output wavevectors of a pair (k1, k2) are +/-(k1 + k2) and
+/-(k1 - k2).  The kernel finds them for all pairs at once in a dense integer
table indexed by a packed integer code of the wavevector, and emits only the
phase pairs whose integrand has an even number of sin factors, the others
integrating to zero.  Writing cos and sin as exponentials, each
surviving sign pattern adds +/-1/8 or 0, so the triple integral is an integer
multiple m of 1/8 times the torus volume.  Multiples of 1/8 are exact in
binary floating point, and the geometric factors are integer dot products of
the unnormalized polarizations, so an entry is zero exactly when it should be
and every nonzero value is the same few correctly rounded operations in a
fixed order: the result does not depend on how the triads are enumerated.

Modes are named by labels such as "1,0:cos" (2-D) or "0,0,1:p0:sin" (3-D):
the wavevector, in 3-D the polarization, and the phase.  `parse_label` is
the one grammar for them and needs no basis, so a run config's labels are
checked without building one.  The grid transforms `evaluate_field`,
`project_field` and `velocity_gradient` also live here, over any batch axes;
they are the only readers of the per-grid mode caches.

The convection tensor is stored in coordinate format sorted by the output
index j.  Skew-symmetry in the last two slots, the discrete engine of energy
conservation of the convection term, is enforced exactly by antisymmetrizing
the assembled values: (b[i,k,j] - b[i,j,k]) / 2 under round-to-nearest is
bitwise the negative of its mirror.  The skew pass sorts the entries' keys
once, finds every mirror with one binary search, and orders the result by a
stable sort on j alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

TWO_PI = 2.0 * np.pi

COS = 0
SIN = 1

_PHASE_NAMES = ("cos", "sin")


class BasisError(ValueError):
    """Invalid basis construction or mismatched basis data."""


def _is_canonical(k: np.ndarray) -> bool:
    # canonical representative of the pair {k, -k}: first nonzero entry > 0
    for comp in k:
        if comp != 0:
            return comp > 0
    return False


def _format_label(k, pol: int, phase: int) -> str:
    # "k1,k2:phase" in 2-D, "k1,k2,k3:p<pol>:phase" in 3-D
    head = ",".join(str(int(c)) for c in k)
    if len(k) == 3:
        return f"{head}:p{int(pol)}:{_PHASE_NAMES[phase]}"
    return f"{head}:{_PHASE_NAMES[phase]}"


def parse_label(label: str, dim: int, cutoff: int) -> tuple[tuple[int, ...], int, int]:
    """(wavevector, polarization, phase) of the mode `label` names.

    The one label grammar: `label` must name a mode of build_basis(dim,
    cutoff), i.e. a canonical nonzero k with |k|_inf <= cutoff, a
    polarization below dim - 1 and a phase cos or sin, written as
    `_format_label` writes it (no sign, padding or spaces).  Raises
    BasisError otherwise.  Costs no basis, so it is free of the cutoff.
    """
    fields = label.split(":")
    if len(fields) == dim:
        try:
            k = tuple(int(c) for c in fields[0].split(","))
            pol = int(fields[1].removeprefix("p")) if dim == 3 else 0
            phase = _PHASE_NAMES.index(fields[-1])
        except ValueError:
            pass
        else:
            if (len(k) == dim and _is_canonical(k) and max(map(abs, k)) <= cutoff
                    and 0 <= pol < dim - 1 and _format_label(k, pol, phase) == label):
                return k, pol, phase
    raise BasisError(f"unknown mode label {label!r}")


def enumerate_wavevectors(dim: int, cutoff: int) -> np.ndarray:
    """Canonical nonzero wavevectors with |k|_inf <= cutoff, deterministically ordered.

    Ordering is by (|k|^2, lexicographic tuple), which is stable across runs
    and versions of this module (ordering version 1).
    """
    if dim not in (2, 3):
        raise BasisError(f"spatial dimension must be 2 or 3, got {dim}")
    if cutoff < 1:
        raise BasisError(f"cutoff must be >= 1, got {cutoff}")
    axis = np.arange(-cutoff, cutoff + 1, dtype=np.int64)
    cube = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    # canonical representative of the pair {k, -k}: first nonzero entry > 0
    first = cube[np.arange(len(cube)), np.argmax(cube != 0, axis=1)]
    vecs = cube[first > 0]
    ksq = np.einsum("wd,wd->w", vecs, vecs)
    # lexsort's last key is the primary one: |k|^2, then k[0], k[1], ...
    return vecs[np.lexsort((*vecs.T[::-1], ksq))]


def _polarizations_int(waves: np.ndarray) -> np.ndarray:
    """Integer polarization vectors orthogonal to each wavevector, shape (W, npol, d).

    Integer-valued so that orthogonality relations (p.k = 0, and p.p' between
    parallel-wavevector polarizations) are exact in integer arithmetic; unit
    polarizations are these divided by their Euclidean norms.
    """
    if waves.shape[1] == 2:
        return np.stack([-waves[:, 1], waves[:, 0]], axis=-1)[:, None, :]
    # d == 3: c1 = k x h, c2 = k x c1 with integer helper h; both integer,
    # mutually orthogonal and orthogonal to k exactly
    helper = np.zeros_like(waves)
    on_axis = (waves[:, 0] == 0) & (waves[:, 1] == 0)
    helper[on_axis, 0] = 1
    helper[~on_axis, 2] = 1
    c1 = np.cross(waves, helper)
    c2 = np.cross(waves, c1)
    return np.stack([c1, c2], axis=1)


@dataclass(frozen=True)
class BasisSpec:
    """Orthonormal divergence-free trigonometric basis within an |k|_inf cutoff.

    Modes are ordered wavevector-major: for each canonical wavevector (in
    `wavevectors` order), for each polarization, a cos mode then a sin mode.
    """

    dim: int
    cutoff: int
    wavevectors: np.ndarray        # (W, d) int64, canonical, ordered
    pol_int: np.ndarray            # (W, npol, d) int64, unnormalized
    mode_wave: np.ndarray          # (N,) index into wavevectors
    mode_pol: np.ndarray           # (N,) polarization index
    mode_phase: np.ndarray         # (N,) COS or SIN
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n_modes(self) -> int:
        return self.mode_wave.size

    @property
    def volume(self) -> float:
        return TWO_PI ** self.dim

    @property
    def norm_const(self) -> float:
        return np.sqrt(2.0 / self.volume)

    @property
    def pol_norm(self) -> np.ndarray:
        """(W, npol) Euclidean norms of the integer polarizations."""
        key = "pol_norm"
        if key not in self._cache:
            self._cache[key] = np.sqrt(
                np.einsum("wpd,wpd->wp", self.pol_int, self.pol_int).astype(np.float64)
            )
        return self._cache[key]

    @property
    def polarizations(self) -> np.ndarray:
        """(W, npol, d) unit polarization vectors."""
        key = "pol_unit"
        if key not in self._cache:
            self._cache[key] = self.pol_int / self.pol_norm[:, :, None]
        return self._cache[key]

    @property
    def k_sq(self) -> np.ndarray:
        """Stokes eigenvalue |k|^2 per mode, read-only."""
        key = "k_sq"
        if key not in self._cache:
            ksq = np.einsum("wd,wd->w", self.wavevectors, self.wavevectors)
            ksq = ksq[self.mode_wave].astype(np.float64)
            ksq.flags.writeable = False
            self._cache[key] = ksq
        return self._cache[key]

    def mode_k(self, i: int) -> np.ndarray:
        return self.wavevectors[self.mode_wave[i]]

    def index_of(self, label: str) -> int:
        """The mode a label names (see `parse_label`); raises BasisError for unknown labels."""
        k, pol, phase = parse_label(label, self.dim, self.cutoff)
        return self._mode_index(self.wave_index(k), pol, phase)

    def _mode_index(self, wave, pol, phase):
        # the wavevector-major mode order of build_basis; works on arrays too
        return (wave * self.pol_int.shape[1] + pol) * 2 + phase

    def wave_index(self, k: np.ndarray) -> int:
        table = self._cache.get("waves")
        if table is None:
            table = {tuple(int(c) for c in kk): w for w, kk in enumerate(self.wavevectors)}
            self._cache["waves"] = table
        return table.get(tuple(int(c) for c in k), -1)

    # -- grid evaluation ---------------------------------------------------

    def grid(self, n: int) -> np.ndarray:
        """Uniform tensor grid with n points per axis, shape (n^d, d), C order."""
        axes = [np.arange(n) * (TWO_PI / n)] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def quad_weight(self, n: int) -> float:
        return (TWO_PI / n) ** self.dim

    def mode_values(self, n: int) -> np.ndarray:
        """All modes sampled on the n-per-axis grid, shape (N, d, n^d)."""
        key = ("vals", n)
        if key not in self._cache:
            x = self.grid(n)                                     # (G, d)
            kdotx = x @ self.wavevectors[self.mode_wave].T.astype(np.float64)  # (G, N)
            trig = np.where(self.mode_phase[None, :] == COS, np.cos(kdotx), np.sin(kdotx))
            pvec = self.polarizations[self.mode_wave, self.mode_pol]  # (N, d)
            vals = self.norm_const * pvec[:, :, None] * trig.T[:, None, :]
            self._cache[key] = vals
        return self._cache[key]

    def mode_gradients(self, n: int) -> np.ndarray:
        """Gradients of all modes on the grid, shape (N, d, d, n^d).

        Entry [i, m, c, g] is the derivative along axis m of component c of
        mode i at grid point g.
        """
        key = ("grads", n)
        if key not in self._cache:
            x = self.grid(n)
            kvec = self.wavevectors[self.mode_wave].astype(np.float64)  # (N, d)
            kdotx = x @ kvec.T                                          # (G, N)
            # d/dtheta cos = -sin, d/dtheta sin = cos
            dtrig = np.where(self.mode_phase[None, :] == COS, -np.sin(kdotx), np.cos(kdotx))
            pvec = self.polarizations[self.mode_wave, self.mode_pol]
            grads = (self.norm_const
                     * kvec[:, :, None, None]
                     * pvec[:, None, :, None]
                     * dtrig.T[:, None, None, :])
            self._cache[key] = grads
        return self._cache[key]

    def embedding_into(self, finer: "BasisSpec") -> np.ndarray:
        """Index map such that mode i of self equals mode emb[i] of `finer`."""
        if finer.dim != self.dim or finer.cutoff < self.cutoff:
            raise BasisError("embedding requires same dimension and a finer cutoff")
        waves = np.array([finer.wave_index(k) for k in self.wavevectors], dtype=np.int64)
        return finer._mode_index(waves[self.mode_wave], self.mode_pol, self.mode_phase)


def build_basis(dim: int, cutoff: int) -> BasisSpec:
    """Construct the orthonormal solenoidal basis for |k|_inf <= cutoff."""
    waves = enumerate_wavevectors(dim, cutoff)
    pols = _polarizations_int(waves)
    n_waves, npol = pols.shape[:2]
    return BasisSpec(
        dim=dim,
        cutoff=cutoff,
        wavevectors=waves,
        pol_int=pols,
        mode_wave=np.repeat(np.arange(n_waves, dtype=np.int64), 2 * npol),
        mode_pol=np.tile(np.repeat(np.arange(npol, dtype=np.int64), 2), n_waves),
        mode_phase=np.tile(np.array([COS, SIN], dtype=np.int64), n_waves * npol),
    )


def default_grid(cutoff: int) -> int:
    """Smallest grid that integrates products of two modes exactly."""
    return 2 * cutoff + 2


# -- grid transforms: the only readers of the mode caches ------------------------


def project_field(basis: BasisSpec, samples: np.ndarray, n: int) -> np.ndarray:
    """L2 projection of grid samples onto the basis, a_i = <field, v_i>.

    `samples` has shape (..., n^d, d) in the C-order layout of
    BasisSpec.grid(n); the result has shape (..., N).  The grid must resolve
    products of the field and any mode exactly, which for fields within the
    cutoff requires n >= 2*cutoff + 2.
    """
    if n < default_grid(basis.cutoff):
        raise BasisError(
            f"grid with {n} points per axis under-resolved; "
            f"need at least {default_grid(basis.cutoff)}"
        )
    samples = np.asarray(samples, dtype=np.float64)
    expected = (n ** basis.dim, basis.dim)
    if samples.shape[-2:] != expected:
        raise BasisError(f"samples have shape {samples.shape}, expected (..., {expected[0]}, "
                         f"{expected[1]})")
    vals = basis.mode_values(n)            # (N, d, G)
    return basis.quad_weight(n) * np.einsum("ndg,...gd->...n", vals, samples)


def evaluate_field(basis: BasisSpec, a: np.ndarray, n: int) -> np.ndarray:
    """Reconstruct the velocity field on the grid: (..., N) -> (..., n^d, d)."""
    vals = basis.mode_values(n)
    return np.einsum("...n,ndg->...gd", np.asarray(a, dtype=np.float64), vals)


# doubles of gradient samples per BLAS product of `velocity_gradient`
_GRADIENT_BLOCK = 1 << 16


def _gradient_block_rows(basis: BasisSpec, n: int) -> int:
    """Coefficient rows per BLAS product of `velocity_gradient` on the n grid.

    About 2^16 doubles of samples, and never fewer than two rows: it depends
    only on the basis and the grid, never on the batch.
    """
    return max(2, _GRADIENT_BLOCK // (n ** basis.dim * basis.dim ** 2))


def velocity_gradient(
    basis: BasisSpec, coeffs: np.ndarray, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Gradient tensor of the reconstructed field on the grid.

    Returns shape (..., n^d, d, d) for coefficient input (..., N); entry
    [..., g, m, c] is d(component c)/d(x_m) at grid point g.  The result has
    grid points innermost in memory, like the table `mode_gradients(n)`:
    `out`, if given, is an array of the result's shape whose axes in the
    order (..., d, d, n^d) are C-contiguous.

    The transform is one BLAS product (B, N) @ (N, d^2 n^d) against that
    table per block of B coefficient rows, B = `_gradient_block_rows(basis,
    n)`.  A shorter last block is zero-padded to B rows, so every row goes
    through a product of the same shape, whatever the batch, and its samples
    are bitwise those of its own call (one row alone would take BLAS's
    matrix-vector path, which rounds differently).
    """
    d, N, G = basis.dim, basis.n_modes, n ** basis.dim
    table = basis.mode_gradients(n).reshape(N, d * d * G)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape[-1:] != (N,):
        raise BasisError(f"coefficients have shape {coeffs.shape}, expected (..., {N})")
    if out is None:
        dest = np.empty(coeffs.shape[:-1] + (d, d, G))
    else:
        dest = np.moveaxis(out, -3, -1)
        if dest.shape != coeffs.shape[:-1] + (d, d, G) or not dest.flags.c_contiguous:
            raise BasisError("out must have the result's shape with grid points "
                             "innermost and contiguous")
    # contiguous rows, so every block is a BLAS operand as it stands
    flat = np.ascontiguousarray(coeffs.reshape(-1, N))
    rows = dest.reshape(len(flat), d * d * G)
    B = _gradient_block_rows(basis, n)
    for t in range(0, len(flat), B):
        block = flat[t:t + B]
        if len(block) == B:
            np.matmul(block, table, out=rows[t:t + B])
        else:
            padded = np.zeros((B, N))
            padded[:len(block)] = block
            rows[t:] = (padded @ table)[:len(block)]
    return np.moveaxis(dest, -1, -3)


# -- the triad kernel -----------------------------------------------------------

# candidates per block of advecting modes; bounds the kernel's working memory
_TRIAD_BLOCK = 1 << 19

# sign patterns (s_b, s_c) of s_a k_a + s_b k_b + s_c k_c = 0 with s_a = +1;
# the patterns with s_a = -1 are their negations and contribute equally
_SIGN_PATTERNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _phase_code_table() -> np.ndarray:
    """Integer m of a candidate, indexed [hits * 2 + phase of v_a, phase of v_b].

    Bit p of `hits` is set when sign pattern p solves the triad condition.
    The phase of v_c is the one that leaves an even number of sin factors in
    the integrand (v_b's is flipped by differentiating: cos -> -sin,
    sin -> cos).  With cos t = (e^{it} + e^{-it})/2 and
    sin t = (-i e^{it} + i e^{-it})/2, a surviving sign pattern adds 1/8
    times 1 (no sin factor) or minus the product of the two sin factors'
    signs; an odd number of sin factors integrates to zero.
    """
    table = np.zeros((32, 2), dtype=np.int64)
    for hits in range(16):
        for ph_a in (COS, SIN):
            for ph_b in (COS, SIN):
                ph_db, ph_c = 1 - ph_b, ph_a ^ ph_b ^ 1
                for p, (sb, sc) in enumerate(_SIGN_PATTERNS):
                    if hits >> p & 1:
                        sin_sign = (sb if ph_db == SIN else 1) * (sc if ph_c == SIN else 1)
                        n_sin = ph_a + ph_db + ph_c
                        table[hits * 2 + ph_a, ph_b] += 2 * (1 if n_sin == 0 else -sin_sign)
    return table


_PHASE_CODES = _phase_code_table()


def _triads(
    adv: BasisSpec, adv_modes: np.ndarray, basis: BasisSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every nonzero integral (v_a . grad) v_b . v_c over the torus.

    v_a ranges over `adv_modes` of the advecting basis `adv`, v_b and v_c over
    all modes of `basis` (same dimension, any cutoffs).  Returns index arrays
    (a, b, c) and the values, a-major in the order of `adv_modes`; no index
    triple repeats.  Each value equals the closed form

        nc^3 * (c_a . k_b)(c_b . c_c) / (|c_a| |c_b| |c_c|) * dsign * (m / 8) * vol

    evaluated in this operation order, with c_* the integer polarizations,
    dsign the sign of differentiating v_b, and m the integer multiple of 1/8
    that the product of three cos/sin factors integrates to.  The sign
    patterns are tested once per wave triple (a, w_b, w_c), and m comes from
    `_PHASE_CODES`; of the phase pairs (b, c) only those with an even number
    of sin factors are candidates, since every other one integrates to 0.
    dsign * (m / 8) * vol is one table entry per candidate: multiplying by
    dsign = +/-1 is exact, so folding it into the last factor moves no bit.
    """
    waves = basis.wavevectors
    n_waves, npol = basis.pol_int.shape[:2]
    per_wave = 2 * npol
    pnorm = basis.pol_norm[basis.mode_wave, basis.mode_pol]              # (N,)
    # every wavevector as one integer, linear in k and zero only at k = 0
    # over the box that any signed sum s_a k_a + s_b k_b + s_c k_c lies in;
    # `table` maps code + centre to the index of the canonical representative
    # in `basis`, -1 outside the cutoff and at k = 0
    reach = adv.cutoff + 2 * basis.cutoff
    strides = (2 * reach + 1) ** np.arange(basis.dim)
    centre = reach * strides.sum()
    code_w = waves @ strides
    table = np.full((2 * reach + 1) ** basis.dim, -1, dtype=np.int64)
    table[centre + code_w] = table[centre - code_w] = np.arange(n_waves)
    signs = np.array([1, -1])
    # the candidates of one wave triple, b-major: (pol_b, phase_b, pol_c);
    # the phase of c is phase_a ^ phase_b ^ 1
    pol_b, ph_b, pol_c = (g.ravel() for g in np.meshgrid(
        np.arange(npol), (COS, SIN), np.arange(npol), indexing="ij"))
    off_b = pol_b * 2 + ph_b
    off_c = pol_c * 2 + (np.arange(2)[:, None] ^ ph_b ^ 1)              # (phase_a, r)
    pol_pair = pol_b * npol + pol_c
    # dsign * (m / 8) * vol; dsign is -1 for phase_b cos (cos' = -sin), +1 for sin
    coef_table = (np.array([-1.0, 1.0]) * ((_PHASE_CODES / 8.0) * basis.volume))[:, ph_b]
    nc3 = basis.norm_const ** 3
    block = max(1, _TRIAD_BLOCK // (2 * n_waves * ph_b.size))
    parts = []
    for start in range(0, len(adv_modes), block):
        modes = np.asarray(adv_modes[start:start + block], dtype=np.int64)
        wa, pa = adv.mode_wave[modes], adv.mode_pol[modes]
        code_a = adv.wavevectors[wa] @ strides
        g1 = adv.pol_int[wa, pa] @ waves.T                                # (A, W), exact
        # the only output waves a triad admits: +/-(k_a + k_b) and +/-(k_a - k_b)
        target = table[centre + code_a[:, None, None] + signs * code_w[:, None]]  # (A, W, 2)
        ra, wb, _ = sel = np.nonzero((target >= 0) & (g1 != 0)[:, :, None])
        wc = target[sel]
        ca, cb, cc = code_a[ra], code_w[wb], code_w[wc]
        hits = np.zeros(ra.size, dtype=np.int64)
        for p, (sb, sc) in enumerate(_SIGN_PATTERNS):
            hits |= (ca + sb * cb + sc * cc == 0) << p
        a = modes[ra]
        ph_a = adv.mode_phase[a]
        coef = coef_table[hits * 2 + ph_a]                                # (T, r)
        dots = np.einsum("tpd,tqd->tpq", basis.pol_int[wb], basis.pol_int[wc])
        g = g1[ra, wb][:, None] * dots.reshape(-1, npol * npol)[:, pol_pair]
        keep = (g != 0) & (coef != 0.0)
        t, r = np.nonzero(keep)
        a = a[t]
        b = wb[t] * per_wave + off_b[r]
        c = wc[t] * per_wave + off_c[ph_a[t], r]
        norms = adv.pol_norm[wa[ra[t]], pa[ra[t]]] * pnorm[b] * pnorm[c]
        parts.append((a, b, c, nc3 * g[t, r] / norms * coef[t, r]))
    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, np.zeros(0)
    return tuple(np.concatenate(p) for p in zip(*parts))


class _CsrArrays(NamedTuple):
    """The arrays of a CSR matrix, as `_csr_product` reads them from one: a
    kernel partition keeps its blocks so, because building a
    `sparse.csr_matrix` checks its format at ~50 us a block."""

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _csr_product(op: sparse.csr_matrix | _CsrArrays, x: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """op @ x for a float64 (n, R) array x, into the C-contiguous (m, R) `out` if given.

    `op` is a `sparse.csr_matrix` or its `_CsrArrays`, with indptr and
    indices of one integer type.  Calls the routine `op @ x` calls, without
    scipy's Python dispatch:
    csr_matvec at R = 1 and csr_matvecs otherwise, each adding into a zeroed
    output.  Both form each output entry as the sequential sum over the
    stored entries of its row, so the bits are those of `op @ x` and do not
    depend on R, and the rows of a stacked operator keep the bits of their
    own blocks.
    """
    rows, cols = op.shape
    width = x.shape[1]
    if x.shape[0] != cols:
        raise ValueError(f"operator has {cols} columns, operand {x.shape[0]} rows")
    if out is None:
        out = np.zeros((rows, width))
    elif out.shape != (rows, width) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {(rows, width)}")
    else:
        out.fill(0.0)
    if width == 1:
        _sparsetools.csr_matvec(rows, cols, op.indptr, op.indices, op.data,
                                x.ravel(), out.ravel())
    else:
        _sparsetools.csr_matvecs(rows, cols, width, op.indptr, op.indices, op.data,
                                 x.ravel(), out.ravel())
    return out


# doubles in the gathered (pairs, rows) product table of one row block of
# ConvectionTensor.apply: small enough to stay in a core's cache (2^15 to
# 2^17 timed alike at N = 80 to 288 on a 2-CPU x86-64 host, 2^18 slower)
_APPLY_WORKSPACE = 1 << 16


@dataclass(frozen=True)
class ConvectionTensor:
    """Sparse rank-3 convection tensor b[i, k, j], skew-symmetric in (k, j).

    Entries are stored in coordinate format sorted by output index j; the
    per-j scatter matrix realizes the quadratic contraction
    B(a, a)_j = sum over (i, k) of b[i, k, j] a_i a_k.

    The kernel is member-minor: `_apply_members` takes the R states of a
    batch as the columns of a contiguous (N, R) array and returns B in the
    same layout, so gathering a_i for one entry copies a whole row of R
    members.  The integrators keep their state in that layout and call it
    directly; `apply` is the wrapper for (..., N) states, which transposes in
    and out of it and so has the same bits.  Output modes are walked in row
    blocks, runs of whole scatter rows [j0, j1).  A block gathers a product
    table, one row fl(a_i a_k) of R members per distinct unordered pair
    {i, k} in the block, and sums it with a per-block CSR matrix, kept as
    its arrays (`_CsrArrays`), whose column indices point into that table
    (`sub @ table`, by `_csr_product`): the stored entries (i, k, j) and
    (k, i, j) multiply the same product, since IEEE multiplication
    commutes.  At 2-D cutoff 4 and R = 1024 that gathers 3310 rows per call
    instead of nnz = 6176.  A block grows row by row while its distinct
    pairs fill at most a fixed workspace of R doubles per pair (one row may
    exceed it).  The entries of each scatter row keep their
    order, so every output entry is the same sequential sum, over the same
    terms v_e * fl(a_i a_k) in the same order, as the single sparse product
    over the full (nnz, R) product: the bits do not depend on R, on the
    blocking or on the pair tables, and a batch matches its members applied
    one by one.  The partitions are built on first use, one per power of two
    of R, and cached on the tensor with their widest block.

    Each call allocates one (2, widest block, R) workspace and every block
    gathers into it, so a call makes one allocation instead of two fresh
    gathers per block, which the allocator returned to the system and faulted
    in again block after block.  It holds at most 2 max(_APPLY_WORKSPACE, R p)
    doubles, with p the distinct pairs of the widest scatter row.  The
    workspace belongs to the call, so threads may share a tensor.  The
    gathers use `mode="clip"`: with `out=`, numpy's default `mode="raise"`
    gathers into a hidden temporary and copies it over, and every index is
    in range by construction, so clipping never acts.
    """

    n_modes: int
    i_idx: np.ndarray
    k_idx: np.ndarray
    j_idx: np.ndarray
    values: np.ndarray
    _scatter: sparse.csr_matrix = field(repr=False, compare=False, default=None)
    _blocks: dict = field(repr=False, compare=False, default_factory=dict)
    frobenius: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # read by the stability guardrail once per integration
        object.__setattr__(self, "frobenius", float(np.sqrt(np.sum(self.values ** 2))))

    @property
    def nnz(self) -> int:
        return self.values.size

    def scatter(self) -> sparse.csr_matrix:
        return self._scatter

    def _row_blocks(self, rows: int) -> tuple[int, list]:
        # (widest block, blocks), keyed by rows rounded up to a power of two;
        # building a partition is deterministic, so threads that race to
        # fill an entry store equal values
        key = 1 << max(rows - 1, 0).bit_length()
        part = self._blocks.get(key)
        if part is None:
            cap = max(1, _APPLY_WORKSPACE // key)
            n, indptr = self.n_modes, self._scatter.indptr
            pair = np.minimum(self.i_idx, self.k_idx) * n + np.maximum(self.i_idx, self.k_idx)
            blocks, j0 = [], 0
            while j0 < n:
                # grow the block row by row while its distinct pairs fit
                seen, j1 = set(), j0
                while j1 < n:
                    new = set(pair[indptr[j1]:indptr[j1 + 1]].tolist()) - seen
                    if j1 > j0 and len(seen) + len(new) > cap:
                        break
                    seen |= new
                    j1 += 1
                lo, hi = indptr[j0], indptr[j1]
                table, col = np.unique(pair[lo:hi], return_inverse=True)
                sub = _CsrArrays((j1 - j0, table.size), indptr[j0:j1 + 1] - lo,
                                 col.astype(indptr.dtype), self.values[lo:hi])
                blocks.append((j0, j1, table // n, table % n, sub))
                j0 = j1
            part = max(b[2].size for b in blocks), blocks
            self._blocks[key] = part
        return part

    def apply(self, a: np.ndarray) -> np.ndarray:
        """B(a, a); supports arbitrary leading batch axes."""
        a = np.asarray(a, dtype=np.float64)
        if a.shape[-1:] != (self.n_modes,):
            raise ValueError(f"state has shape {a.shape}, expected (..., {self.n_modes})")
        rows = a.size // self.n_modes
        aT = np.ascontiguousarray(a.reshape(rows, self.n_modes).T)
        return self._apply_members(aT).T.reshape(a.shape)

    def _apply_members(self, aT: np.ndarray) -> np.ndarray:
        """B(a, a) member-minor: aT and the result are contiguous (N, R) arrays."""
        rows = aT.shape[1]
        if self.nnz == 0:
            return np.zeros_like(aT)
        out = np.empty((self.n_modes, rows))
        width, blocks = self._row_blocks(rows)
        work = np.empty((2, width, rows))
        for j0, j1, i_idx, k_idx, sub in blocks:
            prod, other = work[0, :i_idx.size], work[1, :i_idx.size]
            aT.take(i_idx, axis=0, out=prod, mode="clip")
            aT.take(k_idx, axis=0, out=other, mode="clip")
            np.multiply(prod, other, out=prod)
            _csr_product(sub, prod, out[j0:j1])
        return out

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_modes,) * 3)
        dense[self.i_idx, self.k_idx, self.j_idx] = self.values
        return dense


def _skew_tensor(
    n_modes: int, i: np.ndarray, k: np.ndarray, j: np.ndarray, values: np.ndarray
) -> ConvectionTensor:
    """Skew-symmetrize b[i,k,j] <- (b[i,k,j] - b[i,j,k]) / 2 and store it by (j, i, k).

    No index triple may repeat.  The stored keys (i N + k) N + j are sorted
    once, and each entry finds its mirror (i, j, k) with one `searchsorted`.
    A mirror that is not stored counts as a stored 0.0: it is added, and the
    closed set is skew-symmetrized instead.  Round-to-nearest gives
    fl(y - x) = -fl(x - y), so every mirror pair is bitwise skew.  Entries
    that come out 0.0 are dropped; the rest, in (i, k, j) order, are put in
    (j, i, k) order by a stable sort on j alone, and the scatter matrix's
    rows are counted with `bincount`.
    """
    n = n_modes
    key = (i * n + k) * n + j
    # the triad kernel's output is nearly in key order (i-major, then by the
    # wave of k), which a stable sort (timsort) runs through far faster
    order = np.argsort(key, kind="stable")
    key, i, k, j, x = key[order], i[order], k[order], j[order], values[order]
    mirror = (i * n + j) * n + k
    pos = np.minimum(np.searchsorted(key, mirror), key.size - 1)
    lone = key[pos] != mirror
    if lone.any():
        # store the missing mirrors as 0.0 and start again on the closed set
        return _skew_tensor(
            n, np.concatenate((i, i[lone])), np.concatenate((k, j[lone])),
            np.concatenate((j, k[lone])), np.concatenate((x, np.zeros(np.count_nonzero(lone)))))
    w = 0.5 * (x - x[pos])
    keep = np.nonzero(w != 0.0)[0]
    # j below 2^16 takes numpy's radix sort
    keep = keep[np.argsort(j[keep].astype(np.min_scalar_type(n - 1)), kind="stable")]
    i_idx, k_idx, j_idx, w = i[keep], k[keep], j[keep], w[keep]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(j_idx, minlength=n))))
    scatter = sparse.csr_matrix((w, np.arange(w.size), indptr), shape=(n, w.size))
    return ConvectionTensor(
        n_modes=n_modes, i_idx=i_idx, k_idx=k_idx, j_idx=j_idx, values=w,
        _scatter=scatter,
    )


def convection_tensor(basis: BasisSpec) -> ConvectionTensor:
    """Assemble b[i,k,j] = integral (v_i . grad) v_k . v_j in closed form.

    The triad kernel enumerates, for every pair of modes (i, k), the only
    output wavevectors the triad condition admits, +/-(k_i + k_k) and
    +/-(k_i - k_k), and evaluates each entry in closed form with an exact
    triple integral (see the module docstring).  The entries are then
    skew-symmetrized in (k, j) and stored sorted by (j, i, k).
    """
    i, k, j, values = _triads(basis, np.arange(basis.n_modes), basis)
    return _skew_tensor(basis.n_modes, i, k, j, values)


def advection_matrix(
    basis: BasisSpec,
    adv_basis: BasisSpec,
    adv_coeffs: np.ndarray,
) -> np.ndarray:
    """Dense matrix Z with Z[j, i] = <(w . grad) v_i, v_j> for w = sum c_m u_m.

    The advecting field w lives in `adv_basis`, of the same dimension and any
    cutoff: the triad kernel pairs each mode u_m with nonzero c_m against the
    target basis, and the contributions c_m * <(u_m . grad) v_i, v_j> are
    summed in ascending m.
    """
    if adv_basis.dim != basis.dim:
        raise BasisError("advecting field dimension mismatch")
    adv_coeffs = np.asarray(adv_coeffs, dtype=np.float64)
    if adv_coeffs.shape != (adv_basis.n_modes,):
        raise BasisError(
            f"advecting coefficients have shape {adv_coeffs.shape}, "
            f"expected ({adv_basis.n_modes},)"
        )
    m, i, j, values = _triads(adv_basis, np.nonzero(adv_coeffs)[0], basis)
    Z = np.zeros((basis.n_modes, basis.n_modes))
    # the kernel's output is m-major and np.add.at applies in order
    np.add.at(Z, (j, i), adv_coeffs[m] * values)
    return Z

