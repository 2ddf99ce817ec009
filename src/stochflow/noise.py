"""Additive and transport noise operators in Galerkin coordinates.

The driving Wiener process is cylindrical over an orthonormal Brownian mode
family; the solver retains exactly the K modes on which either noise operator
is nonzero (modes with zero coefficient contribute nothing to the dynamics).

Additive noise enters through the matrix eta[j, l] = <sigma1 e_l, v_j>;
transport noise through one skew-symmetric matrix per Brownian mode,
zeta_l[j, i] = <(sigma2 e_l . grad) v_i, v_j>.  Skewness of zeta (exact, by
construction) is the discrete mechanism behind pathwise energy conservation
of the transport term, and the Ito correction 1/2 sum_l zeta_l^T zeta_l is
the positive-semidefinite drift contribution produced when the Stratonovich
transport term is rewritten in Ito form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, advection_matrix


class NoiseError(ValueError):
    """Inconsistent noise configuration."""


@dataclass(frozen=True)
class AdditiveNoise:
    """State-independent forcing, eta[j, l] = <sigma1 e_l, v_j>."""

    eta: np.ndarray  # (N, K)

    @property
    def support(self) -> tuple[int, ...]:
        cols = np.nonzero(np.any(self.eta != 0.0, axis=0))[0]
        return tuple(int(c) for c in cols)


@dataclass(frozen=True)
class TransportNoise:
    """State-dependent Stratonovich advection by divergence-free fields.

    `zeta` stacks the nonzero per-mode matrices; `modes[s]` is the Brownian
    index of zeta[s].  Each matrix is exactly skew-symmetric.
    """

    modes: tuple[int, ...]
    zeta: np.ndarray            # (S, N, N); S == len(modes)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def correction(self) -> np.ndarray:
        """Ito drift correction 1/2 sum_l zeta_l^T zeta_l (symmetric PSD)."""
        key = "corr"
        if key not in self._cache:
            if self.zeta.shape[0] == 0:
                n = self.zeta.shape[1]
                corr = np.zeros((n, n))
            else:
                corr = 0.5 * np.einsum("sji,sjk->ik", self.zeta, self.zeta)
                corr = 0.5 * (corr + corr.T)
            self._cache[key] = corr
        return self._cache[key]


@dataclass(frozen=True)
class NoiseSpec:
    """Additive plus transport noise on a common K-mode Brownian family."""

    additive: AdditiveNoise
    transport: TransportNoise
    n_brownian: int


def assemble_eta(
    basis: BasisSpec,
    sigma1_modes: list[tuple[int, np.ndarray]],
    n_brownian: int | None = None,
) -> AdditiveNoise:
    """Build eta from (brownian mode, coefficient vector) pairs.

    Unspecified columns are zero.  The Brownian dimension defaults to the
    smallest K covering the given modes.
    """
    if n_brownian is None:
        n_brownian = max((ell for ell, _ in sigma1_modes), default=-1) + 1
    eta = np.zeros((basis.n_modes, n_brownian))
    for ell, vec in sigma1_modes:
        if not 0 <= ell < n_brownian:
            raise NoiseError(f"brownian mode {ell} out of range [0, {n_brownian})")
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (basis.n_modes,):
            raise NoiseError(
                f"coefficient vector for mode {ell} has shape {vec.shape}, "
                f"expected ({basis.n_modes},)"
            )
        eta[:, ell] += vec
    return AdditiveNoise(eta=eta)


def assemble_zeta(
    basis: BasisSpec,
    transport_fields: list[tuple[int, np.ndarray]],
    assembly_basis: BasisSpec | None = None,
) -> TransportNoise:
    """Build the skew matrices zeta_l from transport field coefficients.

    Each field sigma2 e_l is a combination of solenoidal modes of
    `assembly_basis` (defaults to `basis`; may have a larger cutoff), so
    divergence-freeness is exact.  Skew-symmetry is enforced by storing the
    strict upper triangle and reflecting it with a sign.
    """
    if assembly_basis is None:
        assembly_basis = basis
    mats: dict[int, np.ndarray] = {}
    for ell, coeffs in transport_fields:
        if ell < 0:
            raise NoiseError(f"brownian mode {ell} out of range")
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (assembly_basis.n_modes,):
            raise NoiseError(
                f"transport field for mode {ell} has {coeffs.shape[0] if coeffs.ndim else 0} "
                f"coefficients; assembly cutoff {assembly_basis.cutoff} expects "
                f"{assembly_basis.n_modes}"
            )
        raw = advection_matrix(basis, assembly_basis, coeffs)
        upper = np.triu(raw, k=1)
        skew = upper - upper.T
        mats[ell] = mats.get(ell, 0.0) + skew
    modes = tuple(sorted(mats.keys()))
    if modes:
        zeta = np.stack([mats[ell] for ell in modes])
    else:
        zeta = np.zeros((0, basis.n_modes, basis.n_modes))
    return TransportNoise(modes=modes, zeta=zeta)


def build_noise(
    basis: BasisSpec,
    sigma1_modes: list[tuple[int, np.ndarray]] | None = None,
    transport_fields: list[tuple[int, np.ndarray]] | None = None,
    assembly_basis: BasisSpec | None = None,
) -> NoiseSpec:
    """Assemble a NoiseSpec; the Brownian dimension covers both supports, which must be disjoint."""
    sigma1_modes = sigma1_modes or []
    transport_fields = transport_fields or []
    top = max(
        [ell for ell, _ in sigma1_modes] + [ell for ell, _ in transport_fields],
        default=-1,
    )
    K = top + 1
    additive = assemble_eta(basis, sigma1_modes, n_brownian=K)
    transport = assemble_zeta(basis, transport_fields, assembly_basis)
    spec = NoiseSpec(additive=additive, transport=transport, n_brownian=K)
    ok, overlap = check_orthogonality(spec)
    if not ok:
        raise NoiseError(
            "additive and transport noise share brownian modes "
            f"{sorted(overlap)}; supports must be disjoint"
        )
    return spec


def hs_norm(additive: AdditiveNoise) -> float:
    """Squared Hilbert-Schmidt norm of sigma1, sum over all entries of eta^2."""
    return float(np.sum(additive.eta ** 2))


def check_orthogonality(spec: NoiseSpec) -> tuple[bool, set[int]]:
    """True iff the additive and transport Brownian supports are disjoint.

    Disjoint supports make the cross terms between the two noises vanish
    identically, with no tolerance involved.  Returns (ok, overlapping modes).
    """
    overlap = set(spec.additive.support) & set(spec.transport.modes)
    return (len(overlap) == 0, overlap)
