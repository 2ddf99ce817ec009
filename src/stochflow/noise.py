"""Additive and transport noise operators in Galerkin coordinates.

The driving Wiener process is cylindrical over an orthonormal Brownian mode
family; the solver keeps the first K modes, K being the largest mode given
plus one.  A mode that neither noise names has a zero column in eta and no
zeta matrix, so it contributes nothing to the dynamics.

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

    `zeta` stacks the per-mode matrices; `modes[s]` is the Brownian index of
    zeta[s].  Each matrix is exactly skew-symmetric.
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


def _coefficients(ell, vec, basis: BasisSpec, what: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (basis.n_modes,):
        raise NoiseError(f"{what} for mode {ell} has shape {vec.shape}; cutoff "
                         f"{basis.cutoff} expects ({basis.n_modes},)")
    return vec


def build_noise(
    basis: BasisSpec,
    sigma1_modes: list[tuple[int, np.ndarray]] | None = None,
    transport_fields: list[tuple[int, np.ndarray]] | None = None,
    assembly_basis: BasisSpec | None = None,
) -> NoiseSpec:
    """Assemble eta and the zeta_l from (brownian mode, coefficients) pairs.

    An additive vector holds sigma1 e_l in `basis`.  A transport field
    sigma2 e_l is a combination of solenoidal modes of `assembly_basis`
    (defaults to `basis`; may have a larger cutoff), so divergence-freeness
    is exact; skew-symmetry is exact too, since each zeta_l stores the strict
    upper triangle of the advection matrix and reflects it with a sign.
    Pairs that name one mode twice are summed in the order given, and zeta
    stacks the transport modes in ascending order.

    The additive support (columns of eta with a nonzero entry) and the
    transport modes must be disjoint, which makes the cross terms between the
    two noises vanish identically, with no tolerance involved.
    """
    sigma1_modes = sigma1_modes or []
    transport_fields = transport_fields or []
    assembly_basis = assembly_basis or basis
    given = [ell for ell, _ in [*sigma1_modes, *transport_fields]]
    if any(ell < 0 for ell in given):
        raise NoiseError(f"brownian mode {min(given)} is negative")
    eta = np.zeros((basis.n_modes, max(given, default=-1) + 1))
    for ell, vec in sigma1_modes:
        eta[:, ell] += _coefficients(ell, vec, basis, "additive vector")
    mats: dict[int, np.ndarray] = {}
    for ell, coeffs in transport_fields:
        raw = advection_matrix(basis, assembly_basis,
                               _coefficients(ell, coeffs, assembly_basis, "transport field"))
        upper = np.triu(raw, k=1)
        mats[ell] = mats.get(ell, 0.0) + (upper - upper.T)
    modes = tuple(sorted(mats))
    zeta = (np.stack([mats[ell] for ell in modes]) if modes
            else np.zeros((0, basis.n_modes, basis.n_modes)))
    additive = AdditiveNoise(eta=eta)
    overlap = sorted(set(additive.support) & set(modes))
    if overlap:
        raise NoiseError(f"additive and transport noise share brownian modes {overlap}; "
                         "supports must be disjoint")
    return NoiseSpec(additive=additive, transport=TransportNoise(modes=modes, zeta=zeta),
                     n_brownian=eta.shape[1])


def hs_norm(additive: AdditiveNoise) -> float:
    """Squared Hilbert-Schmidt norm of sigma1, sum over all entries of eta^2."""
    return float(np.sum(additive.eta ** 2))
