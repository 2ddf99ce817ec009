import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochflow.basis import build_basis
from stochflow.noise import NoiseError, build_noise, hs_norm

import oracles


def _additive(basis, sigma1_modes):
    return build_noise(basis, sigma1_modes=sigma1_modes).additive


def _transport(basis, fields, assembly=None):
    return build_noise(basis, transport_fields=fields, assembly_basis=assembly).transport


def test_empty_eta(basis2_2):
    noise = build_noise(basis2_2)
    assert noise.additive.eta.shape == (basis2_2.n_modes, 0)
    assert noise.n_brownian == 0
    assert hs_norm(noise.additive) == 0.0


def test_single_entry_hs_norm(basis2_2):
    vec = np.zeros(basis2_2.n_modes)
    vec[1] = 0.5
    add = _additive(basis2_2, [(0, vec)])
    assert hs_norm(add) == 0.25


def test_two_columns_match_frobenius(basis2_2, rng):
    import math

    v1 = rng.normal(size=basis2_2.n_modes)
    v2 = rng.normal(size=basis2_2.n_modes)
    add = _additive(basis2_2, [(0, v1), (2, v2)])  # K = 3, from the largest mode
    assert add.eta.shape == (basis2_2.n_modes, 3)
    assert np.array_equal(add.eta[:, 1], np.zeros(basis2_2.n_modes))
    naive = math.fsum(add.eta[j, l] ** 2
                      for j in range(basis2_2.n_modes) for l in range(3))
    assert abs(hs_norm(add) - naive) <= 1e-15 * naive


def test_eta_mode_out_of_range(basis2_2):
    field = np.zeros(basis2_2.n_modes)
    field[basis2_2.index_of("1,0:cos")] = 1.0
    with pytest.raises(NoiseError, match="negative"):
        build_noise(basis2_2, sigma1_modes=[(0, np.ones(basis2_2.n_modes)),
                                            (-1, np.zeros(basis2_2.n_modes))])
    with pytest.raises(NoiseError, match="negative"):
        build_noise(basis2_2, transport_fields=[(-2, field)])
    with pytest.raises(NoiseError):
        build_noise(basis2_2, sigma1_modes=[(0, np.zeros(3))])


def test_repeated_mode_sums_in_order(basis2_2, rng):
    # a mode named more than once sums its terms in the order given
    v = rng.normal(size=(3, basis2_2.n_modes))
    f = rng.normal(size=(3, basis2_2.n_modes)) * (basis2_2.k_sq <= 2)
    noise = build_noise(basis2_2, sigma1_modes=[(1, v[0]), (1, v[1]), (1, v[2])],
                        transport_fields=[(3, f[0]), (0, f[1]), (3, f[1]), (3, f[2])])
    assert noise.n_brownian == 4 and noise.transport.modes == (0, 3)
    assert np.array_equal(noise.additive.eta[:, 1], (v[0] + v[1]) + v[2])
    z = [_transport(basis2_2, [(0, x)]).zeta[0] for x in f]
    assert np.array_equal(noise.transport.zeta[0], z[1])
    assert np.array_equal(noise.transport.zeta[1], (z[0] + z[1]) + z[2])


@given(perm_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_hs_norm_reordering_invariant(perm_seed):
    b = build_basis(2, 1)
    gen = np.random.default_rng(7)
    add = _additive(b, [(0, gen.normal(size=b.n_modes)),
                        (1, gen.normal(size=b.n_modes))])
    perm = np.random.default_rng(perm_seed).permutation(b.n_modes)
    reordered = float(np.sum(add.eta[perm] ** 2))
    assert abs(reordered - hs_norm(add)) <= 1e-15 * hs_norm(add)


# -- transport -------------------------------------------------------------------


def test_zero_transport(basis2_2):
    tr = _transport(basis2_2, [])
    assert tr.zeta.shape == (0, basis2_2.n_modes, basis2_2.n_modes)
    assert np.abs(tr.correction()).max() == 0.0


def test_zeta_skew_bitwise(basis2_2, rng):
    field = rng.normal(size=basis2_2.n_modes) * (basis2_2.k_sq <= 2)
    tr = _transport(basis2_2, [(0, field)])
    z = tr.zeta[0]
    assert np.abs(z + z.T).max() == 0.0


def test_zeta_entry_matches_quadrature(basis2_2):
    field = np.zeros(basis2_2.n_modes)
    m = basis2_2.index_of("1,0:cos")
    field[m] = 1.0
    tr = _transport(basis2_2, [(0, field)])
    i = basis2_2.index_of("0,1:cos")
    j = basis2_2.index_of("1,1:sin")
    # <(v_m . grad) v_i, v_j> with the advecting field v_m
    expected = oracles.advection_integral(basis2_2, m, i, j)
    assert abs(tr.zeta[0][j, i] - expected) <= 1e-12
    assert expected != 0.0


def test_zeta_dense_matrix_against_quadrature(basis2_1):
    # 2-D in the basis itself; 3-D with advecting modes beyond the basis
    # cutoff, integrated on the finer basis that contains every mode
    fine3 = build_basis(3, 2)
    cases = [
        (basis2_1, basis2_1, {"1,0:cos": 0.8, "0,1:sin": -0.5}),
        (build_basis(3, 1), fine3, {"2,1,0:p0:cos": 0.8, "0,1,-1:p1:sin": -0.5,
                                    "1,0,0:p1:cos": 0.3}),
    ]
    for basis, assembly, labels in cases:
        field = np.zeros(assembly.n_modes)
        for label, value in labels.items():
            field[assembly.index_of(label)] = value
        tr = _transport(basis, [(0, field)], assembly)
        emb = basis.embedding_into(assembly)
        N = basis.n_modes
        dense = np.zeros((N, N))
        for m in np.nonzero(field)[0]:
            for i in range(N):
                for j in range(N):
                    dense[j, i] += field[m] * oracles.advection_integral(
                        assembly, m, emb[i], emb[j])
        assert np.abs(dense).max() > 1e-3  # the case is not vacuous
        assert np.abs(tr.zeta[0] - dense).max() <= 1e-12


def test_zeta_rejects_wrong_assembly_length(basis2_2):
    with pytest.raises(NoiseError):
        _transport(basis2_2, [(0, np.zeros(basis2_2.n_modes + 1))])


def test_zeta_larger_assembly_cutoff(basis2_1):
    fine = build_basis(2, 2)
    field = np.zeros(fine.n_modes)
    field[fine.index_of("2,1:cos")] = 1.0  # outside the coarse cutoff
    tr = _transport(basis2_1, [(0, field)], fine)
    z = tr.zeta[0]
    assert np.abs(z + z.T).max() == 0.0
    i = basis2_1.index_of("1,1:sin")
    j = basis2_1.index_of("1,0:cos")  # (2,1) - (1,1) = (1,0): a valid triad
    assert z[j, i] != 0.0


# -- Ito correction -------------------------------------------------------------


def test_correction_psd(basis2_2, rng):
    field = rng.normal(size=basis2_2.n_modes) * (basis2_2.k_sq <= 2)
    tr = _transport(basis2_2, [(0, field)])
    corr = tr.correction()
    assert np.abs(corr - corr.T).max() == 0.0
    assert np.linalg.eigvalsh(corr).min() >= -1e-13


def test_correction_quadratic_identity(basis2_2, rng):
    fields = [(0, rng.normal(size=basis2_2.n_modes) * (basis2_2.k_sq <= 2)),
              (1, rng.normal(size=basis2_2.n_modes) * (basis2_2.k_sq <= 1))]
    tr = _transport(basis2_2, fields)
    corr = tr.correction()
    for _ in range(20):
        a = rng.normal(size=basis2_2.n_modes)
        direct = 0.5 * sum(np.linalg.norm(tr.zeta[s] @ a) ** 2
                           for s in range(tr.zeta.shape[0]))
        assert abs(a @ corr @ a - direct) <= 1e-13 * max(1.0, direct)


# -- orthogonality ---------------------------------------------------------------


def _noise(basis, add_modes, trans_modes, rng):
    sig1 = [(l, rng.normal(size=basis.n_modes)) for l in add_modes]
    low = basis.k_sq <= 2
    sig2 = [(l, rng.normal(size=basis.n_modes) * low) for l in trans_modes]
    return build_noise(basis, sig1, sig2)


def test_orthogonality_disjoint(basis2_2, rng):
    noise = _noise(basis2_2, (0, 1), (2, 3), rng)
    assert noise.additive.support == (0, 1) and noise.transport.modes == (2, 3)
    assert noise.n_brownian == 4


def test_orthogonality_overlap_named(basis2_2, rng):
    with pytest.raises(NoiseError, match=r"modes \[1\]; supports must be disjoint"):
        _noise(basis2_2, (0, 1), (1, 2), rng)
    with pytest.raises(NoiseError, match=r"modes \[1\]"):
        build_noise(basis2_2, [(1, np.ones(basis2_2.n_modes))],
                    [(1, np.ones(basis2_2.n_modes) * (basis2_2.k_sq <= 2))])


def test_orthogonality_empty_transport(basis2_2, rng):
    noise = _noise(basis2_2, (0, 1), (), rng)
    assert noise.transport.modes == () and noise.n_brownian == 2
