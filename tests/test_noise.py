import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochflow.basis import build_basis
from stochflow.noise import (
    NoiseError,
    NoiseSpec,
    assemble_eta,
    assemble_zeta,
    build_noise,
    check_orthogonality,
    hs_norm,
)

import oracles


def test_empty_eta(basis2_2):
    add = assemble_eta(basis2_2, [])
    assert add.eta.shape == (basis2_2.n_modes, 0)
    assert hs_norm(add) == 0.0


def test_single_entry_hs_norm(basis2_2):
    vec = np.zeros(basis2_2.n_modes)
    vec[1] = 0.5
    add = assemble_eta(basis2_2, [(0, vec)])
    assert hs_norm(add) == 0.25


def test_two_columns_match_frobenius(basis2_2, rng):
    import math

    v1 = rng.normal(size=basis2_2.n_modes)
    v2 = rng.normal(size=basis2_2.n_modes)
    add = assemble_eta(basis2_2, [(0, v1), (2, v2)], n_brownian=3)
    assert add.eta.shape == (basis2_2.n_modes, 3)
    assert np.array_equal(add.eta[:, 1], np.zeros(basis2_2.n_modes))
    naive = math.fsum(add.eta[j, l] ** 2
                      for j in range(basis2_2.n_modes) for l in range(3))
    assert abs(hs_norm(add) - naive) <= 1e-15 * naive


def test_eta_mode_out_of_range(basis2_2):
    with pytest.raises(NoiseError):
        assemble_eta(basis2_2, [(5, np.zeros(basis2_2.n_modes))], n_brownian=2)
    with pytest.raises(NoiseError):
        assemble_eta(basis2_2, [(0, np.zeros(3))])


@given(perm_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_hs_norm_reordering_invariant(perm_seed):
    b = build_basis(2, 1)
    gen = np.random.default_rng(7)
    add = assemble_eta(b, [(0, gen.normal(size=b.n_modes)),
                           (1, gen.normal(size=b.n_modes))])
    perm = np.random.default_rng(perm_seed).permutation(b.n_modes)
    reordered = float(np.sum(add.eta[perm] ** 2))
    assert abs(reordered - hs_norm(add)) <= 1e-15 * hs_norm(add)


# -- transport -------------------------------------------------------------------


def test_zero_transport(basis2_2):
    tr = assemble_zeta(basis2_2, [])
    assert tr.zeta.shape == (0, basis2_2.n_modes, basis2_2.n_modes)
    assert np.abs(tr.correction()).max() == 0.0


def test_zeta_skew_bitwise(basis2_2, rng):
    field = rng.normal(size=basis2_2.n_modes) * (basis2_2.k_sq <= 2)
    tr = assemble_zeta(basis2_2, [(0, field)])
    z = tr.zeta[0]
    assert np.abs(z + z.T).max() == 0.0


def test_zeta_entry_matches_quadrature(basis2_2):
    field = np.zeros(basis2_2.n_modes)
    m = basis2_2.index_of("1,0:cos")
    field[m] = 1.0
    tr = assemble_zeta(basis2_2, [(0, field)])
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
        tr = assemble_zeta(basis, [(0, field)], assembly_basis=assembly)
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
        assemble_zeta(basis2_2, [(0, np.zeros(basis2_2.n_modes + 1))])


def test_zeta_larger_assembly_cutoff(basis2_1):
    fine = build_basis(2, 2)
    field = np.zeros(fine.n_modes)
    field[fine.index_of("2,1:cos")] = 1.0  # outside the coarse cutoff
    tr = assemble_zeta(basis2_1, [(0, field)], assembly_basis=fine)
    z = tr.zeta[0]
    assert np.abs(z + z.T).max() == 0.0
    i = basis2_1.index_of("1,1:sin")
    j = basis2_1.index_of("1,0:cos")  # (2,1) - (1,1) = (1,0): a valid triad
    assert z[j, i] != 0.0


# -- Ito correction -------------------------------------------------------------


def test_correction_psd(basis2_2, rng):
    field = rng.normal(size=basis2_2.n_modes) * (basis2_2.k_sq <= 2)
    tr = assemble_zeta(basis2_2, [(0, field)])
    corr = tr.correction()
    assert np.abs(corr - corr.T).max() == 0.0
    assert np.linalg.eigvalsh(corr).min() >= -1e-13


def test_correction_quadratic_identity(basis2_2, rng):
    fields = [(0, rng.normal(size=basis2_2.n_modes) * (basis2_2.k_sq <= 2)),
              (1, rng.normal(size=basis2_2.n_modes) * (basis2_2.k_sq <= 1))]
    tr = assemble_zeta(basis2_2, fields)
    corr = tr.correction()
    for _ in range(20):
        a = rng.normal(size=basis2_2.n_modes)
        direct = 0.5 * sum(np.linalg.norm(tr.zeta[s] @ a) ** 2
                           for s in range(tr.zeta.shape[0]))
        assert abs(a @ corr @ a - direct) <= 1e-13 * max(1.0, direct)


# -- orthogonality ---------------------------------------------------------------


def _spec(basis, add_modes, trans_modes, rng):
    # assembled directly: build_noise rejects overlapping supports
    sig1 = [(l, rng.normal(size=basis.n_modes)) for l in add_modes]
    low = basis.k_sq <= 2
    sig2 = [(l, rng.normal(size=basis.n_modes) * low) for l in trans_modes]
    K = max((*add_modes, *trans_modes), default=-1) + 1
    return NoiseSpec(additive=assemble_eta(basis, sig1, n_brownian=K),
                     transport=assemble_zeta(basis, sig2), n_brownian=K)


def test_orthogonality_disjoint(basis2_2, rng):
    ok, overlap = check_orthogonality(_spec(basis2_2, (0, 1), (2, 3), rng))
    assert ok and not overlap


def test_orthogonality_overlap_named(basis2_2, rng):
    ok, overlap = check_orthogonality(_spec(basis2_2, (0, 1), (1, 2), rng))
    assert not ok
    assert overlap == {1}
    with pytest.raises(NoiseError, match="1"):
        _spec_modes = [(1, np.ones(basis2_2.n_modes))]
        build_noise(basis2_2, _spec_modes,
                    [(1, np.ones(basis2_2.n_modes) * (basis2_2.k_sq <= 2))])


def test_orthogonality_empty_transport(basis2_2, rng):
    ok, overlap = check_orthogonality(_spec(basis2_2, (0, 1), (), rng))
    assert ok
