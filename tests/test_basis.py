import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from stochflow import basis as basis_mod
from stochflow.basis import (
    BasisError,
    _csr_product,
    build_basis,
    convection_tensor,
    default_grid,
    dissipation_matrix,
    evaluate_field,
    parse_label,
    project_field,
    velocity_gradient,
)

import oracles


# -- construction --------------------------------------------------------------


def test_cutoff1_mode_count(basis2_1):
    assert basis2_1.n_modes == 8
    waves = {tuple(int(c) for c in k) for k in basis2_1.wavevectors}
    assert waves == {(1, 0), (0, 1), (1, 1), (1, -1)}


def test_invalid_arguments_rejected():
    with pytest.raises(BasisError):
        build_basis(2, 0)
    with pytest.raises(BasisError):
        build_basis(4, 2)
    with pytest.raises(BasisError):
        build_basis(1, 1)


def test_mode_ordering_stable(basis2_2):
    again = build_basis(2, 2)
    assert np.array_equal(again.wavevectors, basis2_2.wavevectors)
    assert np.array_equal(again.mode_phase, basis2_2.mode_phase)
    assert [again.mode_label(i) for i in range(4)] == \
        [basis2_2.mode_label(i) for i in range(4)]


def test_polarization_counts():
    b3 = build_basis(3, 1)
    per_wave = b3.n_modes // len(b3.wavevectors)
    assert per_wave == 4  # 2 polarizations x 2 phases
    b2 = build_basis(2, 1)
    assert b2.n_modes // len(b2.wavevectors) == 2


@pytest.mark.parametrize("dim,cutoff", [(2, 1), (2, 2), (2, 5), (2, 8), (3, 1), (3, 2), (3, 4)])
def test_basis_tables_match_loop_oracle(dim, cutoff):
    b = build_basis(dim, cutoff)
    built = (b.wavevectors, b.pol_int, b.mode_wave, b.mode_pol, b.mode_phase)
    for got, expected in zip(built, oracles.basis_tables(dim, cutoff)):
        assert oracles.bit_equal(got, expected)


def test_k_sq_is_cached_and_read_only(basis2_2):
    ksq = basis2_2.k_sq
    assert ksq is basis2_2.k_sq
    assert oracles.bit_equal(ksq, np.sum(basis2_2.wavevectors ** 2, axis=1)[
        basis2_2.mode_wave].astype(np.float64))
    with pytest.raises(ValueError):
        ksq[0] = 0.0


@pytest.mark.parametrize("dim,cutoff", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2)])
def test_gram_identity(dim, cutoff):
    b = build_basis(dim, cutoff)
    gram = oracles.gram_matrix(b)
    assert np.abs(gram - np.eye(b.n_modes)).max() <= 1e-12


def test_divergence_free_exact(basis2_3):
    b3 = build_basis(3, 2)
    for b in (basis2_3, b3):
        kint = b.wavevectors[b.mode_wave]
        cint = b.pol_int[b.mode_wave, b.mode_pol]
        assert np.abs(np.einsum("nd,nd->n", kint, cint)).max() == 0


# -- convection tensor ------------------------------------------------------------


def test_convection_skew_bitwise(conv2_2):
    dense = conv2_2.to_dense()
    assert np.abs(dense + dense.transpose(0, 2, 1)).max() == 0.0


@pytest.mark.parametrize("dim,cutoff", [(2, 2), (2, 4), (3, 1), (3, 2)])
def test_scatter_equals_coo_built(dim, cutoff):
    conv = convection_tensor(build_basis(dim, cutoff))
    coo = sparse.csr_matrix((conv.values, (conv.j_idx, np.arange(conv.nnz))),
                            shape=(conv.n_modes, conv.nnz))
    s = conv.scatter()
    for name in ("indptr", "indices", "data"):
        assert oracles.bit_equal(getattr(s, name), getattr(coo, name))
    assert s.shape == coo.shape
    assert oracles.bit_equal(conv.frobenius, float(np.sqrt(np.sum(conv.values ** 2))))


def test_skew_pass_matches_union_lookup_oracle():
    gen = np.random.default_rng(11)
    n = 9
    keys = set(gen.choice(n ** 3, size=200, replace=False).tolist())
    values = {key: gen.normal() for key in keys}
    # give some entries their mirror: exactly opposite, equal (the skew part
    # is 0.0 and the pair is dropped) or unrelated
    for key in list(keys)[::3]:
        i, k, j = key // (n * n), key // n % n, key % n
        mirror = (i * n + j) * n + k
        if mirror not in keys:
            keys.add(mirror)
            values[mirror] = gen.choice([-values[key], values[key], gen.normal()])
    shuffled = gen.permutation(sorted(keys))
    i, k, j = shuffled // (n * n), shuffled // n % n, shuffled % n
    vals = np.array([values[key] for key in shuffled.tolist()])
    assert not np.isin((i * n + j) * n + k, shuffled).all()
    i_o, k_o, j_o, w_o, s_o = oracles.skew_entries(n, i, k, j, vals)
    got = basis_mod._skew_tensor(n, i, k, j, vals)
    s = got.scatter()
    for g, e in zip((got.i_idx, got.k_idx, got.j_idx, got.values, s.indptr, s.indices, s.data),
                    (i_o, k_o, j_o, w_o, s_o.indptr, s_o.indices, s_o.data)):
        assert oracles.bit_equal(g, e)
    assert s.shape == s_o.shape


def test_convection_energy_conservation(conv2_2, rng):
    for _ in range(100):
        a = rng.normal(size=conv2_2.n_modes)
        assert abs(a @ conv2_2.apply(a)) <= 1e-12 * np.linalg.norm(a) ** 3


@pytest.mark.parametrize("dim,cutoff", [(2, 1), (2, 2), (2, 3), (3, 1)],
                         ids=["1", "2", "3", "3d-1"])
def test_convection_matches_dense_quadrature(dim, cutoff):
    b = build_basis(dim, cutoff)
    conv = convection_tensor(b)
    dense = oracles.dense_convection(b)
    sparse_dense = conv.to_dense()
    assert np.abs(sparse_dense - dense).max() <= 1e-12


def test_non_stored_entries_vanish(basis2_2, conv2_2):
    dense = oracles.dense_convection(basis2_2)
    stored = np.zeros(dense.shape, dtype=bool)
    stored[conv2_2.i_idx, conv2_2.k_idx, conv2_2.j_idx] = True
    assert np.abs(dense[~stored]).max() <= 1e-12


def test_concrete_triad_value(basis2_2):
    conv = convection_tensor(basis2_2)
    i = basis2_2.index_of("1,0:cos")
    k = basis2_2.index_of("0,1:cos")
    j = basis2_2.index_of("1,1:sin")
    val = conv.to_dense()[i, k, j]
    assert val != 0.0
    assert abs(val - oracles.advection_integral(basis2_2, i, k, j)) <= 1e-12


def test_sparsity_count_matches_dense():
    counts, modes = [], []
    for cutoff in (1, 2, 3):
        b = build_basis(2, cutoff)
        conv = convection_tensor(b)
        dense = oracles.dense_convection(b)
        assert conv.nnz == int(np.sum(np.abs(dense) > 1e-12))
        counts.append(conv.nnz)
        modes.append(b.n_modes)
    # triad constraint keeps growth well below the dense N^3
    growth = np.log(counts[-1] / counts[0]) / np.log(modes[-1] / modes[0])
    assert growth < 2.5
    b3 = build_basis(3, 1)
    dense3 = oracles.dense_convection(b3)
    assert convection_tensor(b3).nnz == int(np.sum(np.abs(dense3) > 1e-12))


def test_bilinear_apply_against_dense(conv2_2, rng):
    dense = conv2_2.to_dense()
    batch = rng.normal(size=(5, conv2_2.n_modes))
    expected_b = np.einsum("ikj,mi,mk->mj", dense, batch, batch)
    assert np.abs(conv2_2.apply(batch) - expected_b).max() <= 1e-13


def test_apply_rejects_wrong_width(conv2_2):
    # (2N, N - 1) has as many entries as (2N - 2, N): without the check the
    # kernel reads it as 2N - 2 states of N modes and reshapes the result back
    n = conv2_2.n_modes
    for shape in ((2 * n, n - 1), (n - 1,)):
        with pytest.raises(ValueError, match="state has shape"):
            conv2_2.apply(np.ones(shape))


@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(0, 9), cols=st.integers(0, 9),
       width=st.sampled_from([1, 2, 3, 17]), density=st.floats(0.0, 1.0),
       special=st.booleans())
@settings(max_examples=80, deadline=None)
def test_csr_product_is_public_product(seed, rows, cols, width, density, special):
    # the kernel and the time loop call scipy's csr_matvec(s) directly; they
    # must stay bitwise `op @ x`, empty rows and NaN/Inf entries included
    gen = np.random.default_rng(seed)
    dense = gen.normal(size=(rows, cols)) * (gen.random((rows, cols)) < density)
    x = gen.normal(size=(cols, width)) * 10.0 ** gen.integers(-8, 8, size=(cols, 1))
    if special:
        for arr in (dense, x):
            hit = gen.random(arr.shape) < 0.2
            arr[hit] = gen.choice([np.nan, np.inf, -np.inf], size=int(hit.sum()))
    op = sparse.csr_matrix(dense)
    expect = op @ x
    assert oracles.bit_equal(_csr_product(op, x), expect)
    out = np.full((rows, width), 7.0)
    assert _csr_product(op, x, out) is out
    assert oracles.bit_equal(out, expect)


def test_csr_product_refuses_mismatched_arrays():
    # the routines take raw buffers, so a wrong size would read or write past them
    op = sparse.csr_matrix(np.arange(6.0).reshape(2, 3))
    with pytest.raises(ValueError, match="columns"):
        _csr_product(op, np.ones((2, 4)))
    for out in (np.zeros((3, 4)), np.zeros((2, 4), dtype=np.float32), np.zeros((4, 2)).T):
        with pytest.raises(ValueError, match="out must be"):
            _csr_product(op, np.ones((3, 4)), out)


# -- dissipation matrix ------------------------------------------------------------


def test_dissipation_zero(basis2_2):
    assert np.abs(dissipation_matrix(basis2_2, 0.0)).max() == 0.0


def test_dissipation_stokes_eigenvalues(basis2_2):
    D = dissipation_matrix(basis2_2, 1.0)
    i10 = basis2_2.index_of("1,0:cos")
    i11 = basis2_2.index_of("1,1:cos")
    assert D[i10, i10] == 1.0
    assert D[i11, i11] == 2.0
    assert np.abs(D - np.diag(np.diag(D))).max() == 0.0


def test_dissipation_with_transport_correction(basis2_2, rng):
    from stochflow.noise import build_noise

    field = np.zeros(basis2_2.n_modes)
    field[basis2_2.index_of("1,0:cos")] = 0.7
    noise = build_noise(basis2_2, transport_fields=[(0, field)])
    D = dissipation_matrix(basis2_2, 0.3, noise.transport.correction())
    zeta = noise.transport.zeta[0]
    dense_corr = 0.5 * (zeta.T @ zeta)
    expected = 0.3 * np.diag(basis2_2.k_sq) + dense_corr
    assert np.abs(D - expected).max() <= 1e-13
    assert np.abs(D - D.T).max() == 0.0
    assert np.linalg.eigvalsh(D).min() >= -1e-13


def test_dissipation_rejects_negative_nu(basis2_2):
    for nu in (-0.1, np.nan, np.inf):
        with pytest.raises(BasisError):
            dissipation_matrix(basis2_2, nu)


# -- grid projection ------------------------------------------------------------


def test_project_field_recovers_unit_mode(basis2_2):
    n = default_grid(basis2_2.cutoff)
    e3 = np.zeros(basis2_2.n_modes)
    e3[3] = 1.0
    samples = evaluate_field(basis2_2, e3, n)
    out = project_field(basis2_2, samples, n)
    assert np.abs(out - e3).max() <= 1e-13


def test_project_field_zero(basis2_2):
    n = default_grid(basis2_2.cutoff)
    samples = np.zeros((n * n, 2))
    assert np.abs(project_field(basis2_2, samples, n)).max() == 0.0


def test_project_field_round_trip(basis2_2, rng):
    n = default_grid(basis2_2.cutoff)
    a = rng.normal(size=basis2_2.n_modes)
    out = project_field(basis2_2, evaluate_field(basis2_2, a, n), n)
    assert np.abs(out - a).max() <= 1e-12


def test_grid_transforms_take_batch_axes(rng):
    # a batch maps as its rows one by one, bit for bit
    for basis in (build_basis(2, 2), build_basis(3, 1)):
        n = default_grid(basis.cutoff)
        a = rng.normal(size=(2, 3, basis.n_modes))
        fields = evaluate_field(basis, a, n)
        grads = velocity_gradient(basis, a, n)
        coeffs = project_field(basis, fields, n)
        assert fields.shape == (2, 3, n ** basis.dim, basis.dim)
        assert grads.shape == (2, 3, n ** basis.dim, basis.dim, basis.dim)
        assert coeffs.shape == a.shape
        for idx in np.ndindex(2, 3):
            assert oracles.bit_equal(fields[idx], evaluate_field(basis, a[idx], n))
            assert oracles.bit_equal(grads[idx], velocity_gradient(basis, a[idx], n))
            assert oracles.bit_equal(coeffs[idx], project_field(basis, fields[idx], n))
        assert np.abs(coeffs - a).max() <= 1e-12


GRADIENT_CASES = [(2, 2), (2, 4), (3, 1), (3, 2)]


@pytest.mark.parametrize("dim,cutoff", GRADIENT_CASES)
def test_base_grid_gradients_are_refined_samples(dim, cutoff):
    # the base grid's points are every other point of the 2x grid, and the
    # blocked transform gives them the same bits on both grids
    b = build_basis(dim, cutoff)
    n = default_grid(cutoff)
    a = np.random.default_rng(dim * 10 + cutoff).normal(size=(5, b.n_modes)) / (1.0 + b.k_sq)
    fine = velocity_gradient(b, a, 2 * n).reshape((5,) + (2 * n,) * dim + (dim, dim))
    every_other = fine[(slice(None),) + (slice(None, None, 2),) * dim]
    assert oracles.bit_equal(every_other.reshape(5, n ** dim, dim, dim),
                             velocity_gradient(b, a, n))


@pytest.mark.parametrize("dim,cutoff", GRADIENT_CASES)
def test_gradient_rows_match_single_row_calls(dim, cutoff):
    # one BLAS product per block of B rows, the last one zero-padded: a row's
    # bits do not depend on the batch it is in
    b = build_basis(dim, cutoff)
    n = 2 * default_grid(cutoff)
    B = basis_mod._gradient_block_rows(b, n)
    a = np.random.default_rng(cutoff).normal(size=(B + 1, b.n_modes)) / (1.0 + b.k_sq)
    single = [velocity_gradient(b, a[t], n) for t in range(B + 1)]
    for T in (1, B - 1, B, B + 1):
        grads = velocity_gradient(b, a[:T], n)
        for t in range(T):
            assert oracles.bit_equal(grads[t], single[t]), (T, t)


def test_velocity_gradient_out_layout(basis2_2, rng):
    n = default_grid(basis2_2.cutoff)
    a = rng.normal(size=(3, basis2_2.n_modes))
    work = np.empty((3, 2, 2, n * n)).transpose(0, 3, 1, 2)
    got = velocity_gradient(basis2_2, a, n, out=work)
    assert np.shares_memory(got, work)
    assert oracles.bit_equal(work, velocity_gradient(basis2_2, a, n))
    with pytest.raises(BasisError):
        velocity_gradient(basis2_2, a, n, out=np.empty((3, n * n, 2, 2)))
    with pytest.raises(BasisError):
        velocity_gradient(basis2_2, a[:, 1:], n)


def test_project_field_rejects_underresolved(basis2_2):
    n = default_grid(basis2_2.cutoff) - 1
    with pytest.raises(BasisError):
        project_field(basis2_2, np.zeros((n * n, 2)), n)


# -- labels ------------------------------------------------------------------------


def _near(label: str) -> set[str]:
    """Strings one edit away from a mode label: signs, padding, spaces, k, p, phase."""
    head, *rest = label.split(":")
    k = head.split(",")
    out = {"+" + label, " " + label, label + " ", label.upper(), label.replace(",", ", "),
           label.replace(":", ": "), head, ":".join([head] + rest[:-1]),
           ":".join([",".join(str(-int(c)) for c in k)] + rest)}
    for pos, c in enumerate(k):
        for new in (str(-int(c)), "+" + c, "0" + c, " " + c, c + " ", str(int(c) + 1),
                    str(int(c) - 1), "1_0", "\u0661"):
            out.add(":".join([",".join(k[:pos] + [new] + k[pos + 1:])] + rest))
    out |= {":".join([head] + rest[:-1] + [ph]) for ph in ("sin", "cos", "tan", "Cos", "")}
    if len(rest) == 2:
        out |= {":".join([head, p, rest[1]])
                for p in ("p0", "p1", "p2", "p-1", "p00", "p+1", "P0", "0", "p")}
    else:
        out |= {":".join([head, p, rest[0]]) for p in ("p0", "p1")}
    return out


def test_label_round_trip():
    # parse_label accepts exactly the strings of a label table built with
    # mode_label, and index_of maps each to its mode
    for dim, cutoff in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        basis = build_basis(dim, cutoff)
        table = {basis.mode_label(i): i for i in range(basis.n_modes)}
        for label, i in table.items():
            assert basis.index_of(label) == i
        wider = build_basis(dim, cutoff + 1)
        other = build_basis(5 - dim, cutoff)
        candidates = set().union(*map(_near, table))
        candidates |= {b.mode_label(i) for b in (wider, other) for i in range(b.n_modes)}
        assert len(candidates - table.keys()) > len(table)
        for s in candidates:
            if s in table:
                i = table[s]
                assert parse_label(s, dim, cutoff) == (
                    tuple(basis.mode_k(i)), basis.mode_pol[i], basis.mode_phase[i])
            else:
                with pytest.raises(BasisError, match="unknown mode label"):
                    parse_label(s, dim, cutoff)
    with pytest.raises(BasisError):
        basis.index_of("9,9,9:p0:cos")


def test_embedding(basis2_2, basis2_3):
    # the map a label table built with mode_label gives
    for coarse, fine in ((basis2_2, basis2_3), (build_basis(2, 1), basis2_3),
                         (build_basis(3, 1), build_basis(3, 2))):
        table = {fine.mode_label(j): j for j in range(fine.n_modes)}
        emb = coarse.embedding_into(fine)
        assert emb.dtype == np.int64
        assert emb.tolist() == [table[coarse.mode_label(i)] for i in range(coarse.n_modes)]
    with pytest.raises(BasisError):
        basis2_3.embedding_into(basis2_2)
