"""Bitwise pins of the convection kernel B(a, c) = ConvectionTensor.apply.

Each digest is the SHA-256 of the little-endian bytes of one `apply` output,
recorded from the kernel that gathers the full (rows, nnz) product and sums
it with one sparse product over all output modes.  The pins hold any later
layout, blocking or batching of the kernel to those bits exactly: every
output entry must be summed over the same tensor entries in the same order.
"""

import functools
import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochflow.basis import _APPLY_WORKSPACE, build_basis, convection_tensor

import oracles

SIZES = ((2, 2), (2, 4), (3, 1))
ROWS = (1, 5, 1024)
# leading shape (t, M) of the time-series case for each row count
SERIES = {1: (1, 1), 5: (5, 1), 32: (4, 8), 64: (8, 8), 1024: (8, 128)}
CASES = ("aa", "ac", "series", "gap")


@functools.cache
def conv_of(dim, cutoff):
    return convection_tensor(build_basis(dim, cutoff))


def _digest(arr):
    arr = np.asarray(arr)
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes()
    ).hexdigest()


def kernel_case(dim, cutoff, rows, case):
    """`apply` output of one case; a single row is passed as a 1-D state."""
    conv = conv_of(dim, cutoff)
    n = conv.n_modes
    gen = np.random.default_rng([dim, cutoff, rows, CASES.index(case)])
    if case == "series":
        # as dissipative_weak_residual calls it: states (t, M, N), c a
        # broadcast test function
        a = gen.normal(size=SERIES[rows] + (n,))
        phi = gen.normal(size=n)
        return conv.apply(a, np.broadcast_to(phi, a.shape))
    if case == "gap":
        # as energy_variational_gap calls it: states (T, N) against a test
        # process phi0 + int A dt sampled on the same grid
        a = gen.normal(size=(rows, n))
        phi = gen.normal(size=n) + np.cumsum(gen.normal(scale=0.05, size=(rows, n)), axis=0)
        return conv.apply(a, phi)
    shape = (n,) if rows == 1 else (rows, n)
    a = gen.normal(size=shape)
    if case == "aa":
        return conv.apply(a)
    return conv.apply(a, gen.normal(size=shape))


# (dim, cutoff, rows, case) -> digest of the float64 output
KERNEL = {
    (2, 2, 1, "aa"): "9222118e30f406498abd957c608f9f3d55aa7915ab472bd7ff1d93b4f9a65b67",
    (2, 2, 1, "ac"): "1d0cfb096791e550eeb346ffdfbc28149ee438ae4429e0c873867068e1cd1669",
    (2, 2, 1, "series"): "fbbbd25a1a39460e1736171c63ace7bb984c0548e95d28494d84cc97d57a4879",
    (2, 2, 5, "aa"): "c4343c1c2bd85728d757e5475bcdd38d3a3714972895f282b56a3490d6afe3cc",
    (2, 2, 5, "ac"): "24514c9b00f70462495e33ef0d6ef8c92d6b6bdc9435349121bc9761f42312b6",
    (2, 2, 5, "series"): "ad8ff3d16f5296814ac2bb2fa0f21170a69dd32e055d8d3e89a68187def7595f",
    (2, 2, 1024, "aa"): "b38fe49a7fc98cfa9bc0a5c0902bc116c2e47709faad256ff92a4eb8e7b7c7ec",
    (2, 2, 1024, "ac"): "7f6f7b28a769219b3cf3eebc845bb522cdf4ed8300691afbf2b17f44547eb017",
    (2, 2, 1024, "series"): "268d7d68a3491c3c3a0173435680fa93e8e401a30a2cce08324b7a69026aa171",
    (2, 4, 1, "aa"): "a5aa7f6128e260f66e3f1a32eb4dcfbac98ad8b29ee77df09f2e288ae00984af",
    (2, 4, 1, "ac"): "55ae62128b7d18c17385d5a9b0ca4135f078c81afd9b2a7db1cc33bbc17ab777",
    (2, 4, 1, "series"): "8175693bf52d8324aa76b93fb0172878fde331376431d3612378c993c5fd6eca",
    (2, 4, 5, "aa"): "cf37275b94e4f41d6875fd9e64bdc77ab856569c780305dee1d2d7999567f350",
    (2, 4, 5, "ac"): "a8cccb2e00b2a624b980a0aff5033e8c258c2cb772702295f8656eb8c338c2ef",
    (2, 4, 5, "series"): "0febe463be2c73afc22310ac5b90139210581dfccdaf0ffb973821e9bfb91ce3",
    (2, 4, 1024, "aa"): "49ecbaf2a8347b6885771228e9ec4e46aa0d72d761dbda981e14118fa205e232",
    (2, 4, 1024, "ac"): "358b7f0f2784fc19bb8d4039e6d9a89eabe8879128f993208bd9bf59061b7e03",
    (2, 4, 1024, "series"): "cf65678d734128a06d0768ca1ff57ab819181cf3a0f91f7d45242ff22d746423",
    (3, 1, 1, "aa"): "4a33373a746bb6378c6fb1c0da93149a3697f372714baad82c34742499bb1a29",
    (3, 1, 1, "ac"): "cb0b88d1b275f5d2df89dfa0a2d2d924747d527b1341d1871679505aa15f7158",
    (3, 1, 1, "series"): "be68b78271635c4193b59cbfb9613501a6e4a2af13f1c528003dd5d7f95c39e0",
    (3, 1, 5, "aa"): "563e630183d0ce009d519df0eb211a92bf2124130915a94a0568d26a6b60c8f6",
    (3, 1, 5, "ac"): "68c9eaa1008bea4e5f1233f7e4c5e9828dca9063beb07aef5ad68004d9279615",
    (3, 1, 5, "series"): "9221b8ff3c370de6e25a49b0a7546ef2e7f02d841b905c52be0378b3c673bc76",
    (3, 1, 1024, "aa"): "dd8c7a1e90eb113bcfa2e3ea3e66dac3673692f94eba8d45cbc60c47ff077539",
    (3, 1, 1024, "ac"): "cda9bba511516bc26a7f6c2f302232196c3f6fc61229f28f379a55c8fe20241f",
    (3, 1, 1024, "series"): "fd84e71f86c861269f33c79cdeb30db01ba0c4558f4efbcc88152a19056d0abd",
    # the batch widths the benchmark workloads run (at 32 rows the 3-D c=1
    # kernel splits into two row blocks) and the gap battery's (T, N) shape
    (2, 4, 32, "aa"): "5a4cb4d48dc1656ad5235eeccb849f09ff750b58b7fcf17a29dbb633995fd6b1",
    (2, 4, 32, "ac"): "2ab8f0f1233c81acf123ef52446475dbe4ca70e3560f05fcab5a262000ead5e9",
    (2, 4, 32, "series"): "247a33f27d1cb71da123f6a0c54e7e08db90d0f3cd3569dfea9e65ee8c4ccdea",
    (2, 4, 64, "aa"): "db9b1cfc4687291471d8fba7a3681f3c5171e43445afc3c9e33c70cf61d5fc54",
    (2, 4, 64, "ac"): "5ed3ea32bcaed4018cfabf8f5bc0c1b6a4b7d321948a0f86e05eca6599c813d4",
    (2, 4, 64, "series"): "2db67e59914c31c03e90f4b59bd189476c14a924791cd2771e07aae4ee447258",
    (2, 4, 500, "gap"): "f54a3917def978d4ef52c25756d3e3c61086566df26cb9bd84e05dadc790dae2",
    (3, 1, 32, "aa"): "5c9c724f3c4ce4ac28a9c4b6e155abd6ff114cc4e22587b3863963ca8fed7919",
    (3, 1, 32, "ac"): "d7b36b66e65e4b4eff67abd6e598f70a1790039c9078d9a4eb0bfbb24ce60f66",
    (3, 1, 32, "series"): "da5b6b6075c1e7bf32738dd0fbf3fd5dfb2f6c446c36a55bb2bd88058771fdb6",
    (3, 1, 64, "aa"): "b5bc39f2e1662a8d8ea9d0e3f45b61060c5af5edb6708be7fa231c8467e80893",
    (3, 1, 64, "ac"): "373880b3f3c5230ee26278a0688ce58e516f0d993337ab4381b8ebed101d165b",
    (3, 1, 64, "series"): "4bbc29aae347a81c82153b8ada088d5033b06045b0ec8ffb3dff23cbd6271049",
    (3, 1, 500, "gap"): "3eb5f4af9cbc8a291c5bae2d9e4310730295fbc83b5feb91ce83f7ed42bd0754",
}


@pytest.mark.parametrize("dim,cutoff,rows,case", sorted(KERNEL))
def test_apply_bitwise(dim, cutoff, rows, case):
    out = kernel_case(dim, cutoff, rows, case)
    assert out.dtype == np.float64
    lead = SERIES[rows] if case == "series" else (() if rows == 1 else (rows,))
    assert out.shape == lead + (conv_of(dim, cutoff).n_modes,)
    assert _digest(out) == KERNEL[(dim, cutoff, rows, case)]


# row counts on both sides of several workspace block sizes
@pytest.mark.parametrize("dim,cutoff", [(2, 4), (3, 1)])
def test_apply_batch_invariant(dim, cutoff):
    conv = conv_of(dim, cutoff)
    gen = np.random.default_rng(7)
    for rows in (2, 17, 33, 257, 1500):
        a = gen.normal(size=(rows, conv.n_modes))
        c = gen.normal(size=(rows, conv.n_modes))
        for batch, single in ((conv.apply(a), lambda r: conv.apply(a[r])),
                              (conv.apply(a, c), lambda r: conv.apply(a[r], c[r]))):
            for r in range(rows):
                assert oracles.bit_equal(batch[r], single(r)), (rows, r)


# threads share one tensor, including its first-use partition cache; more
# threads than cores and a short switch interval interleave their blocks
@pytest.mark.parametrize("dim,cutoff", [(2, 4), (3, 1)])
def test_apply_shared_across_threads(dim, cutoff):
    conv = convection_tensor(build_basis(dim, cutoff))
    gen = np.random.default_rng(11)
    n_threads = 4
    inputs = [[gen.normal(size=(rows, conv.n_modes)) for rows in (32, 1024, 32, 1024)]
              for _ in range(n_threads)]
    serial = [[conv_of(dim, cutoff).apply(a) for a in seq] for seq in inputs]
    results = [None] * n_threads
    start = threading.Barrier(n_threads)

    def work(t):
        start.wait(timeout=60)
        results[t] = [conv.apply(a) for a in inputs[t]]

    threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for t in range(n_threads):
        for got, want in zip(results[t], serial[t]):
            assert oracles.bit_equal(got, want)


# B(a, a) gathers one product per unordered pair {i, k}, B(a, c) one per
# ordered pair; fl(a_i a_k) = fl(a_k a_i), so the two partitions agree bitwise
@given(size=st.sampled_from(SIZES), rows=st.integers(1, 2100), seed=st.integers(0, 2 ** 32))
@settings(max_examples=30, deadline=None)
def test_symmetric_pairs_match_general_partition(size, rows, seed):
    conv = conv_of(*size)
    a = np.random.default_rng(seed).normal(size=(rows, conv.n_modes))
    assert oracles.bit_equal(conv.apply(a), conv.apply(a, a.copy()))


@pytest.mark.parametrize("dim,cutoff", SIZES)
@pytest.mark.parametrize("rows", [1, 32, 64, 1024])
def test_symmetric_partition_gathers_distinct_pairs(dim, cutoff, rows):
    conv = conv_of(dim, cutoff)
    n = conv.n_modes
    width, blocks = conv._row_blocks(rows, True)
    cap = max(1, _APPLY_WORKSPACE // (1 << (rows - 1).bit_length()))
    assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
    assert blocks[-1][1] == n

    def pairs(j0, j1):
        inside = (conv.j_idx >= j0) & (conv.j_idx < j1)
        lo, hi = np.minimum(conv.i_idx, conv.k_idx), np.maximum(conv.i_idx, conv.k_idx)
        return set(zip(lo[inside].tolist(), hi[inside].tolist()))

    gathered = 0
    for j0, j1, i_idx, k_idx, _ in blocks:
        want = pairs(j0, j1)
        assert set(zip(i_idx.tolist(), k_idx.tolist())) == want
        assert i_idx.size == len(want) <= width
        # a block fills the workspace unless it is one row, and stops only
        # where the next row would overflow it
        assert len(want) <= cap or j1 - j0 == 1
        assert j1 == n or len(pairs(j0, j1 + 1)) > cap
        gathered += i_idx.size
    assert width == max(b[2].size for b in blocks)
    if (dim, cutoff, rows) == (2, 4, 1024):
        assert (gathered, len(blocks)) == (3310, 68)


# with non-finite input the NaNs sit where the general path puts them; only
# their payloads may differ, since a product of two NaNs keeps one operand's
@pytest.mark.parametrize("dim,cutoff", SIZES)
def test_symmetric_pairs_non_finite(dim, cutoff):
    conv = conv_of(dim, cutoff)
    gen = np.random.default_rng(5)
    a = gen.normal(size=(64, conv.n_modes))
    a.flat[gen.choice(a.size, size=40, replace=False)] = np.nan
    a.flat[gen.choice(a.size, size=20, replace=False)] = np.inf
    a.flat[gen.choice(a.size, size=20, replace=False)] = -np.inf
    a.flat[gen.choice(a.size, size=20, replace=False)] = 0.0
    with np.errstate(invalid="ignore"):
        sym, gen_path = conv.apply(a), conv.apply(a, a.copy())
    nan = np.isnan(sym)
    assert nan.any() and (~nan).any()
    assert oracles.bit_equal(nan, np.isnan(gen_path))
    assert oracles.bit_equal(sym[~nan], gen_path[~nan])
