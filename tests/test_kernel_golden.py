"""Bitwise pins of the convection kernel B(a, a) = ConvectionTensor.apply.

Each digest is the SHA-256 of the little-endian bytes of one `apply` output,
recorded from the kernel that gathers the full (rows, nnz) product and sums
it with one sparse product over all output modes.  The pins hold any later
layout, blocking or batching of the kernel to those bits exactly: every
output entry must be summed over the same tensor entries in the same order.
The kernel once had a second, ordered-pair product B(a, c); its pins went
with it, and the 13 pins here kept their bits through its removal.
"""

import functools
import hashlib
import sys
import threading

import numpy as np
import pytest

from stochflow.basis import _APPLY_WORKSPACE, build_basis, convection_tensor

import oracles

SIZES = ((2, 2), (2, 4), (3, 1))


@functools.cache
def conv_of(dim, cutoff):
    return convection_tensor(build_basis(dim, cutoff))


def _digest(arr):
    arr = np.asarray(arr)
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes()
    ).hexdigest()


def kernel_case(dim, cutoff, rows):
    """`apply` output of one case; a single row is passed as a 1-D state."""
    conv = conv_of(dim, cutoff)
    n = conv.n_modes
    # the trailing 0 is the case index the pins were recorded with
    gen = np.random.default_rng([dim, cutoff, rows, 0])
    return conv.apply(gen.normal(size=(n,) if rows == 1 else (rows, n)))


# (dim, cutoff, rows, case) -> digest of the float64 output
KERNEL = {
    (2, 2, 1, "aa"): "9222118e30f406498abd957c608f9f3d55aa7915ab472bd7ff1d93b4f9a65b67",
    (2, 2, 5, "aa"): "c4343c1c2bd85728d757e5475bcdd38d3a3714972895f282b56a3490d6afe3cc",
    (2, 2, 1024, "aa"): "b38fe49a7fc98cfa9bc0a5c0902bc116c2e47709faad256ff92a4eb8e7b7c7ec",
    (2, 4, 1, "aa"): "a5aa7f6128e260f66e3f1a32eb4dcfbac98ad8b29ee77df09f2e288ae00984af",
    (2, 4, 5, "aa"): "cf37275b94e4f41d6875fd9e64bdc77ab856569c780305dee1d2d7999567f350",
    (2, 4, 1024, "aa"): "49ecbaf2a8347b6885771228e9ec4e46aa0d72d761dbda981e14118fa205e232",
    (3, 1, 1, "aa"): "4a33373a746bb6378c6fb1c0da93149a3697f372714baad82c34742499bb1a29",
    (3, 1, 5, "aa"): "563e630183d0ce009d519df0eb211a92bf2124130915a94a0568d26a6b60c8f6",
    (3, 1, 1024, "aa"): "dd8c7a1e90eb113bcfa2e3ea3e66dac3673692f94eba8d45cbc60c47ff077539",
    # the batch widths the benchmark workloads run (at 32 rows the 3-D c=1
    # kernel splits into two row blocks)
    (2, 4, 32, "aa"): "5a4cb4d48dc1656ad5235eeccb849f09ff750b58b7fcf17a29dbb633995fd6b1",
    (2, 4, 64, "aa"): "db9b1cfc4687291471d8fba7a3681f3c5171e43445afc3c9e33c70cf61d5fc54",
    (3, 1, 32, "aa"): "5c9c724f3c4ce4ac28a9c4b6e155abd6ff114cc4e22587b3863963ca8fed7919",
    (3, 1, 64, "aa"): "b5bc39f2e1662a8d8ea9d0e3f45b61060c5af5edb6708be7fa231c8467e80893",
}


@pytest.mark.parametrize("dim,cutoff,rows,case", sorted(KERNEL))
def test_apply_bitwise(dim, cutoff, rows, case):
    out = kernel_case(dim, cutoff, rows)
    assert out.dtype == np.float64
    assert out.shape == (() if rows == 1 else (rows,)) + (conv_of(dim, cutoff).n_modes,)
    assert _digest(out) == KERNEL[(dim, cutoff, rows, case)]


# row counts on both sides of several workspace block sizes
@pytest.mark.parametrize("dim,cutoff", [(2, 4), (3, 1)])
def test_apply_batch_invariant(dim, cutoff):
    conv = conv_of(dim, cutoff)
    gen = np.random.default_rng(7)
    for rows in (2, 17, 33, 257, 1500):
        a = gen.normal(size=(rows, conv.n_modes))
        batch = conv.apply(a)
        for r in range(rows):
            assert oracles.bit_equal(batch[r], conv.apply(a[r])), (rows, r)


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


@pytest.mark.parametrize("dim,cutoff", SIZES)
@pytest.mark.parametrize("rows", [1, 32, 64, 1024, 3200, (1 << 16) + 1])
def test_symmetric_partition_gathers_distinct_pairs(dim, cutoff, rows):
    conv = conv_of(dim, cutoff)
    n = conv.n_modes
    width, blocks = conv._row_blocks(rows)
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
    # the (2, width, rows) workspace `_apply_members` allocates keeps its bound
    assert 2 * width * rows <= 2 * _APPLY_WORKSPACE + rows * conv.workspace_per_row
    if (dim, cutoff, rows) == (2, 4, 1024):
        assert (gathered, len(blocks)) == (3310, 68)


# B(a, a) of each row depends on that row alone, also when the rows beside
# it hold NaN, infinities or zeros; only NaN payloads go unchecked
@pytest.mark.parametrize("dim,cutoff", SIZES)
def test_symmetric_pairs_non_finite(dim, cutoff):
    conv = conv_of(dim, cutoff)
    gen = np.random.default_rng(5)
    a = gen.normal(size=(64, conv.n_modes))
    a.flat[gen.choice(a.size, size=40, replace=False)] = np.nan
    a.flat[gen.choice(a.size, size=20, replace=False)] = np.inf
    a.flat[gen.choice(a.size, size=20, replace=False)] = -np.inf
    a.flat[gen.choice(a.size, size=20, replace=False)] = 0.0
    finite = np.isfinite(a).all(axis=1)
    assert finite.any() and (~finite).any()
    with np.errstate(invalid="ignore"):
        batch = conv.apply(a)
        alone = np.array([conv.apply(row) for row in a])
    nan = np.isnan(batch)
    assert nan[~finite].any() and not nan[finite].any()
    assert oracles.bit_equal(nan, np.isnan(alone))
    assert oracles.bit_equal(batch[~nan], alone[~nan])
