"""Bitwise pins of the assembled Galerkin structure.

Each digest is the SHA-256 of the little-endian bytes of the stored arrays,
recorded once from the per-entry closed-form assembly (a Python loop over
index triples evaluating a complex-exponential expansion per entry).  The
pins hold any later assembly to those bits exactly: a changed triad set, a
changed storage order or a single differently rounded value fails here.
"""

import hashlib

import numpy as np
import pytest

from stochflow.basis import build_basis, convection_tensor
from stochflow.noise import build_noise


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


# (dim, cutoff) -> (nnz, digest of i_idx, k_idx, j_idx, values)
CONVECTION = {
    (2, 2): (448, "feeaf7d5335798a1d1ee0bb068f099180e5ccb1be9f3f8c9db26edbb18a94304"),
    (2, 4): (6176, "b654c6617edc0fb9092f0547dccc8cdeced2143178ca82aa5bbd13e94390ef8d"),
    (2, 8): (88352, "c6d5a1b47270d8e772ea24ca58690d758ab16666bd331041a8a63374ad7926b9"),
    (3, 1): (2096, "49fc4f2ca4bf1b6dfe30d6ccde092ebb388c20de7336e87ea701311758004e70"),
    (3, 2): (70000, "523147d698fa0255fc9e91864ea104d90262a23d64e0abbc0d7ba47ae6f3ebd9"),
    # recorded from the vectorized triad kernel and union/lookup skew pass that
    # the loop-recorded pins above held, before the one-sort skew pass
    (2, 12): (425344, "b95ebafc4b3997742c3594f7b2e9d1b1db49a208cb99933c0fe5adfaa34b5b2d"),
    (3, 3): (619968, "a1b69248026148812d7fd57043d69295469ce20652638406ecf4fcffd9389642"),
}


@pytest.mark.parametrize("dim,cutoff", sorted(CONVECTION))
def test_convection_tensor_bitwise(dim, cutoff):
    conv = convection_tensor(build_basis(dim, cutoff))
    nnz, expected = CONVECTION[(dim, cutoff)]
    assert conv.nnz == nnz
    assert _digest(conv.i_idx, conv.k_idx, conv.j_idx, conv.values) == expected


# name -> (dim, basis cutoff, assembly cutoff, [(brownian mode, {label: coefficient})]);
# "all" puts the exact coefficient (m % 7 - 3) / 8 on every assembly mode m, so
# up to four advecting modes accumulate into one matrix entry, and the sum's
# order shows in the bits
ZETA_CASES = {
    # the transport layouts of the benchmark workloads
    "2d-c4": (2, 4, 4, [(1, {"1,0:cos": 0.31, "0,1:sin": 0.27})]),
    "3d-c1": (3, 1, 1, [(1, {"0,1,0:p0:cos": 0.31, "1,0,1:p0:sin": 0.27})]),
    # advecting fields beyond the basis cutoff; two fields share mode 1
    "3d-c1-assembly2": (3, 1, 2, [
        (1, {"2,1,0:p0:cos": 0.4, "0,1,-1:p1:sin": -0.35}),
        (1, {"1,-2,1:p1:cos": 0.22}),
        (3, {"0,0,2:p0:sin": 0.5, "1,1,1:p0:cos": -0.125}),
    ]),
    "3d-c1-assembly2-all": (3, 1, 2, [(0, "all")]),
}

# name -> digest of (modes, zeta)
ZETA = {
    "2d-c4": "11b5fd93d753e162d29db189206e05380e00a3293754f4d210a831f4302dbae6",
    "3d-c1": "83089f65ab3382fb9878b06237a407ba16a4036b5a88d6c20932837005617e54",
    "3d-c1-assembly2": "bb5ff8fecd63edd031b4805c3a87d21043a7bd7b7c339936bf4b311ffa91ff66",
    "3d-c1-assembly2-all": "456252ee86b1e7ba83b78171e6ac51076b80f0ccbe63b285b2b37aad0f2999bc",
}


def zeta_case(name):
    dim, cutoff, assembly_cutoff, fields = ZETA_CASES[name]
    basis = build_basis(dim, cutoff)
    assembly = build_basis(dim, assembly_cutoff)
    vectors = []
    for ell, labels in fields:
        if labels == "all":
            vec = (np.arange(assembly.n_modes) % 7 - 3) / 8.0
        else:
            vec = np.zeros(assembly.n_modes)
            for label, value in labels.items():
                vec[assembly.index_of(label)] = value
        vectors.append((ell, vec))
    return build_noise(basis, transport_fields=vectors, assembly_basis=assembly).transport


@pytest.mark.parametrize("name", sorted(ZETA_CASES))
def test_zeta_bitwise(name):
    tr = zeta_case(name)
    assert _digest(np.array(tr.modes, dtype=np.int64), tr.zeta) == ZETA[name]
