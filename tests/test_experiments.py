import math

import numpy as np
import pytest
from scipy import sparse

from stochflow.basis import ConvectionTensor
from stochflow.experiments import (
    ExperimentError,
    SweepPlan,
    order_study,
    viscosity_sweep,
)

import oracles


def test_order_study_deterministic_slope(viscous_system):
    b = viscous_system.basis
    a0 = np.zeros(b.n_modes)
    a0[b.index_of("1,0:cos")] = 1.0
    out = order_study(viscous_system, a0, "euler_maruyama",
                      (1 / 128, 1 / 256, 1 / 512, 1 / 1024),
                      n_members=2, t_final=1.0, ref_levels=4)
    assert 0.9 <= out["slope"] <= 1.1


def test_order_study_rejects_bad_axes(viscous_system):
    a0 = np.zeros(viscous_system.n_modes)
    with pytest.raises(ExperimentError):
        order_study(viscous_system, a0, "euler_maruyama", (1e-2, 5e-3), t_final=0.1)
    with pytest.raises(ExperimentError):
        order_study(viscous_system, a0, "euler_maruyama", (1e-2, 3e-3, 1e-3),
                    t_final=0.1)


def test_order_study_rejects_no_members(viscous_system):
    a0 = np.zeros(viscous_system.n_modes)
    with pytest.raises(ExperimentError, match="member"):
        order_study(viscous_system, a0, "euler_maruyama", (1e-2, 5e-3, 2.5e-3),
                    n_members=0, t_final=0.1)


def test_sweep_plan_validation():
    with pytest.raises(ExperimentError):
        SweepPlan(nus=(1e-3, 1e-2)).validate()
    with pytest.raises(ExperimentError):
        SweepPlan(nus=()).validate()
    for nus in ((math.nan,), (math.inf, 1e-2), (1e-1, math.nan)):
        with pytest.raises(ExperimentError):
            SweepPlan(nus=nus).validate()
    SweepPlan(nus=(1e-1, 1e-2)).validate()


def test_single_nu_sweep_degenerates(additive_system, rng):
    plan = SweepPlan(nus=(1e-2,), n_members=8, dt=1e-2, n_steps=20,
                     store_every=10)
    a0 = rng.normal(size=additive_system.n_modes) * 0.3
    report = viscosity_sweep(plan, additive_system, a0)
    assert len(report["points"]) == 1
    assert report["cauchy_differences"] == []
    assert np.isnan(report["weighted_exponent"])


def test_sweep_coupled_paths_reduce_differences(additive_system, rng):
    a0 = rng.normal(size=additive_system.n_modes) * 0.4
    plan = SweepPlan(nus=(1e-1, 9e-2), n_members=16, dt=1e-2, n_steps=30,
                     store_every=10)
    coupled = viscosity_sweep(plan, additive_system, a0)
    assert coupled["cauchy_differences"][0] < 0.5 * np.linalg.norm(a0)


def test_empty_tensor_apply_is_zero(basis2_1):
    empty = ConvectionTensor(
        n_modes=basis2_1.n_modes,
        i_idx=np.zeros(0, dtype=np.int64),
        k_idx=np.zeros(0, dtype=np.int64),
        j_idx=np.zeros(0, dtype=np.int64),
        values=np.zeros(0),
        _scatter=sparse.csr_matrix((basis2_1.n_modes, 0)),
    )
    a = np.ones(basis2_1.n_modes)
    assert np.abs(empty.apply(a)).max() == 0.0


def test_sparse_kernel_matches_dense_oracle(basis2_3, rng):
    from stochflow.basis import convection_tensor

    conv = convection_tensor(basis2_3)
    dense = oracles.dense_convection(basis2_3)
    for _ in range(5):
        a = rng.normal(size=basis2_3.n_modes)
        expected = np.einsum("ikj,i,k->j", dense, a, a)
        assert np.abs(conv.apply(a) - expected).max() <= 1e-13
