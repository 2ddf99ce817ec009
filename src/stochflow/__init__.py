"""Stochastic spectral Galerkin solver for incompressible flow on the torus.

Solves the incompressible Navier-Stokes and Euler equations with additive
and Stratonovich transport noise by truncation onto an explicit solenoidal
trigonometric basis, and certifies the structural properties of the
resulting finite-dimensional SDE: exact skew-symmetry of the convection
tensor, pathwise and mean energy balances, Ito/Stratonovich consistency,
second-moment defect fields of Monte-Carlo ensembles, energy-variational
inequalities, relative-energy stability, and vanishing-viscosity behavior.
"""

from .basis import (
    BasisSpec,
    BasisError,
    ConvectionTensor,
    build_basis,
    convection_tensor,
    dissipation_matrix,
    evaluate_field,
    project_field,
)
from .noise import (
    AdditiveNoise,
    NoiseError,
    NoiseSpec,
    TransportNoise,
    build_noise,
    hs_norm,
)
from .sde import (
    BrownianPath,
    GalerkinSystem,
    SdeError,
    Trajectory,
    build_system,
    integrate,
)
from .diagnostics import (
    DefectField,
    DiagnosticsError,
    TestProcessRep,
    dissipative_weak_residual,
    energy_residual,
    energy_variational_gap,
    make_test_processes,
    relative_energy,
    reynolds_defect,
)
from .ensemble import (
    EmpiricalYoungMeasure,
    Ensemble,
    EnsembleError,
    empirical_measure,
    moment_report,
    run_ensemble,
)
from .experiments import SweepPlan, order_study, viscosity_sweep

__version__ = "0.1.0"
