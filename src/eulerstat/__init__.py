"""Statistical solutions of the 2D incompressible Euler equations.

Ensembles of divergence-free velocity fields are evolved with a spectral
hyper-viscosity scheme; the resulting empirical measures are probed with
structure functions, energy spectra and Wasserstein distances between
correlation marginals.
"""

from .errors import (
    BlowUpError,
    InconsistencyError,
    ResolutionError,
    ShapeError,
    SnapshotFormatError,
)
from .spectral import (
    ScalarSpectralField,
    SpectralField,
    from_physical,
    l2_norm,
    leray_project,
    modal_energy,
    sample_at_grid,
    sobolev_norm,
    to_physical,
    truncate_to,
    velocity_from_vorticity,
    vorticity,
)
from .solver import EnergyLedger, SolverParams, adaptive_dt, evolve, rhs, step
from .initial import InitialMeasureSpec, PerturbationDraw, generate_sample, perturbation
from .ensemble import (
    EnsembleSnapshot,
    RunManifest,
    mean_field,
    read_snapshot,
    run_ensemble,
    variance_field,
    write_snapshot,
)
from .diagnostics import (
    ExponentFit,
    ScalarCurve,
    cauchy_rate,
    compensated_spectrum,
    energy_spectrum,
    fit_exponent,
    structure_function,
    time_regularity_ratio,
)
from .transport import MarginalDistanceReport, PointCloud, marginal_w1, w1_exact

__version__ = "0.1.0"
