"""Bures metric tensor of thermal states of the Kitaev honeycomb model.

The per-site metric over (beta, jx, jy, jz) splits into a classical part
(eigenvalue statistics) and a nonclassical part (eigenvector rotation);
closed-form zone integrals, finite-size sums, and an independent per-mode
Uhlmann-fidelity oracle all live here, along with temperature-scaling fits
and the classical/quantum crossover machinery.
"""

from .bures import (
    MetricDecomposition,
    SpectralDecomposition,
    analytic_metric,
    classical_fidelity,
    finite_difference_metric,
    finite_difference_metric_pairs,
    spectral_decomposition,
    uhlmann_fidelity,
    validate_density_matrix,
)
from .quadrature import (
    GridSpec,
    IntegrationResult,
    QuadratureConvergenceError,
    compensated_sum,
    integrate_bz,
    integrate_bz_refined,
)
from .scaling import (
    CrossoverContour,
    RatioMap,
    ScalingFitResult,
    crossover_contour,
    figure_of_merit_trajectory,
    fit_gapped_classical,
    fit_gapped_nonclassical,
    fit_log_divergence,
    fit_power_law,
    ratio_map,
)
from .spectrum import (
    Couplings,
    Momentum,
    PhaseRegion,
    classify_phase,
    dirac_points,
    fermion_gap,
    spectral_arrays,
)
from .thermal_metric import (
    BuresTensor,
    ParameterIndex,
    ThermoPoint,
    nonclassical_corrections,
    tensor_finite,
    tensor_oracle,
    tensor_thermodynamic,
    tensors_thermodynamic,
)

__version__ = "0.1.0"
