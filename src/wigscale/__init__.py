"""Phase-space toolkit: uncertainty relations vs. state positivity, and
partial-scaling entanglement detection for multimode Gaussian states.

Conventions: hbar = m = omega = 1; Wigner functions normalized against
dq dp / (2 pi); covariance matrices in (q_1..q_N, p_1..p_N) ordering.
"""

from .phase_space import (
    AnalyticWigner,
    GridSpec,
    GridWigner,
    PositionDensity,
    apply_linear_map,
    apply_partial_scaling,
    apply_scaling,
    apply_squeeze,
    default_grid,
    density_to_wigner,
    eval_fock_wigner,
    overlap,
    sample_to_grid,
    wigner_to_density,
)
from .moments import (
    HermitianMatrix,
    SecondMoments,
    det_bound,
    is_psd,
    moments_from_grid,
    multimode_uncertainty_matrix,
    sr_matrix,
    sr_value,
    symplectic_form,
)
from .fock_space import (
    Spectrum,
    ladder_operators,
    moment_matrix,
    project_state,
    quadrature_pair_operators,
    spectrum,
)
from .gaussian_cv import (
    CovarianceMatrix,
    SeparabilityReport,
    default_lambda_grid,
    is_valid_state,
    partial_scale,
    separability_scan,
    squeeze_symplectic,
    two_mode_squeezed,
    vacuum,
)

__version__ = "0.1.0"
