"""wellprobe: quantum-limited width estimation for a particle in a box.

The package computes how precisely the width of a one-dimensional infinite
well can be inferred from measurements on a particle inside it: Fisher and
quantum Fisher information of static and time-evolved probe states, the
corresponding dimensionless signal-to-noise ratios, multi-particle entangled
preparations, and a Monte Carlo harness that checks the estimation bound
with a maximum-likelihood estimator.
"""

from .dynamics import (
    EvolvedState,
    evolved_amplitudes,
    qfi_parabolic_time,
    qfi_time,
    truncation_residual,
)
from .entangled import (
    GhzSpec,
    entanglement_gain_grid,
    qsnr_ghz,
    qsnr_symmetrized_pair,
    qsnr_two_eigen,
    qsnr_two_polynomial,
    qsnr_w3,
)
from .inference import (
    EstimationResult,
    SampleBatch,
    crlb_experiment,
    log_likelihood,
    mle_estimate,
    sample_positions,
)
from .metrology import (
    MetrologyReport,
    fi_energy,
    fi_position,
    gamma_superposition_smallalpha,
    qfi_static,
    qsnr_eigen,
    qsnr_polynomial,
    qsnr_superposition,
    report,
    sld_matrix,
)
from .quadrature import QuadratureError, quadrature
from .states import (
    AmplitudeVector,
    Custom,
    Eigen,
    Parabolic,
    Polynomial,
    ProbeState,
    Superposition,
    TruncationWarning,
    amplitudes,
    d_wavefunction,
    mean_energy,
    nbar,
    wavefunction,
)
from .well import (
    OverlapTable,
    WellConfig,
    build_overlap_table,
    d_eigen_energy,
    d_eigen_wavefunction,
    eigen_energy,
    eigen_wavefunction,
    overlap_dpsi_dpsi,
    overlap_psi_dpsi,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeVector",
    "Custom",
    "Eigen",
    "EstimationResult",
    "EvolvedState",
    "GhzSpec",
    "MetrologyReport",
    "OverlapTable",
    "Parabolic",
    "Polynomial",
    "ProbeState",
    "QuadratureError",
    "SampleBatch",
    "Superposition",
    "TruncationWarning",
    "WellConfig",
    "amplitudes",
    "build_overlap_table",
    "crlb_experiment",
    "d_eigen_energy",
    "d_eigen_wavefunction",
    "d_wavefunction",
    "eigen_energy",
    "eigen_wavefunction",
    "entanglement_gain_grid",
    "evolved_amplitudes",
    "fi_energy",
    "fi_position",
    "gamma_superposition_smallalpha",
    "log_likelihood",
    "mean_energy",
    "mle_estimate",
    "nbar",
    "overlap_dpsi_dpsi",
    "overlap_psi_dpsi",
    "qfi_parabolic_time",
    "qfi_static",
    "qfi_time",
    "qsnr_eigen",
    "qsnr_ghz",
    "qsnr_polynomial",
    "qsnr_superposition",
    "qsnr_symmetrized_pair",
    "qsnr_two_eigen",
    "qsnr_two_polynomial",
    "qsnr_w3",
    "quadrature",
    "report",
    "sample_positions",
    "sld_matrix",
    "truncation_residual",
    "wavefunction",
]
