"""Scrambled digital nets, their pair distribution, and the exact spectral
machinery that proves when scrambling buys negative pair covariance.

The public surface mirrors the analysis chain: exact digit points and
common-digit counts (digits), net construction and equidistribution checks
(nets), nested uniform scrambling (scramble), Walsh series (walsh), pair
counting and the joint density (counting), the rational covariance kernel
(covkernel), replication experiments (estimators), and the identity suite
(checks).
"""

from .digits import (
    ConfigurationError,
    DigitPoint,
    PrecisionError,
    volume_prefix_eq,
    volume_prefix_ge,
)
from .nets import (
    GeneratingMatrices,
    NetReport,
    PointSet,
    faure_matrices,
    faure_net,
    generate_points,
    load_point_set,
    save_point_set,
    verify_net,
)
from .scramble import ScrambleSeed, default_precision, owen_scramble, replicate
from .walsh import (
    Coefficient,
    WalshIndex,
    WalshPolynomial,
    enumerate_L_k,
    random_decay_polynomial,
    shell_size,
    wal_eval,
    wal_exponent,
)
from .counting import (
    M_closed_form,
    N_closed_form,
    PairProfile,
    common_digits,
    joint_pdf,
    joint_pdf_closed_form,
    pair_profile,
    pdf_normalization,
    profile_bruteforce,
)
from .covkernel import (
    CovPolynomial,
    Psi,
    cov_polynomial,
    delta_s,
    inc_beta,
    inc_beta_derivative_form,
    psi_hat_general,
    psi_hat_zero_t,
    q_s,
    q_s_polynomial,
    recmain_eval,
    recurrence_residual,
)
from .estimators import (
    ExperimentConfig,
    ExperimentReport,
    analytic_covariance,
    analytic_variance,
    run_experiment,
)
from .checks import verify_all

__version__ = "0.1.0"

__all__ = [
    "Coefficient",
    "ConfigurationError",
    "CovPolynomial",
    "DigitPoint",
    "ExperimentConfig",
    "ExperimentReport",
    "GeneratingMatrices",
    "M_closed_form",
    "N_closed_form",
    "NetReport",
    "PairProfile",
    "PointSet",
    "PrecisionError",
    "Psi",
    "ScrambleSeed",
    "WalshIndex",
    "WalshPolynomial",
    "analytic_covariance",
    "analytic_variance",
    "common_digits",
    "cov_polynomial",
    "default_precision",
    "delta_s",
    "enumerate_L_k",
    "faure_matrices",
    "faure_net",
    "generate_points",
    "inc_beta",
    "inc_beta_derivative_form",
    "joint_pdf",
    "joint_pdf_closed_form",
    "load_point_set",
    "owen_scramble",
    "pair_profile",
    "pdf_normalization",
    "profile_bruteforce",
    "psi_hat_general",
    "psi_hat_zero_t",
    "q_s",
    "q_s_polynomial",
    "random_decay_polynomial",
    "recmain_eval",
    "recurrence_residual",
    "replicate",
    "run_experiment",
    "save_point_set",
    "shell_size",
    "verify_all",
    "verify_net",
    "volume_prefix_eq",
    "volume_prefix_ge",
    "wal_eval",
    "wal_exponent",
]
