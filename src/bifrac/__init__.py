"""Two-solution machinery for u = G(u^p) + G(h) on the interval (-1,1).

The pieces: closed-form kernels for the fractional Laplacian on the
interval (`kernels`), a closed-form Jacobi-basis discretization of the
Green operator and its constants (`greenop`), the scalar model equation whose
roots certify solution counts (`scalar`), the shape cone the argument
lives in (`cone`), the two branch solvers and the fold sweep (`solver`),
and a CLI (`cli`, entry point `bifrac`).
"""

from .cone import (
    ConeSpec,
    InvarianceReport,
    MembershipReport,
    check_membership,
    sample_cone,
    verify_invariance,
)
from .greenop import (
    Grid,
    GreenOperator,
    GridFunction,
    apply_green,
    coercivity_a,
    gamma_U,
    get_operator,
    make_grid,
    operator_norm_b,
)
from .kernels import (
    KernelParams,
    distance_product_bound,
    frac_laplacian_pv,
    green_ball,
    green_const,
    green_interval,
    inner_integral,
    interpolate,
    norm_const,
    poisson_ball,
    poisson_const,
    poisson_total_mass,
    w_factor,
)
from .scalar import (
    CertificateFailure,
    Radii,
    ScalarProblem,
    critical_constant,
    radii_certificate,
    scalar_roots,
)
from .solver import (
    CertificateReport,
    ProbeReport,
    SolveResult,
    SweepPoint,
    SweepResult,
    certify,
    fold_sweep,
    krasnoselskii_probe,
    newton_second,
    picard_minimal,
    residual_strong,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CertificateFailure",
    "CertificateReport",
    "ConeSpec",
    "GreenOperator",
    "Grid",
    "GridFunction",
    "InvarianceReport",
    "KernelParams",
    "MembershipReport",
    "ProbeReport",
    "Radii",
    "ScalarProblem",
    "SolveResult",
    "SweepPoint",
    "SweepResult",
    "apply_green",
    "certify",
    "check_membership",
    "coercivity_a",
    "critical_constant",
    "distance_product_bound",
    "fold_sweep",
    "frac_laplacian_pv",
    "gamma_U",
    "get_operator",
    "green_ball",
    "green_const",
    "green_interval",
    "inner_integral",
    "interpolate",
    "krasnoselskii_probe",
    "make_grid",
    "newton_second",
    "norm_const",
    "operator_norm_b",
    "picard_minimal",
    "poisson_ball",
    "poisson_const",
    "poisson_total_mass",
    "radii_certificate",
    "residual_strong",
    "sample_cone",
    "scalar_roots",
    "verify_invariance",
    "w_factor",
]
