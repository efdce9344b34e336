"""Two-point boundary-value reduction of radial elliptic systems on an
annulus: Green's kernel with certified bounds, existence/multiplicity/
uniqueness constants with divergence-aware quadrature, and Picard iteration
for the cyclic system, cross-validated by an independent finite-difference
oracle."""

from .conditions import (
    ConstantsSet,
    WindowCheck,
    check_avery_henderson,
    check_krasnoselskii,
    check_leggett_williams,
    check_windows,
    compute_constants,
    contraction_constant,
    contraction_constants,
    injected_constants,
    lipschitz_estimate,
)
from .exprlang import Expr, ExprDomainError, ExprSyntaxError, parse
from .grid import GridFunction
from .kernel import (
    BoundReport,
    KernelParams,
    cone_floor,
    kernel_eval,
    varrho,
    verify_kernel_bounds,
    wp,
)
from .oracle import LinearBVP, green_consistency, solve_linear_fd
from .quadrature import (
    IntegralResult,
    holder_conjugate_check,
    integrate,
    p_norm,
)
from .reproduce import reproduce
from .solver import (
    ProblemSpec,
    SolveTrace,
    apply_operator,
    picard_solve,
    radial_profile,
    recover_components,
    residual_check,
)
from .weights import (
    TransformSpec,
    WeightSpec,
    kelvin_r,
    kelvin_s,
    singularity_exponent,
    upsilon,
    weight_ell,
)

__version__ = "0.1.0"
