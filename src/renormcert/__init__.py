"""Certified enclosures for the period-doubling renormalisation fixed point.

The package proves tight rigorous bounds on the fixed point of the doubling
operator for degree-2 unimodal maps and on the universal constants: the
state-space scaling (the reciprocal of the fixed-point value at 1), the
parameter-scaling eigenvalue of the linearised operator, and the
noise-amplitude scaling eigenvalue.  Bounds come from contraction-mapping
certificates for Newton-like operators over balls in a Banach algebra of
analytic functions.  Function balls hold exact integers in midpoint-radius
form and points are integer boxes, both rounded outward; Decimal appears
only at the edges, where numbers are read in or written out, and in the
scalar bounds, which use multi-precision decimal arithmetic with directed
rounding.
"""

from .balls import (
    Disc,
    FunctionBall,
    STANDARD_DISC,
    affine_arg,
    ball_from_decimals,
    basis_ball,
    const_ball,
    deserialize_ball,
    inflate,
    one_ball,
    serialize_ball,
    zero_ball,
)
from .contraction import (
    Certificate,
    LinearMap,
    Problem,
    apply_lambda,
    bound_epsilon,
    bound_kappa_columns,
    bound_kappa_tail,
    certify,
    verify_lambda_invertible,
)
from .errors import (
    CertificationFailed,
    CompositionContractFailure,
    ConfigError,
    ContainmentFailure,
    RenormcertError,
)
from .operators import (
    OperatorTables,
    SharedEvaluations,
    check_domain_extension,
    extend_recursive,
    precompute_shared,
)
from .pipeline import (
    RunConfig,
    certified_digits,
    emit_plot_covering,
    format_digit_block,
    run_pipeline,
)
from .rounding import Interval, Rectangle, RoundingContext, interval, rectangle

__version__ = "0.1.0"

__all__ = [
    "Certificate", "CertificationFailed", "CompositionContractFailure",
    "ConfigError", "ContainmentFailure", "Disc", "FunctionBall", "Interval",
    "LinearMap", "OperatorTables", "Problem", "Rectangle", "RenormcertError",
    "RoundingContext", "RunConfig", "STANDARD_DISC", "SharedEvaluations",
    "affine_arg", "apply_lambda",
    "ball_from_decimals", "basis_ball", "bound_epsilon", "bound_kappa_columns",
    "bound_kappa_tail", "certified_digits", "certify", "check_domain_extension",
    "const_ball", "deserialize_ball", "emit_plot_covering", "extend_recursive",
    "format_digit_block", "inflate", "interval", "one_ball",
    "precompute_shared", "rectangle", "run_pipeline", "serialize_ball",
    "verify_lambda_invertible", "zero_ball",
]
