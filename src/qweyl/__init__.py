"""Exact normal ordering in the q-Weyl algebra.

The package machine-verifies the normal-ordering identities for powers and
products of X and sD acting on polynomials, together with the q-Hermite,
q-Lucas and (q-)Weyl-binomial families those identities are written in.
All arithmetic is exact (arbitrary-precision integers and rational
functions in q); the rewriting engine in `opalg` is the ground truth that
every closed form is compared against.
"""

from .qarith import (
    IntPoly,
    NotPolynomial,
    PoleAtPoint,
    QScalar,
    gauss_binomial,
    q_factorial,
    q_integer,
    q_product,
    to_polynomial,
)
from .polyring import XSPoly
from .opalg import (
    NormalOp,
    TWIST_ONE,
    TWIST_Q,
    TwistMismatch,
    affine_factor,
    normal_order,
    power,
    product,
)
from .families import (
    IndexOutOfRange,
    a_coeff,
    apply_exp_q2,
    big_hermite,
    corollary2_coeff,
    corollary3_coeff,
    g_coeff,
    h_poly,
    hermite,
    hermite_lucas_expand,
    lucas,
    lucas_k,
    qweyl_binomial,
    weyl_binomial,
)
from .verify import (
    ALL_CASE_IDS,
    FirstFailure,
    VerificationReport,
    run_cases,
    verify_case,
    verify_identity,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "IntPoly", "QScalar", "XSPoly", "NormalOp",
    "NotPolynomial", "PoleAtPoint", "TwistMismatch", "IndexOutOfRange",
    "TWIST_Q", "TWIST_ONE",
    "q_integer", "q_factorial", "gauss_binomial", "q_product", "to_polynomial",
    "normal_order", "affine_factor", "product", "power",
    "hermite", "weyl_binomial", "h_poly", "apply_exp_q2", "g_coeff",
    "corollary2_coeff", "corollary3_coeff", "big_hermite", "lucas",
    "lucas_k", "a_coeff", "hermite_lucas_expand", "qweyl_binomial",
    "verify_case", "verify_theorem", "verify_identity", "run_cases",
    "VerificationReport", "FirstFailure", "ALL_CASE_IDS",
]
