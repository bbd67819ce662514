"""Multiple completed L-functions as iterated Mellin transforms of theta
functions: evaluation, functional equations, shuffle identities, poles and
residues, and the special-value oracles that validate them."""

from .quadrature import EvalParams, QuadratureError
from .ratfun import AffineForm, MultiplePoleError, PoleSignal, RationalCombination
from .theta import (
    ThetaFunction,
    TruncationError,
    ValidationError,
    d_w,
    differentiate,
    inversion_defect,
    load_theta_from_file,
    make_builtin_theta,
    mul_monomial,
    pointwise_product,
    rescale,
)
from .engine import (
    LambdaExpression,
    build_expression,
    build_tail_expression,
    lambda_direct,
    lambda_eval,
    lambda_eval_many,
    lambda_eval_several,
    lstar_eval,
    poles,
    residue,
)

__all__ = [
    "AffineForm",
    "EvalParams",
    "LambdaExpression",
    "MultiplePoleError",
    "PoleSignal",
    "QuadratureError",
    "RationalCombination",
    "ThetaFunction",
    "TruncationError",
    "ValidationError",
    "build_expression",
    "build_tail_expression",
    "d_w",
    "differentiate",
    "inversion_defect",
    "lambda_direct",
    "lambda_eval",
    "lambda_eval_many",
    "lambda_eval_several",
    "load_theta_from_file",
    "lstar_eval",
    "make_builtin_theta",
    "mul_monomial",
    "pointwise_product",
    "poles",
    "rescale",
    "residue",
]

__version__ = "0.1.0"
