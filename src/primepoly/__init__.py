"""Exact-arithmetic census of prime values of reducible polynomials."""

__version__ = "0.1.0"

from .errors import BudgetExhausted, TheoremViolation
from .poly import (
    GaussianRational,
    QuadExtElement,
    RatPolynomial,
    compose_affine,
    derivative,
    evaluate,
    from_binomial,
    is_integer_valued,
    make_poly,
    parse_poly,
    scale_to_integer,
)
from .primes import PrimalityVerdict, ProgressionHit, find_multiplier, first_primes, is_prime
from .roots import (
    IsolatedRoot,
    MeasureBracket,
    count_real_roots,
    integer_solutions,
    isolate_roots,
    sign_at,
    sturm_count,
    sublevel_measure,
)

__all__ = [
    "BudgetExhausted",
    "TheoremViolation",
    "GaussianRational",
    "QuadExtElement",
    "RatPolynomial",
    "compose_affine",
    "derivative",
    "evaluate",
    "from_binomial",
    "is_integer_valued",
    "make_poly",
    "parse_poly",
    "scale_to_integer",
    "PrimalityVerdict",
    "ProgressionHit",
    "find_multiplier",
    "first_primes",
    "is_prime",
    "IsolatedRoot",
    "MeasureBracket",
    "count_real_roots",
    "integer_solutions",
    "isolate_roots",
    "sign_at",
    "sturm_count",
    "sublevel_measure",
]
