"""Period, cycle-structure and linear-complexity analysis of the degree-2
Dickson and logistic generators over prime fields."""

__version__ = "0.1.0"

from .diagram import (
    CycleCensus,
    MaximalityReport,
    analogous_two_safe_primes,
    brute_census,
    census,
    cycle_modulus,
    is_maximal_prime,
    two_safe_primes,
)
from .generator import (
    GeneratorSpec,
    OrbitPrediction,
    OrbitReport,
    conjugate_seed,
    dickson_eval,
    in_iv_set,
    logistic_map,
    lucas_order,
    orbit,
    predict_orbit,
    step,
)
from .ivsets import (
    IvSet,
    build_iv_set,
    canonical_param,
    conjugation_check,
    param_fibers,
    preimage_signs,
    seed_from_param,
)
from .lcp import (
    LcpProfile,
    berlekamp_massey_profile,
    bound_dickson,
    bound_quadratic,
    bound_sqrt,
    linear_complexity_via_gcd,
    profile_for_seed,
    verify_profile_bounds,
)
from .numtheory import (
    Fp2Context,
    Fp2Element,
    factorize,
    fp2_context,
    is_prime,
    legendre,
    mult_order,
    order_up_to_sign,
    sqrt_mod,
)
