"""primevisit: early prime clusters in arithmetic progressions and
prime-time recurrence in metric-measure-preserving systems."""

__version__ = "0.1.0"

from .primes import PrimeRange, is_prime, primes_in_ap, sieve_range
from .clusters import (
    AdmissibleTuple,
    PrimeClusterResult,
    Progression,
    cluster_census,
    is_admissible,
    min_pm,
    narrowest_tuple,
    pm,
    theorem11_report,
)
from .sieve_weights import (
    CutoffF,
    PiecewiseLinear,
    PsiCutoff,
    SieveParams,
    SSumReport,
    TensorCutoff,
    choose_b0,
    detection_ratio,
    discrepancy_reduced,
    s_sum_bruteforce,
    select_k_rho,
    small_primorial_coprime,
    weight,
)
from .contfrac import (
    ContinuedFraction,
    Decimal,
    Quadratic,
    Quotients,
    Rational,
    RealNumberSpec,
    ReturnTimeReport,
    cf_expand,
    check_prop71,
    return_time,
    return_time_bruteforce,
    type_estimate,
)
from .dynamics import (
    EarlyVisitCertificate,
    Mobius,
    Rotation,
    Shift,
    System,
    UnimodularMatrix,
    UpperHalfPoint,
    early_visit_search,
    first_return,
    kac_empirical,
    prime_visit_times,
    quotient_distance,
    reduce_fundamental,
    verify_certificate,
)
