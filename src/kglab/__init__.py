"""kglab: a desk-scale laboratory for sums of k-th powers of primes
drawn from short intervals around (n/s)^(1/k).

The package computes, exactly where an integer answer exists and with
controlled numerics elsewhere: representation counts, generating
exponential sums and their even moments, Farey arc dissections,
divisor-sum decompositions of the prime phase sum, the arithmetic and
archimedean factors of the expected main term, and sieve-weight
combinations bounding prime counts from both sides.
"""

from .errors import (
    CapExceeded,
    ConsistencyError,
    DominationError,
    KglabError,
    MinorArcError,
    PrecisionError,
    ValidationError,
)
from .intervals import (
    PrimeTable,
    ShortInterval,
    build_interval,
    divisor_count,
    euler_phi,
    factorize,
    moebius,
    point_function,
    primes_in_interval,
    sieve_upto,
    von_mangoldt,
)
from .local_conditions import (
    LocalProfile,
    admissible_in_range,
    is_admissible,
    local_profile,
    unit_power_counts,
    unit_solution_counts,
)
from .weights import (
    WeightFunction,
    prime_indicator,
    table_weight,
    unit_weight,
    von_mangoldt_weight,
    zero_weight,
)
from .arcs import (
    ArcDissection,
    FareyArc,
    build_dissection,
    classify,
    classify_brute,
    default_delta,
    major_measure,
)
from .exp_sums import (
    BilinearComponent,
    ScanReport,
    ScanRow,
    coefficient_diagnostic,
    complete_exp_sum,
    default_bilinear_cut,
    evaluate_component,
    evaluate_components,
    minor_arc_rho,
    moment_enumeration,
    moment_nyquist,
    vaughan_decompose,
    weighted_exp_sum,
    weyl_exponent,
    weyl_scan,
)
from .singular import (
    KAPPA_MINUS,
    KAPPA_PLUS,
    PredictionReport,
    SingularIntegralEstimate,
    SingularSeriesEstimate,
    clear_singular_caches,
    local_count_identity_check,
    major_arc_approx,
    phase_integral,
    predict_main_term,
    singular_integral,
    singular_series,
    singular_series_term,
)
from .representations import (
    CountReport,
    check_domination,
    count_exact,
    count_weighted,
    toy_weights,
    vector_sieve_lower,
    vector_sieve_pointwise_check,
    vector_sieve_pointwise_scan,
)
from .batch import SweepRow, sweep

__version__ = "0.1.0"
