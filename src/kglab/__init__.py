"""kglab: a desk-scale laboratory for sums of k-th powers of primes
drawn from short intervals around (n/s)^(1/k).

The package computes, exactly where an integer answer exists and with
controlled numerics elsewhere: representation counts, generating
exponential sums and their even moments, Farey arc dissections,
divisor-sum decompositions of the prime phase sum, the arithmetic and
archimedean factors of the expected main term, and sieve-weight
combinations bounding prime counts from both sides.

Each public name below is imported from its module on first access
(PEP 562), so importing the package, or one of its modules, loads no
module it does not use.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it exports
_EXPORTS = {
    "errors": ("CapExceeded", "ConsistencyError", "DominationError", "KglabError",
               "MinorArcError", "PrecisionError", "ValidationError"),
    "intervals": ("ShortInterval", "build_interval", "divisor_count", "euler_phi", "factorize",
                  "moebius", "primes_in_interval", "sieve_upto", "von_mangoldt"),
    "local_conditions": ("LocalProfile", "admissible_in_range", "complete_exp_sum",
                         "is_admissible", "local_profile", "unit_power_counts",
                         "unit_solution_counts"),
    "weights": ("WeightFunction", "prime_indicator", "table_weight", "unit_weight",
                "von_mangoldt_weight", "zero_weight"),
    "arcs": ("ArcDissection", "FareyArc", "build_dissection", "classify", "classify_brute",
             "default_delta", "major_measure"),
    "exp_sums": ("BilinearComponent", "ScanReport", "ScanRow", "coefficient_diagnostic",
                 "default_bilinear_cut", "evaluate_components", "minor_arc_rho",
                 "moment_enumeration", "moment_nyquist", "vaughan_decompose",
                 "weighted_exp_sum", "weyl_exponent", "weyl_scan"),
    "singular": ("PredictionReport", "SingularIntegralEstimate", "SingularSeriesEstimate",
                 "local_count_identity_check", "major_arc_approx", "phase_integral",
                 "predict_main_term", "singular_integral", "singular_series",
                 "singular_series_term"),
    "representations": ("CountReport", "check_domination", "count_exact", "count_weighted",
                        "toy_weights", "vector_sieve_lower", "vector_sieve_pointwise_scan"),
    "batch": ("SweepRow", "sweep"),
}
# public name -> its module
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_MODULE_OF))
