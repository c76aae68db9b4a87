"""Exact energies of integral circulant (gcd) graphs.

ICG(n, D) has vertex set Z/nZ with a, b adjacent iff gcd(a - b, n)
lies in D, a set of proper divisors of n. Everything here is exact:
eigenvalues are integers assembled from Ramanujan sums, energies are
Python ints, intermediate weights are fractions.

The prime power case n = p^s carries the full theory: a closed-form
energy per divisor set, closed forms for the minimal and maximal
energy with all optimizing divisor sets, and a terminating rewrite
system on difference vectors that increases energy step by step until
a maximizer is reached.
"""

from .energy import (
    canonical_maximizer,
    classify_energeticity,
    classify_energy,
    emax_alternative,
    emax_closed,
    emin_closed,
    energy_general,
    energy_prime_power,
    h_equidistant,
    h_value,
    koolen_moulton_check,
    spectrum_gcd_graph,
)
from .model import (
    PrimePowerOrder,
    ResourceLimitError,
    check_divisor_set,
    check_exponent_tuple,
    delta,
    delta_inverse,
    divisor_set_of,
    is_connected,
    reverse_complement,
)
from .numtheory import (
    divisors,
    factorize,
    is_prime,
    mobius,
    ramanujan_sum,
    totient,
)
from .search import (
    MaximizerReport,
    brute_force_emax_general,
    brute_force_emax_prime_power,
    derivative,
    tableau_reduction_check,
    verify_theorem,
)
from .transform import (
    Trace,
    TransformLabel,
    TransformStep,
    applicable,
    apply_rule,
    normalize,
)

__version__ = "0.1.0"

__all__ = [
    "PrimePowerOrder",
    "ResourceLimitError",
    "MaximizerReport",
    "Trace",
    "TransformLabel",
    "TransformStep",
    "applicable",
    "apply_rule",
    "brute_force_emax_general",
    "brute_force_emax_prime_power",
    "canonical_maximizer",
    "check_divisor_set",
    "check_exponent_tuple",
    "classify_energeticity",
    "classify_energy",
    "delta",
    "delta_inverse",
    "derivative",
    "divisor_set_of",
    "divisors",
    "emax_alternative",
    "emax_closed",
    "emin_closed",
    "energy_general",
    "energy_prime_power",
    "factorize",
    "h_equidistant",
    "h_value",
    "is_connected",
    "is_prime",
    "koolen_moulton_check",
    "mobius",
    "normalize",
    "ramanujan_sum",
    "reverse_complement",
    "spectrum_gcd_graph",
    "tableau_reduction_check",
    "totient",
    "verify_theorem",
]
