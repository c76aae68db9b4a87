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

import importlib

__version__ = "0.1.0"

# Each public name and the layer module that defines it. Names and layer
# submodules resolve on first access (PEP 562), so `import icgraph` loads
# no layer, and each resolved object is bound here: later lookups are
# plain attribute reads.
_EXPORTS = {
    "PrimePowerOrder": "model",
    "ResourceLimitError": "numtheory",
    "MaximizerReport": "search",
    "Trace": "transform",
    "TransformLabel": "transform",
    "TransformStep": "transform",
    "applicable": "transform",
    "apply_rule": "transform",
    "brute_force_emax_general": "search",
    "brute_force_emax_prime_power": "search",
    "canonical_maximizer": "energy",
    "check_divisor_set": "model",
    "check_exponent_tuple": "model",
    "classify_energy": "energy",
    "delta": "model",
    "delta_inverse": "model",
    "divisor_set_of": "model",
    "divisors": "numtheory",
    "emax_closed": "energy",
    "emin_closed": "energy",
    "energy_general": "energy",
    "energy_prime_power": "energy",
    "factorize": "numtheory",
    "h_value": "energy",
    "is_connected": "model",
    "is_prime": "numtheory",
    "koolen_moulton_check": "energy",
    "mobius": "numtheory",
    "normalize": "transform",
    "ramanujan_sum": "numtheory",
    "reverse_complement": "model",
    "spectrum_gcd_graph": "energy",
    "totient": "numtheory",
    "verify_theorem": "search",
}
_LAYERS = ("cli", "energy", "model", "numtheory", "search", "transform")

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _LAYERS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAYERS})
