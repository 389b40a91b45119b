"""Exact tools for the even-parts-below-odd partition count, its mod-4
congruences, ternary quadratic form representation numbers, and
imaginary-quadratic class numbers."""

from .arith import (
    Factorization,
    factorize,
    is_prime,
    is_squarefree,
    legendre,
    odd_exponent_sieve,
)
from .partitions import eo_count, eobar_count_enum, eobar_series, eobar_series_mod
from .quadforms import (
    A_direct,
    Mod4Certificate,
    Mod4Class,
    ReducedForm,
    class_number,
    classify_mod4,
    r113,
    r133,
    reduced_forms,
)
from .series import (
    Series,
    eta_factor,
    mod_reduce,
    mul,
    power,
    theta,
)
from .verify import (
    CongruenceFamily,
    VerificationReport,
    check_family,
    density_report,
    family_from_theorem,
    gamma_count,
    scan_congruences,
)

__version__ = "0.1.0"
