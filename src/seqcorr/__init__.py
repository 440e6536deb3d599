"""Binary sequence families, exact correlation spectra, and demerit factors.

Core objects: BinarySequence, correlation spectra and demerit reports
(corr), finite-field contexts (gf), character-based families and
transforms (families), the doubling recursion and Golay pair machinery
(golay), and sweep/search/baseline analysis plus the CLI (analysis, cli).
"""

from .corr import (
    CorrelationSpectrum,
    DemeritReport,
    adf,
    aperiodic_xcorr,
    cdf,
    periodic_xcorr,
    psc,
)
from .families import (
    FamilySpec,
    cyclic_shift,
    decimate,
    half_legendre_pair,
    legendre,
    msequence,
    msequence_pair,
    parse_family,
    quartic_f,
    quartic_g,
    resize,
)
from .gf import (
    BinaryFieldContext,
    PrimeFieldContext,
    find_primitive_element,
    make_binary_field,
    make_prime_field,
    trace,
)
from .golay import (
    CertificationError,
    GolayPair,
    certify,
    compose_to_length,
    is_golay_pair,
    rsl_stem,
    search_golay_pairs,
    search_optimal_seeds,
)
from .sequence import BinarySequence

__version__ = "0.1.0"

__all__ = [
    "BinarySequence",
    "CorrelationSpectrum",
    "DemeritReport",
    "aperiodic_xcorr",
    "periodic_xcorr",
    "adf",
    "cdf",
    "psc",
    "BinaryFieldContext",
    "PrimeFieldContext",
    "make_binary_field",
    "make_prime_field",
    "trace",
    "find_primitive_element",
    "FamilySpec",
    "parse_family",
    "msequence",
    "msequence_pair",
    "legendre",
    "quartic_f",
    "quartic_g",
    "decimate",
    "cyclic_shift",
    "resize",
    "half_legendre_pair",
    "GolayPair",
    "CertificationError",
    "certify",
    "is_golay_pair",
    "compose_to_length",
    "search_optimal_seeds",
    "search_golay_pairs",
    "rsl_stem",
    "__version__",
]
