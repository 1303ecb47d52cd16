"""Exact-arithmetic colour, octonion and vector-colour algebras over
commutative rings with 2 invertible, plus deterministic identity suites.

Quick start::

    from colouralg import rings, algebras, checks

    R = rings.PrimeField(7)
    A = algebras.ColSplitAlgebra(R, R.one)
    reports = checks.run_suite(A, "all-applicable", checks.Sampler(seed=1, count=200))
"""

from . import algebras, checks, cli, errors, etale, graded, maps, rings, trivec
from .algebras import (
    CayleyAlgebra,
    ColHermAlgebra,
    ColSplitAlgebra,
    WHermAlgebra,
    WSplitAlgebra,
    ZornAlgebra,
)
from .checks import CheckReport, Sampler, SplitMix64, run_suite
from .errors import ColourAlgError
from .etale import KummerExtension, SplitTorus, make_etale
from .graded import GradedAlgebra, GradedSpec
from .rings import IntegersMod, PolynomialRing, PrimeField, RationalField, make_ring
from .trivec import HermitianSpace, Trivialization

__version__ = "0.1.0"

__all__ = [
    "algebras",
    "checks",
    "cli",
    "errors",
    "etale",
    "graded",
    "maps",
    "rings",
    "trivec",
    "CayleyAlgebra",
    "ColHermAlgebra",
    "ColSplitAlgebra",
    "WHermAlgebra",
    "WSplitAlgebra",
    "ZornAlgebra",
    "CheckReport",
    "Sampler",
    "SplitMix64",
    "run_suite",
    "ColourAlgError",
    "KummerExtension",
    "SplitTorus",
    "make_etale",
    "GradedAlgebra",
    "GradedSpec",
    "IntegersMod",
    "PolynomialRing",
    "PrimeField",
    "RationalField",
    "make_ring",
    "HermitianSpace",
    "Trivialization",
    "__version__",
]
