"""Exact construction and verification of weighted sum identities for
Bernoulli numbers, products of even zeta values, and multiple zeta(-star)
values with even arguments.

All arithmetic is over exact rationals; evaluated identities live in the
one-dimensional space of rational multiples of pi^(2k).

Each module's ``__all__`` declares its public names.  The package root
re-exports them all except those of ``series`` and ``cli``, which stay
reachable by module name only.
"""

__version__ = "0.1.0"  # assigned first: ``documents`` reads it on import

from . import bernoulli_sums, checks, derivative_tables, documents, enumeration, examples
from . import mzv_identities, polynomials, quasi_shuffle, rationals, suites, zeta_identities
from .bernoulli_sums import *
from .checks import *
from .derivative_tables import *
from .documents import *
from .enumeration import *
from .examples import *
from .mzv_identities import *
from .polynomials import *
from .quasi_shuffle import *
from .rationals import *
from .suites import *
from .zeta_identities import *

__all__ = sorted(
    name
    for module in (bernoulli_sums, checks, derivative_tables, documents, enumeration, examples,
                   mzv_identities, polynomials, quasi_shuffle, rationals, suites, zeta_identities)
    for name in module.__all__
)
