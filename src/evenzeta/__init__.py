"""Exact construction and verification of weighted sum identities for
Bernoulli numbers, products of even zeta values, and multiple zeta(-star)
values with even arguments.

All arithmetic is over exact rationals; evaluated identities live in the
one-dimensional space of rational multiples of pi^(2k).
"""

__version__ = "0.1.0"

from .bernoulli_sums import (
    BernoulliIdentity,
    a_coeffs,
    bernoulli_identity,
    bernoulli_lhs,
    big_F,
    f_prod,
    truncation_depth,
    verify_bernoulli,
)
from .checks import CheckResult
from .derivative_tables import FTable, GTable, c_coeffs, d_coeffs, f_table, g_table
from .documents import (
    SCHEMA_VERSION,
    IdentityDocument,
    document_from_identity,
    from_json,
    poly_latex,
    poly_text,
    to_json,
    to_latex,
    to_text,
)
from .enumeration import (
    PartitionWeight,
    SetPartition,
    block_shapes,
    compositions,
    partition_shape,
    partition_weight,
    set_partitions,
)
from .examples import GalleryIdentity, check_gallery_identity, gallery, sections
from .mzv_identities import (
    block_reduce,
    composition_power_sum,
    mzsv_identity,
    mzv_identity,
    mzv_lhs_exact,
    mzv_numeric,
    verify_mzv,
)
from .polynomials import NEG_INFINITY, MultiPoly, ParseError, UniPoly, max_parse_degree, parse_poly
from .quasi_shuffle import (
    NCPoly,
    Word,
    is_admissible,
    partition_word_sum,
    sbar,
    star,
    symmetric_word_sum,
    verify_symmetric_sum,
)
from .rationals import BernoulliTable, Rational, bernoulli, binomial, factorial
from .suites import (
    SUITE_NAMES,
    SuiteReport,
    bernoulli_suite,
    mzv_suite,
    run_suites,
    tables_suite,
    words_suite,
    zeta_suite,
)
from .zeta_identities import (
    PiValue,
    WeightedSumIdentity,
    eval_identity_rhs,
    eval_zeta_lhs,
    verify_zeta,
    zeta_even,
    zeta_identity_monomial,
    zeta_identity_poly,
)

__all__ = [
    "BernoulliIdentity",
    "BernoulliTable",
    "CheckResult",
    "FTable",
    "GTable",
    "GalleryIdentity",
    "IdentityDocument",
    "MultiPoly",
    "NCPoly",
    "NEG_INFINITY",
    "ParseError",
    "PartitionWeight",
    "PiValue",
    "Rational",
    "SCHEMA_VERSION",
    "SUITE_NAMES",
    "SetPartition",
    "SuiteReport",
    "UniPoly",
    "WeightedSumIdentity",
    "Word",
    "a_coeffs",
    "bernoulli",
    "bernoulli_identity",
    "bernoulli_lhs",
    "bernoulli_suite",
    "big_F",
    "binomial",
    "block_reduce",
    "block_shapes",
    "c_coeffs",
    "check_gallery_identity",
    "composition_power_sum",
    "compositions",
    "d_coeffs",
    "document_from_identity",
    "eval_identity_rhs",
    "eval_zeta_lhs",
    "f_prod",
    "f_table",
    "factorial",
    "from_json",
    "g_table",
    "gallery",
    "is_admissible",
    "max_parse_degree",
    "mzsv_identity",
    "mzv_identity",
    "mzv_lhs_exact",
    "mzv_numeric",
    "mzv_suite",
    "parse_poly",
    "partition_shape",
    "partition_weight",
    "partition_word_sum",
    "poly_latex",
    "poly_text",
    "run_suites",
    "sbar",
    "sections",
    "set_partitions",
    "star",
    "symmetric_word_sum",
    "tables_suite",
    "to_json",
    "to_latex",
    "to_text",
    "truncation_depth",
    "verify_bernoulli",
    "verify_mzv",
    "verify_symmetric_sum",
    "verify_zeta",
    "words_suite",
    "zeta_even",
    "zeta_identity_monomial",
    "zeta_identity_poly",
    "zeta_suite",
]
