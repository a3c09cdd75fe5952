"""Finite-semigroup toolkit: pseudoinverses, variants, variety membership,
primary conjugacy, and exhaustive small-order enumeration."""

from .core import (
    CapExceeded,
    CayleyTable,
    EntryOutOfRange,
    NotAssociative,
    SemigroupError,
    UnarySemigroup,
    canonical_form,
    find_isomorphism,
    identity_of,
    validate,
)
from .green import GreenStructure, green, idempotents, is_group_h_class
from .epigroup import (
    EpigroupData,
    epigroup_data,
    in_W_structural,
    is_completely_regular,
    pseudoinverse_map,
    verify_epigroup_identities,
)
from .varieties import (
    Identity,
    VarietyReport,
    find_counterexample,
    in_E,
    in_V,
    in_W,
    parse_identity,
    parse_term,
)
from .variants import check_pseudoinverse_transport, star, unary_variant, variant
from .conjugacy import ConjugacyReport, check_transitivity
from .search import count_semigroups, enumerate_models, is_variant_of_cr, semigroup_tables
from .corpus import (
    corpus_names,
    emit_semigroup,
    load_corpus,
    load_semigroup,
    parse_semigroup,
)

__version__ = "0.1.0"
