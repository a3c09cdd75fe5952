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
    emit_semigroup,
    find_isomorphism,
    identity_of,
    load_semigroup,
    parse_semigroup,
    validate,
)
from .green import GreenStructure, green, idempotents, is_group_h_class
from .epigroup import (
    EpigroupData,
    epigroup_data,
    is_completely_regular,
    pseudoinverse_map,
    verify_epigroup_identities,
)
from .varieties import (
    Identity,
    VarietyReport,
    eval_term,
    find_counterexample,
    in_E,
    in_V,
    in_W,
    in_W_structural,
    parse_identity,
    parse_term,
)
from .variants import (
    check_pseudoinverse_transport,
    is_variant_of_cr,
    star,
    unary_variant,
    variant,
)
from .conjugacy import ConjugacyReport, check_transitivity
from .search import (
    count_semigroups,
    enumerate_models,
    semigroup_tables,
)
from .corpus import corpus_names, load_corpus

__version__ = "0.1.0"
