"""Workbench for finite semigroups, index-map systems and their products.

The package namespace is filled on first use: ``import lamrho`` loads no
submodule, and the first access to any exported name (``lamrho.Z2``,
``from lamrho import Z2``, ``from lamrho import *``) imports the seven
library modules below, in this order, and binds every exported name. A
command-line run therefore loads only the modules its command calls.
"""

import importlib

_EXPORTS = {
    "errors": (
        "ActionLawError", "AxiomViolationError", "ComposeMismatchError",
        "EmptyFiberError", "EmptyGeneratorsError", "IdealViolationError",
        "InputFormatError", "InvalidPartitionError", "LamrhoError", "MapRangeError",
        "NonAssociativeError", "NotACongruenceError", "NotAHomomorphismError",
        "NotClosedError", "NotGroupPreservingError", "NotIdempotentError",
        "NotIsomorphicError", "OutOfRangeEntryError", "SearchCapError", "SizeCapError",
        "SquareViolationError", "TableFormatError",
    ),
    "semigroup": (
        "CATALOG", "JOIN2", "L2", "L2_1", "MEET2", "R2", "TRIVIAL", "Z2", "Z3",
        "DivisionWitness", "FiniteSemigroup", "Homomorphism", "Partition",
        "all_congruences", "builtin_semigroup", "congruence_generated_by",
        "direct_product", "divides", "find_isomorphism", "identity_element",
        "is_congruence", "is_group", "quotient", "subsemigroup_closure",
        "subsemigroup_table", "validate_table",
    ),
    "system": (
        "AxiomViolation", "LrSystem", "UnitalCheck", "axiom_violations",
        "empty_support_ideal", "enumerate_systems", "is_group_preserving", "is_unital",
        "validate_axioms",
    ),
    "product": (
        "AssociativityReport", "ProductElement", "associativity_oracle",
        "element_as_subset", "embed_base", "embed_fiber", "multiply",
        "nonassociativity_witness", "product_table", "subset_multiply",
        "triple_associates", "universe", "universe_size",
    ),
    "actions": (
        "RightAction", "TwoSidedAction", "block_product_oracle", "builtin_system",
        "empty_system", "from_right_action", "from_two_sided_action",
        "natural_two_sided_action", "singleton_system", "two_sided_wreath_oracle",
        "wreath_oracle",
    ),
    "category": (
        "FreeInducedHom", "FreeTransformation", "SystemMorphism", "Transformation",
        "TruncatedFreeSystem", "canonical_component_alt", "canonical_components",
        "canonical_transformation", "compose_transformations", "free_monoid_system",
        "free_semigroup_system", "identity_transformation", "induced_free_hom",
        "induced_hom", "is_system_isomorphism", "pullback_system", "restrict",
        "validate_transformation",
    ),
    "groupwreath": (
        "BijectivityCheck", "CorollaryReport", "WreathIsoReport", "check_bijectivity",
        "composite_action_identity_holds", "corollary_demo", "derive_action",
        "verify_wreath_iso", "wreathize",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
_EXPORTED = frozenset(__all__)

__version__ = "0.1.0"


def _load() -> None:
    namespace = globals()
    for module, names in _EXPORTS.items():
        mod = importlib.import_module(f".{module}", __name__)
        for name in names:
            namespace[name] = getattr(mod, name)


def __getattr__(name):
    # only exported names load the library; any other name fails here, so
    # ``from lamrho import serialize`` falls through to the submodule import
    if name not in _EXPORTED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load()
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | _EXPORTED)
