"""The package namespace contract and the modules each CLI command loads."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import lamrho

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lamrho.__file__)))

# the names ``lamrho`` exported when its __init__ imported every module eagerly
EXPORTS = [
    # errors
    "ActionLawError", "AxiomViolationError", "ComposeMismatchError",
    "EmptyFiberError", "EmptyGeneratorsError", "IdealViolationError",
    "InputFormatError", "InvalidPartitionError", "LamrhoError", "MapRangeError",
    "NonAssociativeError", "NotACongruenceError", "NotAHomomorphismError",
    "NotClosedError", "NotGroupPreservingError", "NotIdempotentError",
    "NotIsomorphicError", "OutOfRangeEntryError", "SearchCapError", "SizeCapError",
    "SquareViolationError", "TableFormatError",
    # semigroup
    "CATALOG", "JOIN2", "L2", "L2_1", "MEET2", "R2", "TRIVIAL", "Z2", "Z3",
    "DivisionWitness", "FiniteSemigroup", "Homomorphism", "Partition",
    "all_congruences", "builtin_semigroup", "congruence_generated_by",
    "direct_product", "divides", "find_isomorphism", "identity_element",
    "is_congruence", "is_group", "quotient", "subsemigroup_closure",
    "subsemigroup_table", "validate_table",
    # system
    "AxiomViolation", "LrSystem", "UnitalCheck", "axiom_violations",
    "empty_support_ideal", "enumerate_systems", "is_group_preserving", "is_unital",
    "validate_axioms",
    # product
    "AssociativityReport", "ProductElement", "associativity_oracle",
    "element_as_subset", "embed_base", "embed_fiber", "multiply",
    "nonassociativity_witness", "product_table", "subset_multiply",
    "triple_associates", "universe", "universe_size",
    # actions
    "RightAction", "TwoSidedAction", "block_product_oracle", "builtin_system",
    "empty_system", "from_right_action", "from_two_sided_action",
    "natural_two_sided_action", "singleton_system", "two_sided_wreath_oracle",
    "wreath_oracle",
    # category
    "FreeInducedHom", "FreeTransformation", "SystemMorphism", "Transformation",
    "TruncatedFreeSystem", "canonical_component_alt", "canonical_components",
    "canonical_transformation", "compose_transformations", "free_monoid_system",
    "free_semigroup_system", "identity_transformation", "induced_free_hom",
    "induced_hom", "is_system_isomorphism", "pullback_system", "restrict",
    "validate_transformation",
    # groupwreath
    "BijectivityCheck", "CorollaryReport", "WreathIsoReport", "check_bijectivity",
    "composite_action_identity_holds", "corollary_demo", "derive_action",
    "verify_wreath_iso", "wreathize",
]

LIBRARY = [
    "lamrho", "lamrho.actions", "lamrho.category", "lamrho.errors",
    "lamrho.groupwreath", "lamrho.product", "lamrho.semigroup", "lamrho.system",
]


def fresh(code, *argv):
    """Run ``code`` in a new interpreter that imports lamrho from SRC;
    returns what it prints, decoded as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)


def test_exports_are_unchanged():
    assert lamrho.__all__ == EXPORTS
    assert len(set(EXPORTS)) == len(EXPORTS)
    assert set(EXPORTS) <= set(dir(lamrho))


def test_each_export_is_its_module_object():
    for module, names in lamrho._EXPORTS.items():
        mod = importlib.import_module(f"lamrho.{module}")
        for name in names:
            assert getattr(lamrho, name) is getattr(mod, name), name


def test_cli_default_cap_is_the_universe_cap():
    from lamrho import cli, product

    assert cli.DEFAULT_UNIVERSE_CAP == product.DEFAULT_UNIVERSE_CAP


def test_cli_iso_cap_is_the_library_iso_cap():
    from lamrho import cli, semigroup

    assert cli.DEFAULT_ISO_CAP == semigroup.DEFAULT_ISO_CAP


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        lamrho.nope  # noqa: B018
    assert not hasattr(lamrho, "nope")


def test_one_public_access_loads_the_library():
    loaded = fresh(
        "import json, sys\n"
        "import lamrho\n"
        "before = sorted(m for m in sys.modules if m.split('.')[0] == 'lamrho')\n"
        "lamrho.Z2\n"
        "after = sorted(m for m in sys.modules if m.split('.')[0] == 'lamrho')\n"
        "print(json.dumps([before, after]))\n"
    )
    assert loaded == [["lamrho"], LIBRARY]


def test_star_import_binds_every_export():
    bound = fresh(
        "import json\n"
        "from lamrho import *\n"
        "import lamrho\n"
        "print(json.dumps([n for n in lamrho.__all__ if globals()[n] is not getattr(lamrho, n)]))\n"
    )
    assert bound == []


CLI_MODULES = """
import contextlib, io, json, sys
from lamrho.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m[7:] for m in sys.modules if m.startswith("lamrho."))]))
"""

SEMIGROUP_ONLY = ["cli", "errors", "semigroup"]
WITH_SERIALIZE = ["cli", "errors", "semigroup", "serialize"]
WITH_SYSTEM = ["actions", "cli", "errors", "semigroup", "serialize", "system"]


@pytest.mark.parametrize(
    "argv,code,modules",
    [
        (["examples"], 0, WITH_SERIALIZE),
        (["iso", "--base", "z2", "--h", "l2"], 1, SEMIGROUP_ONLY),
        (["divides", "--base", "l2_1", "--h", "join2"], 0, SEMIGROUP_ONLY),
        (["quotient", "--base", "z3", "--partition", "[[0,1,2]]"], 0, WITH_SERIALIZE),
        (["validate", "--base", "{FILE}"], 0, WITH_SERIALIZE),
        (["validate", "--system", "flipflop_system"], 0, WITH_SYSTEM),
        (["validate", "--action", '{"carrier": 2, "base": "z2", "act": [[0, 1], [1, 0]]}'],
         0, WITH_SYSTEM),
        (["free", "--sizes", "1,2"], 0,
         ["category", "cli", "errors", "product", "semigroup", "system"]),
    ],
)
def test_light_commands_load_no_engine(tmp_path, argv, code, modules):
    path = tmp_path / "l2_1.json"
    path.write_text('{"size": 3, "table": [[0, 0, 0], [1, 1, 1], [0, 1, 2]]}')
    argv = [str(path) if a == "{FILE}" else a for a in argv]
    assert fresh(CLI_MODULES, *argv) == [code, modules]


# the modules a command adds, so that a site hook importing one does not count
ADDED_MODULES = """
import sys
before = set(sys.modules)
import contextlib, io, json
if sys.argv[1:] == ["Z2"]:
    import lamrho
    lamrho.Z2
else:
    from lamrho.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        main(sys.argv[1:])
print(json.dumps(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["examples"],
        ["iso", "--base", "z2", "--h", "z2"],
        ["validate", "--system", "flipflop_system"],
        ["enumerate", "--base", "join2", "--sizes", "1,1"],
        ["product", "--base", "flipflop_system", "--h", "z2"],
        ["free", "--sizes", "1,2"],
        ["corollary"],
        ["Z2"],  # a public name, which loads the whole library
    ],
)
def test_no_command_imports_dataclasses_or_inspect(argv):
    assert fresh(ADDED_MODULES, *argv) == []
