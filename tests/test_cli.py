import json
import os
import subprocess
import sys

import pytest

import lamrho
from lamrho import serialize
from lamrho.cli import main
from lamrho import Z2, builtin_system, product_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_product_prints_the_six_by_six(capsys):
    code, out, _ = run(capsys, "product", "--base", "flipflop_system", "--h", "z2")
    assert code == 0
    assert "1:01" in out
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 7  # header plus six rows


def test_product_from_files(capsys, tmp_path):
    sys_path = tmp_path / "flip.json"
    serialize.dump_json(
        serialize.system_to_dict(builtin_system("flip_flop")), str(sys_path)
    )
    h_path = tmp_path / "z2.json"
    serialize.dump_json(serialize.semigroup_to_dict(Z2), str(h_path))
    code, out, _ = run(
        capsys, "product", "--base", str(sys_path), "--h", str(h_path),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    expected = product_table(Z2, builtin_system("flip_flop"))
    assert payload == serialize.semigroup_to_dict(expected)


def test_validate_good_and_bad_system(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "--system", "flipflop_system")
    assert code == 0 and "system ok" in out

    doc = serialize.system_to_dict(builtin_system("flip_flop"))
    doc["lambda"]["1,0"] = [0, 0]  # breaks (alpha) at (1,0,1)
    bad = tmp_path / "bad.json"
    serialize.dump_json(doc, str(bad))
    code, _, err = run(capsys, "validate", "--system", str(bad))
    assert code == 1
    assert "alpha" in err and "(1,0,1)" in err


def test_validate_nonassociative_table(capsys):
    code, _, err = run(
        capsys, "validate", "--base", '{"size":2,"table":[[1,0],[0,0]]}'
    )
    assert code == 1
    assert "not associative" in err


NOT_ASSOCIATIVE_2 = '{"size":2,"table":[[1,0],[0,0]]}'
ONE_POINT_MAPS = {f"{a},{b}": [0] for a in range(2) for b in range(2)}
OVER_NOT_ASSOCIATIVE_2 = {
    "system": json.dumps(
        {"base": json.loads(NOT_ASSOCIATIVE_2), "index_sizes": [1, 1],
         "lambda": ONE_POINT_MAPS, "rho": ONE_POINT_MAPS}
    ),
    "action": json.dumps(
        {"base": json.loads(NOT_ASSOCIATIVE_2), "carrier": 1,
         "left": [[0], [0]], "right": [[0, 0]]}
    ),
}


@pytest.mark.parametrize(
    "argv,doc",
    [
        (("validate", "--system"), "system"),
        (("validate", "--action"), "action"),
        (("product", "--h", "z2", "--base"), "system"),
        (("examples", "--system"), "system"),
    ],
)
def test_a_nested_base_is_refused_as_the_same_base_given_alone(capsys, argv, doc):
    _, _, alone = run(capsys, "validate", "--base", NOT_ASSOCIATIVE_2)
    code, out, err = run(capsys, *argv, OVER_NOT_ASSOCIATIVE_2[doc])
    assert (code, out, err) == (1, "", alone)
    assert alone.startswith("not verified: not associative")


def test_examples_refuses_a_base_that_does_not_associate(capsys):
    # the dump reads its base through the same check as every other --base
    code, out, err = run(capsys, "examples", "--base", NOT_ASSOCIATIVE_2)
    assert (code, out) == (1, "")
    assert err == "not verified: not associative: (0*0)*1 = 0 but 0*(0*1) = 1\n"


@pytest.mark.parametrize("names", ["[]", '["a"]'])
def test_validate_names_of_the_wrong_length_are_input_errors(capsys, names):
    # an empty list is a list of the wrong length, not an absent field
    doc = '{"size":2,"table":[[0,1],[1,0]],"names":%s}' % names
    code, out, err = run(capsys, "validate", "--base", doc)
    assert (code, out) == (2, "")
    assert "field 'names'" in err


def test_validate_malformed_file_is_input_error(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "validate", "--base", str(bad))
    assert code == 2
    assert "input error" in err


def test_json_booleans_are_input_errors(capsys):
    # true == 1 in Python; JSON booleans must not pass as element indices
    system = serialize.system_to_dict(builtin_system("flip_flop"))
    sizes_doc = dict(system, index_sizes=[True, 2])
    lambda_doc = dict(system, **{"lambda": dict(system["lambda"], **{"0,0": [True]})})
    cases = [
        (("validate", "--base", '{"size":2,"table":[[true,0],[0,1]]}'), "table"),
        (("validate", "--base", '{"size":true,"table":[[0]]}'), "size"),
        (("validate", "--system", json.dumps(sizes_doc)), "index_sizes"),
        (("validate", "--system", json.dumps(lambda_doc)), "lambda[0,0]"),
        (("quotient", "--base", "z2", "--partition", "[[0],[true]]"), "classes"),
    ]
    for argv, field in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and f"field '{field}'" in err


@pytest.mark.parametrize(
    "command,flag,doc,field",
    [
        ("quotient", "--partition", "[[0, 1], [1, 2]]", "classes"),
        ("free", "--system", '{"lambda": []}', "shared_size"),
        ("free", "--system", '{"shared_size": 2}', "lambda"),
        ("free", "--system", '{"shared_size": 2, "lambda": []}', "rho"),
    ],
)
def test_input_errors_name_the_inline_spec_or_the_file(
    capsys, tmp_path, command, flag, doc, field
):
    base = ["--base", "z3"] if command == "quotient" else []
    path = tmp_path / "spec.json"
    path.write_text(doc)
    for spec, where in ((doc, "<inline>"), (str(path), str(path))):
        code, out, err = run(capsys, command, *base, flag, spec)
        assert code == 2 and out == ""
        assert err.startswith(f"input error: {where}: field '{field}': "), spec


def test_free_spec_must_be_an_object(capsys):
    for spec, field in (
        ("[1]", "<json>"),
        ('{"shared_size": true}', "shared_size"),
        ('{"shared_size": 2, "lambda": 5}', "lambda"),
    ):
        code, out, err = run(capsys, "free", "--system", spec)
        assert code == 2, spec
        assert out == "" and f"field '{field}'" in err


def test_validate_action_law_failure_is_verification_error(capsys):
    # well-formed document whose action breaks the unit law
    doc = json.dumps(
        {"carrier": 2, "base": "z2", "act": [[1, 0], [0, 1]]}
    )
    code, _, err = run(capsys, "validate", "--action", doc)
    assert code == 1
    assert "not verified" in err


MALFORMED_ACTIONS = [
    ('{"base": "z2", "carrier": -1, "act": []}', "carrier", "-1 is negative"),
    ('{"base": "z2", "carrier": 1, "act": [[0]]}', "act[0]", "1 entries, expected 2"),
    ('{"base": "z2", "carrier": 1, "act": [[0, 1]]}', "act[0]",
     "value 1 is outside the carrier"),
    (
        '{"base": "z2", "carrier": 2, "left": [[0, 1], [1, 0]],'
        ' "right": [[0, 1], [1]]}',
        "right[1]",
        "1 entries, expected 2",
    ),
    ('{"base": "l2", "carrier": 2, "left": [[0, 1], [0, 1]]}', "act",
     "missing (or give 'left' and 'right')"),
    ('{"base": "l2", "carrier": -1, "left": [[0, 1], [0, 1]], "right": []}', "carrier",
     "-1 is negative"),
    ('{"base": "l2", "carrier": 2, "left": [[0, 1], [0]], "right": [[0, 0], [1, 1]]}',
     "left[1]", "1 entries, expected 2"),
]


@pytest.mark.parametrize(
    "doc, field, message",
    MALFORMED_ACTIONS,
    ids=[f"{doc}-{field}" for doc, field, _ in MALFORMED_ACTIONS],
)
def test_malformed_action_is_input_error(capsys, doc, field, message):
    # shape errors are caught at the reader; only law failures exit 1
    code, out, err = run(capsys, "validate", "--action", doc)
    assert code == 2
    assert out == "" and err == f"input error: <inline>: field '{field}': {message}\n"


def test_validate_good_action(capsys):
    doc = json.dumps(
        {"carrier": 2, "base": "z2", "act": [[0, 1], [1, 0]]}
    )
    code, out, _ = run(capsys, "validate", "--action", doc)
    assert code == 0
    assert "action ok" in out


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "corollary", "--bogus")
    assert code == 2


@pytest.mark.parametrize(
    "argv,usage",
    [
        (["--x", "validate", "--base", "z2"], "usage: lamrho [-h]"),
        (["validate", "--base", "z2", "--x"], "usage: lamrho validate "),
    ],
)
def test_a_leftover_is_reported_by_the_parser_it_was_given_to(capsys, argv, usage):
    # before the command it is the top level's, after it the command's
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(usage)
    assert err.endswith("error: unrecognized arguments: --x\n")


def test_quotient(capsys):
    code, out, _ = run(
        capsys,
        "quotient",
        "--base",
        '{"size":2,"table":[[0,1],[1,0]]}',
        "--partition",
        "[[0,1]]",
    )
    assert code == 0


def test_quotient_rejects_non_congruence(capsys, tmp_path):
    prod = product_table(Z2, builtin_system("flip_flop"))
    path = tmp_path / "prod.json"
    serialize.dump_json(serialize.semigroup_to_dict(prod), str(path))
    code, _, err = run(
        capsys, "quotient", "--base", str(path), "--partition", "[[0,2],[1],[3],[4],[5]]"
    )
    assert code == 1
    assert "not verified" in err


def test_iso(capsys):
    code, out, _ = run(capsys, "iso", "--base", "z2", "--h",
                       '{"size":2,"table":[[1,0],[0,1]]}')
    assert code == 0 and "isomorphic" in out
    code, out, _ = run(capsys, "iso", "--base", "l2", "--h", "r2")
    assert code == 1 and "absent" in out


def test_divides(capsys, tmp_path):
    prod = product_table(Z2, builtin_system("flip_flop"))
    path = tmp_path / "prod.json"
    serialize.dump_json(serialize.semigroup_to_dict(prod), str(path))
    code, out, _ = run(
        capsys, "divides", "--base", str(path), "--h", "l2_1", "--quotient-only"
    )
    assert code == 0 and "divides" in out
    code, out, _ = run(capsys, "divides", "--base", "z2", "--h", "z3")
    assert code == 1 and "absent" in out


L4 = '{"size":4,"table":[[0,0,0,0],[1,1,1,1],[2,2,2,2],[3,3,3,3]]}'
L4_1 = ('{"size":5,"table":[[0,1,2,3,4],[1,1,1,1,1],[2,2,2,2,2],'
        '[3,3,3,3,3],[4,4,4,4,4]]}')


def test_divides_past_three_generators(capsys):
    # L4 needs its 4 left zeros as generators; L4 with an identity holds them
    code, out, _ = run(capsys, "divides", "--base", L4_1, "--h", L4)
    assert code == 0
    assert out == "divides: quotient witness with classes {1}, {2}, {3}, {4}\n"
    code, out, _ = run(capsys, "divides", "--base", L4_1, "--h", L4, "--quotient-only")
    assert code == 1 and out.startswith("absent")


def test_divides_past_the_isomorphism_cap(capsys, tmp_path):
    # a 64-element table divides itself; the quotient search is uncapped
    from lamrho import JOIN2, RightAction, from_right_action

    trivial = RightAction(JOIN2, 5, tuple((x, x) for x in range(5)))
    big = product_table(Z2, from_right_action(trivial))
    path = tmp_path / "p64.json"
    serialize.dump_json(serialize.semigroup_to_dict(big), str(path))
    code, out, _ = run(
        capsys, "divides", "--base", str(path), "--h", str(path), "--quotient-only"
    )
    assert code == 0 and out.startswith("divides: quotient witness")


NON_ASSOCIATIVE = '{"size":4,"table":[[2,1,1,3],[2,0,3,0],[1,2,0,2],[3,1,2,2]]}'


@pytest.mark.parametrize(
    "argv",
    [
        ("iso", "--base", NON_ASSOCIATIVE, "--h", "z2"),
        ("iso", "--base", "z2", "--h", NON_ASSOCIATIVE),
        ("divides", "--base", NON_ASSOCIATIVE, "--h", "z2", "--quotient-only"),
        ("divides", "--base", "l2_1", "--h", NON_ASSOCIATIVE),
    ],
)
def test_iso_and_divides_validate_their_tables(capsys, argv):
    # a magma is refused with its first non-associative triple before any
    # congruence or isomorphism search runs on it
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "not verified: not associative: (0*0)*1 = 2 but 0*(0*1) = 1\n"


def test_corollary(capsys):
    code, out, _ = run(capsys, "corollary")
    assert code == 0
    assert "flip_flop" in out and "left_zero" in out
    code, out, _ = run(capsys, "corollary", "--format", "json")
    payload = json.loads(out)
    assert len(payload["branches"]) == 2


def test_examples(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert "flipflop_system" in out and "z2" in out
    code, out, _ = run(capsys, "examples", "--system", "lzero_system", "--format", "json")
    assert code == 0
    assert json.loads(out)["index_sizes"] == [2]


def test_free_semigroup_mode(capsys):
    code, out, _ = run(capsys, "free", "--sizes", "1,2", "--bound", "3")
    assert code == 0
    assert "axioms ok: True" in out


def test_free_monoid_mode(capsys):
    spec = json.dumps(
        {"shared_size": 2, "lambda": [[0, 1]], "rho": [[0, 1]]}
    )
    code, out, _ = run(capsys, "free", "--system", spec, "--bound", "3")
    assert code == 0
    assert "unital on truncated domain: True" in out


def test_free_with_no_letters_stops_after_the_empty_word():
    # with an empty alphabet only the empty word exists, whatever the bound
    src = os.path.dirname(os.path.dirname(os.path.abspath(lamrho.__file__)))
    spec = '{"shared_size": 1, "lambda": [], "rho": []}'
    proc = subprocess.run(
        [sys.executable, "-m", "lamrho.cli", "free", "--system", spec,
         "--bound", "1000000"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert "1 words" in proc.stdout


def test_wreathize(capsys):
    spec = {
        "base": "z2",
        "index_sizes": [2, 2],
        "lambda": {"0,0": [0, 1], "0,1": [0, 1], "1,0": [0, 1], "1,1": [0, 1]},
        "rho": {"0,0": [0, 1], "0,1": [0, 1], "1,0": [1, 0], "1,1": [1, 0]},
    }
    code, out, _ = run(capsys, "wreathize", "--system", json.dumps(spec))
    assert code == 0
    assert "derived action" in out


def test_wreathize_rejects_non_group(capsys):
    code, _, err = run(capsys, "wreathize", "--system", "flipflop_system")
    assert code == 1
    assert "not verified" in err


def test_enumerate_deterministic(capsys):
    code, out1, _ = run(
        capsys, "enumerate", "--base", "trivial", "--sizes", "2", "--seed", "5",
        "--format", "json",
    )
    assert code == 0
    code, out2, _ = run(
        capsys, "enumerate", "--base", "trivial", "--sizes", "2", "--seed", "5",
        "--format", "json",
    )
    assert out1 == out2
    assert len(out1.splitlines()) == 7


def test_enumerate_pretty_output(capsys):
    code, out, _ = run(capsys, "enumerate", "--base", "join2", "--sizes", "1,1")
    assert code == 0
    assert out == (
        "system 1: lambda={'0,0': [0], '0,1': [0], '1,0': [0], '1,1': [0]} "
        "rho={'0,0': [0], '0,1': [0], '1,0': [0], '1,1': [0]}\n"
        "total: 1 system(s), limit 100\n"
    )


def test_repeat_runs_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "product", "--base", "lzero_system", "--h", "z2",
                     "--format", "json")
    _, out2, _ = run(capsys, "product", "--base", "lzero_system", "--h", "z2",
                     "--format", "json")
    assert out1 == out2


def test_out_writes_reloadable_artifact(capsys, tmp_path):
    out_path = tmp_path / "table.json"
    code, _, _ = run(
        capsys, "product", "--base", "flipflop_system", "--h", "z2",
        "--out", str(out_path),
    )
    assert code == 0
    reloaded = serialize.load_semigroup(str(out_path))
    assert reloaded == product_table(Z2, builtin_system("flip_flop"))


@pytest.mark.parametrize(
    "argv",
    [
        ("product", "--base", "flipflop_system", "--h", "z2"),
        ("quotient", "--base", "{P6}", "--partition", "[[0],[1],[2,3],[4,5]]"),
        ("examples",),
        ("examples", "--base", "l2_1"),
    ],
)
def test_out_file_holds_the_bytes_of_the_json_output(capsys, tmp_path, argv):
    p6 = tmp_path / "p6.json"
    serialize.dump_json(
        serialize.semigroup_to_dict(product_table(Z2, builtin_system("flip_flop"))), str(p6)
    )
    argv = [str(p6) if a == "{P6}" else a for a in argv]
    json_out, text_out = tmp_path / "json.out", tmp_path / "text.out"
    code, out, _ = run(capsys, *argv, "--format", "json", "--out", str(json_out))
    assert code == 0 and out.endswith("}\n")
    assert json_out.read_bytes() == out.encode("utf-8")
    # the pretty format prints a table, and its --out file is the same JSON
    code, pretty, _ = run(capsys, *argv, "--out", str(text_out))
    assert code == 0 and pretty != out
    assert text_out.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ("free", "--sizes", "1,2", "--bound", "0"),
        ("free", "--sizes", "1,-1"),
        ("free", "--system", '{"shared_size": 2, "lambda": [[0, 5]], "rho": [[0, 1]]}'),
        ("enumerate", "--base", "z2", "--sizes", "1"),
        ("enumerate", "--base", "z2", "--sizes", "1,-1"),
    ],
)
def test_malformed_maps_sizes_and_bounds_are_input_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("product", "--base", "flipflop_system", "--h", "z3", "--cap", "10"),
         "inconclusive: universe has 12 elements, cap is 10"),
        (("iso", "--base", "z2", "--h", "z2", "--cap", "1"),
         "inconclusive: isomorphism search capped at 1 elements"),
        # the decision alone needs 12 extensions
        (("divides", "--base", L4_1, "--h", L4, "--cap", "10"),
         "inconclusive: division search capped at 10 map-search nodes"),
    ],
)
def test_cap_hit_is_inconclusive_not_refuted(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(expected) and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,expected",
    [
        # the count itself has more digits than int-to-str allows
        (("enumerate", "--base", "trivial", "--sizes", "3000"),
         "lam[0,0] has 3000**3000 = at least 2**34652 maps, cap is 16777216 codes"),
        # and building it took 40 s, or did not end
        (("enumerate", "--base", "trivial", "--sizes", "3000000"),
         "lam[0,0] has 3000000**3000000 maps, cap is 16777216 codes"),
        (("enumerate", "--base", "trivial", "--sizes", "99999999999"),
         "lam[0,0] has 99999999999**99999999999 maps, cap is 16777216 codes"),
        # a universe of 3**10000 elements
        (("product", "--base", "{BIG}", "--h", "z3"),
         "universe has at least 2**15849 elements, cap is 1000000"),
        # one map into a 1-point fiber, of 10**8 points
        (("enumerate", "--base", "z2", "--sizes", "1,100000000"),
         "lam[0,1] is one map on I[1], which has 100000000 points, cap is 1048576"),
    ],
)
def test_cap_hit_on_a_large_count_is_inconclusive(tmp_path, argv, expected):
    big = tmp_path / "big.json"
    identity = list(range(10000))
    big.write_text(json.dumps({
        "base": "trivial", "index_sizes": [10000],
        "lambda": {"0,0": identity}, "rho": {"0,0": identity},
    }))
    src = os.path.dirname(os.path.dirname(os.path.abspath(lamrho.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "lamrho.cli",
         *(str(big) if a == "{BIG}" else a for a in argv)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"inconclusive: {expected}\n"


def test_file_errors_are_input_errors(capsys, tmp_path):
    latin = tmp_path / "latin1.json"
    latin.write_bytes(b'{"size": 1, "table": [[0]], "names": ["\xe9"]}')
    cases = [
        (("validate", "--base", str(tmp_path)), str(tmp_path)),
        (("validate", "--base", str(latin)), str(latin)),
        (("quotient", "--base", "z2", "--partition", str(tmp_path)), str(tmp_path)),
        (("product", "--base", "flipflop_system", "--h", "z2",
          "--out", str(tmp_path / "missing" / "x.json")), str(tmp_path / "missing")),
    ]
    for argv, path in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith(f"input error: {path}") and "Traceback" not in err


@pytest.mark.parametrize("text", ["[" * 100000, "[" + "9" * 5000 + "]"])
def test_json_past_the_decoder_limits_is_input_error(capsys, tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    for spec in (text, str(path)):
        code, out, err = run(capsys, "iso", "--base", spec, "--h", "z2")
        assert code == 2
        assert out == "" and err.startswith("input error:")


@pytest.mark.parametrize("text", ['"size table"', "5", "null"], ids=["string", "number", "null"])
@pytest.mark.parametrize("flag", ["--base", "--system", "--action"], ids=lambda f: f[2:])
def test_document_that_is_not_an_object_is_input_error(capsys, tmp_path, flag, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run(capsys, "validate", flag, str(path))
    assert code == 2
    assert out == "" and "expected a JSON object" in err


def test_partition_with_an_empty_class_is_input_error(capsys):
    code, out, err = run(capsys, "quotient", "--base", "z2", "--partition", "[[0,1],[]]")
    assert code == 2 and out == ""
    assert err == "input error: <inline>: field 'classes': empty class\n"


FLIP_DOC = serialize.system_to_dict(builtin_system("flip_flop"))


@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps(FLIP_DOC).replace('"0,1"', '"0,0_1"', 1),
         "field 'lambda[0,0_1]': key must look like 'a,b'"),
        (json.dumps(FLIP_DOC)[:-2] + ', " 0, 1": [7, 7]}}',
         "field 'rho[ 0, 1]': key must look like 'a,b'"),
        (json.dumps(FLIP_DOC).replace('"1,1"', '"0,1"'),
         "field '<json>': key '0,1' repeated in one object"),
    ],
    ids=["underscore", "spaced-twin", "repeated"],
)
def test_system_key_that_is_not_exact_is_input_error(capsys, tmp_path, text, message):
    path = tmp_path / "flip.json"
    path.write_text(text)
    for command in ("validate", "examples"):
        code, out, err = run(capsys, command, "--system", str(path))
        assert code == 2 and out == ""
        assert err == f"input error: {path}: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--base", "z2", "--sizes", "1,1", "--cap", "0"),
        ("enumerate", "--base", "z2", "--sizes", "1,1", "--cap", "-1"),
        ("divides", "--base", "l2_1", "--h", "z2", "--cap", "0"),
        ("iso", "--base", "z2", "--h", "z2", "--cap", "-5"),
        ("product", "--base", "flipflop_system", "--h", "z2", "--cap", "0"),
    ],
)
def test_cap_must_be_positive(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "--cap: must be a positive integer" in err


def test_free_cap_is_inconclusive(capsys):
    # lengths 1, 2, 3 hold 5, 26 and 105 letters and fiber coordinates
    code, out, err = run(capsys, "free", "--sizes", "1,2", "--bound", "3", "--cap", "30")
    assert code == 1
    assert out == ""
    assert err == (
        "inconclusive: free system of bound 3 holds 31 letters and fiber "
        "coordinates up to length 2, cap is 30\n"
    )
    code, _, _ = run(capsys, "free", "--sizes", "1,2", "--bound", "3", "--cap", "136")
    assert code == 0  # at the cap, not past it


def test_free_axiom_walk_is_capped_before_it_runs(capsys):
    # 999 * 1000 letters and coordinates pass the default cap, but the
    # C(999, 3) = 1.7e8 word triples of the axiom check do not
    code, out, err = run(capsys, "free", "--sizes", "1", "--bound", "999")
    assert code == 1
    assert out == ""
    assert err == (
        "inconclusive: free system of bound 999 has at least 1004731 word "
        "triples to check, cap is 1000000\n"
    )


FREE_UNDER_RLIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))
from lamrho.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ("free", "--sizes", "1,2", "--bound", "100"),
        ("free", "--sizes", "1", "--bound", "100000"),
        ("free", "--system", '{"shared_size": 1000000000000, "lambda": [], "rho": []}'),
    ],
)
def test_free_cap_applies_before_allocation(argv):
    # in a child with 512 MB of address space: a cap checked after the
    # words are built fails here with MemoryError instead of exhausting
    # the machine
    src = os.path.dirname(os.path.dirname(os.path.abspath(lamrho.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", FREE_UNDER_RLIMIT, *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("inconclusive: free system of bound")
    assert "cap is 1000000" in proc.stderr


def test_free_check_walks_only_in_bound_pairs():
    # 19,530 words: 3.8e8 word pairs, of which 92,775 are within bound 6; a
    # check that steps through every pair ran past 120 s on a 2-core VM
    src = os.path.dirname(os.path.dirname(os.path.abspath(lamrho.__file__)))
    argv = ("free", "--sizes", "1,1,1,1,1", "--bound", "6")
    proc = subprocess.run(
        [sys.executable, "-c", FREE_UNDER_RLIMIT, *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "axiom instances checked (within bound): 177000\n" in proc.stdout


# The flags each command reads, kept here rather than read from the parser
# table so that a change to either shows up as a failure.
READS = {
    "validate": ("--base", "--system", "--action"),
    "product": ("--base", "--h", "--cap", "--format", "--out"),
    "quotient": ("--base", "--partition", "--format", "--out"),
    "iso": ("--base", "--h", "--cap", "--format", "--out"),
    "divides": ("--base", "--h", "--cap", "--quotient-only", "--format", "--out"),
    "examples": ("--base", "--system", "--format", "--out"),
    "free": ("--system", "--sizes", "--bound", "--cap", "--format", "--out"),
    "wreathize": ("--system", "--cap", "--format", "--out"),
    "corollary": ("--format", "--out"),
    "enumerate": ("--base", "--sizes", "--cap", "--seed", "--format", "--out"),
}
# the flags a command cannot run without; a tuple means exactly one of them
REQUIRED = {
    "product": ("--base", "--h"),
    "quotient": ("--base", "--partition"),
    "iso": ("--base", "--h"),
    "divides": ("--base", "--h"),
    "free": (("--system", "--sizes"),),
    "wreathize": ("--system",),
    "enumerate": ("--base", "--sizes"),
}
# flags a command reads, but never both at once
EXCLUSIVE = {"examples": ("--base", "--system"), "free": ("--system", "--sizes")}
SAMPLE = {
    "--base": "z2", "--h": "z2", "--system": "lzero_system", "--action": "a.json",
    "--partition": "[[0,1]]", "--bound": "3", "--seed": "1", "--cap": "5",
    "--sizes": "1", "--quotient-only": None, "--format": "json", "--out": "o.json",
}
ALL_FLAGS = sorted(SAMPLE)


def minimal_argv(command, flag=None):
    """The command with its required flags, choosing ``flag`` from a group."""
    argv = [command]
    for item in REQUIRED.get(command, ()):
        chosen = (flag if flag in item else item[0]) if isinstance(item, tuple) else item
        argv += [chosen, SAMPLE[chosen]]
    return argv


def with_flag(argv, flag):
    if flag in argv:
        return argv
    return argv + [flag] + ([] if SAMPLE[flag] is None else [SAMPLE[flag]])


def parses(argv):
    from lamrho.cli import build_parser

    try:
        return build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"{argv} exited {exc.code}")


def test_flag_tables_cover_every_command():
    from lamrho.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert sorted(sub.choices) == sorted(READS)


@pytest.mark.parametrize(
    "command,flag", [(c, f) for c in sorted(READS) for f in READS[c]]
)
def test_each_command_accepts_the_flags_it_reads(command, flag):
    args = parses(with_flag(minimal_argv(command, flag), flag))
    dest = flag[2:].replace("-", "_")
    expected = True if SAMPLE[flag] is None else SAMPLE[flag]
    if flag in ("--bound", "--seed", "--cap"):
        expected = int(expected)
    assert getattr(args, dest) == expected


@pytest.mark.parametrize(
    "command,flag",
    [(c, f) for c in sorted(READS) for f in ALL_FLAGS if f not in READS[c]],
)
def test_each_command_refuses_the_flags_it_does_not_read(capsys, command, flag):
    # no flag is accepted and then dropped; an unread --h is no --help
    argv = with_flag(minimal_argv(command), flag)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert "unrecognized arguments" in err
    # the command's own usage, so the user sees the flags it does take
    assert err.startswith(f"usage: lamrho {command} ")


SPEC_FLAGS = ("--base", "--h", "--system", "--action", "--partition")


@pytest.mark.parametrize(
    "command,flag",
    [(c, f) for c in sorted(READS) for f in READS[c] if f in SPEC_FLAGS],
)
def test_an_empty_spec_is_a_usage_error(capsys, command, flag):
    # refused by the parser, not read as an absent flag or an empty path
    argv = minimal_argv(command, flag)
    if flag in argv:
        argv[argv.index(flag) + 1] = ""
    else:
        argv += [flag, ""]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"usage: lamrho {command} ")
    assert f"argument {flag}: " in err


@pytest.mark.parametrize(
    "command,flag",
    [("examples", "base"), ("examples", "system"),
     ("validate", "base"), ("validate", "system"), ("validate", "action")],
)
def test_handlers_read_an_empty_spec_that_reaches_them(command, flag):
    # a handler tests for an absent flag, not for a false one
    import argparse

    from lamrho import cli
    from lamrho.errors import InputFormatError

    args = argparse.Namespace(base=None, system=None, action=None, format="json", out=None)
    setattr(args, flag, "")
    with pytest.raises(InputFormatError) as info:
        getattr(cli, f"_cmd_{command}")(args)
    assert "nothing to validate" not in str(info.value)


def test_abbreviated_flags_are_usage_errors(capsys):
    code, out, err = run(capsys, "iso", "--ba", "z2", "--h", "z2")
    assert code == 2 and out == ""
    code, out, _ = run(capsys, "divides", "--base", "l2_1", "--h", "l2", "--quotient")
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "command,item", [(c, i) for c in sorted(REQUIRED) for i in REQUIRED[c]]
)
def test_a_missing_required_flag_is_a_usage_error(capsys, command, item):
    argv = minimal_argv(command)
    for flag in item if isinstance(item, tuple) else (item,):
        if flag in argv:
            i = argv.index(flag)
            del argv[i:i + 2]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "Traceback" not in err
    if isinstance(item, tuple):
        assert f"one of the arguments {' '.join(item)} is required" in err
    else:
        assert f"the following arguments are required: {item}" in err


@pytest.mark.parametrize("command", sorted(EXCLUSIVE))
def test_both_flags_of_an_exclusive_pair_are_a_usage_error(capsys, command):
    first, second = EXCLUSIVE[command]
    argv = with_flag(with_flag(minimal_argv(command), first), second)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "not allowed with argument" in err


def test_each_command_sets_its_cap_default():
    # each command's --cap default is set by the parser; divides' is the
    # library's congruence cap
    assert parses(["iso", "--base", "z2", "--h", "z2"]).cap == 32
    assert parses(["enumerate", "--base", "z2", "--sizes", "1"]).cap == 100
    assert parses(["divides", "--base", "z2", "--h", "z2"]).cap == 20000
    for argv in (["product", "--base", "x", "--h", "x"], ["wreathize", "--system", "x"],
                 ["free", "--sizes", "1"]):
        assert parses(argv).cap == 10**6


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        ("iso", "--base", "z2", "--h", "z2"),
        ("examples",),
        ("product", "--base", "flipflop_system", "--h", "z2"),
        ("enumerate", "--base", "trivial", "--sizes", "2"),
    ],
)
def test_closed_stdout_is_an_input_error(argv, unbuffered):
    # the reader closes the pipe before the child writes: exit 2, one line
    # on standard error, no traceback from print or from the flush at exit
    src = os.path.dirname(os.path.dirname(os.path.abspath(lamrho.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "lamrho.cli", *argv], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "input error: <stdout>: field '<file>': Broken pipe\n"
