"""Fuzz the CLI exit-code contract.

Random commands with random subsets of flags, whose values are built-in
names, small files, malformed inline JSON and integers from negative to
very large, must exit 0, 1 or 2, let no exception escape, and print the
same bytes when run twice.
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lamrho
from lamrho.cli import main

# the flags each command reads, and the kind of value each expects there
ROLES = {
    "validate": {"--base": "semigroup", "--system": "system", "--action": "action"},
    "product": {"--base": "system", "--h": "semigroup", "--cap": "int"},
    "quotient": {"--base": "semigroup", "--partition": "partition"},
    "iso": {"--base": "semigroup", "--h": "semigroup", "--cap": "int"},
    "divides": {"--base": "semigroup", "--h": "semigroup", "--quotient-only": "switch",
                "--cap": "int"},
    "examples": {"--base": "semigroup", "--system": "system"},
    "free": {"--sizes": "sizes", "--system": "free", "--bound": "int", "--cap": "int"},
    "wreathize": {"--system": "system", "--cap": "int"},
    "corollary": {},
    "enumerate": {"--base": "semigroup", "--sizes": "sizes", "--cap": "int", "--seed": "int"},
}

# the kind of any flag given to a command that does not read it
OTHER = {
    "--base": "semigroup", "--h": "semigroup", "--system": "system", "--action": "action",
    "--partition": "partition", "--bound": "int", "--seed": "int", "--cap": "int",
    "--sizes": "sizes", "--quotient-only": "switch", "--format": "format", "--out": "out",
    "--bogus": "switch",
}

SYSTEM_DOC = {
    "base": "join2",
    "index_sizes": [1, 2],
    "lambda": {"0,0": [0], "0,1": [0, 0], "1,0": [0, 1], "1,1": [0, 1]},
    "rho": {"0,0": [0], "0,1": [0, 1], "1,0": [0, 0], "1,1": [0, 0]},
}

# the identity maps on one 13-point fiber over the trivial semigroup: with
# H = Z2, 8,192 elements, under the universe cap, and 67,108,864 cells
FIBER_13 = json.dumps({
    "base": "trivial", "index_sizes": [13],
    "lambda": {"0,0": list(range(13))}, "rho": {"0,0": list(range(13))},
})

GOOD = {
    "semigroup": ["trivial", "z2", "z3", "l2", "r2", "l2_1", "join2", "meet2",
                  "{FILE}sg.json", "{FILE}l2_1.json", '{"size": 2, "table": [[0, 1], [1, 0]]}'],
    "system": ["flipflop_system", "lzero_system", "nonsemidirect_system",
               "{FILE}system.json", json.dumps(SYSTEM_DOC), FIBER_13],
    "action": ["{FILE}action.json", '{"carrier": 2, "base": "z2", "act": [[0, 1], [1, 0]]}',
               '{"carrier": 2, "base": "l2", "left": [[0, 1], [0, 1]], "right": [[0, 0], [1, 1]]}'],
    "partition": ["[[0,1]]", "[[0],[1]]", "[[0,1,2]]", "[[0],[1,2]]", "[[0,2],[1]]",
                  "{FILE}partition.json", '{"classes": [[0], [1]]}'],
    "free": ["{FILE}free.json", '{"shared_size": 2, "lambda": [[0, 1]], "rho": [[0, 1]]}',
             '{"shared_size": 1, "lambda": [[0], [0, 0]], "rho": [[0], [0, 0]]}'],
    "sizes": ["1", "2", "3", "1,1", "2,1", "1,2", "2,2", "1,1,1", "0,1", "1,0,1"],
    "int": ["1", "2", "3", "1000000000"],
    "format": ["pretty", "json"],
    "out": ["{FILE}out.json"],
    "switch": [None],
}

JUNK = [
    "nosuch", "{", "[", "[]", "{}", "[1]", "[[0,1,2,3]]", '{"classes": 5}',
    '{"size": 2}', '{"size": true, "table": [[0]]}',
    '{"size": 2, "table": [[1, 0], [0, 0]]}',
    '{"size": 1, "table": [[0]], "names": [7]}',
    '{"base": "z2", "index_sizes": [1, 1], "lambda": {}, "rho": {}}',
    '{"base": "nowhere.json", "index_sizes": [1], "lambda": {}, "rho": {}}',
    '{"shared_size": 2, "lambda": [[0, 1]], "rho": [[1]]}',
    '{"shared_size": -1, "lambda": [], "rho": []}',
    "[" * 5000, "[" + "9" * 5000 + "]",
    "{FILE}broken.json", "{FILE}string.json", "{FILE}latin1.json", "{FILE}missing.json",
    "{FILE}", "{FILE}five.json", "{FILE}null.json", "[[0],[]]",
    # map keys int() would read as (0,1), and a key repeated in one object
    json.dumps(SYSTEM_DOC).replace('"0,1"', '"0,0_1"', 1),
    json.dumps(SYSTEM_DOC).replace('"0,1"', '" 0, 1"', 1),
    json.dumps(SYSTEM_DOC).replace('"1,1"', '"0,1"', 1),
]

BAD = {
    "int": ["0", "-1", "-5", "x"],
    "sizes": ["", "x", "-1", "1,-1", "1,,1"],
    "format": ["yaml"],
    "out": ["{FILE}missing/x.json", "{FILE}"],
    "switch": [None],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    docs = {
        "sg.json": {"size": 2, "table": [[1, 0], [0, 1]], "names": ["e", "g"]},
        "l2_1.json": {"size": 3, "table": [[0, 0, 0], [1, 1, 1], [0, 1, 2]]},
        "system.json": SYSTEM_DOC,
        "action.json": {"carrier": 2, "base": "z2", "act": [[0, 1], [1, 0]]},
        "partition.json": [[0, 1]],
        "free.json": {"shared_size": 2, "lambda": [[0, 1]], "rho": [[1, 0]]},
    }
    for name, doc in docs.items():
        (d / name).write_text(json.dumps(doc))
    (d / "broken.json").write_text("{not json")
    (d / "string.json").write_text('"size table"')
    (d / "five.json").write_text("5")
    (d / "null.json").write_text("null")
    (d / "latin1.json").write_bytes(b'{"size": 1, "table": [[0]], "names": ["\xe9"]}')
    return d


def value(kind, d):
    """Mostly a value of the expected kind, sometimes a broken one."""
    def place(v):
        return v.replace("{FILE}", f"{d}/") if v is not None else None

    good = st.sampled_from([place(v) for v in GOOD[kind]])
    if kind in BAD:
        bad = st.sampled_from([place(v) for v in BAD[kind]])
    else:
        garbled = st.text(alphabet='{}[],:"0123 -sizetabl', max_size=30).map(lambda t: "{" + t)
        bad = st.one_of(st.sampled_from([place(v) for v in JUNK]), garbled)
    return st.one_of(good, good, good, bad)


@st.composite
def command_lines(draw, d):
    command = draw(st.sampled_from(sorted(ROLES) + ["nosuch"]))
    roles = dict(ROLES.get(command, {}))
    # each flag the command reads is given three times in four; at most one other
    flags = [f for f in sorted(roles) if draw(st.sampled_from([True, True, True, False]))]
    other = draw(st.lists(st.sampled_from(sorted(OTHER)), max_size=1))
    flags += [f for f in other if f not in flags]
    argv = [command]
    for flag in flags:
        argv.append(flag)
        v = draw(value(roles.get(flag, OTHER[flag]), d), label=flag)
        if v is not None:
            argv.append(v)
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_cli_keeps_its_exit_code_contract(workdir, data):
    argv = data.draw(command_lines(workdir), label="argv")
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    again = run(argv)
    assert again[:2] == (code, out), argv


def test_a_table_past_the_cell_cap_is_refused_before_it_is_built():
    # in a child limited to 512 MB of address space, which the table's
    # 67,108,864 row pointers alone would exceed
    src = os.path.dirname(os.path.dirname(os.path.abspath(lamrho.__file__)))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))

    proc = subprocess.run(
        [sys.executable, "-m", "lamrho.cli", "product", "--base", FIBER_13, "--h", "z2"],
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit,
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "inconclusive: product table has 67108864 cells, cap is 10000000\n"
