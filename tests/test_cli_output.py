"""The CLI's fixed cost per command: what importing it loads, what a serial
call leaves behind, and the JSON emitter that writes every document."""

import ast
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import apolar
from apolar.cli import _json, main

SERIAL_CALLS = [
    ["locus", "maps", "--n", "2", "--d", "3"],
    ["conjecture", "--n", "2", "--d", "4", "--trials", "4", "--seed", "7",
     "--jobs", "1"],
    ["generators", "--poly", "x1^2*x2 + x2^2*x3 + x3^3", "--nvars", "3"],
    ["hilbert", "--poly", "x1^2 + x1*x2", "--nvars", "2"],
]

# a fresh interpreter: which of the introspection modules behind `dataclasses`
# `import apolar.cli` loads, and which modules the serial calls add after it
# (the first call also builds the parser)
BOUNDARY_SCRIPT = """
import contextlib, io, json, sys
start = set(sys.modules)
import apolar.cli
heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
heavy_modules = sorted(heavy & (set(sys.modules) - start))
pool = {"multiprocessing", "concurrent.futures.process"}
pool_modules = sorted(pool & set(sys.modules))
before = set(sys.modules)
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(apolar.cli.main(argv))
added = sorted(set(sys.modules) - before)
print(json.dumps([heavy_modules, pool_modules, added, codes]))
"""


def test_serial_commands_load_no_module_after_import():
    env = {**os.environ, "PYTHONPATH": str(Path(apolar.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", BOUNDARY_SCRIPT, json.dumps(SERIAL_CALLS)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    heavy_modules, pool_modules, added, codes = json.loads(proc.stdout)
    assert heavy_modules == []
    assert pool_modules == []
    assert added == []
    assert codes == [0] * len(SERIAL_CALLS)


def test_no_module_imports_dataclasses():
    """The value types are ``values.Record`` slots, so the import of the CLI
    stays clear of ``dataclasses`` and the ``inspect`` it pulls in."""
    importers = []
    for path in sorted(Path(apolar.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "dataclasses" in names:
                importers.append(path.name)
    assert importers == []


@pytest.mark.parametrize("argv", SERIAL_CALLS, ids=lambda argv: argv[0])
def test_a_warm_call_leaves_no_cyclic_garbage(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert code == 0
    assert unreachable == 0


SPECIAL = '"\\/\x00\x08\x1f\x7f\n\té ￿\U0001f600\U0010ffff'
TEXT = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=6)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(max_value=-(2**64)),
    TEXT,
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(TEXT, inner, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(VALUES)
@example({"": [], "a": {"b": [{}, [[]], [{}]], "c": {}}, "\U0001f600": [[[{}]]]})
@example([-(10**60), True, False, None, 0, "", SPECIAL])
@example({SPECIAL: {"\x00": -1, '"': [None]}})
def test_emitter_writes_the_bytes_of_indented_sorted_json(value):
    assert _json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value, name",
    [
        (1.5, "float"),
        ({"a": [0, (1, 2)]}, "tuple"),
        ([Fraction(1, 2)], "Fraction"),
        ({"a": {1: "b"}}, "int"),
    ],
)
def test_emitter_refuses_any_other_type(value, name):
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        _json(value)
