import argparse
import ast
import hashlib
import importlib
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import apolar
from apolar.cli import main
from apolar.parsing import (
    PolynomialSyntaxError,
    format_polynomial,
    format_rational,
    parse_polynomial,
)
from apolar.polynomials import graded_polynomial
from apolar.rng import substream
from fractions import Fraction

from sampling import random_polynomial


def test_parse_golden():
    f = parse_polynomial("x1^2 + x1*x2", 2)
    assert f.terms == {(2, 0): Fraction(1), (1, 1): Fraction(1)}


def test_parse_rational_coefficients():
    f = parse_polynomial("3/2 x1^3 - x2^3", 2)
    assert f.terms == {(3, 0): Fraction(3, 2), (0, 3): Fraction(-1)}


def test_parse_combines_like_terms():
    f = parse_polynomial("x1*x2 + 2*x2*x1", 2)
    assert f.terms == {(1, 1): Fraction(3)}


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_polynomial("x1^2 + x2", 2)  # inhomogeneous
    with pytest.raises(ValueError):
        parse_polynomial("x1 - x1", 2)  # zero polynomial
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x3", 2)  # unknown variable
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x1 +", 2)
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x1 & x2", 2)
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("u1^2", 2)  # no u-block declared


def test_parse_error_carries_offset():
    try:
        parse_polynomial("x1 + @", 2)
    except PolynomialSyntaxError as exc:
        assert exc.position == 5
    else:
        raise AssertionError("expected a syntax error")


def _parse_outcome(text, num_vars, num_u_vars):
    try:
        f = parse_polynomial(text, num_vars, num_u_vars)
    except PolynomialSyntaxError as exc:
        return f"syntax {exc} @{exc.position}"
    except ValueError as exc:
        return f"value {exc}"
    return f"degree {f.degree} {sorted(f.terms.items())}"


# One readable case per message, with its offset: when the digest below
# fails, the cases failing here name the message that moved.
PARSE_OUTCOMES = [
    ("x1 + @", 2, 0, "syntax unexpected character '@' (at offset 5) @5"),
    ("u", 2, 1, "syntax unexpected character 'u' (at offset 0) @0"),
    ("x0", 2, 0, "syntax variable 'x0' is not positive (at offset 0) @0"),
    ("x3", 2, 0, "syntax unknown variable 'x3': only 2 x-variables (at offset 0) @0"),
    ("u2", 3, 1, "syntax unknown variable 'u2': no u-block of that size (at offset 0) @0"),
    ("x1^", 2, 0, "syntax expected a number (at offset 3) @3"),
    ("x1^+x2", 2, 0, "syntax expected a number (at offset 3) @3"),
    ("3/x1", 2, 0, "syntax expected a number (at offset 2) @2"),
    ("3/0 x1", 2, 0, "syntax zero denominator (at offset 2) @2"),
    ("2 * * x1", 2, 0, "syntax expected a variable after '*' (at offset 4) @4"),
    ("x1 +", 2, 0, "syntax expected a term (at offset 4) @4"),
    ("", 2, 0, "syntax expected a term (at offset 0) @0"),
    ("x1 x2", 2, 0, "syntax expected '+' or '-', found 'x2' (at offset 3) @3"),
    ("x1 11", 2, 0, "syntax expected '+' or '-', found '11' (at offset 3) @3"),
    ("x1^2^3", 2, 0, "syntax expected '+' or '-', found '^' (at offset 4) @4"),
    ("3/2/3 x1", 2, 0, "syntax expected '+' or '-', found '/' (at offset 3) @3"),
    ("x1 - x1", 2, 0, "value zero polynomial"),
    ("x1^2 + x2", 2, 0, "value inhomogeneous support: degrees [1, 2]"),
    ("x1", 0, 0, "value need at least one variable"),
    ("x1", 2, 3, "value u-block size out of range"),
    (
        "2x1^2 - 1/2 u1*x1",
        3,
        1,
        "degree 2 [((1, 0, 1), Fraction(-1, 2)), ((2, 0, 0), Fraction(2, 1))]",
    ),
]


@pytest.mark.parametrize("text,num_vars,num_u_vars,outcome", PARSE_OUTCOMES)
def test_parse_outcome_examples(text, num_vars, num_u_vars, outcome):
    assert _parse_outcome(text, num_vars, num_u_vars) == outcome


def test_parse_outcome_digest():
    """Every string of length 1-4 over a small alphabet, at (n, m) = (3, 1)
    and (2, 0): accepted terms, or the message and offset of the error."""
    digest = hashlib.sha256()
    for num_vars, num_u_vars in [(3, 1), (2, 0)]:
        for length in range(1, 5):
            for chars in itertools.product("x1u2+-*^/ 0@", repeat=length):
                outcome = _parse_outcome("".join(chars), num_vars, num_u_vars)
                digest.update(outcome.encode() + b"\n")
    assert digest.hexdigest() == "7187b8f7823707fb2342e464951f7353df653bf84d200292783f9ca5e9562583"


def test_parsing_defines_no_class_but_its_error():
    # the grammar is regular: one term pattern and a loop, no parser object
    tree = ast.parse((Path(apolar.__file__).parent / "parsing.py").read_text())
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert classes == ["PolynomialSyntaxError"]


def test_u_block_parsing():
    f = parse_polynomial("x1*u1^2 + x2*u1*u2", 4, num_u_vars=2)
    assert f.terms == {(1, 0, 2, 0): Fraction(1), (0, 1, 1, 1): Fraction(1)}


def test_format_golden():
    f = graded_polynomial(2, {(2, 0): 1, (1, 1): 1})
    assert format_polynomial(f) == "x1^2 + x1*x2"
    g = graded_polynomial(2, {(3, 0): Fraction(3, 2), (0, 3): -1})
    assert format_polynomial(g) == "3/2*x1^3 - x2^3"


def test_format_operator_uppercase(capsys):
    # the formatters have one mode: operator text is the polynomial text in
    # capitals, since x and u are the only letters they write
    f = graded_polynomial(2, {(2, 0): 1, (1, 1): -1})
    assert format_polynomial(f).upper() == "X1^2 - X1*X2"
    # the README's ann example
    assert main(["ann", "--poly", "x1^2 + x1*x2", "--nvars", "2", "--degree", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["basis"] == ["X2^2", "-X1^2 + X1*X2"]


def test_format_rational():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(4)) == "4"


@pytest.mark.parametrize("trial", range(25))
def test_roundtrip_random(trial):
    rng = substream(4001, trial)
    n, d = 1 + rng.below(4), 1 + rng.below(4)
    f = random_polynomial(rng, n, d)
    assert parse_polynomial(format_polynomial(f), n) == f


def test_roundtrip_with_u_block():
    from apolar.perazzo import build_full_perazzo

    f = build_full_perazzo(2, 3)
    text = format_polynomial(f, num_u_vars=2)
    assert parse_polynomial(text, f.num_vars, num_u_vars=2) == f


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "apolar.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_cli_hilbert_json(capsys):
    assert main(["hilbert", "--poly", "x1^2 + x1*x2", "--nvars", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hilbert"] == [1, 2, 1]
    assert payload["standard"] is True
    assert payload["schema_version"] == 1


def test_cli_ann(capsys):
    assert main(
        ["ann", "--poly", "x1^2 + x1*x2", "--nvars", "2", "--degree", "2"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 2
    assert payload["basis"] == ["X2^2", "-X1^2 + X1*X2"]


def test_cli_generators(capsys):
    assert main(["generators", "--poly", "x1^2 + x1*x2", "--nvars", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert payload["nonface_monomials"] == {"2": ["X2^2"]}


def test_cli_cw(capsys):
    assert main(["cw", "--poly", "x1^2 + x1*x2", "--nvars", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cell_counts"] == [1, 2, 2]
    assert payload["minimal_nonfaces"]["2"] == ["x2^2"]


def test_cli_cw_dot(capsys):
    assert main(
        ["cw", "--poly", "x1^2 + x1*x2", "--nvars", "2", "--export", "dot"]
    ) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"x1" -> "x1^2"' in out


def test_cli_locus_enumerate_csv(capsys):
    assert main(
        ["locus", "enumerate", "--nvars", "2", "--degree", "2", "--format", "csv"]
    ) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "index,support,derived_set,dim_support,dim_derived"
    assert len(out) > 1


def test_cli_locus_stcheck(capsys):
    assert main(
        ["locus", "stcheck", "--poly", "x1^2*x2 + x1*x2^2", "--nvars", "2"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["no_cross_collision"] is False
    assert payload["standard_linear_algebra"] is True


def test_cli_locus_maps(capsys):
    assert main(["locus", "maps", "--n", "2", "--d", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    elim = payload["maps"]["u_elimination"]
    assert elim["kernel_dim"] == 7
    assert elim["formula_matches"] is False


def test_cli_perazzo_hilbert(capsys):
    assert main(["perazzo", "hilbert", "--n", "2", "--d", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hilbert"] == [1, 5, 5, 1]


def test_cli_conjecture_zero_trials(capsys):
    assert main(
        ["conjecture", "--n", "2", "--d", "4", "--trials", "0", "--seed", "1"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hilbert_full_perazzo"] == [1, 6, 6, 6, 1]
    assert payload["violators"] == []


def test_cli_conjecture_max_dim_just_over_limit(capsys):
    # at (2,4) the reference Hilbert vector guards monomial_count(6, 4) = 126
    argv = ["conjecture", "--n", "2", "--d", "4", "--trials", "1", "--seed", "1",
            "--jobs", "1", "--max-dim"]
    assert main(argv + ["125"]) == 2
    refused = capsys.readouterr()
    assert refused.out == ""
    assert "126 exceeds the guard of 125" in refused.err
    assert "--max-dim" in refused.err
    assert main(argv + ["126"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 1


SYMMETRIC_CUBIC = "x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4"


def test_cli_generators_max_subsets_just_over_limit(capsys):
    # the symmetric cubic's widest scan is in degree 2, where the six
    # squarefree monomials survive: 2^6 = 64 subsets
    argv = ["generators", "--poly", SYMMETRIC_CUBIC, "--nvars", "4", "--max-subsets"]
    assert main(argv + ["63"]) == 2
    refused = capsys.readouterr()
    assert refused.out == ""
    assert "64 exceeds the guard of 63" in refused.err
    assert "--max-subsets" in refused.err
    assert main(argv + ["64"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_cli_generators_verifies_the_full_perazzo_form_at_2_6(capsys):
    # its 17 degree-4 cells make 2^17 subsets, twice the default guard
    assert main(["perazzo", "build", "--n", "2", "--d", "6"]) == 0
    poly = json.loads(capsys.readouterr().out)["poly"]
    argv = ["generators", "--poly", poly, "--nvars", "8", "--uvars", "2"]
    assert main(argv + ["--max-subsets", "131072"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_cli_exit_codes():
    usage = _run_cli(["hilbert", "--nvars", "2"])  # missing --poly
    assert usage.returncode == 1
    bad_poly = _run_cli(["hilbert", "--poly", "x1 + x2^2", "--nvars", "2"])
    assert bad_poly.returncode == 1
    guard = _run_cli(
        ["locus", "enumerate", "--nvars", "3", "--degree", "4", "--guard", "5"]
    )
    assert guard.returncode == 2
    ok = _run_cli(["hilbert", "--poly", "x1^2", "--nvars", "1"])
    assert ok.returncode == 0


def test_cli_output_byte_stable():
    a = _run_cli(["perazzo", "census", "--n", "2", "--d", "3"])
    b = _run_cli(["perazzo", "census", "--n", "2", "--d", "3"])
    assert a.stdout == b.stdout
    assert a.returncode == 0


CUBIC = ["--poly", "x1^3 + x1^2*x2 + x1*x2^2 + x2^3", "--nvars", "2"]


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    # argparse wraps help to the terminal width; pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    sequence = [
        ["--help"],
        ["hilbert", "--nvars", "2"],  # usage error: no --poly
        ["frobnicate"],  # unknown command
        ["locus", "enumerate", "--nvars", "3", "--degree", "4", "--guard", "5"],
        ["--help"],
        ["locus", "--help"],
        ["hilbert", *CUBIC, "--convention", "diff"],
        ["hilbert", *CUBIC],  # the default convention, not the last one
    ]
    in_process = []
    for argv in sequence:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((captured.out, captured.err, code))
    fresh = {}
    for argv in sequence:
        if tuple(argv) not in fresh:
            proc = _run_cli(argv)
            fresh[tuple(argv)] = (proc.stdout, proc.stderr, proc.returncode)
    assert len(fresh) == 7
    assert in_process == [fresh[tuple(argv)] for argv in sequence]
    assert [code for _, _, code in in_process] == [0, 1, 1, 2, 0, 0, 0, 0]
    hilbert = [json.loads(out)["hilbert"] for out, _, _ in in_process[-2:]]
    assert hilbert == [[1, 2, 2, 1], [1, 1, 1, 1]]


def test_main_builds_the_parser_once_and_lazily(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    # a fresh import, restored afterwards, so no earlier call has built it
    monkeypatch.delitem(sys.modules, "apolar.cli")
    monkeypatch.delattr(apolar, "cli", raising=False)
    cli = importlib.import_module("apolar.cli")
    assert built == []
    # each call builds the parsers on its own path that no call built before
    calls = [
        (["locus", "maps", "--n", "2", "--d", "2"], 0,
         ["apolar", "apolar locus", "apolar locus maps"]),
        (["hilbert", "--poly", "x1^2", "--nvars", "1"], 0, ["apolar hilbert"]),
        (["locus", "enumerate", "--nvars", "2", "--degree", "2"], 0,
         ["apolar locus enumerate"]),
        (["perazzo", "hilbert", "--n", "2", "--d", "3"], 0,
         ["apolar perazzo", "apolar perazzo hilbert"]),
        (["hilbert", "--nvars", "2"], 1, []),  # usage error
    ]
    for argv, code, progs in calls:
        built.clear()
        assert cli.main(argv) == code
        assert built == progs
    built.clear()
    for argv, code, _ in calls:
        assert cli.main(argv) == code
    capsys.readouterr()
    assert built == []
