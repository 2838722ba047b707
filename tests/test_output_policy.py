"""The output policy lives in one function: ``cli.main`` is the only code
that writes stdout.  Every command handler returns its document, and
``main`` writes it once, so a wrapper around a handler sees all of its
output and stdout has one writer."""

import ast
from pathlib import Path

import apolar

PACKAGE = Path(apolar.__file__).parent


def _names_stdout(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "stdout"
        and isinstance(node.value, ast.Name)
        and node.value.id == "sys"
    )


def _is_print(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    )


def _writes(tree) -> tuple[list, list]:
    """Every ``sys.stdout`` and every ``print`` call in ``tree``."""
    nodes = list(ast.walk(tree))
    return [n for n in nodes if _names_stdout(n)], [n for n in nodes if _is_print(n)]


def test_no_module_but_cli_prints_or_names_stdout():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        stdout, prints = _writes(ast.parse(path.read_text()))
        if stdout or prints:
            offenders[path.name] = [n.lineno for n in stdout + prints]
    assert offenders == {}


def test_only_main_writes_stdout_and_prints_only_to_stderr():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    (main,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "main"
    ]
    stdout, prints = _writes(tree)
    main_stdout, main_prints = _writes(main)
    # main names stdout, and nothing else in the module does
    assert main_stdout and len(stdout) == len(main_stdout)
    assert len(prints) == len(main_prints)
    for call in main_prints:
        targets = [ast.unparse(k.value) for k in call.keywords if k.arg == "file"]
        assert targets == ["sys.stderr"], f"print at cli.py:{call.lineno}"


# one small call per handler; the dot and csv rows return text
CALLS = [
    ["hilbert", "--poly", "x1^2 + x1*x2", "--nvars", "2"],
    ["ann", "--poly", "x1^2 + x1*x2", "--nvars", "2", "--degree", "2"],
    ["generators", "--poly", "x1^2 + x1*x2", "--nvars", "2"],
    ["cw", "--poly", "x1^2*x2", "--nvars", "2", "--export", "dot"],
    ["locus", "enumerate", "--nvars", "2", "--degree", "2", "--format", "csv"],
    ["locus", "stcheck", "--poly", "x1^2*x2 + x1*x2^2", "--nvars", "2"],
    ["locus", "maps", "--n", "2", "--d", "3"],
    ["perazzo", "build", "--n", "2", "--d", "3"],
    ["perazzo", "hilbert", "--n", "2", "--d", "3"],
    ["perazzo", "census", "--n", "2", "--d", "3"],
    ["conjecture", "--n", "2", "--d", "3", "--trials", "2", "--seed", "1"],
]


def test_every_handler_returns_its_document_and_writes_nothing(capsys):
    from apolar import cli

    handlers = set()
    for argv in CALLS:
        args = cli.build_parser().parse_args(argv)
        handlers.add(args.func)
        doc = args.func(args)
        assert capsys.readouterr() == ("", "")
        if isinstance(doc, dict):
            doc = cli._json({"schema_version": 1, **doc}) + "\n"
        assert doc.endswith("\n")
        assert cli.main(argv) == 0
        assert capsys.readouterr() == (doc, "")
    assert handlers == {row[3] for row in cli.COMMANDS if row[3] is not None}
