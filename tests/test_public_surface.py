"""Every public function and class of the package has a caller that is not
its own unit test: another definition in the package, the bench harness, or
the acceptance suite.  A name that only its own tests call is dead weight."""

import ast
from pathlib import Path

import apolar

PACKAGE = Path(apolar.__file__).parent
REPO = PACKAGE.parent.parent

# the brute-force reference that the closed form of lift_image is tested
# against; it is kept on purpose and only the tests call it
EXEMPT = {"lex_min_preimage"}


def _names(node) -> set:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _package_statements():
    """Each top-level statement of the package, but ``__init__.py``, with the
    name it defines (or None) and the names it uses."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            defined = (
                stmt.name
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                else None
            )
            yield path, defined, _names(stmt)


def _outside_references() -> set:
    """Names used by the bench harness, as names or as string constants (the
    tracer lists its targets as strings), and by the acceptance suite."""
    used = set()
    for path in sorted((REPO / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        used |= _names(tree)
        used |= {
            n.value
            for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
        }
    used |= _names(ast.parse((REPO / "tests" / "test_acceptance.py").read_text()))
    return used


def test_every_public_name_has_a_caller_beyond_its_tests():
    statements = list(_package_statements())
    outside = _outside_references()
    unused = sorted(
        f"{path.stem}.{name}"
        for path, name, _ in statements
        if name is not None
        and not name.startswith("_")
        and name not in EXEMPT
        and name not in outside
        # its own module counts, its own definition does not
        and not any(
            name in used
            for other, defined, used in statements
            if (other, defined) != (path, name)
        )
    )
    assert unused == []
