"""Every public function and class of the package, and every public method
of a public class, has a caller that is not its own unit test: another
definition in the package, the bench harness, or the acceptance suite.  A
name that only its own tests call is dead weight.  So is a default that no
caller overrides: every defaulted parameter of a public function or method
is passed by some call in the package, the bench harness or the acceptance
suite, unless it is the override a resource guard names.  And so is an
alias: no public function or method only forwards its own parameters to
another definition of the package."""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

import apolar
from apolar.errors import check_guard

PACKAGE = Path(apolar.__file__).parent
REPO = PACKAGE.parent.parent


def _names(node) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _public_definitions(tree):
    """The public top-level defs and classes of a module and the public
    methods of its public classes, each with its label and node."""
    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if stmt.name.startswith("_"):
            continue
        yield stmt.name, stmt
        for item in stmt.body if isinstance(stmt, ast.ClassDef) else ():
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield f"{stmt.name}.{item.name}", item


def _outside_references() -> set:
    """Names used by the bench harness, as names or as string constants (the
    tracer lists its targets as strings), and by the acceptance suite."""
    used = set()
    for path in sorted((REPO / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        used.update(_names(tree))
        used |= {
            n.value
            for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
        }
    used.update(_names(ast.parse((REPO / "tests" / "test_acceptance.py").read_text())))
    return used


def test_every_public_name_has_a_caller_beyond_its_tests():
    # ``__init__.py`` only re-exports, so its references do not count
    modules = {
        path: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    package = sum(map(_names, modules.values()), Counter())
    outside = _outside_references()
    unused = sorted(
        f"{path.stem}.{label}"
        for path, tree in modules.items()
        for label, node in _public_definitions(tree)
        if node.name not in outside
        # its own module counts, its own definition does not
        and package[node.name] == _names(node)[node.name]
    )
    assert unused == []


def _defaulted_parameters(node):
    """(position or None when keyword-only, name) of each parameter of a
    function or method that has a default; positions count from the first
    argument a call writes, so a method's ``self`` is skipped."""
    args = node.args
    positional = args.posonlyargs + args.args
    skip = int(bool(positional) and positional[0].arg in {"self", "cls"})
    first = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional[first:], first):
        yield position - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _passes(call: ast.Call, position, name) -> bool:
    if any(k.arg in {name, None} for k in call.keywords):  # None: a ** splat
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _guard_overrides() -> set:
    """The words of the ``override`` string of every ``check_guard`` call in
    the package: the parameters that exist to raise a resource guard, which
    only a test that crosses the guard has reason to pass."""
    words = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "check_guard":
                keywords = {k.arg: k.value for k in call.keywords}
                bound = inspect.signature(check_guard).bind(*call.args, **keywords)
                words.update(re.findall(r"\w+", bound.arguments["override"].value))
    return words


def test_every_default_is_overridden_by_some_call():
    paths = [
        *sorted(PACKAGE.glob("*.py")),
        *sorted((REPO / "bench").glob("*.py")),
        REPO / "tests" / "test_acceptance.py",
    ]
    calls: dict[str, list[ast.Call]] = {}
    for path in paths:
        for call in ast.walk(ast.parse(path.read_text())):
            if isinstance(call, ast.Call):
                callee = getattr(call.func, "id", getattr(call.func, "attr", None))
                calls.setdefault(callee, []).append(call)
    overrides = _guard_overrides()
    never_passed = sorted(
        f"{path.stem}.{label}({name})"
        for path in sorted(PACKAGE.glob("*.py"))
        for label, node in _public_definitions(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        for position, name in _defaulted_parameters(node)
        if name not in overrides
        and not any(_passes(call, position, name) for call in calls.get(node.name, ()))
    )
    assert never_passed == []


def _parameters(node) -> list:
    args = node.args
    named = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return named + [a.arg for a in (args.vararg, args.kwarg) if a is not None]


def _forwarded(call: ast.Call):
    """The parameter names a call passes, in order, or None when some
    argument is not a bare name passed as itself."""
    values = [a.value if isinstance(a, ast.Starred) else a for a in call.args]
    if any(k.arg not in {None, getattr(k.value, "id", None)} for k in call.keywords):
        return None
    values += [k.value for k in call.keywords]
    if not all(isinstance(v, ast.Name) for v in values):
        return None
    return [v.id for v in values]


def _alias_target(node):
    """The callee name when the body, past its docstring, is one
    ``return g(<the parameters, in order>)``; otherwise None."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return None
    call = body[0].value
    if not isinstance(call, ast.Call) or _forwarded(call) != _parameters(node):
        return None
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def test_no_public_function_only_forwards_to_the_package():
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defined = {
        stmt.name
        for tree in trees.values()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    }
    aliases = sorted(
        f"{path.stem}.{label}"
        for path, tree in trees.items()
        for label, node in _public_definitions(tree)
        if isinstance(node, ast.FunctionDef) and _alias_target(node) in defined
    )
    assert aliases == []
