"""Command-line surface.

Every subcommand's handler returns its one document and writes nothing;
:func:`main` is the only code that writes stdout.  A ``dict`` is printed as
a single JSON document with a top-level ``schema_version`` field, serialized
with sorted keys so output is byte-identical for identical inputs (and, for
the sampling commands, identical seeds); ``cw --export dot`` and ``locus
enumerate --format csv`` return their DOT and CSV text, newline-terminated,
which is written as it is.  Rationals print as ``p/q`` strings; there is no
decimal output anywhere.  The JSON bytes are those of ``json.dumps(value,
indent=2, sort_keys=True)``, written for ``str``-keyed dicts, lists, ``str``,
``int``, ``bool`` and ``None`` only; any other type raises ``TypeError``.

Exit codes, all decided by :func:`main`: 0 success (also after ``--help``),
1 usage or input error, 2 resource guard violation.

:func:`main` may be called repeatedly in one process.  The commands are the
rows of one table, :data:`COMMANDS`.  Each command's parser is built the
first time a call selects it and is reused after that (parsing never changes
it, and each call gets a fresh namespace), so every call prints the same
bytes and returns the same exit code as a fresh ``python -m apolar.cli``
process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import locale  # noqa: F401 -- argparse's gettext needs it at the first parser build
import sys
from json.encoder import encode_basestring_ascii

from .complexes import (
    cell_count_vector,
    complex_of,
    facets,
    minimal_nonfaces,
    skeleton_count,
)
from .errors import (
    DEFAULT_ENUMERATION_GUARD,
    DEFAULT_MATRIX_GUARD,
    DEFAULT_SUBSET_GUARD,
    GuardExceeded,
)
from .generators import extract_generators, verify_generators
from .locus import (
    enumerate_admissible_supports,
    projection_map_report,
    support_conditions,
)
from .parsing import (
    format_monomial,
    format_polynomial,
    parse_polynomial,
)
from .perazzo import (
    build_full_perazzo,
    conjecture_sample_check,
    degree2_census,
    full_perazzo_hilbert,
    is_bihomogeneous,
)
from .polynomials import (
    annihilator_basis,
    coefficient_one_poly,
    differentiation_form,
    hilbert_vector,
    is_standard,
)
from .monomials import unit_power


def _json(value, indent: str = "\n") -> str:
    """``value`` as :func:`main` writes it, after the newline and indent ``indent``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, list):
        try:  # a list of str, the common leaf, encodes without recursion
            items = list(map(encode_basestring_ascii, value))
        except TypeError:
            items = [_json(item, inner) for item in value]
        brackets = "[]"
    elif isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"cannot emit a key of type {type(key).__name__}")
        items = [f"{_json(key)}: {_json(value[key], inner)}" for key in sorted(value)]
        brackets = "{}"
    else:
        raise TypeError(f"cannot emit a value of type {type(value).__name__}")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _parse_poly_args(args):
    return parse_polynomial(args.poly, args.nvars, args.uvars)


def _paired_form(args):
    """The parsed form, rescaled by ``differentiation_form`` under
    ``--convention diff`` so that contraction reads differentiation."""
    f = _parse_poly_args(args)
    return differentiation_form(f) if args.convention == "diff" else f


def _cmd_hilbert(args) -> dict:
    f = _paired_form(args)
    h = hilbert_vector(f)
    return {
        "hilbert": list(h),
        # no degree-1 annihilator exactly when h_1 = n; false in degree 0
        "standard": h[1:2] == (f.num_vars,),
        "socle_degree": f.degree,
    }


def _cmd_ann(args) -> dict:
    f = _paired_form(args)
    if not 1 <= args.degree <= f.degree:
        raise ValueError(f"--degree must be in 1..{f.degree}")
    basis = annihilator_basis(f, args.degree)
    # an operator prints as its polynomial text in capitals
    return {
        "degree": args.degree,
        "dimension": len(basis),
        "basis": [format_polynomial(op, args.uvars).upper() for op in basis],
    }


def _cmd_generators(args) -> dict:
    f = _parse_poly_args(args)
    gens = extract_generators(f, args.max_subsets)
    return {
        "powers": [
            format_monomial(unit_power(f.num_vars, k, e), args.uvars).upper()
            for k, e in sorted(gens.powers)
        ],
        "nonface_monomials": {
            str(j): [format_monomial(m, args.uvars).upper() for m in sorted(monomials)]
            for j, monomials in sorted(gens.nonface_monomials.items())
        },
        "differences": {
            str(j): [
                [
                    format_polynomial(p1, args.uvars).upper(),
                    format_polynomial(p2, args.uvars).upper(),
                ]
                for p1, p2 in pairs
            ]
            for j, pairs in sorted(gens.differences.items())
        },
        "verified": verify_generators(f, gens),
    }


def _complex_poset(zeta, num_u_vars: int):
    layers = zeta.layers[1:]  # layer k holds the k-cells
    cells = [m for layer in layers for m in layer]
    label = {m: format_monomial(m, num_u_vars) for m in cells}
    by_dimension = {str(k): [label[m] for m in layer] for k, layer in enumerate(layers)}
    position = {m: i for i, m in enumerate(cells)}
    edges = sorted((position[a], i) for i, b in enumerate(cells) for a in facets(b))
    return by_dimension, [[label[cells[a]], label[cells[b]]] for a, b in edges]


def _cmd_cw(args) -> dict | str:
    f = _parse_poly_args(args)
    zeta = complex_of(f)
    d = f.degree
    if args.export == "dot":
        by_dimension, edges = _complex_poset(zeta, args.uvars)
        lines = ["digraph cellcomplex {"]
        for dim in sorted(by_dimension, key=int):
            for label in by_dimension[dim]:
                lines.append(f'  "{label}" [dimension={dim}];')
        for child, parent in edges:
            lines.append(f'  "{child}" -> "{parent}";')
        return "\n".join(lines) + "\n}\n"
    payload = {
        "cell_counts": list(cell_count_vector(zeta, d)),
        "skeleton_counts": [skeleton_count(zeta, k) for k in range(d)],
        "minimal_nonfaces": {
            str(j): [
                format_monomial(m, args.uvars) for m in minimal_nonfaces(zeta, j)
            ]
            for j in range(1, d + 1)
        },
    }
    if args.export == "json":
        by_dimension, edges = _complex_poset(zeta, args.uvars)
        payload["cells_by_dimension"] = by_dimension
        payload["divisibility_edges"] = edges
    return payload


def _cmd_locus_enumerate(args) -> dict | str:
    components = enumerate_admissible_supports(
        args.nvars, args.degree, max_basis=args.guard
    )
    distinct = {m for comp in components for m in comp.support + comp.derived_set}
    names = {m: format_monomial(m) for m in distinct}
    rows = [
        {
            "index": index,
            "support": [names[m] for m in comp.support],
            "derived_set": [names[m] for m in comp.derived_set],
            "dim_support": comp.dim_support,
            "dim_derived": comp.dim_derived,
        }
        for index, comp in enumerate(components)
    ]
    if args.format == "csv":
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        fields = ("index", "support", "derived_set", "dim_support", "dim_derived")
        writer.writerow(fields)
        writer.writerows(
            (row["index"], " ".join(row["support"]), " ".join(row["derived_set"]),
             row["dim_support"], row["dim_derived"])
            for row in rows
        )
        return text.getvalue()
    return {"nvars": args.nvars, "degree": args.degree, "components": rows}


def _cmd_locus_stcheck(args) -> dict:
    f = _parse_poly_args(args)
    conditions = support_conditions(f.support(), f.num_vars)
    ones = coefficient_one_poly(f.num_vars, f.support())
    return {
        "support": [format_monomial(m, args.uvars) for m in f.support()],
        **conditions.as_dict(),
        "all_conditions_hold": conditions.all_hold,
        "standard_linear_algebra": is_standard(f),
        "standard_linear_algebra_coefficient_one": is_standard(ones),
    }


def _cmd_locus_maps(args) -> dict:
    return {
        "n": args.n,
        "d": args.d,
        "maps": projection_map_report(args.n, args.d, max_dim=args.max_dim),
    }


def _cmd_perazzo_build(args) -> dict:
    f = build_full_perazzo(args.n, args.d)
    p = f.num_vars - args.n
    return {
        "poly": format_polynomial(f, num_u_vars=args.n),
        "num_vars": f.num_vars,
        "x_vars": p,
        "u_vars": args.n,
        "bidegree": list(is_bihomogeneous(f, p)),
    }


def _cmd_perazzo_hilbert(args) -> dict:
    h = full_perazzo_hilbert(args.n, args.d, max_dim=args.max_dim)
    return {"hilbert": list(h), "codimension": h[1], "socle_degree": args.d}


def _cmd_perazzo_census(args) -> dict:
    return degree2_census(build_full_perazzo(args.n, args.d)).as_dict()


def _cmd_conjecture(args) -> dict:
    return conjecture_sample_check(
        args.n, args.d, args.trials, args.seed, jobs=args.jobs, max_dim=args.max_dim
    )


def _option(flag: str, **keywords) -> tuple:
    """One option of a group, added as ``add_argument(flag, **keywords)``; no
    keywords means a required integer."""
    return flag, keywords or {"type": int, "required": True}


_POLY = (
    _option("--poly", required=True, help="polynomial text"),
    _option("--nvars", type=int, required=True, help="total variable count"),
    _option("--uvars", type=int, default=0,
            help="size of the trailing u-variable block (default 0)"),
)
_CONVENTION = (
    _option("--convention", choices=("dual", "diff"), default="dual",
            help="monomial pairing rule (default: dual basis)"),
)
_SHAPE = (_option("--n"), _option("--d"))
_MAX_DIM = (_option("--max-dim", type=int, default=DEFAULT_MATRIX_GUARD),)
_ENUMERATE = (
    _option("--nvars"),
    _option("--degree"),
    _option("--guard", type=int, default=DEFAULT_ENUMERATION_GUARD,
            help=f"basis-size guard (default {DEFAULT_ENUMERATION_GUARD})"),
    _option("--format", choices=("json", "csv"), default="json"),
)
_TRIALS = (_option("--trials"), _option("--seed"), _option("--jobs", type=int, default=1))

# One row per command: (path, help line, option groups, handler).  A group
# row has neither options nor handler; its subcommands are the rows whose
# path extends its own, in table order, which is the order help lists them.
COMMANDS = (
    (("hilbert",), "Hilbert vector and standardness", (_POLY, _CONVENTION), _cmd_hilbert),
    (("ann",), "canonical basis of one annihilator degree",
     (_POLY, _CONVENTION, (_option("--degree"),)), _cmd_ann),
    (("generators",), "structured generators (coefficient-one input only)",
     (_POLY, (_option("--max-subsets", type=int, default=DEFAULT_SUBSET_GUARD),)),
     _cmd_generators),
    (("cw",), "cell complex counts and minimal non-faces",
     (_POLY, (_option("--export", choices=("json", "dot"), default=None),)), _cmd_cw),
    (("locus",), "standard locus analysis", (), None),
    (("locus", "enumerate"), "admissible support catalog", (_ENUMERATE,),
     _cmd_locus_enumerate),
    (("locus", "stcheck"), "support admissibility verdicts", (_POLY,), _cmd_locus_stcheck),
    (("locus", "maps"), "projection map kernel dimensions vs published formulas",
     (_SHAPE, _MAX_DIM), _cmd_locus_maps),
    (("perazzo",), "full Perazzo polynomials", (), None),
    (("perazzo", "build"), "print the full Perazzo polynomial", (_SHAPE,),
     _cmd_perazzo_build),
    (("perazzo", "hilbert"), "full Perazzo Hilbert vector", (_SHAPE, _MAX_DIM),
     _cmd_perazzo_hilbert),
    (("perazzo", "census"), "degree-2 annihilator census", (_SHAPE,), _cmd_perazzo_census),
    (("conjecture",), "randomized Hilbert-vector minimality stress test",
     (_SHAPE, _TRIALS, _MAX_DIM), _cmd_conjecture),
)


def _parser(path: tuple, **kwargs) -> argparse.ArgumentParser:
    """The parser of the command at ``path`` (``()`` is the top level): its
    row's options and handler, or one :class:`_Command` per subcommand."""
    parser = argparse.ArgumentParser(**kwargs)
    commands = None
    for row_path, help_line, groups, handler in COMMANDS:
        if row_path == path and handler is not None:
            for group in groups:
                for flag, keywords in group:
                    parser.add_argument(flag, **keywords)
            parser.set_defaults(func=handler)
        elif row_path[:-1] == path:
            if commands is None:
                commands = parser.add_subparsers(
                    dest="_".join((*path, "command")), required=True, parser_class=_Command
                )
            commands.add_parser(row_path[-1], help=help_line, path=row_path)
    return parser


class _Command:
    """A subcommand's parser, built by its first ``parse_known_args`` (the one
    call argparse makes on a subparser, once argv selects it) and reused by
    later ones.  Its name and help line are already in its parent's help and
    choices, so a command that no call selects costs no parser."""

    def __init__(self, path: tuple, **kwargs):
        # every keyword add_parser passes (prog, and more on newer Pythons)
        # goes on to the real parser
        self._path, self._kwargs, self._parser = path, kwargs, None

    def parse_known_args(self, args, namespace):
        if self._parser is None:
            self._parser = _parser(self._path, **self._kwargs)
        return self._parser.parse_known_args(args, namespace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process: callers parse with it and never change it.
    Each command's parser is built the first time a parse selects it and is
    reused after that."""
    return _parser(
        (),
        prog="apolar",
        description="Exact apolarity computations for graded Artinian Gorenstein algebras.",
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is an input error here
        return 1 if exc.code else 0
    try:
        doc = args.func(args)
    except GuardExceeded as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # the one stdout write: a handler's text as it is, its dict as JSON
    if isinstance(doc, dict):
        doc = _json({"schema_version": 1, **doc}) + "\n"
    sys.stdout.write(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
