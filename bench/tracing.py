"""Per-layer timing of the apolar package, applied from outside.

The tracer replaces a fixed list of public functions with timing wrappers in
every loaded ``apolar`` module that holds them, so a function imported with
``from .linalg import rank`` is wrapped at its import site too.  Nothing
inside ``src/apolar`` changes; ``restore`` puts every original back.

For each wrapped function the tracer records the number of calls, inclusive
wall time (``busy``; re-entrant calls are counted once) and self time (the
inclusive time minus the time spent in other wrapped functions it called).
A few counters read the arguments or results at the same boundary.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Module -> public functions wrapped in it.  ``cli.main`` is the root span,
# so ``cli.main`` self time is argparse, formatting and JSON emission plus
# whatever glue is not itself wrapped.
TARGETS = {
    "cli": ("main",),
    "parsing": ("parse_polynomial",),
    "perazzo": ("conjecture_sample_check", "full_perazzo_hilbert"),
    "generators": (
        "extract_generators",
        "verify_generators",
        "contraction_image_classes",
    ),
    "locus": (
        "projection_map_report",
        "u_elimination_matrix",
        "degree_step_matrix",
        "enumerate_admissible_supports",
    ),
    "complexes": ("minimal_nonfaces",),
    "polynomials": (
        "hilbert_vector",
        "is_standard",
        "catalecticant_matrix",
        "contract",
        "graded_polynomial",
    ),
    "linalg": ("rank", "kernel_basis"),
    "monomials": ("enumerate_exponents", "lift_image"),
    "rng": ("substream",),
}


def _matrix_cells(args, result):
    return args[0].rows * args[0].cols


def _result_cells(args, result):
    return result.rows * result.cols


def _subsets(args, result):
    return sum(len(cls) for cls in result)


# Wrapped function -> (counter name, how much one call adds to it).
COUNTERS = {
    "linalg.rank": ("linalg.rank.cells", _matrix_cells),
    "locus.u_elimination_matrix": ("locus.matrix_entries", _result_cells),
    "locus.degree_step_matrix": ("locus.matrix_entries", _result_cells),
    "generators.contraction_image_classes": (
        "generators.subsets_scanned",
        _subsets,
    ),
}


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Context manager that wraps ``TARGETS`` while it is active."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counters: dict[str, int] = {name: 0 for name, _ in COUNTERS.values()}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, _Stat())
        stack = self._stack
        counters = self.counters
        counter = COUNTERS.get(key)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            outer = stat.depth == 0
            stat.depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat.depth -= 1
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.self_time += elapsed - children
                if outer:
                    stat.busy += elapsed
            if counter is not None:
                counters[counter[0]] += counter[1](args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        loaded = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "apolar" or name.startswith("apolar."))
        ]
        for module_name, functions in TARGETS.items():
            home = sys.modules[f"apolar.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in loaded:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))
        return self

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def snapshot(self) -> dict:
        """Plain-data view: ``{"spans": {key: [calls, busy_s, self_s]},
        "counters": {name: value}}``."""
        return {
            "spans": {
                key: [s.calls, s.busy, s.self_time] for key, s in self.stats.items()
            },
            "counters": dict(self.counters),
        }
