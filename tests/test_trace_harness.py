"""The trace harness in ``bench/tracing.py`` wraps package functions by name
and reads the shapes of their results.  These checks make a rename or a
changed return value fail here instead of in ``bench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

from apolar.cli import main
from apolar.locus import degree_step_matrix, u_elimination_matrix

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("apolar_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _load_tracing()
    for module_name, functions in tracing.TARGETS.items():
        home = importlib.import_module(f"apolar.{module_name}")
        for fn_name in functions:
            assert callable(getattr(home, fn_name, None)), f"{module_name}.{fn_name}"


def test_map_counters_read_integer_shapes():
    tracing = _load_tracing()
    for build in (u_elimination_matrix, degree_step_matrix):
        result = build(2, 3)
        assert type(result.rows) is int and type(result.cols) is int
        _, read = tracing.COUNTERS[f"locus.{build.__name__}"]
        assert read((2, 3), result) == result.rows * result.cols


def test_traced_locus_maps_counts_entries(capsys):
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        assert main(["locus", "maps", "--n", "2", "--d", "3"]) == 0
    snapshot = tracer.snapshot()
    # (2,3): u_elimination is 4 x 35, degree_step is 10 x 35
    assert snapshot["counters"]["locus.matrix_entries"] == 4 * 35 + 10 * 35
    assert snapshot["spans"]["locus.u_elimination_matrix"][0] == 1
    assert importlib.import_module("apolar.locus").u_elimination_matrix is (
        u_elimination_matrix
    )


def test_traced_generators_counts_the_image_scan(capsys):
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        assert main(["generators", "--poly", "x1^2 + x1*x2", "--nvars", "2"]) == 0
    snapshot = tracer.snapshot()
    # only degree 2 is unsaturated before its scan; its two cells x1^2 and
    # x1*x2 give the three supports {x1^2}, {x1*x2} and {x1^2, x1*x2}
    assert snapshot["spans"]["generators.contraction_image_classes"][0] == 1
    assert snapshot["counters"]["generators.subsets_scanned"] == 3
