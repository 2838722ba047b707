"""Tests of the benchmark's own helpers, at tiny input sizes.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import apolar.cli
import apolar.linalg
import apolar.polynomials
import oracle
import run
import tracing
import workloads as wl


def cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert apolar.cli.main(argv) == 0
    return out.getvalue()


def test_tail_has_ten_samples_beyond_it():
    samples = [float(x) for x in range(1, 31)]
    value, percentile, n = run.tail(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert (value, n) == (20.0, 30)
    assert abs(percentile - 100.0 * 20 / 30) < 1e-12


def test_tail_falls_back_to_the_maximum_below_eleven_samples():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_latencies_are_scaled_by_the_bracketing_probes():
    nominal = run.PROBE_NOMINAL_S
    run_ = {
        "results": [[0, 1.0, "", ""], [0, 1.0, "", ""], [0, 1.0, "", ""]],
        "probes": [[0, nominal], [2, 2 * nominal], [3, 2 * nominal]],
    }
    assert run.scaled_latencies(run_) == [2 / 3, 2 / 3, 0.5]


def test_throughput_uses_the_median_latency_per_input():
    calls = [wl.Call(("a",), 1, None, 0), wl.Call(("b",), 1, None, 0), wl.Call(("c",), 3)]
    run_ = {"calls": calls, "latency": [1.0, 3.0, 6.0]}
    assert run.input_latencies(run_) == {0: (1, 2.0), ("c",): (3, 6.0)}
    assert run.throughput(run_) == 4 / 8.0


CONJECTURE = wl.Call(
    ("conjecture", "--n", "2", "--d", "3", "--trials", "2", "--seed", "7", "--jobs", "1"), 2
)


def test_conjecture_check_counts_a_corrupted_report():
    out = cli_output(list(CONJECTURE.argv))
    workload = wl.WORKLOADS["conjecture"]
    assert wl.check_output(workload, CONJECTURE, 0, out) is None
    report = json.loads(out)
    report["tallies"]["EQUAL"] += 1
    assert wl.check_output(workload, CONJECTURE, 0, json.dumps(report)) is not None
    assert wl.check_output(workload, CONJECTURE, 1, out) == "exit code 1"
    assert "malformed" in wl.check_output(workload, CONJECTURE, 0, out[:-5])


def test_generators_check_compares_verified_with_the_oracle():
    workload = wl.WORKLOADS["generators"]
    call = wl.Call(("generators", "--poly", "x1^2 + x1*x2", "--nvars", "2"), 1,
                   ((1, 1), (2, 0)))
    payload = json.loads(cli_output(list(call.argv)))
    assert payload["verified"] is True
    assert wl.check_generators(call, payload) is None
    payload["verified"] = False
    assert wl.check_generators(call, payload) is not None
    payload.update(verified=True, powers=[], nonface_monomials={}, differences={})
    assert wl.check_generators(call, payload) is not None


def test_generators_check_accepts_a_false_verdict_only_on_the_pinned_forms():
    # Pool form 109: the structured families miss a degree-2 annihilator.
    text = "x1^3 + x1^2*x2 + x1*x2*x3 + x1*x3^2 + x2^3 + x2^2*x3"
    support = ((0, 2, 1), (0, 3, 0), (1, 0, 2), (1, 1, 1), (2, 1, 0), (3, 0, 0))
    assert wl.SEED_UNVERIFIED == {109}
    assert wl.generator_pool()[109] == (3, support)
    argv = ("generators", "--poly", text, "--nvars", "3")
    payload = json.loads(cli_output(list(argv)))
    assert payload["verified"] is False
    assert oracle.generates(payload, support, 3) is False
    assert wl.check_generators(wl.Call(argv, 1, support, 109), payload) is None
    assert wl.check_generators(wl.Call(argv, 1, support, 108), payload) is not None


def test_locus_check_counts_an_inconsistent_kernel():
    call = wl.Call(("locus", "maps", "--n", "2", "--d", "3"), 1)
    payload = json.loads(cli_output(list(call.argv)))
    assert wl.check_locus(call, payload) is None
    payload["maps"]["degree_step"]["kernel_dim"] += 1
    assert wl.check_locus(call, payload) is not None


def test_oracle_rank_is_exact():
    assert oracle.rank([[2, 4], [1, 2]]) == 1
    assert oracle.rank([[0, 0], [0, 3], [5, 1]]) == 2
    assert oracle.rank([]) == 0


def test_tracer_wraps_every_import_site_and_restores_the_originals():
    originals = (apolar.linalg.rank, apolar.polynomials.rank, apolar.cli.main)
    f = apolar.polynomials.graded_polynomial(2, {(2, 0): 1, (1, 1): 1})
    with tracing.Tracer() as tracer:
        assert apolar.polynomials.rank is not originals[1]
        assert apolar.polynomials.rank.__wrapped__ is originals[1]
        apolar.polynomials.hilbert_vector(f)
    assert (apolar.linalg.rank, apolar.polynomials.rank, apolar.cli.main) == originals
    spans = tracer.snapshot()["spans"]
    calls, busy, self_time = spans["polynomials.hilbert_vector"]
    assert calls == 1 and 0.0 <= self_time <= busy
    assert spans["linalg.rank"][0] == f.degree + 1
    assert tracer.counters["linalg.rank.cells"] > 0


def test_trace_gaps_report_a_missed_rank_wrapper():
    workload = wl.WORKLOADS["conjecture"]
    with tracing.Tracer() as tracer:
        out = cli_output(list(CONJECTURE.argv))
    spans = tracer.snapshot()["spans"]
    results = [[0, 0.0, out, ""]]
    assert run.trace_gaps(workload, results, spans) == []
    spans["linalg.rank"][0] -= 1
    assert len(run.trace_gaps(workload, results, spans)) == 1


def test_with_jobs_replaces_only_the_jobs_value():
    assert run.with_jobs(CONJECTURE.argv, 2)[-2:] == ("--jobs", "2")
    assert run.with_jobs(CONJECTURE.argv, 2)[:-1] == CONJECTURE.argv[:-1]
