"""Benchmark of the apolar command-line interface.

    python3 bench/run.py --workload {conjecture,generators,locus} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed or built.  A workload is a fixed set of
inputs made from the seed (``workloads.py``), run in passes: each pass is a
fresh child interpreter (``child.py``), started one after another, that
calls ``apolar.cli.main(argv)`` in-process once per input, with stdout
captured.  Set-up time is the median time to import ``apolar.cli`` in a
fresh interpreter, sampled three times before every pass.

The host's CPU speed swings by tens of percent within seconds, so the child
runs a fixed speed probe between calls and after the import.  Set-up time
and every latency are multiplied by ``PROBE_NOMINAL_S`` over the probe time
measured around them: they read as seconds on a machine whose probe takes
``PROBE_NOMINAL_S``.  The unscaled throughput and the probe median are in
the details line.

With ``--trace 0`` the run makes whole passes, at least three rounds of
them, for about S seconds and reports the end-to-end metrics; an input's
latency is the median over its passes.  With ``--trace 1`` it runs one
round of inputs in one interpreter untraced, again under the per-layer
tracer (``tracing.py``) and, for ``conjecture``, once more with
``--jobs 2``, and reports the per-layer metrics.  Every output is checked
outside the timed region; the run exits 1 if any check fails and 2, without a result, if it cannot run at all (for
example when ``src/apolar`` is missing).

The last line of stdout is the result object; the line before it holds
details (tail percentile and input count, failure ratio, the SHA-256 of
the first round's stdout, failure messages).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The generators workload formats its inputs with the package.
sys.path.insert(0, str(SRC))

import workloads as wl  # noqa: E402

SETUP_PER_PASS = 3
# Probe time (``child.probe``) that latencies are scaled to, a round figure
# at the top of its per-run medians (0.019-0.030 s) on the 2-vCPU Xeon VM
# that recorded baseline.json.
PROBE_NOMINAL_S = 0.030
MIN_ROUNDS = 3
RUN_BUDGET_S = 170.0
JOBS_PARALLEL = 2

END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def tail(samples):
    """Highest-percentile sample with at least ten samples beyond it, as
    (value, percentile, sample count); the maximum when there are fewer
    than eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n, n
    return ordered[-1], 100.0, n


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("trace_overhead", "perazzo.draws_per_trial"):
        return "ratio"
    return "count"


def spawn(args, payload, deadline: float) -> str:
    """Run ``child.py`` with ``args`` in a fresh interpreter and its own
    process group; return its stdout.  The whole group is killed if the
    run's time budget runs out."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(payload, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {args[0]} exceeded the run's time budget")
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def setup_time(deadline: float) -> float:
    """Seconds to import ``apolar.cli`` in a fresh interpreter, scaled to
    the nominal probe speed."""
    seconds, probe_s, path = spawn(["setup"], None, deadline).split(maxsplit=2)
    if Path(path.strip()).resolve().parent != (SRC / "apolar").resolve():
        raise BenchError(f"apolar.cli imported from {path.strip()}, not from {SRC}")
    return float(seconds) * PROBE_NOMINAL_S / float(probe_s)


def scaled_latencies(run: dict) -> list[float]:
    """Each call's latency times ``PROBE_NOMINAL_S`` over the mean of the
    probes run just before and just after it."""
    probes = run["probes"]
    out = []
    k = 0
    for index, result in enumerate(run["results"]):
        while probes[k + 1][0] <= index:
            k += 1
        out.append(result[1] * 2 * PROBE_NOMINAL_S / (probes[k][1] + probes[k + 1][1]))
    return out


def run_pass(calls: list, deadline: float, trace: bool = False) -> dict:
    """One pass in a fresh interpreter: the calls, their ``[exit code,
    seconds, stdout, stderr]`` results, the probes, each call's scaled
    ``latency``, ``maxrss_kb`` and the trace."""
    spec = {"calls": [list(c.argv) for c in calls], "trace": trace}
    result = json.loads(spawn(["measure"], json.dumps(spec), deadline))
    result["calls"] = list(calls)
    result["latency"] = scaled_latencies(result)
    return result


def merged(runs: list) -> dict:
    return {key: [x for r in runs for x in r[key]] for key in ("calls", "results", "latency")}


def check_run(workload, run: dict, failures: list) -> int:
    """Check every output of a run; append messages, return the count."""
    bad = 0
    for call, (rc, _, out, err) in zip(run["calls"], run["results"]):
        problem = wl.check_output(workload, call, rc, out)
        if problem is not None:
            bad += 1
            failures.append(f"{' '.join(call.argv)[:120]}: {problem} {err.strip()[-300:]}")
    return bad


def same_outputs(a: dict, b: dict, label: str, failures: list) -> int:
    bad = 0
    for call, ra, rb in zip(a["calls"], a["results"], b["results"]):
        if ra[2] != rb[2]:
            bad += 1
            failures.append(f"{' '.join(call.argv)[:120]}: {label} stdout differs")
    return bad


def digest(run: dict) -> str:
    h = hashlib.sha256()
    for _, _, out, _ in run["results"]:
        h.update(out.encode())
    return h.hexdigest()


def input_latencies(run: dict) -> dict:
    """Per distinct input: (items, median scaled latency over its
    invocations)."""
    by_input: dict = {}
    for call, latency in zip(run["calls"], run["latency"]):
        by_input.setdefault(call.input_key, (call.items, []))[1].append(latency)
    return {key: (items, statistics.median(times)) for key, (items, times) in by_input.items()}


def throughput(run: dict) -> float:
    """Items per second of per-input median latency."""
    latencies = input_latencies(run).values()
    return sum(items for items, _ in latencies) / sum(t for _, t in latencies)


def unverified(run: dict) -> int:
    return sum(
        1
        for call, (rc, _, out, _) in zip(run["calls"], run["results"])
        if call.argv[0] == "generators" and rc == 0 and '"verified": false' in out
    )


def end_to_end(workload, seed, seconds, deadline):
    """Whole passes, at least ``MIN_ROUNDS`` rounds, ending as near
    ``seconds`` after the start as whole passes allow.  Set-up time is
    sampled before every pass, so its median spans the run like the passes
    do."""
    passes = workload.passes(seed)
    setup_time(deadline)  # may write bytecode caches; not counted
    setups: list[float] = []
    runs: list[dict] = []
    start = time.monotonic()
    while True:
        setups.extend(setup_time(deadline) for _ in range(SETUP_PER_PASS))
        begun = time.monotonic()
        runs.append(run_pass(passes[len(runs) % len(passes)], deadline))
        last = time.monotonic() - begun
        if (
            len(runs) >= MIN_ROUNDS * workload.round_passes
            and time.monotonic() - start + last / 2 >= seconds
        ):
            break
    run = merged(runs)
    failures: list[str] = []
    failed = check_run(workload, run, failures)
    latencies = [t for _, t in input_latencies(run).values()]
    tail_s, tail_pct, samples = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput": throughput(run),
        "call_p50_ms": statistics.median(latencies) * 1000.0,
        "call_tail_ms": tail_s * 1000.0,
        "peak_rss_mb": max(r["maxrss_kb"] for r in runs) / 1024.0,
    }
    details = {
        "call_tail_percentile": tail_pct,
        "throughput_item": workload.item,
        "inputs": samples,
        "passes": len(runs),
        "calls": len(run["results"]),
        "stdout_sha256": digest(merged(runs[: workload.round_passes])),
        "unverified_forms": unverified(merged(runs[: workload.round_passes])),
        "unscaled_throughput": (
            sum(c.items for c in run["calls"]) / sum(r[1] for r in run["results"])
        ),
        "probe_median_s": statistics.median(p[1] for r in runs for p in r["probes"]),
    }
    return metrics, len(run["results"]), failed, failures, details


def layer_metrics(workload, seed, deadline):
    """One round of inputs in one interpreter each: untraced, traced and,
    for ``conjecture``, with ``--jobs 2``."""
    replay = [c for p in workload.passes(seed)[: workload.round_passes] for c in p]
    base = run_pass(replay, deadline)
    traced = run_pass(replay, deadline, trace=True)
    failures: list[str] = []
    failed = check_run(workload, base, failures) + check_run(workload, traced, failures)
    failed += same_outputs(base, traced, "traced", failures)
    attempted = 2 * len(replay)

    spans = traced["trace"]["spans"]
    counters = traced["trace"]["counters"]
    trials = sum(c.items for c in replay) if workload.name == "conjecture" else 0
    extra = {
        "trace_overhead": throughput(traced) / throughput(base),
        "perazzo.trials": trials,
        "perazzo.draws_per_trial": (
            span(spans, "polynomials.is_standard.calls") / trials if trials else 0.0
        ),
        "perazzo.jobs2_run_s": 0.0,
        "generators.unverified_forms": unverified(traced),
        "cli.busy_s": span(spans, "cli.main.busy_s"),
        "cli.self_s": span(spans, "cli.main.self_s"),
    }
    gaps = trace_gaps(workload, traced["results"], spans)
    failures.extend(gaps)
    failed += len(gaps)
    if workload.name == "conjecture":
        jobs = [wl.Call(with_jobs(c.argv, JOBS_PARALLEL), c.items) for c in replay]
        parallel = run_pass(jobs, deadline)
        attempted += len(jobs)
        failed += check_run(workload, parallel, failures)
        failed += same_outputs(base, parallel, f"--jobs {JOBS_PARALLEL}", failures)
        extra["perazzo.jobs2_run_s"] = sum(parallel["latency"])

    metrics = {
        name: extra[name] if name in extra
        else counters[name] if name in counters
        else span(spans, name)
        for name in wl.LAYER_MAP
    }
    details = {"stdout_sha256": digest(base)}
    return metrics, attempted, failed, failures, details


def span(spans: dict, metric: str):
    """``"linalg.rank.calls"`` -> the call count of span ``linalg.rank``
    (likewise ``.busy_s`` and ``.self_s``); zero for a span never entered."""
    key, field = metric.rsplit(".", 1)
    return spans.get(key, [0, 0.0, 0.0])[("calls", "busy_s", "self_s").index(field)]


def with_jobs(argv: tuple, jobs: int) -> tuple:
    i = argv.index("--jobs")
    return argv[: i + 1] + (str(jobs),) + argv[i + 2 :]


def trace_gaps(workload, results: list, spans: dict) -> list[str]:
    """Messages for wrappers that evidently missed calls.

    Every invocation enters ``cli.main`` once.  On ``conjecture``,
    ``linalg.rank`` runs once per Hilbert-vector entry (d + 1 per vector:
    the reference and each completed trial) and once per ``is_standard``
    draw, so a wrapper missed at an import site breaks the equality instead
    of reading as zero.
    """
    gaps = []
    if span(spans, "cli.main.calls") != len(results):
        gaps.append(f"trace incomplete: cli.main calls {span(spans, 'cli.main.calls')}"
                    f" != {len(results)} invocations")
    if workload.name != "conjecture":
        return gaps
    vectors = entries = 0
    for _, _, out, _ in results:
        report = json.loads(out)
        completed = 1 + report["trials"] - report["skipped_trials"]
        vectors += completed
        entries += (report["socle_degree"] + 1) * completed
    expected = {
        "polynomials.hilbert_vector.calls": vectors,
        "linalg.rank.calls": entries + span(spans, "polynomials.is_standard.calls"),
    }
    for metric, value in expected.items():
        if span(spans, metric) != value:
            gaps.append(f"trace incomplete: {metric} {span(spans, metric)} != {value}"
                        " implied by the reports")
    return gaps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    workload = wl.WORKLOADS[args.workload]
    try:
        if not (SRC / "apolar" / "cli.py").is_file():
            raise BenchError(f"no package source at {SRC / 'apolar'}")
        if args.trace:
            metrics, attempted, failed, failures, details = layer_metrics(
                workload, args.seed, deadline
            )
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, attempted, failed, failures, details = end_to_end(
                workload, args.seed, args.seconds, deadline
            )
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for message in failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    details.update(
        workload=workload.name,
        seed=args.seed,
        fail_ratio={"value": failed / attempted, "unit": "ratio"},
        failures=failures[:20],
    )
    print(json.dumps({"details": details}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
