"""Child interpreter of the apolar benchmark.

``child.py setup`` times ``import apolar.cli`` in this fresh interpreter,
then runs the speed probe, and prints both times and the module file.
Nothing but ``sys`` and ``time`` is imported before the import is timed, so
the figure holds everything a CLI call imports.

``child.py measure`` reads a JSON spec on stdin and writes one JSON
document to stdout.  It runs one pass: it calls ``apolar.cli.main``
once per argv, in order, in-process with stdout and stderr captured, and
reports each exit code, latency and output and the interpreter's peak
resident memory.  Between calls, at least every ``PROBE_INTERVAL_S`` and
after the last call, it runs the speed probe.  With ``trace`` set the
per-layer tracer is active for the whole pass.

The probe is a fixed piece of pure-Python work like the package's own
(rational arithmetic, tuple-keyed dictionaries).  On a shared host the CPU
speed available to one process swings by tens of percent over seconds; the
probe measures that speed where and when the calls run, and ``run.py``
scales every latency by it.  The garbage collector is off while the probe
runs, so the heap the package left behind does not add to its time.
"""

import gc
import sys
import time

PROBE_INTERVAL_S = 1.0


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    from fractions import Fraction

    values = [Fraction(i, i + 1) for i in range(1, 41)]
    table = {}
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            for i, x in enumerate(values):
                for j, y in enumerate(values):
                    table[(i, j)] = x * y - y
        return time.perf_counter() - start
    finally:
        gc.enable()


def setup() -> None:
    start = time.perf_counter()
    import apolar.cli

    elapsed = time.perf_counter() - start
    print(repr(elapsed), repr(probe()), apolar.cli.__file__)


def measure(spec: dict) -> dict:
    import contextlib
    import io
    import resource
    import traceback

    import apolar.cli as cli

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer().install()
    results = []
    probes = []
    last_probe = float("-inf")
    for index, argv in enumerate(spec["calls"]):
        if time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
            probes.append([index, probe()])
            last_probe = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:
            # an uncaught exception is a failed invocation, not a crashed pass
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        results.append([rc, elapsed, out.getvalue(), err.getvalue()])
    probes.append([len(results), probe()])
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace = None
    if tracer is not None:
        tracer.restore()
        trace = tracer.snapshot()
    return {"results": results, "probes": probes, "maxrss_kb": maxrss_kb, "trace": trace}


def main() -> None:
    if sys.argv[1] == "setup":
        setup()
        return
    import json

    json.dump(measure(json.load(sys.stdin)), sys.stdout)


if __name__ == "__main__":
    main()
