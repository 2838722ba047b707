"""Run-to-run spread of the benchmark, and the recorded baseline.

    python3 bench/spread.py [--workloads conjecture,generators,locus]
        [--seeds 10] [--write]

Runs ``run.py`` once per workload and seed (seeds 1..N, one run after
another, each as long as ``run_seconds`` in ``BENCHMARK.json``) and prints,
for every end-to-end metric, the median of the runs and the distance
between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``).  With ``--write`` it also makes one
traced run per workload and writes ``bench/baseline.json``: the machine,
``nproc``, the Python version, the git sha, each workload's reason, the
layer -> metric -> workload map, the medians, spreads and per-layer values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"wall_s": wall, "details": details["details"], "result": result}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(wl.WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    summary = {}
    for name in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            runs.append(run_once(name, seed, seconds, 0))
            values = {k: round(v["value"], 4) for k, v in runs[-1]["result"]["metrics"].items()}
            print(f"{name:11s} seed {seed:3d} {runs[-1]['wall_s']:6.1f} s wall {values}", flush=True)
        metrics = {}
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            metrics[metric] = {
                "unit": runs[0]["result"]["metrics"][metric]["unit"],
                "median": statistics.median(values),
                "spread": spread(values),
                "values": values,
            }
            print(f"{name:11s} {metric:13s} median {metrics[metric]['median']:12.4f}"
                  f"  spread {metrics[metric]['spread']:.4f}", flush=True)
        summary[name] = {
            "why": wl.WORKLOADS[name].why,
            "end_to_end": metrics,
            "max_wall_s": max(r["wall_s"] for r in runs),
            "stdout_sha256_by_seed": [r["details"]["stdout_sha256"] for r in runs],
            "unverified_forms_by_seed": [r["details"]["unverified_forms"] for r in runs],
            "unscaled_throughput_by_seed": [r["details"]["unscaled_throughput"] for r in runs],
            "probe_median_s_by_seed": [r["details"]["probe_median_s"] for r in runs],
        }
        print(f"{name:11s} slowest run {summary[name]['max_wall_s']:.1f} s wall", flush=True)
        if args.write:
            traced = run_once(name, 1, seconds, 1)
            summary[name]["per_layer_seed_1"] = {
                k: v["value"] for k, v in traced["result"]["metrics"].items()
            }
    if args.write:
        baseline = {
            "git_sha": git_sha(),
            "machine": f"{cpu_model()}, {platform.platform()}",
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "seconds": seconds,
            "seeds": list(range(1, args.seeds + 1)),
            "layer_map": {
                metric: {"moves": moves, "on": on} for metric, (moves, on) in wl.LAYER_MAP.items()
            },
            "workloads": summary,
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
