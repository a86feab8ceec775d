"""Benchmark of the ssm2sysml compiler, checker and query engine.

Usage, from the root of a checkout (stdlib only, nothing to install):

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 55 --trace 0

`--workload` is `corpus`, `query` or `all` (the default, which runs both
in turn).  Each workload runs in a fresh child process,
`perfbench/worker.py`, whose peak resident memory is read from the rusage
that `os.wait4` returns.  With `--trace 0` the last line of standard output
is one JSON object holding the end-to-end metrics; with `--trace 1` it
holds the per-layer metrics of a traced run instead.  The lines above it
give each metric with its unit and sample count, the error rate, and a
digest of all outputs, so that two commits can be compared for
byte-identical output.  With `all`, the last line combines both results
and prefixes each metric with its workload's name.

A run whose outputs fail a correctness check still prints its result, with
`"correct": false`.  A run that cannot start the package exits non-zero
without printing one.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus", "query")


class BenchError(Exception):
    pass


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a fresh child; add the child's peak RSS."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    # A fixed hash seed makes set iteration, and with it every allocation
    # and garbage collection, repeat exactly for one input seed.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    # A traced run finishes the pass it is in, and an untraced one its
    # closing CLI pairs, after the measured time; the rest is slack for a
    # slow machine.
    timer = threading.Timer(2 * seconds + 80, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    if not trace:
        # ru_maxrss is in KiB on Linux; it covers the worker and the CLI
        # processes it waited for.
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss / 1024,
            "unit": "MB",
            "samples": 1,
        }
    return result


def report(workload: str, result: dict) -> None:
    print(f"== {workload}: Python {platform.python_version()}, {os.cpu_count()} CPUs, "
          "one worker process without threads")
    for name, metric in sorted(result["metrics"].items()):
        samples = metric.get("samples")
        count = f"  (n={samples})" if samples is not None else ""
        print(f"{name:42s} {metric['value']:14.4f} {metric['unit']}{count}")
    rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':42s} {rate:14.4f} ratio  "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print(f"{'output_digest':42s} {result['digest']}")
    for line in result.get("failures", []):
        print(f"FAILED: {line}")


def public(result: dict, prefix: str = "") -> dict:
    return {
        prefix + name: {"value": m["value"], "unit": m["unit"]}
        for name, m in result["metrics"].items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ssm2sysml", "__init__.py")):
        print("perfbench: src/ssm2sysml not found; run from a full checkout",
              file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in chosen:
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
            report(workload, results[workload])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(chosen) == 1:
        metrics = public(results[chosen[0]])
    else:
        metrics = {}
        for workload, result in results.items():
            metrics.update(public(result, workload + "."))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
