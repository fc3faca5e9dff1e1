"""residua benchmark: one workload per invocation, stdlib only.

    python3 perfbench/run.py --workload laws --seed 1 --seconds 15 --trace 0

Run from the root of a checkout that holds ``src/residua`` and
``BENCHMARK.json``.  Workloads: laws, build, testbed, cli (see
``perfbench/README.md``).  The program under test gets only the inputs the
workload builds from ``--seed``.

``--trace 0`` measures the end-to-end metrics.  ``setup_s`` is the median
over three to five fresh processes of the time from process start to
inputs ready.  Another fresh process then runs the workload in a closed
loop, one caller, for whole passes over its items.  Times are scaled to
a reference host speed by the probe in ``reference.py``.  ``--trace 1``
runs a traced pass between two untraced ones and reports the per-layer
metrics instead, in unscaled seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat every metric with its sample count, the failure ratio, the
output digest and, on ``cli``, the exit-code defects still present.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# setup_s is the median of SETUP_SAMPLES fresh-process setups, or of
# SETUP_MIN_SAMPLES once they have taken SETUP_PROBE_BUDGET_S.
SETUP_SAMPLES = 5
SETUP_MIN_SAMPLES = 3
SETUP_PROBE_BUDGET_S = 5.0
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RESIDUA_JOBS", None)  # run_all must take its single-threaded path
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def start_child(args, extra, deadline):
    """Run child.py; returns (process start time, stdout lines)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload} child timed out")
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} child exited with {proc.returncode}")
    return spawned, out.splitlines()


def ready_after(spawned, lines) -> float:
    for line in lines:
        if line.startswith("ready "):
            return float(line.split()[1]) - spawned
    raise BenchError("child never reported its inputs ready")


def end_to_end(args, deadline):
    setups, spent = [], 0.0
    while len(setups) < SETUP_SAMPLES and (
            len(setups) < SETUP_MIN_SAMPLES or spent < SETUP_PROBE_BUDGET_S):
        before = reference.probe()
        raw = ready_after(*start_child(args, ["--setup-only"], deadline))
        setups.append(reference.scale(raw, before, reference.probe()))
        spent += raw
    _, lines = start_child(args, ["--seconds", str(args.seconds), "--trace", "0"], deadline)
    result = json.loads(lines[-1])
    # An item's latency is its fastest pass in scaled time: the probe does
    # not catch every slowdown, and the fastest pass is the least disturbed.
    lat_ms = [min(runs) * 1000 for runs in zip(*result["scaled_s"])]
    passes = len(result["scaled_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(lat_ms) / (sum(lat_ms) / 1000),
        "item_p50_ms": statistics.median(lat_ms),
        "item_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[-1],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "items_per_s": f"{len(lat_ms)} items, fastest of {passes} passes each",
        "item_p50_ms": f"n={len(lat_ms)}, fastest of {passes} passes each",
        "item_p90_ms": f"n={len(lat_ms)}, {sum(1 for v in lat_ms if v > metrics['item_p90_ms'])} beyond",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return result, metrics, samples


def traced(args, deadline):
    _, lines = start_child(args, ["--trace", "1"], deadline)
    result = json.loads(lines[-1])
    return result, result["per_layer"], {}


def select(declared, values, samples):
    """Declared metrics in BENCHMARK.json order; a function the workload
    never calls reads 0."""
    out = {}
    for m in declared:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name.endswith(".calls") or name.endswith(".self_s"):
            value = 0
        else:
            raise BenchError(f"no value for declared metric {name}")
        out[name] = {"value": value, "unit": m["unit"]}
        if name in samples:
            print(f"  {name:<14} {value:12.4f} {m['unit']:<5} ({samples[name]})")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("laws", "build", "testbed", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "residua", "__init__.py")):
            raise BenchError(f"no residua sources under {os.path.join(ROOT, 'src')}")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        result, values, samples = (traced if args.trace else end_to_end)(args, deadline)
        attempted = sum(len(p) for p in result["latencies_s"])
        failed = len(result["failures"])
        consistent = len(set(result["digests"])) == 1
        print(f"workload {args.workload} seed {args.seed}: {result['items_per_pass']} items per pass, "
              f"passes {', '.join(f'{s:.2f}' for s in result['passes_s'])} s")
        metrics = select(bench["per_layer" if args.trace else "end_to_end"], values, samples)
        print(f"  fail_ratio     {failed}/{attempted} = {failed / attempted:.4f}")
        for line in result["failures"][:10]:
            print(f"  failed: {line}")
        print(f"  output_digest  {result['digests'][0]}"
              + ("" if consistent else " (differs between passes)"))
        if args.workload == "cli":
            print(f"  exit-code contract defects still present: {len(result['defects'])} of 5"
                  + (f" ({'; '.join(result['defects'])})" if result["defects"] else ""))
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0 and consistent, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
