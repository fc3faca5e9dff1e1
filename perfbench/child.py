"""One workload in its own fresh, single-threaded process.

    python3 perfbench/child.py --workload laws --seed 1 --seconds 15 --trace 0
    python3 perfbench/child.py --workload laws --seed 1 --setup-only

``run.py`` starts this with ``src`` on PYTHONPATH.  It builds the
workload's inputs, prints ``ready <time.monotonic()>`` (CLOCK_MONOTONIC,
which the parent shares), and unless ``--setup-only`` measures whole
passes over the items and prints one JSON result line.  The line holds
each pass's raw latencies and, with ``--trace 0``, the same latencies
scaled by the reference probe (see ``reference.py``).

With ``--trace 0`` it runs as many passes as fit in ``--seconds`` on a
quiet host, at least two.  With ``--trace 1`` it
runs an untraced, a traced and another untraced pass over the same
items, and reports per-layer figures from the traced one.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Pass time of each workload on a quiet host.  A run makes
# round(--seconds / this) passes, at least two, so that the number of
# passes, and with it the fastest-pass statistic, never depends on load.
NOMINAL_PASS_S = {"laws": 9.0, "build": 8.0, "testbed": 6.0, "cli": 1.2}
MIN_PASSES = 2
PROBE_EVERY_S = 0.2


def run_pass(items, scale=False):
    """Run every item once; the clock covers only the call into residua.

    A collection before each call keeps one item's garbage out of the next
    item's time, so the seeded order does not move the figures.  With
    ``scale`` the reference probe runs at least every ``PROBE_EVERY_S``
    and each latency is also returned scaled by the probes on either side
    of its call.
    """
    latencies, spans, failures, outputs = [], [], [], []
    probes = []  # (time the probe ended, its duration)
    for item in items:
        if scale and (not probes or time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S):
            duration = reference.probe()
            probes.append((time.perf_counter(), duration))
        gc.collect()
        start = time.perf_counter()
        try:
            out = item.run()
        except Exception as e:  # an item that raises counts as failed
            latencies.append(time.perf_counter() - start)
            spans.append(start)
            failures.append(f"{item.key}: {type(e).__name__}: {e}")
            outputs.append((item.key, "raised"))
            continue
        latencies.append(time.perf_counter() - start)
        spans.append(start)
        try:
            outputs.append((item.key, item.check(out)))
        except Exception as e:  # Mismatch, or an output too malformed to check
            failures.append(f"{item.key}: {type(e).__name__}: {e}")
            outputs.append((item.key, "mismatch"))
    blob = json.dumps(sorted(outputs, key=lambda kv: kv[0]), sort_keys=True, default=repr)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    if not scale:
        return latencies, failures, digest, None
    probes.append((time.perf_counter(), reference.probe()))
    ends = [t for t, _ in probes]
    scaled = []
    for start, lat in zip(spans, latencies):
        after = bisect.bisect_right(ends, start + lat)
        scaled.append(reference.scale(lat, probes[after - 1][1], probes[after][1]))
    return latencies, failures, digest, scaled


def per_layer(tracer, traced_s, untraced_s, defects):
    agg = tracer.aggregate()
    out = {}
    for name, (calls, self_s) in agg.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        module = name.split(".")[0]
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + self_s
    laws = [v for k, v in agg.items() if k.startswith("laws.run_law.")]
    out["laws.run_law.calls"] = sum(c for c, _ in laws)
    out["laws.run_law.self_s"] = sum(s for _, s in laws)
    out["laws.checked"] = tracer.checked
    # 1.0 means no (instance, element) profile was computed twice.
    calls = tracer.profile_calls
    out["residual.profile_reuse"] = len(tracer.profile_keys) / calls if calls else 1.0
    out["trace.overhead_s"] = traced_s - untraced_s
    out["cli.contract_defects"] = len(defects)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        import workloads

        items = workloads.SETUP[args.workload](args.seed, tmpdir)
        print(f"ready {time.monotonic()!r}", flush=True)
        if args.setup_only:
            return 0
        # The inputs live for the whole run; keep them out of every collection.
        gc.collect()
        gc.freeze()

        result = {"items_per_pass": len(items), "latencies_s": [], "scaled_s": [], "failures": [],
                  "digests": []}
        passes_s = []

        def one_pass():
            lat, failures, digest, scaled = run_pass(items, scale=not args.trace)
            result["latencies_s"].append(lat)
            result["scaled_s"].append(scaled)
            result["failures"] += failures
            result["digests"].append(digest)
            passes_s.append(sum(lat))

        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            one_pass()
            tracer.install()
            try:
                one_pass()
            finally:
                tracer.uninstall()
            one_pass()
            tracer.write(os.path.join(ROOT, ".bench_trace", f"{args.workload}-seed{args.seed}"))
        else:
            for _ in range(max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))):
                one_pass()
        defects = workloads.probe_defects(tmpdir) if args.workload == "cli" else []
        result["passes_s"] = passes_s
        result["defects"] = defects
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            # The untraced passes bracket the traced one, which cancels a
            # steady drift in machine speed.
            untraced_s = (passes_s[0] + passes_s[2]) / 2
            result["per_layer"] = per_layer(tracer, passes_s[1], untraced_s, defects)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)


if __name__ == "__main__":
    sys.exit(main())
