"""Record one point of the performance trajectory: ``python3 bench.py LABEL``.

Runs every workload that ``BENCHMARK.json`` declares, once, at seed 1 and
for its ``run_seconds``, and writes ``BENCH_<LABEL>.json`` beside this
script: each workload's final JSON line and output digest, with the
seed, the commit, the Python version, the platform and the CPU count.
Stdlib only.
"""

import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.abspath(__file__))
SEED = 1


def _git(*args):
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_workload(command, name, seconds):
    argv = [sys.executable, *command[1:], "--workload", name, "--seed", str(SEED), "--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    digest = next((line.split()[1] for line in out if line.split()[:1] == ["output_digest"]), None)
    return {"result": json.loads(out[-1]), "output_digest": digest}


def main(argv):
    if len(argv) != 1 or not argv[0] or argv[0].startswith("-"):
        print("usage: python3 bench.py LABEL", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = {}
    for w in spec["workloads"]:
        workloads[w["name"]] = run_workload(spec["command"], w["name"], spec["run_seconds"])
        print(f"{w['name']}: {json.dumps(workloads[w['name']]['result'])}")
    doc = {
        "label": argv[0],
        "seed": SEED,
        "run_seconds": spec["run_seconds"],
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "workloads": workloads,
    }
    path = os.path.join(ROOT, f"BENCH_{argv[0]}.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
