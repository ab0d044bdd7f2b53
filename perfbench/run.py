"""crystal-ca benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload theorem-r3 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Every phase runs in a fresh worker process (perfbench/worker.py), so no two
workloads ever share the R-table memo, and CRYSTAL_CA_CACHE_DIR is removed
from the workers' environment, so set-up always builds its tables.

--trace 0  set-up in fresh processes until there are at least SETUP_REPS
           samples and SETUP_MIN_S seconds of them (setup_s is their
           median), then set-up and timed units for --seconds in one more
           process: the end-to-end metrics.
--trace 1  a fixed number of batches untraced, the layer microbenchmarks,
           and the same batches traced: the per-layer metrics.

Metric names and units come from BENCHMARK.json.  Human-readable lines come
first; the last line of standard output is the JSON result.  The exit code
is 1 when any reference check failed, 2 when the run could not be made.
A record of the run (machine, Python, commit, seed, metrics, and the
layer-to-end-to-end map) goes to perfbench-out/, with the spans of a traced
run beside it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from layers import LAYER_MAP

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
OUT = ROOT / "perfbench-out"
SETUP_REPS = 5
SETUP_MIN_S = 1.0  # a set-up of a few ms is sampled until this much is seen
SETUP_MAX_REPS = 40
SETUP_TIMEOUT_S = 20


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def worker(env, timeout: float, *args) -> dict:
    cmd = [sys.executable, str(WORKER), *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"worker {' '.join(map(str, args))} ran past {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"worker {' '.join(map(str, args))} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("CRYSTAL_CA_CACHE_DIR", None)  # a warm disk cache would hide set-up
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # traced counts repeat exactly at one seed
    return env


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpu": model, "cpus": os.cpu_count(),
            "python": platform.python_version()}


def commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(env, args) -> tuple[dict, dict]:
    setup_s: list[float] = []
    while len(setup_s) < SETUP_MAX_REPS and (
            len(setup_s) < SETUP_REPS - 1 or sum(setup_s) < SETUP_MIN_S):
        res = worker(env, SETUP_TIMEOUT_S, "--phase", "setup", "--workload", args.workload)
        setup_s.append(res["setup_s"])
    run = worker(env, args.seconds + 120, "--phase", "run", "--workload", args.workload,
                 "--seed", args.seed, "--seconds", args.seconds)
    setup_s.append(run["setup_s"])
    values = {
        "setup_s": statistics.median(setup_s),
        "units_per_s": run["units_per_s"],
        "unit_ms.p50": run["unit_ms.p50"],
        "unit_ms.p90": run["unit_ms.p90"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    detail = {"setup_s_samples": setup_s, "setup_parts": run["parts"],
              "units": run["units"], "timed_s": run["timed_s"],
              "slices": run["slices"], "slice_units": run["slice_units"],
              "attempted": run["attempted"], "failed": run["failed"],
              "failed_frac": run["failed"] / max(run["attempted"], 1)}
    return values, detail


def per_layer(env, args) -> tuple[dict, dict]:
    res = worker(env, 170, "--phase", "trace", "--workload", args.workload,
                 "--seed", args.seed, "--out", OUT)
    detail = {k: v for k, v in res.items() if k != "layer"}
    detail["failed_frac"] = res["failed"] / max(res["attempted"], 1)
    return res["layer"], detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "crystal_ca" / "__init__.py").is_file():
        fail(f"no package sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)

    env = worker_env()
    values, detail = (per_layer if args.trace else end_to_end)(env, args)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {detail['units']} units in {detail['slices']} slices of "
              f"{detail['slice_units']}; setup_s median of "
              f"{len(detail['setup_s_samples'])} set-ups")
    print(f"  {'failed_frac':36s} {detail['failed_frac']:14.6g} "
          f"({detail['failed']} of {detail['attempted']} units)")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commit": commit(), "machine": machine(),
              "metrics": metrics, "detail": detail, "layer_map": LAYER_MAP}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    result = {"correct": detail["failed"] == 0, "attempted": detail["attempted"],
              "failed": detail["failed"], "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
