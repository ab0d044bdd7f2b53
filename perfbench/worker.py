"""One benchmark process: runs one phase of one workload and prints a JSON
line.  Started by run.py with PYTHONPATH pointing at the package sources.

Phases:
  setup  import, backend and oracle warm-up, then exit;
  run    set-up, then timed units until --seconds have passed;
  trace  a fixed number of batches untraced, the layer microbenchmarks, then
         the same batches again with the tracer installed.
"""
import argparse
import gzip
import json
import os
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter_ns

T_START = perf_counter_ns()  # before the package is imported

SHOWN_ERRORS = 3  # tracebacks printed before further ones are only counted


def set_up(name: str):
    """Everything a user pays before the first unit: returns the workload,
    the backend and the set-up time split into its parts."""
    import workloads
    from crystal_ca import rmatrix

    t_import = perf_counter_ns()
    rmatrix.clear_tables()
    bk = workloads.backend()
    t_backend = perf_counter_ns()
    workload = workloads.WORKLOADS[name]
    workload.warm(bk)
    t_warm = perf_counter_ns()
    parts = {
        "import_s": (t_import - T_START) / 1e9,
        "backend_s": (t_backend - t_import) / 1e9,
        "warm_s": (t_warm - t_backend) / 1e9,
    }
    return workload, bk, parts


def run_batches(batch_cls, bk, seed: int, *, seconds=None, batches=None, tracer=None):
    """Time every unit; check every batch outside the unit timers.

    Stops after `batches` batches, or at the first batch boundary after
    `seconds` of wall time.  A unit that raises fails its whole batch.
    """
    rng = random.Random(seed)
    latencies: list[int] = []
    attempted = failed = 0
    t_end = None if seconds is None else perf_counter_ns() + int(seconds * 1e9)
    index = 0
    while True:
        if batches is not None and index >= batches:
            break
        if t_end is not None and perf_counter_ns() >= t_end:
            break
        batch = batch_cls(bk, rng, index)
        index += 1
        try:
            if tracer is not None:
                tracer.on = True
            for _ in range(batch.steps):
                t0 = perf_counter_ns()
                batch.step()
                latencies.append(perf_counter_ns() - t0)
            if tracer is not None:
                tracer.on = False
            bad = batch.failed()
        except Exception:
            if failed < SHOWN_ERRORS * batch.steps:
                traceback.print_exc(file=sys.stderr)
            bad = batch.steps
        finally:
            if tracer is not None:
                tracer.on = False
        attempted += batch.steps
        failed += bad
    return latencies, attempted, failed


def percentile(sorted_values, q: float):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def slice_figures(latencies: list[int]) -> dict:
    """Throughput, p50 and p90 of the run, each taken over up to twenty
    consecutive slices of at least 100 units as the quartile of the slices'
    values on the better side (upper for throughput, lower for latencies).

    On a shared host, load from other processes slows whole stretches of a
    run; the better quartile reads the program through its least disturbed
    quarter, where a plain p90 of the run reads the neighbours.
    """
    slices = max(1, min(20, len(latencies) // 100))
    size = len(latencies) // slices
    rate, p50, p90 = [], [], []
    for j in range(slices):
        part = sorted(latencies[j * size:(j + 1) * size])
        rate.append(len(part) * 1e9 / sum(part))
        p50.append(percentile(part, 0.5) / 1e6)
        p90.append(percentile(part, 0.9) / 1e6)
    if slices == 1:
        return {"units_per_s": rate[0], "unit_ms.p50": p50[0], "unit_ms.p90": p90[0],
                "slices": 1, "slice_units": size}
    return {"units_per_s": statistics.quantiles(rate, n=4)[2],
            "unit_ms.p50": statistics.quantiles(p50, n=4)[0],
            "unit_ms.p90": statistics.quantiles(p90, n=4)[0],
            "slices": slices, "slice_units": size}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def phase_setup(args) -> dict:
    _, _, parts = set_up(args.workload)
    return {"setup_s": sum(parts.values()), "parts": parts}


def phase_run(args) -> dict:
    workload, bk, parts = set_up(args.workload)
    lat, attempted, failed = run_batches(workload.batch, bk, args.seed, seconds=args.seconds)
    return {
        **slice_figures(lat),
        "setup_s": sum(parts.values()),
        "parts": parts,
        "units": len(lat),
        "timed_s": sum(lat) / 1e9,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
    }


def _per(num, den):
    return num / den if den else 0.0


def phase_trace(args) -> dict:
    workload, bk, parts = set_up(args.workload)
    nbatches = workload.traced_batches
    plain, attempted, failed = run_batches(workload.batch, bk, args.seed, batches=nbatches)

    import micro
    import tracing
    from crystal_ca import automaton, rmatrix

    layer = micro.run(bk)

    tracer = tracing.Tracer()
    tracer.install()
    proxy = tracing.CountingProviders(bk, tracer)
    rmatrix.clear_tables()
    tracer.on = True
    workload.warm(proxy)
    tracer.on = False
    before = tracer.snapshot()
    traced, t_attempted, t_failed = run_batches(
        workload.batch, proxy, args.seed, batches=nbatches, tracer=tracer)
    after = tracer.snapshot()
    tracer.on = True
    sites_before = tracer.counts["automaton.vertex"]
    automaton.evolve_T_factorized(proxy, micro.sweep_line(), 1)
    line_sites = tracer.counts["automaton.vertex"] - sites_before
    tracer.on = False
    tracer.uninstall()

    units = len(traced)
    d = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    swaps = d.get("rmatrix.swap.calls", 0)
    states = d.get("automaton.state.calls", 0)
    passes = d.get("automaton.carrier.passes", 0)
    gets = after.get("rmatrix.table.gets", 0)
    builds = after.get("rmatrix.table.builds", 0)
    layer.update({
        "algebra.coord_letters.calls": _per(d.get("algebra.coord_letters", 0), units),
        "crystal.element.new": _per(d.get("crystal.element.new", 0), units),
        "crystal.tensor_op.calls": _per(d.get("crystal.tensor_op.calls", 0), units),
        "crystal.tensor_op.self_ms": _per(d.get("crystal.tensor_op.self_ns", 0), units) / 1e6,
        "backends.query.calls": _per(d.get("backends.query", 0), units),
        "rmatrix.table.builds": builds,
        "rmatrix.table.entries": tracer.entries_built,
        "rmatrix.table.build_s": parts["warm_s"],
        "rmatrix.table.used_frac": _per(len(tracer.looked_up), tracer.entries_built),
        "rmatrix.table.hit_ratio": _per(gets - builds, gets),
        "rmatrix.swap.calls": _per(swaps, units),
        "rmatrix.swap.self_us": _per(d.get("rmatrix.swap.self_ns", 0), swaps) / 1e3,
        "rmatrix.factorized.calls": _per(d.get("rmatrix.factorized.calls", 0), units),
        "rmatrix.factorized.self_ms": _per(d.get("rmatrix.factorized.self_ns", 0), units) / 1e6,
        "rmatrix.factorized.declined": _per(d.get("rmatrix.factorized.declined", 0), units),
        "rmatrix.composite.self_ms": _per(d.get("rmatrix.composite.self_ns", 0), units) / 1e6,
        "automaton.sweep.sites": _per(d.get("automaton.vertex", 0), units),
        "automaton.sweep.ext_sites": _per(d.get("automaton.sweep.ext_sites", 0), units),
        "automaton.sweep.us_per_site": _per(layer.pop("automaton.sweep.step_us"), line_sites),
        "automaton.carrier.passes_per_step": _per(passes, d.get("automaton.evolve_T.calls", 0)),
        "automaton.carrier.sites_per_pass": _per(d.get("automaton.carrier.sites", 0), passes),
        "automaton.carrier.tail_sites": _per(d.get("automaton.carrier.tail_sites", 0), passes),
        "automaton.carrier.M_max": tracer.M_max,
        "automaton.state.new": _per(states, units),
        "automaton.state.self_us": _per(d.get("automaton.state.self_ns", 0), states) / 1e3,
        "trace.overhead_x": _per(sum(traced), sum(plain)),
    })
    spans_path = None
    if args.out:
        spans_path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.json.gz")
        with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns", "self_ns"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
    return {
        "layer": layer,
        "units": units,
        "untraced_s": sum(plain) / 1e9,
        "traced_s": sum(traced) / 1e9,
        "spans": len(tracer.spans),
        "spans_file": spans_path,
        "attempted": attempted + t_attempted,
        "failed": failed + t_failed,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--phase", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", default=None, help="directory for the span file")
    args = ap.parse_args()
    phase = {"setup": phase_setup, "run": phase_run, "trace": phase_trace}[args.phase]
    print(json.dumps(phase(args)))


if __name__ == "__main__":
    main()
