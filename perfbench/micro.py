"""Layer microbenchmarks on fixed inputs, untraced.

Each figure is the median over REPEATS timings of a loop, divided by the
loop's calls.  The inputs are fixed here, not drawn from the run's seed, so
the figures of two runs compare the same work.
"""
from __future__ import annotations

import random
import statistics
from time import perf_counter_ns

from crystal_ca import automaton, crystal, rmatrix

import workloads as wl

REPEATS = 5


def _per_call_ns(fn, calls: int) -> float:
    """Median ns per call of fn(), which makes `calls` calls per run."""
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter_ns()
        fn()
        samples.append((perf_counter_ns() - t0) / calls)
    return statistics.median(samples)


def element_new_ns() -> float:
    spec, x, n = wl.SPEC, (3, 1, 0, 2), 20_000
    make = crystal.CrystalElement

    def loop():
        for _ in range(n):
            make(spec, 6, x)

    return _per_call_ns(loop, n)


def backend_query_ns(bk) -> float:
    """eps, phi, e and f in turn on one B_6 element, every color."""
    el = crystal.CrystalElement(wl.SPEC, 6, (3, 1, 0, 2))
    colors, rounds = wl.SPEC.index_set, 2_000
    queries = (bk.eps, bk.phi, bk.e, bk.f)

    def loop():
        for _ in range(rounds):
            for q in queries:
                for i in colors:
                    q(i, el)

    return _per_call_ns(loop, rounds * len(queries) * len(colors))


def tensor_op_us(bk, k: int) -> float:
    """crystal eps, phi, apply_e and apply_f on a fixed k-factor tensor."""
    rng = random.Random(k)
    factors = []
    for j in range(k):
        l = wl.PATTERN[j % len(wl.PATTERN)] + 1
        factors.append(rng.choice(crystal.enumerate_crystal(wl.SPEC, l)))
    t = crystal.Tensor(tuple(factors))
    colors, rounds = wl.SPEC.index_set, 200
    ops = (crystal.eps, crystal.phi, crystal.apply_e, crystal.apply_f)

    def loop():
        for _ in range(rounds):
            for op in ops:
                for i in colors:
                    op(bk, i, t)

    return _per_call_ns(loop, rounds * len(ops) * len(colors)) / 1e3


def warm_swap_us(bk) -> float:
    """r_elementary on B_17 (x) B_2 pairs once the table exists."""
    rng = random.Random(17)
    big = crystal.enumerate_crystal(wl.SPEC, 17)
    small = crystal.enumerate_crystal(wl.SPEC, 2)
    pairs = [(rng.choice(big), rng.choice(small)) for _ in range(200)]
    rmatrix.get_table(bk, 17, 2)
    rounds = 20

    def loop():
        for _ in range(rounds):
            for a, b in pairs:
                rmatrix.r_elementary(bk, a, b)

    return _per_call_ns(loop, rounds * len(pairs)) / 1e3


def table_build_us_per_entry(bk) -> float:
    """A fresh B_8 (x) B_2 table, 1,650 entries."""
    samples = []
    for _ in range(REPEATS):
        rmatrix.clear_tables()
        t0 = perf_counter_ns()
        table = rmatrix.get_table(bk, 8, 2)
        samples.append((perf_counter_ns() - t0) / len(table) / 1e3)
    rmatrix.clear_tables()
    return statistics.median(samples)


def sweep_line():
    return wl.dense_line(random.Random(32), 0, wl.SWEEP_WIDTH)


def sweep_step_us(bk) -> float:
    """One factorized step on a fixed dense line, whole step."""
    line, rounds = sweep_line(), 20

    def loop():
        for _ in range(rounds):
            automaton.evolve_T_factorized(bk, line, 1)

    return _per_call_ns(loop, rounds) / 1e3


def carrier_line():
    return wl.sparse_line(random.Random(4), 0, 4, 16)


def carrier_step_ms(bk) -> float:
    """One evolve_T step on a fixed sparse line of deviation 4."""
    line, rounds = carrier_line(), 20
    automaton.evolve_T(bk, line)  # builds its small tables outside the timing

    def loop():
        for _ in range(rounds):
            automaton.evolve_T(bk, line)

    return _per_call_ns(loop, rounds) / 1e6


def run(bk) -> dict[str, float]:
    """Every microbenchmark; leaves no R table behind."""
    rmatrix.clear_tables()
    out = {
        "crystal.element.new_us": element_new_ns() / 1e3,
        "backends.query.ns": backend_query_ns(bk),
        "crystal.tensor_op.k2_us": tensor_op_us(bk, 2),
        "crystal.tensor_op.k4_us": tensor_op_us(bk, 4),
        "crystal.tensor_op.k8_us": tensor_op_us(bk, 8),
        "rmatrix.swap.warm_us": warm_swap_us(bk),
        "rmatrix.table.us_per_entry": table_build_us_per_entry(bk),
        "automaton.sweep.step_us": sweep_step_us(bk),
        "automaton.carrier.step_ms": carrier_step_ms(bk),
    }
    rmatrix.clear_tables()
    return out
