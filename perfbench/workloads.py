"""The three rank-3 A1 workloads: input generators, oracle warm-up, one timed
unit and the reference check of each batch of units.

A batch is the unit of input generation and checking: a theorem call, a
carrier line run for a fixed number of steps, or one sweep step.  Its
``step()`` is what the benchmark times; ``failed()`` runs the reference
check and returns how many of the batch's units it condemns.  Every call
into the package goes through a module attribute (``rmatrix.x``,
``automaton.x``), so the tracer's wrappers see the benchmark's own calls.
"""
from __future__ import annotations

import random
from typing import Callable, NamedTuple

from crystal_ca import automaton, rmatrix
from crystal_ca.algebra import AlgebraSpec
from crystal_ca.backends import make_backend
from crystal_ca.crystal import from_counts

SPEC = AlgebraSpec("A1", 3)
OFFSETS = range(SPEC.rank + 1)  # every background letter a_0..a_n in turn
PATTERN = (2, 1)

# theorem-r3: one unit is one verify_theorem call; M is left to the package
# (2 * 6 + 3 + 2 = 17), so set-up builds the three B_17 (x) B_{1,2,3} tables.
THEOREM_SHAPE = (1, 2, 3)
THEOREM_TRIALS = 16

# carrier-r3: a fixed deviation keeps evolve_T at M = D and 2D (a free random
# rank-3 line reaches CapExceeded), and each line restarts after a fixed
# number of steps because a chained line keeps widening its window.
CARRIER_DEVIATION = 10
CARRIER_WIDTH = 24
CARRIER_STEPS = 8

# sweep-r3: dense random lines, one factorized step each; no R table is read.
SWEEP_WIDTH = 32


def backend():
    return make_backend(SPEC)


def sparse_line(rng: random.Random, k: int, deviation: int, width: int):
    """A line of `width` sites over PATTERN with exactly `deviation` letters
    off the background letter a_k."""
    a = SPEC.letter_at(k)
    others = [c for c in SPEC.coord_letters if c != a]
    sites = [{a: PATTERN[j % len(PATTERN)]} for j in range(width)]
    for _ in range(deviation):
        j = rng.randrange(width)
        while sites[j][a] == 0:
            j = rng.randrange(width)
        sites[j][a] -= 1
        c = rng.choice(others)
        sites[j][c] = sites[j].get(c, 0) + 1
    window = tuple(from_counts(SPEC, s, PATTERN[j % len(PATTERN)])
                   for j, s in enumerate(sites))
    return automaton.AutomatonState(SPEC, k, 0, window, PATTERN)


def dense_line(rng: random.Random, k: int, width: int):
    """A line of `width` sites over PATTERN, every letter drawn uniformly."""
    window = []
    for j in range(width):
        l = PATTERN[j % len(PATTERN)]
        counts: dict[str, int] = {}
        for _ in range(l):
            c = rng.choice(SPEC.coord_letters)
            counts[c] = counts.get(c, 0) + 1
        window.append(from_counts(SPEC, counts, l))
    return automaton.AutomatonState(SPEC, k, 0, tuple(window), PATTERN)


class TheoremBatch:
    steps = 1

    def __init__(self, bk, rng: random.Random, index: int):
        self.bk = bk
        self.k = OFFSETS[index % len(OFFSETS)]
        self.seed = rng.randrange(1 << 30)
        self.report = None

    def step(self):
        self.report = rmatrix.verify_theorem(
            self.bk, THEOREM_SHAPE, k=self.k, trials=THEOREM_TRIALS,
            seed=self.seed, jobs=1)

    def failed(self) -> int:
        r = self.report
        ok = (r["trials"] == THEOREM_TRIALS and r["passes"] == r["trials"]
              and r["flagged"] == 0 and r["failures"] == [])
        return 0 if ok else 1


class CarrierBatch:
    steps = CARRIER_STEPS

    def __init__(self, bk, rng: random.Random, index: int):
        self.bk = bk
        k = OFFSETS[index % len(OFFSETS)]
        self.start = self.cur = sparse_line(rng, k, CARRIER_DEVIATION, CARRIER_WIDTH)

    def step(self):
        # M_limit = D lets evolve_T try M = D and 2D only; a line that has not
        # settled by then fails with CapExceeded instead of building tables
        # for M up to 512
        self.cur, _ = automaton.evolve_T(self.bk, self.cur, M_limit=CARRIER_DEVIATION)

    def failed(self) -> int:
        ref = automaton.evolve_T_factorized(self.bk, self.start, CARRIER_STEPS)
        ok = (self.cur == ref
              and self.cur.weight_profile() == self.start.weight_profile())
        return 0 if ok else CARRIER_STEPS


class SweepBatch:
    steps = 1

    def __init__(self, bk, rng: random.Random, index: int):
        self.bk = bk
        k = OFFSETS[index % len(OFFSETS)]
        self.start = dense_line(rng, k, SWEEP_WIDTH)
        self.out = None

    def step(self):
        self.out = automaton.evolve_T_factorized(self.bk, self.start, 1)

    def failed(self) -> int:
        bk, s = self.bk, self.start
        ok = (automaton.evolve_T_factorized(bk, self.out, -1) == s
              and automaton.evolve_fine(bk, s, s.k + SPEC.d) == self.out)
        return 0 if ok else 1


def warm_theorem(bk):
    # zero trials: verify_theorem only fetches the tables its auto M needs
    rmatrix.verify_theorem(bk, THEOREM_SHAPE, trials=0, jobs=1)


def warm_carrier(bk):
    # one step on a fixed line of the same deviation builds the tables that
    # evolve_T's own M choice (D, then 2D) reads
    line = sparse_line(random.Random(0), 0, CARRIER_DEVIATION, CARRIER_WIDTH)
    automaton.evolve_T(bk, line, M_limit=CARRIER_DEVIATION)


def warm_nothing(bk):
    pass


class Workload(NamedTuple):
    batch: type
    warm: Callable  # the oracle warm-up that set-up includes
    traced_batches: int  # batches run by each pass of a traced run


WORKLOADS = {
    "theorem-r3": Workload(TheoremBatch, warm_theorem, 100),
    "carrier-r3": Workload(CarrierBatch, warm_carrier, 150),
    "sweep-r3": Workload(SweepBatch, warm_nothing, 1000),
}
