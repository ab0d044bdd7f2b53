"""Layer tracing installed from outside the package.

Wrappers replace the package's public functions in every ``crystal_ca``
module namespace that holds them, so calls between modules are seen as well
as the benchmark's own calls, which go through module attributes.  The finest
boundaries (backend queries, element construction, ``coord_letters``,
vertex cells) only count, since they run hundreds of thousands of times a
second.  Coarser calls open a frame: its self time is its duration minus the
time of the frames opened inside it.  Frames of the layers in ``STORED`` are
also kept as spans ``(id, parent, name, start_ns, end_ns, self_ns)`` in
memory and written out when the run ends; tensor-operator frames are timed
but not stored, and spans opened inside them name the nearest stored
ancestor as their parent.

Two private names are wrapped as well: ``automaton._sweep_raise`` and
``automaton._sweep_lower``.  They are the only place where the window part of
a sweep is separated from its extension sites.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from functools import partial
from time import perf_counter_ns

from crystal_ca import algebra, automaton, crystal, rmatrix

STORED = ("rmatrix.theorem", "rmatrix.composite", "rmatrix.factorized",
          "rmatrix.swap", "rmatrix.table.build", "automaton.evolve_T",
          "automaton.carrier", "automaton.factorized", "automaton.fine",
          "automaton.sweep", "automaton.state")


class CountingProviders:
    """Stands in for a ``Providers`` object and counts its four queries."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer
        self.spec = inner.spec

    def _count(self):
        if self._tracer.on:
            self._tracer.counts["backends.query"] += 1

    def eps(self, i, el):
        self._count()
        return self._inner.eps(i, el)

    def phi(self, i, el):
        self._count()
        return self._inner.phi(i, el)

    def e(self, i, el):
        self._count()
        return self._inner.e(i, el)

    def f(self, i, el):
        self._count()
        return self._inner.f(i, el)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    def __init__(self):
        self.on = False
        self.counts: dict[str, int] = defaultdict(int)
        self.frames: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # calls, self_ns
        self.spans: list[tuple] = []
        self.tables: dict[int, dict] = {}  # id -> every R table seen, built here
        self.entries_built = 0
        self.looked_up: set[tuple] = set()
        self.M_max = 0
        self._stack: list[list[int]] = []  # [id of nearest stored span, child_ns]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- frames ---------------------------------------------------------------

    def frame(self, name: str, fn, when=None):
        """Wrap fn in a self-timed frame; `when(args)` may skip the call."""
        stored = name in STORED
        tr = self

        def traced(*args, **kw):
            if not tr.on or (when is not None and not when(args)):
                return fn(*args, **kw)
            stack = tr._stack
            parent = stack[-1][0] if stack else -1
            sid = parent
            if stored:
                sid = tr._next_id
                tr._next_id += 1
            top = [sid, 0]
            stack.append(top)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kw)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self_ns = dur - top[1]
                agg = tr.frames[name]
                agg[0] += 1
                agg[1] += self_ns
                if stored:
                    tr.spans.append((sid, parent, name, t0, t1, self_ns))

        return traced

    def count(self, name: str, fn):
        counts, tr = self.counts, self

        def counted(*args, **kw):
            if tr.on:
                counts[name] += 1
            return fn(*args, **kw)

        return counted

    # -- layer-specific wrappers ------------------------------------------------

    def _get_table(self, fn):
        tr = self

        def get_table(bk, l, m):
            if not tr.on:
                return fn(bk, l, m)
            tr.counts["rmatrix.table.gets"] += 1
            parent = tr._stack[-1][0] if tr._stack else -1
            t0 = perf_counter_ns()
            table = fn(bk, l, m)
            t1 = perf_counter_ns()
            if id(table) not in tr.tables:  # a table this process had not seen
                tr.tables[id(table)] = table
                tr.entries_built += len(table)
                tr.counts["rmatrix.table.builds"] += 1
                sid = tr._next_id
                tr._next_id += 1
                tr.spans.append((sid, parent, "rmatrix.table.build", t0, t1, t1 - t0))
                if tr._stack:
                    tr._stack[-1][1] += t1 - t0
            return table

        return get_table

    def _swap(self, fn):
        tr = self

        def r_elementary(bk, a, b):
            if tr.on:
                tr.looked_up.add((a.l, b.l, a.x, b.x))
            return fn(bk, a, b)

        return self.frame("rmatrix.swap", r_elementary)

    def _factorized(self, fn):
        tr = self

        def r_factorized(*args, **kw):
            try:
                return fn(*args, **kw)
            except rmatrix.InapplicableError:
                if tr.on:
                    tr.counts["rmatrix.factorized.declined"] += 1
                raise

        return self.frame("rmatrix.factorized", r_factorized)

    def _carrier_pass(self, fn):
        tr = self

        def evolve_carrier(bk, state, M, *args, **kw):
            if not tr.on:
                return fn(bk, state, M, *args, **kw)
            swaps = tr.frames["rmatrix.swap"]
            before = swaps[0]
            try:
                return fn(bk, state, M, *args, **kw)
            finally:
                sites = swaps[0] - before
                tr.counts["automaton.carrier.passes"] += 1
                tr.counts["automaton.carrier.sites"] += sites
                tr.counts["automaton.carrier.tail_sites"] += sites - len(state.window)
                tr.M_max = max(tr.M_max, M)

        return self.frame("automaton.carrier", evolve_carrier)

    def _sweep(self, fn):
        tr = self

        def sweep(state_like, bk, window, *args, **kw):
            if not tr.on:
                return fn(state_like, bk, window, *args, **kw)
            before = tr.counts["automaton.vertex"]
            try:
                return fn(state_like, bk, window, *args, **kw)
            finally:
                sites = tr.counts["automaton.vertex"] - before
                tr.counts["automaton.sweep.ext_sites"] += sites - len(window)

        return self.frame("automaton.sweep", sweep)

    # -- installation -----------------------------------------------------------

    def install(self):
        """Put the wrappers in place in every crystal_ca module.  A name the
        package no longer has is skipped, and its metrics read 0."""
        is_tensor = lambda args: isinstance(args[2], crystal.Tensor)  # (bk, i, b)
        targets = [
            (rmatrix, "get_table", self._get_table),
            (rmatrix, "r_elementary", self._swap),
            (rmatrix, "r_factorized", self._factorized),
            (rmatrix, "r_composite", partial(self.frame, "rmatrix.composite")),
            (rmatrix, "verify_theorem", partial(self.frame, "rmatrix.theorem")),
            (automaton, "evolve_T", partial(self.frame, "automaton.evolve_T")),
            (automaton, "evolve_carrier", self._carrier_pass),
            (automaton, "evolve_T_factorized", partial(self.frame, "automaton.factorized")),
            (automaton, "evolve_fine", partial(self.frame, "automaton.fine")),
            (automaton, "_sweep_raise", self._sweep),
            (automaton, "_sweep_lower", self._sweep),
            (automaton, "vertex_step", partial(self.count, "automaton.vertex")),
            (automaton, "dual_vertex_step", partial(self.count, "automaton.vertex")),
        ]
        for op in ("eps", "phi", "apply_e", "apply_f", "weyl_s"):
            targets.append((crystal, op, partial(self.frame, "crystal.tensor_op", when=is_tensor)))
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "crystal_ca" or name.startswith("crystal_ca.")]
        for owner, attr, make in targets:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = make(original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, name, value))
                        setattr(module, name, wrapper)

        classes = [
            (crystal.CrystalElement, "__post_init__",
             self.count("crystal.element.new", crystal.CrystalElement.__post_init__)),
            (automaton.AutomatonState, "__post_init__",
             self.frame("automaton.state", automaton.AutomatonState.__post_init__)),
            (algebra.AlgebraSpec, "coord_letters", property(self.count(
                "algebra.coord_letters", algebra.AlgebraSpec.coord_letters.fget))),
        ]
        for cls, name, wrapper in classes:
            self._undo.append((cls, name, vars(cls)[name]))
            setattr(cls, name, wrapper)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> dict:
        out = dict(self.counts)
        for name, (calls, self_ns) in self.frames.items():
            out[name + ".calls"] = calls
            out[name + ".self_ns"] = self_ns
        return out
