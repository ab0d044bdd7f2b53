"""Which end-to-end metric each per-layer metric should move, and on which
workload, written down before any change is measured against it.

Counts and `*_ms` times are per timed unit of the traced pass; `*_us` self
times are per call of that layer; `*_us`/`*_ns` figures without a traced
call behind them come from the microbenchmarks in micro.py.
"""

T, C, S = "theorem-r3", "carrier-r3", "sweep-r3"
ALL = [T, C, S]

LAYER_MAP = {
    "algebra.coord_letters.calls": {
        "what": "AlgebraSpec.coord_letters evaluations per unit",
        "moves": {"units_per_s": ALL, "setup_s": [T, C]}},
    "crystal.element.new": {
        "what": "CrystalElement constructions per unit",
        "moves": {"units_per_s": ALL, "setup_s": [T, C]}},
    "crystal.element.new_us": {
        "what": "microbenchmark: one CrystalElement construction",
        "moves": {"units_per_s": ALL, "setup_s": [T, C]}},
    "crystal.tensor_op.calls": {
        "what": "eps/phi/apply_e/apply_f/weyl_s calls on tensors per unit, "
                "recursive apply_e/apply_f calls included",
        "moves": {"unit_ms.p50": [T]}},
    "crystal.tensor_op.self_ms": {
        "what": "self time of those calls per unit",
        "moves": {"unit_ms.p50": [T]}},
    "crystal.tensor_op.k2_us": {
        "what": "microbenchmark: tensor eps/phi/e/f on 2 factors",
        "moves": {"unit_ms.p50": [T]}},
    "crystal.tensor_op.k4_us": {
        "what": "microbenchmark: tensor eps/phi/e/f on 4 factors",
        "moves": {"unit_ms.p50": [T]}},
    "crystal.tensor_op.k8_us": {
        "what": "microbenchmark: tensor eps/phi/e/f on 8 factors",
        "moves": {"unit_ms.p50": [T]}},
    "backends.query.calls": {
        "what": "eps/phi/e/f queries on the Providers object per unit",
        "moves": {"unit_ms.p50": [S, T], "setup_s": [T, C]}},
    "backends.query.ns": {
        "what": "microbenchmark: one Providers query",
        "moves": {"unit_ms.p50": [S, T], "setup_s": [T, C]}},
    "rmatrix.table.builds": {
        "what": "R tables built in the traced pass, set-up included",
        "moves": {"setup_s": [T, C]}},
    "rmatrix.table.entries": {
        "what": "entries of those tables",
        "moves": {"setup_s": [T, C]}},
    "rmatrix.table.build_s": {
        "what": "untraced oracle warm-up wall time in set-up",
        "moves": {"setup_s": [T, C]}},
    "rmatrix.table.us_per_entry": {
        "what": "microbenchmark: build cost per entry of B_8 (x) B_2",
        "moves": {"setup_s": [T, C]}},
    "rmatrix.table.used_frac": {
        "what": "distinct entries looked up / entries built",
        "moves": {"setup_s": [T, C], "peak_rss_mb": [T, C]}},
    "rmatrix.table.hit_ratio": {
        "what": "get_table calls served from the memo / get_table calls",
        "moves": {"setup_s": [T, C], "peak_rss_mb": [T, C]}},
    "rmatrix.swap.calls": {
        "what": "r_elementary calls per unit",
        "moves": {"unit_ms.p50": [C]}},
    "rmatrix.swap.self_us": {
        "what": "self time per r_elementary call",
        "moves": {"unit_ms.p50": [C]}},
    "rmatrix.swap.warm_us": {
        "what": "microbenchmark: one warm B_17 (x) B_2 swap",
        "moves": {"unit_ms.p50": [C]}},
    "rmatrix.factorized.calls": {
        "what": "r_factorized calls per unit",
        "moves": {"unit_ms.p50": [T]}},
    "rmatrix.factorized.self_ms": {
        "what": "r_factorized self time per unit",
        "moves": {"unit_ms.p50": [T]}},
    "rmatrix.factorized.declined": {
        "what": "r_factorized calls raising InapplicableError per unit",
        "moves": {"unit_ms.p50": [T], "failed_frac": [T]}},
    "rmatrix.composite.self_ms": {
        "what": "r_composite self time per unit",
        "moves": {"unit_ms.p50": [T]}},
    "automaton.sweep.sites": {
        "what": "vertex cells per unit",
        "moves": {"unit_ms.p50": [S]}},
    "automaton.sweep.ext_sites": {
        "what": "vertex cells beyond the window per unit",
        "moves": {"unit_ms.p50": [S]}},
    "automaton.sweep.us_per_site": {
        "what": "microbenchmark: one factorized step on a fixed dense line / its cells",
        "moves": {"unit_ms.p50": [S]}},
    "automaton.carrier.passes_per_step": {
        "what": "evolve_carrier passes per evolve_T step",
        "moves": {"units_per_s": [C]}},
    "automaton.carrier.sites_per_pass": {
        "what": "swaps per carrier pass",
        "moves": {"units_per_s": [C]}},
    "automaton.carrier.tail_sites": {
        "what": "swaps past the window per carrier pass",
        "moves": {"units_per_s": [C]}},
    "automaton.carrier.M_max": {
        "what": "largest carrier capacity used",
        "moves": {"units_per_s": [C]}},
    "automaton.carrier.step_ms": {
        "what": "microbenchmark: one evolve_T step on a fixed deviation-4 line",
        "moves": {"units_per_s": [C]}},
    "automaton.state.new": {
        "what": "AutomatonState constructions per unit",
        "moves": {"unit_ms.p50": [C, S]}},
    "automaton.state.self_us": {
        "what": "self time per AutomatonState construction",
        "moves": {"unit_ms.p50": [C, S]}},
    "trace.overhead_x": {
        "what": "traced unit time / untraced unit time over the same batches",
        "moves": {}},
}
