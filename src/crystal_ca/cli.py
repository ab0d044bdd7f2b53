"""Command-line front end: simulate, rmatrix, verify, graph.

Exit codes: 0 success, 1 verification failure or declined computation,
2 malformed input or a file that cannot be read or written, 3 missing
structure backend, 4 size cap exceeded, 5 evolution-mode disagreement,
6 internal error (a broken invariant of the package itself, reported in one
line).
"""
from __future__ import annotations

import argparse
import json
import random
import sys

from .algebra import FAMILIES, AlgebraSpec
from .automaton import (
    AutomatonState,
    column_diagram_check,
    evolve_T,
    evolve_T_factorized,
    evolve_carrier,
    evolve_fine,
    parse_state,
)
from .backends import BackendMissing, GraphError, export_graph_text, load_graph, make_backend
from .crystal import (
    CapExceeded,
    FormatError,
    Tensor,
    _check_rank_printable,
    enumerate_crystal,
    parse_element,
    parse_tensor,
    t_failures,
)
from .rmatrix import (
    InapplicableError,
    RMatrixError,
    auto_capacity,
    r_composite,
    r_factorized,
    sample_domain_element,
    verify_theorem,
    yang_baxter_check,
)


def _backend(args):
    spec = AlgebraSpec(args.algebra, args.rank, args.brace)
    _check_rank_printable(spec)  # every command reads or prints words: refuse before any work
    return make_backend(spec, tuple(args.crystal_graph))


def _int_at_least(low: int, kind: str):
    """argparse type of a bounded integer flag, so a bad value is reported with its flag."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        return int(text)
    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "nonnegative")


def _path(text: str) -> str:
    """argparse type of a file path flag: an empty path is no path."""
    if not text:
        raise argparse.ArgumentTypeError("must be a file path, got ''")
    return text


def _auto_or_int(text: str) -> int | None:
    """argparse type of --M: "auto" (None, the package's choice) or a positive integer."""
    return None if text == "auto" else _positive_int(text)


def _csv_ints(text: str, what: str) -> tuple[int, ...]:
    # split always yields one field at least, so "" fails int() like "1,,2"
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise FormatError(f"{what} must be comma-separated integers, got {text!r}") from None


def _head(spec: AlgebraSpec) -> dict:
    """The fields every JSON report opens with."""
    return {"schema": 1, "algebra": spec.family, "rank": spec.rank, "brace": spec.brace}


def _emit(report: dict, path: str | None, echo: bool = True) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    if echo:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# simulate


def _render_rows(states, pad: int, sep: str):
    occupied = [s for s in states if s.window]
    if occupied:
        lo = min(s.window_start for s in occupied) - pad
        hi = max(s.window_start + len(s.window) - 1 for s in occupied) + pad
    else:
        lo, hi = -pad, pad
    return [s.render(lo, hi, sep=sep) for s in states], lo, hi


def cmd_simulate(args) -> int:
    bk = _backend(args)
    spec = bk.spec
    pattern = None if args.capacities is None else _csv_ints(args.capacities, "--capacities")
    state = parse_state(spec, args.background_k, args.state, pattern, args.window_start)
    for c in set(state.pattern):
        bk.provider_for(c)  # BackendMissing names an uncovered capacity

    def carrier_step(st):
        if args.M is not None:
            return evolve_carrier(bk, st, args.M)
        nxt, M_used = evolve_T(bk, st)
        if args.emit_json is None:
            return nxt, []
        # only --emit-json prints the carrier: one finite pass at the M found
        return nxt, evolve_carrier(bk, st, M_used)[1]

    k, d = state.k, spec.d
    rows: list[AutomatonState] = [state]
    traces: list[list] = [[]]
    disagreement = None
    if args.mode == "fine":
        for m in range(k + 1, k + args.steps + 1):
            rows.append(evolve_fine(bk, state, m))
            traces.append([])
    else:
        cur = state
        for t in range(1, args.steps + 1):
            if args.mode == "carrier":
                cur, trace = carrier_step(cur)
                traces.append(trace)
            elif args.mode == "factorized":
                cur = evolve_T_factorized(bk, cur, 1)
                traces.append([])
            else:  # all three must agree
                by_carrier, trace = carrier_step(rows[-1])
                by_weyl = evolve_T_factorized(bk, rows[-1], 1)
                by_fine = evolve_fine(bk, state, k + t * d)
                if not (by_carrier == by_weyl == by_fine):
                    disagreement = t
                cur = by_carrier
                traces.append(trace)
            rows.append(cur)

    lines, lo, hi = _render_rows(rows, args.pad, args.sep)
    for line in lines:
        print(line)

    if args.emit_json is not None:
        steps = []
        for idx, st in enumerate(rows):
            m = k + idx if args.mode == "fine" else k + idx * d
            steps.append({
                "m": m,
                "window_start": lo,
                "sites": [st.site(j).word() for j in range(lo, hi + 1)],
                "carrier": [c.word() for c in traces[idx]],
            })
        _emit({**_head(spec), "k": k, "mode": args.mode, "steps": steps},
              args.emit_json, echo=False)

    if disagreement is not None:
        print(f"modes disagree at step {disagreement}", file=sys.stderr)
        return 5
    return 0


# ---------------------------------------------------------------------------
# rmatrix


def cmd_rmatrix(args) -> int:
    bk = _backend(args)
    spec = bk.spec
    lhs = parse_element(spec, args.lhs)
    rhs = parse_tensor(spec, args.rhs)
    t = Tensor((lhs,) + rhs.factors)
    if args.mode == "oracle":
        print(r_composite(bk, t).word())
        return 0

    def print_chain(states):
        for j, st in enumerate(states[1:], 1):
            print(f"S_{spec.index_at(args.k + j)} -> {st.word()}")

    print(t.word())
    try:
        image, states = r_factorized(bk, t, k=args.k, margin=args.margin)
    except InapplicableError as err:
        print_chain(err.states)
        print(f"inapplicable ({err.reason}): {err}", file=sys.stderr)
        return 1
    print_chain(states)
    print(f"-> {image.word()}")
    return 0


# ---------------------------------------------------------------------------
# verify suites: each returns its report body; cmd_verify adds the head


def _verify_theorem(bk, args) -> dict:
    return verify_theorem(
        bk, _csv_ints(args.shape, "--shape"), k=args.k, trials=args.trials,
        seed=args.seed, margin=args.margin, M=args.M,
    )


def _verify_yb(bk, args) -> dict:
    sizes = _csv_ints(args.sizes, "--sizes")
    if len(sizes) != 3:
        raise FormatError("--sizes needs exactly three entries")
    cases, mismatches = yang_baxter_check(bk, sizes)
    return {
        "sizes": list(sizes), "cases": cases, "mismatches": mismatches,
        "failures": [] if mismatches == 0 else [{"sizes": list(sizes), "mismatches": mismatches}],
    }


def _verify_tmap(bk, args) -> dict:
    levels = sorted(set(range(1, args.l + 1)) | set(bk.graphs))
    failures = []
    checked = 0
    for l in levels:
        if not bk.covers(l):
            continue
        elements = enumerate_crystal(bk.spec, l)
        checked += len(elements)
        failures += [{"l": l, **bad} for bad in t_failures(bk, elements)]
    if not checked:
        raise BackendMissing(
            f"no backend for {bk.spec.family} rank {bk.spec.rank} at levels "
            f"1..{args.l}; supply a crystal-graph file"
        )
    return {"levels": levels, "elements": checked, "failures": failures}


def _verify_corollary(bk, args) -> dict:
    spec = bk.spec
    d = spec.d
    period = d * spec.sigma_order
    failures = []
    passes = 0
    for tnum in range(args.trials):
        rng = random.Random(args.seed + tnum)
        k = tnum % period
        c = rng.randint(1, args.max_cap)
        pool = enumerate_crystal(spec, c)
        width = rng.randint(1, args.max_window)
        window = tuple(rng.choice(pool) for _ in range(width))
        state = AutomatonState(spec, k, 0, window, (c,))
        entry = {"seed": args.seed + tnum, "k": k, "capacity": c,
                 "state": state.render(pad=0, sep=".")}
        bad = []
        by_weyl = evolve_T_factorized(bk, state, 1)
        by_carrier, _ = evolve_T(bk, state)
        by_fine = evolve_fine(bk, state, k + d)
        if by_weyl != by_carrier:
            bad.append({"check": "factorized-vs-carrier",
                        "expected": by_carrier.render(), "got": by_weyl.render()})
        if by_fine != by_carrier:
            bad.append({"check": "fine-vs-carrier",
                        "expected": by_carrier.render(), "got": by_fine.render()})
        if evolve_T_factorized(bk, by_weyl, -1) != state:
            bad.append({"check": "inverse"})
        if by_weyl.weight_profile() != state.weight_profile():
            bad.append({"check": "conservation",
                        "expected": state.weight_profile(),
                        "got": by_weyl.weight_profile()})
        if tnum % 10 == 0:
            sq = evolve_T_factorized(bk, state, 2)
            fine2 = evolve_fine(bk, state, k + 2 * d)
            step2, _ = evolve_T(bk, by_carrier)
            if not (sq == fine2 == step2):
                bad.append({"check": "two-step"})
        if bad:
            entry["problems"] = bad
            failures.append(entry)
        else:
            passes += 1
    return {"trials": args.trials, "passes": passes, "failures": failures}


def _verify_columns(bk, args) -> dict:
    spec = bk.spec
    failures = []
    flagged = 0
    passes = 0
    pool = enumerate_crystal(spec, args.l)
    margin = args.margin if args.margin is not None else args.l
    M = auto_capacity(spec, margin) if args.M is None else args.M
    for tnum in range(args.trials):
        rng = random.Random(args.seed + tnum)
        k = tnum % (spec.d * spec.sigma_order)
        u = sample_domain_element(spec, M, spec.letter_at(k), margin, rng)
        b = rng.choice(pool)
        try:
            rep = column_diagram_check(bk, u, b, k=k, margin=margin)
        except InapplicableError:
            flagged += 1
            continue
        if rep["ok"]:
            passes += 1
        else:
            failures.append({"seed": args.seed + tnum, "k": k,
                             "u": u.word(), "b": b.word(), "report": rep})
    return {
        "l": args.l, "M": M, "margin": margin, "trials": args.trials,
        "passes": passes, "flagged": flagged, "failures": failures,
    }


def cmd_verify(args) -> int:
    bk = _backend(args)
    report = {**_head(bk.spec), "suite": args.suite, **args.body(bk, args)}
    _emit(report, args.emit_json)
    return 1 if report["failures"] else 0


# ---------------------------------------------------------------------------
# graph


def cmd_graph_check(args) -> int:
    try:
        provider = load_graph(args.path)
    except GraphError as err:
        print(str(err), file=sys.stderr)
        return 1
    print(f"ok: {provider.family} rank {provider.rank} B_{provider.l}")
    return 0


def cmd_graph_export(args) -> int:
    bk = _backend(args)
    bk.provider_for(args.l)  # BackendMissing names an uncovered level
    text = export_graph_text(bk, args.l)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    # flags shared by several commands, each declared once on a parent parser
    algebra = argparse.ArgumentParser(add_help=False)
    algebra.add_argument("--algebra", required=True, choices=FAMILIES)
    algebra.add_argument("--rank", required=True, type=int)
    algebra.add_argument("--brace", choices=("upper", "lower"), default="upper")
    algebra.add_argument("--crystal-graph", action="append", default=[], metavar="PATH",
                         help="crystal graph file; repeatable, one per capacity")
    emit = argparse.ArgumentParser(add_help=False)
    emit.add_argument("--emit-json", type=_path, default=None, metavar="PATH")
    trials = argparse.ArgumentParser(add_help=False)
    trials.add_argument("--trials", type=_positive_int, default=100)
    trials.add_argument("--seed", type=int, default=0)
    margin = argparse.ArgumentParser(add_help=False)
    margin.add_argument("--margin", type=_nonnegative_int, default=None)
    capacity = argparse.ArgumentParser(add_help=False)
    capacity.add_argument("--M", type=_auto_or_int, default="auto")

    top = argparse.ArgumentParser(prog="crystal-ca")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[algebra, capacity, emit],
                       help="run the cellular automaton")
    p.add_argument("--background-k", type=int, default=0)
    p.add_argument("--capacities", default=None,
                   help="periodic site-capacity pattern, e.g. 2,2,1,2,1,2,2")
    p.add_argument("--window-start", type=int, default=0)
    p.add_argument("--state", required=True)
    p.add_argument("--steps", type=_nonnegative_int, default=1)
    p.add_argument("--mode", choices=("carrier", "factorized", "fine", "all"),
                   default="carrier")
    p.add_argument("--sep", default=".")
    p.add_argument("--pad", type=_nonnegative_int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("rmatrix", parents=[algebra, margin],
                       help="apply the combinatorial R matrix")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--mode", choices=("oracle", "factorized"), default="oracle")
    p.add_argument("--k", type=int, default=0)
    p.set_defaults(func=cmd_rmatrix)

    v = sub.add_parser("verify", help="run a verification suite")
    v.set_defaults(func=cmd_verify)
    vs = v.add_subparsers(dest="suite", required=True)

    p = vs.add_parser("theorem", parents=[algebra, emit, trials, margin, capacity])
    p.add_argument("--shape", required=True)
    p.add_argument("--k", type=int, default=0)
    p.set_defaults(body=_verify_theorem)

    p = vs.add_parser("yb", parents=[algebra, emit])
    p.add_argument("--sizes", required=True)
    p.set_defaults(body=_verify_yb)

    p = vs.add_parser("tmap", parents=[algebra, emit])
    p.add_argument("--l", type=_positive_int, required=True)
    p.set_defaults(body=_verify_tmap)

    p = vs.add_parser("corollary", parents=[algebra, emit, trials])
    p.add_argument("--max-window", type=_positive_int, default=8)
    p.add_argument("--max-cap", type=_positive_int, default=3)
    p.set_defaults(body=_verify_corollary)

    p = vs.add_parser("columns", parents=[algebra, emit, trials, margin, capacity])
    p.add_argument("--l", type=_positive_int, default=3)
    p.set_defaults(body=_verify_columns)

    g = sub.add_parser("graph", help="crystal graph files")
    gs = g.add_subparsers(dest="action", required=True)

    p = gs.add_parser("check")
    p.add_argument("path")
    p.set_defaults(func=cmd_graph_check)

    p = gs.add_parser("export", parents=[algebra])
    p.add_argument("--l", type=_positive_int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_graph_export)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BackendMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except CapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except (GraphError, InapplicableError, RMatrixError) as err:  # before ValueError
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:  # FormatError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AssertionError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
