"""The combinatorial R matrix, two independent ways.

Oracle: the unique pairwise swap B_l (x) B_m -> B_m (x) B_l commuting with all
raising/lowering operators and fixing the extreme pairs; materialized by
breadth-first propagation from those pairs and memoized (optionally on disk
via CRYSTAL_CA_CACHE_DIR).

Factorized: a Weyl-operator chain followed by the block swap and the diagram
automorphism, valid when the left factor carries a dominant letter.  Each
chain step checks its side conditions and flags instead of guessing when they
fail.  verify_theorem races the two forms on random inputs and also checks
the intermediate-state laws the factorized form relies on.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .algebra import AlgebraSpec, bar, is_barred
from .crystal import (
    CrystalElement,
    Tensor,
    delta,
    enumerate_crystal,
    eps,
    phi,
    sigma_letterwise,
    t_def,
    weyl_s,
)


class RMatrixError(RuntimeError):
    """The backend violates R-matrix laws (propagation conflict, order split)."""


class UnreachedElement(RMatrixError):
    """A tensor pair is not connected to the extreme seeds."""


class InapplicableError(RuntimeError):
    """The factorized form declines: a side condition failed.

    reason is one of 'domain', 'orientation', 'locality'; step is the global
    chain position when the failure is mid-chain.
    """

    def __init__(self, reason: str, message: str, step: int | None = None, trace=None):
        super().__init__(message)
        self.reason = reason
        self.step = step
        self.trace = trace


# ---------------------------------------------------------------------------
# oracle tables

_TABLES: dict[tuple, dict] = {}
_LOCK = threading.Lock()


def _cache_path(family: str, rank: int, backend: str, l: int, m: int) -> str | None:
    root = os.environ.get("CRYSTAL_CA_CACHE_DIR")
    if not root:
        return None
    return os.path.join(root, f"rtable_{family}_{rank}_{backend}_{l}_{m}.json")


def _payload_digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _load_cached(path: str, family: str, rank: int, backend: str, l: int, m: int):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        payload = doc["payload"]
        if doc.get("sha256") != _payload_digest(payload):
            return None
        if (payload.get("family"), payload.get("rank"), payload.get("backend"),
                payload.get("l"), payload.get("m"), payload.get("schema")) != (
                family, rank, backend, l, m, 1):
            return None
        return {
            (tuple(xl), tuple(xm)): (tuple(ym), tuple(yl))
            for xl, xm, ym, yl in payload["entries"]
        }
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _store_cached(path: str, family: str, rank: int, backend: str, l: int, m: int,
                  table: dict):
    payload = {
        "schema": 1,
        "kind": "rtable",
        "family": family,
        "rank": rank,
        "backend": backend,
        "l": l,
        "m": m,
        "entries": [
            [list(xl), list(xm), list(ym), list(yl)]
            for (xl, xm), (ym, yl) in sorted(table.items())
        ],
    }
    doc = {"payload": payload, "sha256": _payload_digest(payload)}
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        pass


def get_table(bk, l: int, m: int) -> dict:
    """The swap table B_l (x) B_m -> B_m (x) B_l keyed on coordinate pairs.

    Memoized per structure source (bk.identity), in memory and on disk.
    """
    spec = bk.spec
    key = (spec.family, spec.rank, bk.identity, l, m)
    with _LOCK:
        if key in _TABLES:
            return _TABLES[key]
        path = _cache_path(*key)
        if path is not None:
            cached = _load_cached(path, *key)
            if cached is not None:
                _TABLES[key] = cached
                return cached
        table = _build_table(bk, l, m)
        if path is not None:
            _store_cached(path, *key, table)
        _TABLES[key] = table
        return table


def _query_rows(bk, spec: AlgebraSpec, l: int) -> dict:
    """(eps_i, phi_i, e_i, f_i) of every element of B_l for every color i,
    keyed on coordinates, with the images as coordinates (None for 0)."""
    rows = {}
    for el in enumerate_crystal(spec, l):
        row = []
        for i in spec.index_set:
            up, down = bk.e(i, el), bk.f(i, el)
            row.append((bk.eps(i, el), bk.phi(i, el),
                        None if up is None else up.x, None if down is None else down.x))
        rows[el.x] = row
    return rows


def _pair_word(spec: AlgebraSpec, l: int, m: int, pair) -> str:
    return f"{CrystalElement(spec, l, pair[0]).word()}.{CrystalElement(spec, m, pair[1]).word()}"


def _build_table(bk, l: int, m: int) -> dict:
    """Propagate the swap from the extreme pairs by every e_i and f_i.

    On a pair, e_i acts on the left factor iff phi_i(left) >= eps_i(right),
    f_i iff phi_i(left) > eps_i(right) (the signature rule for two factors);
    the single-element queries come from rows tabulated once per element.
    """
    spec = bk.spec
    rows_l = _query_rows(bk, spec, l)
    rows_m = rows_l if m == l else _query_rows(bk, spec, m)
    table: dict = {}
    queue: deque = deque()
    for a in spec.a_letters:
        dl, dm = delta(spec, l, a), delta(spec, m, a)
        table[(dl.x, dm.x)] = (dm.x, dl.x)
        queue.append((dl.x, dm.x))
    while queue:
        src = queue.popleft()
        dst = table[src]
        row_sa, row_sb = rows_l[src[0]], rows_m[src[1]]
        row_da, row_db = rows_m[dst[0]], rows_l[dst[1]]
        for i in spec.index_set:
            sa, sb, da, db = row_sa[i], row_sb[i], row_da[i], row_db[i]
            # rows hold (eps, phi, e image, f image); bias 1 makes f's test strict
            for op, slot, bias in (("e", 2, 0), ("f", 3, 1)):
                s_left = sa[1] >= sb[0] + bias
                d_left = da[1] >= db[0] + bias
                s_img = sa[slot] if s_left else sb[slot]
                d_img = da[slot] if d_left else db[slot]
                if (s_img is None) != (d_img is None):
                    raise RMatrixError(
                        f"{op}_{i} kills exactly one side of "
                        f"{_pair_word(spec, l, m, src)} -> {_pair_word(spec, m, l, dst)}"
                    )
                if s_img is None:
                    continue
                skey = (s_img, src[1]) if s_left else (src[0], s_img)
                dval = (d_img, dst[1]) if d_left else (dst[0], d_img)
                if skey in table:
                    if table[skey] != dval:
                        raise RMatrixError(
                            f"conflicting images for {_pair_word(spec, l, m, skey)}"
                        )
                    continue
                table[skey] = dval
                queue.append(skey)
    want = len(rows_l) * len(rows_m)
    if len(table) != want:
        raise UnreachedElement(
            f"R table for B_{l} (x) B_{m} reaches {len(table)} of {want} pairs; "
            f"the pair crystal is not connected to the extreme seeds"
        )
    return table


def clear_tables():
    with _LOCK:
        _TABLES.clear()


def r_elementary(bk, a: CrystalElement, b: CrystalElement) -> tuple[CrystalElement, CrystalElement]:
    """Swap one adjacent pair through the oracle table."""
    table = get_table(bk, a.l, b.l)
    try:
        ym, yl = table[(a.x, b.x)]
    except KeyError:
        raise UnreachedElement(f"pair {a.word()}.{b.word()} missing from R table") from None
    spec = bk.spec
    return CrystalElement(spec, b.l, ym), CrystalElement(spec, a.l, yl)


def apply_r_at(bk, t: Tensor, pos: int) -> Tensor:
    a, b = t.factors[pos], t.factors[pos + 1]
    b2, a2 = r_elementary(bk, a, b)
    return Tensor(t.factors[:pos] + (b2, a2) + t.factors[pos + 2 :])


def r_composite(bk, t: Tensor, nleft: int, check_orders: bool = True) -> Tensor:
    """Swap the first nleft factors past the rest by elementary moves.

    Two extreme move orders exist; with check_orders they are both run and
    must agree (they can differ only if the elementary table is inconsistent).
    """
    total = len(t.factors)
    if not 1 <= nleft < total:
        raise ValueError(f"nleft must split {total} factors into two blocks")
    nright = total - nleft

    cur = t
    for j in range(nright):
        for p in range(nleft + j - 1, j - 1, -1):
            cur = apply_r_at(bk, cur, p)

    if check_orders and nleft > 1 and nright > 1:
        alt = t
        for i in range(nleft - 1, -1, -1):
            for p in range(i, i + nright):
                alt = apply_r_at(bk, alt, p)
        if alt != cur:
            raise RMatrixError("the two threading orders disagree")
    return cur


def yang_baxter_check(bk, sizes: tuple[int, int, int]) -> tuple[int, int]:
    """Exhaustive braid identity on triples; returns (cases, mismatches)."""
    spec = bk.spec
    la, lb, lc = sizes
    cases = mismatches = 0
    for a in enumerate_crystal(spec, la):
        for b in enumerate_crystal(spec, lb):
            for c in enumerate_crystal(spec, lc):
                t = Tensor((a, b, c))
                lhs = apply_r_at(bk, apply_r_at(bk, apply_r_at(bk, t, 0), 1), 0)
                rhs = apply_r_at(bk, apply_r_at(bk, apply_r_at(bk, t, 1), 0), 1)
                cases += 1
                if lhs != rhs:
                    mismatches += 1
    return cases, mismatches


# ---------------------------------------------------------------------------
# domain


def domain_gap(u: CrystalElement, a: str) -> int:
    """How dominant letter a is in u; the domain asks for gap >= margin."""
    spec = u.spec
    if a not in spec.a_letters:
        raise ValueError(f"letter {a!r} cannot index a domain in {spec.family}")
    if spec.family == "A1":
        others = max(u.get(b) for b in spec.word_letters if b != a)
        return u.get(a) - others
    c = bar(a) if is_barred(a) else a
    sign = -1 if is_barred(a) else 1
    diff = sign * (u.get(c) - u.get(bar(c)))
    others = [
        abs(u.get(str(b)) - u.get(f"{b}b"))
        for b in range(1, spec.rank + 1)
        if str(b) != c
    ]
    return diff - (max(others) if others else 0)


def in_domain(u: CrystalElement, a: str, margin: int) -> bool:
    return domain_gap(u, a) >= margin


# ---------------------------------------------------------------------------
# factorized form


@dataclass(frozen=True)
class TraceStep:
    m: int
    color: int
    eps_before: int
    phi_before: int
    state_after: Tensor


@dataclass(frozen=True)
class FactorizationTrace:
    k: int
    margin: int
    states: tuple[Tensor, ...]
    steps: tuple[TraceStep, ...]


def r_factorized(bk, t: Tensor, k: int = 0, margin: int | None = None):
    """Move the first factor past the rest by the Weyl chain at offset k.

    Returns (image, trace).  Raises InapplicableError when a side condition
    fails: the first factor must be margin-dominated by the offset's letter,
    each chain step must see a strict eps > phi imbalance, and after each
    step the tensor's eps must live entirely on the first factor.
    """
    if len(t.factors) < 2:
        raise ValueError("need at least two factors")
    u = t.factors[0]
    spec = u.spec
    if margin is None:
        margin = sum(f.l for f in t.factors[1:])
    a_k = spec.letter_at(k)
    if not in_domain(u, a_k, margin):
        raise InapplicableError(
            "domain",
            f"first factor {u.word()} is not {margin}-dominated by letter {a_k}",
        )
    cur = t
    states = [t]
    steps = []
    for j in range(1, spec.d + 1):
        m = k + j
        i = spec.index_at(m)
        eb, pb = eps(bk, i, cur), phi(bk, i, cur)
        trace = FactorizationTrace(k, margin, tuple(states), tuple(steps))
        if eb <= pb:
            raise InapplicableError(
                "orientation",
                f"eps_{i}={eb} <= phi_{i}={pb} before step {m}; "
                f"first-factor capacity too small for this window",
                step=m,
                trace=trace,
            )
        cur = weyl_s(bk, i, cur)
        ea = eps(bk, i, cur)
        eau = bk.eps(i, cur.factors[0])
        if ea != eau:
            raise InapplicableError(
                "locality",
                f"after step {m}, eps_{i} of the tensor is {ea} but "
                f"{eau} on the first factor",
                step=m,
                trace=trace,
            )
        steps.append(TraceStep(m, i, eb, pb, cur))
        states.append(cur)
    moved = cur.factors[1:] + (cur.factors[0],)
    image = Tensor(tuple(sigma_letterwise(f) for f in moved))
    return image, FactorizationTrace(k, margin, tuple(states), tuple(steps))


# ---------------------------------------------------------------------------
# sampling and the verification suite


def sample_domain_element(spec: AlgebraSpec, M: int, a: str, margin: int,
                          rng: random.Random) -> CrystalElement:
    """A random element of B_M inside the letter-a domain at the margin."""
    slots = spec.coord_letters
    idx = {s: p for p, s in enumerate(slots)}
    if a not in idx:
        raise ValueError(f"letter {a!r} has no stored slot")
    cap = max(0, (M - margin) // (len(slots) + 1))
    x = [0] * len(slots)
    n = spec.rank
    for p, s in enumerate(slots):
        if s == a:
            continue
        hi = cap
        if spec.family in ("B1", "D2") and s == "0":
            hi = min(hi, 1)
        x[p] = rng.randint(0, hi)
    if spec.family == "D1":
        # only one of the two middle slots may be occupied
        if a == str(n):
            x[idx[f"{n}b"]] = 0
        elif a == f"{n}b":
            x[idx[str(n)]] = 0
        elif rng.random() < 0.5:
            x[idx[str(n)]] = 0
        else:
            x[idx[f"{n}b"]] = 0
    x[idx[a]] = M - sum(x)
    el = CrystalElement(spec, M, tuple(x))
    if not in_domain(el, a, margin):
        raise AssertionError("domain sampler produced an out-of-domain element")
    return el


def _scramble(el: CrystalElement, rng: random.Random) -> CrystalElement:
    """Permute coordinate values to break dominance (margin-0 control mode)."""
    spec = el.spec
    x = list(el.x)
    if spec.family == "A1":
        rng.shuffle(x)
        return CrystalElement(spec, el.l, tuple(x))
    safe = [p for p, s in enumerate(spec.coord_letters) if s != "0"]
    if spec.family == "D1":
        n = spec.rank
        safe = [p for p in safe if p not in (n - 1, n)]
    vals = [x[p] for p in safe]
    rng.shuffle(vals)
    for p, v in zip(safe, vals):
        x[p] = v
    return CrystalElement(spec, el.l, tuple(x))


def verify_theorem(bk, shape: tuple[int, ...], k: int = 0, trials: int = 100,
                   seed: int = 0, margin: int | None = None, M: int | None = None,
                   jobs: int = 1) -> dict:
    """Race the factorized form against the oracle and check the chain laws.

    Each trial draws a domain element of B_M and a random partner tensor of
    the given shape.  A side-condition refusal counts as flagged, not failed.
    With margin 0 half the draws are scrambled so refusals actually occur.
    """
    spec = bk.spec
    if margin is None:
        margin = sum(shape)
    if M is None:
        M = 2 * margin + spec.rank + 2
    a_k = spec.letter_at(k)
    pools = {l: enumerate_crystal(spec, l) for l in set(shape)}
    for l in set(shape):
        get_table(bk, M, l)

    def run_trial(tnum: int) -> dict:
        trial_seed = seed + tnum
        rng = random.Random(trial_seed)
        u = sample_domain_element(spec, M, a_k, max(margin, 0), rng)
        if margin == 0 and rng.random() < 0.5:
            u = _scramble(u, rng)
        xs = tuple(rng.choice(pools[l]) for l in shape)
        t = Tensor((u,) + xs)
        entry: dict = {"seed": trial_seed, "input": t.word()}
        expected = r_composite(bk, t, 1)
        try:
            got, trace = r_factorized(bk, t, k=k, margin=margin)
        except InapplicableError as err:
            entry.update(status="flagged", reason=err.reason, step=err.step)
            return entry
        problems = []
        if got != expected:
            problems.append(
                {"check": "image", "expected": expected.word(), "got": got.word()}
            )
        tk_u = t_def(bk, u, k)
        for j in range(1, spec.d + 1):
            i = spec.index_at(k + j)
            left_prev = trace.states[j - 1].factors[0]
            if phi(bk, i, left_prev) != tk_u[j - 1]:
                problems.append(
                    {"check": "phi-left", "expected": str(tk_u[j - 1]),
                     "got": str(phi(bk, i, left_prev)), "step": k + j}
                )
            if bk.eps(i, trace.states[j].factors[0]) != phi(bk, i, trace.states[j - 1]):
                problems.append(
                    {"check": "chain-eps",
                     "expected": str(phi(bk, i, trace.states[j - 1])),
                     "got": str(bk.eps(i, trace.states[j].factors[0])),
                     "step": k + j}
                )
        v_oracle = expected.factors[-1]
        u_final = trace.states[-1].factors[0]
        if t_def(bk, v_oracle, k) != t_def(bk, sigma_letterwise(u_final), k):
            problems.append(
                {"check": "t-final",
                 "expected": str(t_def(bk, v_oracle, k)),
                 "got": str(t_def(bk, sigma_letterwise(u_final), k))}
            )
        if problems:
            entry.update(status="failed", problems=problems,
                         expected=expected.word(), got=got.word())
        else:
            entry["status"] = "pass"
        return entry

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_trial, range(trials)))
    else:
        results = [run_trial(t) for t in range(trials)]

    passes = sum(1 for r in results if r["status"] == "pass")
    flagged = [r for r in results if r["status"] == "flagged"]
    failures = [r for r in results if r["status"] == "failed"]
    return {
        "schema": 1,
        "suite": "theorem",
        "algebra": spec.family,
        "rank": spec.rank,
        "brace": spec.brace,
        "shape": list(shape),
        "k": k,
        "M": M,
        "margin": margin,
        "trials": trials,
        "passes": passes,
        "flagged": len(flagged),
        "flagged_examples": [
            {k2: v for k2, v in r.items() if k2 != "status"} for r in flagged[:10]
        ],
        "failures": [
            {k2: v for k2, v in r.items() if k2 != "status"} for r in failures
        ],
    }
