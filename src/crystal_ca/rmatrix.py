"""The combinatorial R matrix, two independent ways.

Oracle: the unique pairwise swap B_l (x) B_m -> B_m (x) B_l commuting with all
raising/lowering operators and fixing the extreme pairs.  Every swap is
answered from one in-memory memo of element pairs, keyed per algebra,
backend and level pair, that holds only the pairs actually swapped.  On a
miss, the A1 family on its builtin coordinate rules takes the closed-form
piecewise-linear R; every other backend (graph files) reads a swap table,
materialized by breadth-first propagation from the extreme pairs and
memoized per backend.  The table is also the test reference for the closed
form.  Neither uses the Weyl chain, so the oracle stays independent of the
factorized form.  The closed form also swaps a carrier of infinite capacity
past a site (r_infinite), which gives the automaton's T_infinity in one pass.

Factorized: a Weyl-operator chain followed by the block swap and the diagram
automorphism, valid when the left factor carries a dominant letter.  Each
chain step checks its side conditions and declines when they fail; outside
the theorem's domain (a margin below the partners' capacity) a chain can
pass them and still be wrong.  The chain's states are returned with the
image.  verify_theorem races the two forms on random inputs and also checks
the intermediate-state laws the factorized form relies on.

Everything runs in one thread: every memo (crystal.memo) is a plain
get-then-store, and no lock guards it.
"""
from __future__ import annotations

import random
from collections import deque

from .algebra import AlgebraSpec, bar, is_barred
from .crystal import (  # clear_tables is re-exported
    CrystalElement,
    Tensor,
    clear_tables,
    delta,
    enumerate_crystal,
    eps,
    memo,
    phi,
    sigma_letterwise,
    t_def,
    weyl_step,
)


class RMatrixError(RuntimeError):
    """The backend violates R-matrix laws (a propagation conflict)."""


class UnreachedElement(RMatrixError):
    """A tensor pair is not connected to the extreme seeds."""


class InapplicableError(RuntimeError):
    """The factorized form declines: a side condition failed.

    reason is one of 'domain', 'orientation', 'locality'; step is the global
    chain position when the failure is mid-chain; states are the chain's
    tensors up to the last step that passed its checks, input first (empty
    for a domain refusal).
    """

    def __init__(self, reason: str, message: str, step: int | None = None,
                 states: tuple = ()):
        super().__init__(message)
        self.reason = reason
        self.step = step
        self.states = states


# ---------------------------------------------------------------------------
# oracle tables

def get_table(bk, l: int, m: int) -> dict:
    """The swap table B_l (x) B_m -> B_m (x) B_l keyed on coordinate pairs,
    built once per structure source (bk.identity) and stored once complete."""
    spec = bk.spec
    tables = memo("tables", spec.family, spec.rank, bk.identity)
    table = tables.get((l, m))
    if table is None:
        # a level no backend covers is named before B_l or B_m is enumerated
        bk.provider_for(l)
        bk.provider_for(m)
        table = tables[l, m] = _build_table(bk, l, m)
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


# ---------------------------------------------------------------------------
# swaps

def has_closed_form(bk) -> bool:
    """Whether swaps on this backend come from the A1 closed form."""
    return bk.spec.family == "A1" and bk.identity == "builtin"


def _a1_swap(x: tuple[int, ...], y: tuple[int, ...],
             p: int | None = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """R(x (x) y) = y~ (x) x~ on A1 coordinates, in closed form.

    Slot s holds letter s + 1 and indices run mod N = n + 1.  With
    Q_i = min over k = 1..N of (sum_{j<k} x_{i+j} + sum_{j>k} y_{i+j}),
    j in 1..N, the images are y~_i = y_i - Q_i + Q_{i-1} and
    x~_i = x_i + Q_i - Q_{i-1} (the piecewise-linear R of Hatayama, Hikami,
    Inoue, Kuniba, Takagi and Tokihiro, J. Math. Phys. 42 (2001)).

    With p given, x_p is infinite and x[p] is not read.  Each Q_i then
    stops before the first term that adds x_p, since that term and every
    later one is infinite; the k = 1 term holds no x, so Q_i stays finite
    and y~ is exact.  x~_p is infinite too and comes back as 0.
    """
    n = len(x)
    total_y = sum(y)
    q = []
    for i in range(n):
        sx, sy = 0, total_y - y[(i + 1) % n]
        best = sy
        for k in range(2, n + 1):
            j = (i + k - 1) % n
            if j == p:
                break
            sx += x[j]
            sy -= y[(i + k) % n]
            if sx + sy < best:
                best = sx + sy
        q.append(best)
    return (tuple(y[i] - q[i] + q[i - 1] for i in range(n)),
            tuple(0 if i == p else x[i] + q[i] - q[i - 1] for i in range(n)))


def r_infinite(spec: AlgebraSpec, p: int, car: tuple[int, ...],
               b: CrystalElement) -> tuple[CrystalElement, tuple[int, ...]]:
    """Swap the infinite carrier car (slot p read as infinite) past site b
    of A1 by the closed form, and store the pair in its memo."""
    y, car2 = _a1_swap(car, b.x, p)
    pair = memo("inf", spec, p)[(car, b.x)] = (
        CrystalElement._trusted(spec, b.l, y), car2)
    return pair


def r_elementary(bk, a: CrystalElement, b: CrystalElement) -> tuple[CrystalElement, CrystalElement]:
    """Swap one adjacent pair: (b~, a~) with R(a (x) b) = b~ (x) a~.

    Each pair is computed once per (algebra, backend, levels) and the stored
    elements are returned from then on: by the closed form for A1 on the
    builtin rules, and from the swap table for every other backend.  A
    stored table holds every pair of valid elements, so a pair it lacks is
    an element built wrongly inside the package: an internal fault.
    """
    spec = bk.spec
    pairs = memo("swaps", spec, bk.identity, a.l, b.l)
    xy = (a.x, b.x)
    pair = pairs.get(xy)
    if pair is None:
        if has_closed_form(bk):
            ym, yl = _a1_swap(a.x, b.x)
        else:
            try:
                ym, yl = get_table(bk, a.l, b.l)[xy]
            except KeyError:
                raise AssertionError(
                    f"pair {a.word()}.{b.word()} missing from a complete R table") from None
        pair = pairs[xy] = (CrystalElement._trusted(spec, b.l, ym),
                            CrystalElement._trusted(spec, a.l, yl))
    return pair


def apply_r_at(bk, t: Tensor, pos: int) -> Tensor:
    a, b = t.factors[pos], t.factors[pos + 1]
    b2, a2 = r_elementary(bk, a, b)
    return Tensor(t.factors[:pos] + (b2, a2) + t.factors[pos + 2 :])


def r_composite(bk, t: Tensor) -> Tensor:
    """Move the first factor past the rest by elementary swaps, left to right."""
    carried, *rest = t.factors
    out = []
    for b in rest:
        moved, carried = r_elementary(bk, carried, b)
        out.append(moved)
    return Tensor._trusted((*out, carried))


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


def r_factorized(bk, t: Tensor, k: int = 0, margin: int | None = None):
    """Move the first factor past the rest by the Weyl chain at offset k.

    Returns (image, states): states are the chain's d + 1 tensors, input
    first, with step j applying color spec.index_at(k + j).  Raises
    InapplicableError when a side condition fails: the first factor must be
    margin-dominated by the offset's letter, each chain step must see a
    strict eps > phi imbalance, and after each step the tensor's eps must
    live entirely on the first factor.
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
    for j in range(1, spec.d + 1):
        m = k + j
        i = spec.index_at(m)
        eb, pb, stepped = weyl_step(bk, i, cur)
        if eb <= pb:
            raise InapplicableError(
                "orientation",
                f"eps_{i}={eb} <= phi_{i}={pb} before step {m}; "
                f"first-factor capacity too small for this window",
                step=m,
                states=tuple(states),
            )
        cur = stepped
        ea = eps(bk, i, cur)
        eau = bk.eps(i, cur.factors[0])
        if ea != eau:
            raise InapplicableError(
                "locality",
                f"after step {m}, eps_{i} of the tensor is {ea} but "
                f"{eau} on the first factor",
                step=m,
                states=tuple(states),
            )
        states.append(cur)
    moved = cur.factors[1:] + (cur.factors[0],)
    image = Tensor._trusted(tuple([sigma_letterwise(f) for f in moved]))
    return image, tuple(states)


# ---------------------------------------------------------------------------
# sampling and the verification suite


def auto_capacity(spec: AlgebraSpec, margin: int) -> int:
    """The default first-factor capacity M for a domain margin."""
    return 2 * margin + spec.rank + 2


def sample_domain_element(spec: AlgebraSpec, M: int, a: str, margin: int,
                          rng: random.Random) -> CrystalElement:
    """A random element of B_M inside the letter-a domain at the margin."""
    if M < margin:
        raise ValueError(f"M={M} is below the domain margin {margin}")
    slots = spec.slots
    if a not in slots.index:
        raise ValueError(f"letter {a!r} has no stored slot")
    home = slots.index[a]
    size = len(slots.index)
    cap = (M - margin) // (size + 1)
    x = [0] * size
    for p in range(size):
        if p != home:
            x[p] = rng.randint(0, min(cap, 1) if p == slots.spin else cap)
    if slots.pair:
        # only one pair slot may be occupied: a's own, or else a coin's pick
        p, q = slots.pair
        if home == q or (home != p and rng.random() < 0.5):
            x[p] = 0
        else:
            x[q] = 0
    x[home] = M - sum(x)
    # every other slot holds at most cap, so domain_gap >= M - (size + 1) cap >= margin
    return CrystalElement(spec, M, tuple(x))


def _scramble(el: CrystalElement, rng: random.Random) -> CrystalElement:
    """Permute coordinate values to break dominance (margin-0 control mode)."""
    spec, x = el.spec, list(el.x)
    slots = spec.slots
    fixed = {slots.spin, *(slots.pair or ())}  # moving these could leave B_l
    safe = [p for p in range(len(x)) if p not in fixed]
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
    With margin 0 half the draws are scrambled so refusals actually occur,
    and a check broken at a domain gap below sum(shape) is flagged as
    "outside-domain" with its problems.
    The trials run one after another in this thread; jobs must be 1.
    Returns the report body: its parameters, counts and failures.
    """
    if jobs != 1:
        raise ValueError(f"verify_theorem runs in one thread; jobs must be 1, got {jobs}")
    spec = bk.spec
    if margin is None:
        margin = sum(shape)
    if M is None:
        M = auto_capacity(spec, margin)
    a_k = spec.letter_at(k)
    # every element of B_l in enumeration order, so a seed draws alike on
    # cold or warm pools
    pools = memo("pools", spec)
    for l in set(shape):
        if l not in pools:
            pools[l] = tuple(enumerate_crystal(spec, l))
    colors = [spec.index_at(k + j) for j in range(1, spec.d + 1)]

    passes, flagged, failures = 0, [], []
    for tnum in range(trials):
        trial_seed = seed + tnum
        rng = random.Random(trial_seed)
        u = sample_domain_element(spec, M, a_k, max(margin, 0), rng)
        if margin == 0 and rng.random() < 0.5:
            u = _scramble(u, rng)
        xs = tuple(rng.choice(pools[l]) for l in shape)
        t = Tensor((u,) + xs)
        expected = r_composite(bk, t)
        try:
            got, states = r_factorized(bk, t, k=k, margin=margin)
        except InapplicableError as err:
            flagged.append({"seed": trial_seed, "input": t.word(),
                            "reason": err.reason, "step": err.step})
            continue
        problems = []
        if got != expected:
            problems.append(
                {"check": "image", "expected": expected.word(), "got": got.word()}
            )
        tk_u = t_def(bk, u, k)
        for j, i in enumerate(colors, 1):
            left_phi = phi(bk, i, states[j - 1].factors[0])
            if left_phi != tk_u[j - 1]:
                problems.append(
                    {"check": "phi-left", "expected": str(tk_u[j - 1]),
                     "got": str(left_phi), "step": k + j}
                )
            chain_phi = phi(bk, i, states[j - 1])
            left_eps = bk.eps(i, states[j].factors[0])
            if left_eps != chain_phi:
                problems.append(
                    {"check": "chain-eps", "expected": str(chain_phi),
                     "got": str(left_eps), "step": k + j}
                )
        # equal elements have equal t-vectors: compare those only on a mismatch
        v_oracle = expected.factors[-1]
        sigma_final = sigma_letterwise(states[-1].factors[0])
        if sigma_final != v_oracle:
            want, have = t_def(bk, v_oracle, k), t_def(bk, sigma_final, k)
            if want != have:
                problems.append(
                    {"check": "t-final", "expected": str(want), "got": str(have)}
                )
        if problems:
            entry = {"seed": trial_seed, "input": t.word(), "problems": problems,
                     "expected": expected.word(), "got": got.word()}
            if domain_gap(u, a_k) < sum(shape):
                entry.update(reason="outside-domain", step=None)
                flagged.append(entry)
            else:
                failures.append(entry)
        else:
            passes += 1
    return {
        "shape": list(shape), "k": k, "M": M, "margin": margin, "trials": trials,
        "passes": passes, "flagged": len(flagged),
        "flagged_examples": flagged[:10], "failures": failures,
    }
