"""Box-ball style dynamics on a bi-infinite line of crystal sites.

A state is a finite window of sites over a periodic capacity pattern; outside
the window every site is the background element delta[a_k] for the state's
offset k.  Time evolution comes in three interchangeable forms:

* carrier: thread a large auxiliary factor through the line by elementary
  R swaps until it returns to its rest value (on A1, one of infinite
  capacity);
* factorized: a chain of global Weyl operators realized as left-to-right
  (raising) or right-to-left (lowering) vertex sweeps, then the diagram
  automorphism letterwise;
* fine: the partial chains interpolating between consecutive carrier steps.

Sweeps are exact on the infinite line: background sites to the left of the
window transmit the carrier state unchanged, and to the right each background
site strictly absorbs it, so finitely many extra sites suffice.
"""
from __future__ import annotations

from functools import lru_cache

from .algebra import AlgebraSpec, Record
from .crystal import (
    CapExceeded,
    CrystalElement,
    Tensor,
    delta,
    memo,
    parse_tensor,
    sigma_letterwise_pow,
    t_def,
    weyl_s,
)
from .rmatrix import (
    has_closed_form,
    r_elementary,
    r_factorized,
    r_infinite,
)

_SWEEP_LIMIT = 100_000


@lru_cache(maxsize=1024)
def _capacity_pattern(pattern: tuple) -> tuple[int, ...]:
    """A state's capacity pattern, checked and cut to its minimal period once."""
    pat = tuple(int(c) for c in pattern)
    for p in range(1, len(pat)):
        if len(pat) % p == 0 and pat == pat[p:] + pat[:p]:
            pat = pat[:p]
            break
    if not pat or any(c < 1 for c in pat):
        raise ValueError(f"capacities must be positive, got {pat}")
    return pat


class AutomatonState(Record):
    """A line configuration: window of sites plus implicit background."""

    __slots__ = ("spec", "k", "window_start", "window", "pattern")

    def __post_init__(self):
        pat = _capacity_pattern(tuple(self.pattern))
        object.__setattr__(self, "pattern", pat)
        spec, start, win = self.spec, self.window_start, self.window
        period, n = len(pat), len(win)
        phase = start % period
        caps = pat[phase:] + pat * (n // period + 1)  # site p holds a B_caps[p]
        for p, b in enumerate(win):
            if b.l != caps[p]:
                raise ValueError(
                    f"site {start + p} holds a B_{b.l} element, "
                    f"capacity pattern demands B_{caps[p]}"
                )
            if b.spec is not spec and b.spec != spec:
                raise ValueError("window element from a different algebra")
        # trim background sites so equal configurations compare equal; the
        # checks above leave only the coordinates to compare, phase by phase
        a = spec.letter_at(self.k)
        rest = [delta(spec, c, a).x for c in caps[:period]]
        lo, hi = 0, n
        while lo < hi and win[lo].x == rest[lo % period]:
            lo += 1
        while hi > lo and win[hi - 1].x == rest[(hi - 1) % period]:
            hi -= 1
        object.__setattr__(self, "window", tuple(win[lo:hi]))
        object.__setattr__(self, "window_start", start + lo if lo < hi else 0)

    @property
    def background_letter(self) -> str:
        return self.spec.letter_at(self.k)

    def capacity_at(self, j: int) -> int:
        return self.pattern[j % len(self.pattern)]

    def background(self, j: int) -> CrystalElement:
        return delta(self.spec, self.capacity_at(j), self.background_letter)

    def site(self, j: int) -> CrystalElement:
        p = j - self.window_start
        if 0 <= p < len(self.window):
            return self.window[p]
        return self.background(j)

    def _key(self):
        return (
            self.spec,
            self.background_letter,
            self.pattern,
            self.window_start if self.window else 0,
            tuple([b.x for b in self.window]),
        )

    def deviation(self) -> int:
        """Total letter weight sitting off the background letter."""
        # a_letters leaves out "0", so the background letter is never a
        # slack letter and always has a stored slot
        p = self.spec.slots.index[self.background_letter]
        return sum([b.l - b.x[p] for b in self.window])

    def weight_profile(self) -> dict[str, int]:
        """Per-letter surplus relative to the all-background line."""
        out: dict[str, int] = {}
        for p, b in enumerate(self.window):
            bg = self.background(self.window_start + p)
            for a in self.spec.word_letters:
                v = b.get(a) - bg.get(a)
                if v:
                    out[a] = out.get(a, 0) + v
        return {a: v for a, v in sorted(out.items()) if v}

    def render(self, lo: int | None = None, hi: int | None = None,
               pad: int = 1, sep: str = ".") -> str:
        if lo is None:
            lo = (self.window_start if self.window else 0) - pad
        if hi is None:
            end = self.window_start + len(self.window) - 1 if self.window else 0
            hi = end + pad
        return sep.join(self.site(j).word() for j in range(lo, hi + 1))

    def __repr__(self):
        return f"<state k={self.k} @{self.window_start} {self.render(pad=0)}>"


def parse_state(spec: AlgebraSpec, k: int, text: str,
                pattern: tuple[int, ...] | None = None,
                window_start: int = 0) -> AutomatonState:
    """Build a state from dot-separated site words.

    Without an explicit capacity pattern the site capacities must all agree
    and become a constant pattern.
    """
    t = parse_tensor(spec, text)
    if pattern is None:
        caps = {f.l for f in t.factors}
        if len(caps) != 1:
            raise ValueError(
                "sites have mixed capacities; give the capacity pattern explicitly"
            )
        pattern = (caps.pop(),)
    return AutomatonState(spec, k, window_start, t.factors, pattern)


# ---------------------------------------------------------------------------
# vertex cells


def vertex_step(bk, i: int, s: int, b: CrystalElement) -> tuple[CrystalElement, int]:
    """Raising cell: new site and outgoing carrier value."""
    e, p = bk.eps(i, b), bk.phi(i, b)
    if e > s:
        return bk.power(i, b, s - e), p
    return b, p + s - e


def dual_vertex_step(bk, i: int, s: int, b: CrystalElement) -> tuple[CrystalElement, int]:
    """Lowering cell, swept right to left."""
    e, p = bk.eps(i, b), bk.phi(i, b)
    if p > s:
        return bk.power(i, b, p - s), e
    return b, e + s - p


def _sweep(bk, state_like, sites, cell, color, bg_letter, j, step):
    """Run the carrier value through the given sites with one cell rule,
    then through background sites j, j + step, ... until it is absorbed.
    Returns the new sites in visiting order and the first site not visited."""
    spec, cap_at = state_like.spec, state_like.capacity_at
    s = 0
    out = []
    for b in sites:
        b2, s = cell(bk, color, s, b)
        out.append(b2)
    guard = 0
    while s > 0:
        b2, s2 = cell(bk, color, s, delta(spec, cap_at(j), bg_letter))
        if s2 >= s:
            raise AssertionError("background site failed to absorb the sweep")
        out.append(b2)
        s, j, guard = s2, j + step, guard + 1
        if guard > _SWEEP_LIMIT:
            raise CapExceeded("vertex sweep exceeded the site budget")
    return out, j


def _sweep_raise(state_like, bk, window, start, color, bg_letter):
    out, _ = _sweep(bk, state_like, window, vertex_step, color, bg_letter,
                    start + len(window), 1)
    return out, start


def _sweep_lower(state_like, bk, window, start, color, bg_letter):
    out, j = _sweep(bk, state_like, reversed(window), dual_vertex_step, color,
                    bg_letter, start - 1, -1)
    out.reverse()
    return out, j + 1


# ---------------------------------------------------------------------------
# time evolution


def evolve_carrier(bk, state: AutomatonState, M: int):
    """One carrier pass, run in the caller's thread; returns the new state
    and the carrier value trace.  The tail budget is fixed: CapExceeded when
    the carrier is not at rest 4 dev + 16 sites past the window (dev the
    deviation)."""
    spec, pat = state.spec, state.pattern
    a = state.background_letter
    rest = delta(spec, M, a)
    backs = [delta(spec, c, a) for c in pat]  # the background site per phase
    period = len(pat)
    car = rest
    out = []
    trace = [car]
    for b in state.window:
        b2, car = r_elementary(bk, car, b)
        out.append(b2)
        trace.append(car)
    j = state.window_start + len(state.window)
    budget = 4 * state.deviation() + 16
    used = 0
    while car.x != rest.x:  # the carrier is always a B_M element of spec
        b2, car = r_elementary(bk, car, backs[j % period])
        out.append(b2)
        trace.append(car)
        j += 1
        used += 1
        if used > budget:
            raise CapExceeded(
                f"carrier of capacity {M} did not return to rest within "
                f"{budget} extra sites"
            )
    new = AutomatonState(spec, state.k, state.window_start, tuple(out), pat)
    return new, trace


def _evolve_infinite(state: AutomatonState, budget: int) -> AutomatonState:
    """One pass of the A1 carrier of infinite capacity in the background
    letter's slot; it is at rest when every other slot is 0."""
    spec, pat = state.spec, state.pattern
    a = state.background_letter
    p = spec.slots.index[a]
    get = memo("inf", spec, p).get
    backs = [delta(spec, c, a) for c in pat]  # the background site per phase
    period = len(pat)
    rest = car = (0,) * len(backs[0].x)
    out = []
    for b in state.window:
        # a stored pair is a 2-tuple, never falsy
        b2, car = get((car, b.x)) or r_infinite(spec, p, car, b)
        out.append(b2)
    j = state.window_start + len(state.window)
    used = 0
    while car != rest:
        b = backs[j % period]
        b2, car = get((car, b.x)) or r_infinite(spec, p, car, b)
        out.append(b2)
        j += 1
        used += 1
        if used > budget:
            raise CapExceeded(
                f"infinite carrier did not return to rest within {budget} "
                f"extra sites"
            )
    return AutomatonState(spec, state.k, state.window_start, tuple(out), pat)


def evolve_T(bk, state: AutomatonState, M_limit: int = 512):
    """The large-carrier evolution T_infinity; returns (new state, M).

    On the builtin A1 rules, one pass of a carrier of infinite capacity
    gives the step exactly, M_limit does not apply, and M is
    dev + max(pattern), dev the deviation: evolve_carrier at any capacity
    M or more gives the same step.  The reason: the carrier's load (its
    letters off the background letter a) never exceeds dev, since the
    sites it has passed hand it at most their deviation.  So at capacity M
    the carrier holds a at least M - dev times, and every term of a Q_i of
    the closed-form R that adds those letters is at least M - dev, at least
    the site's capacity, at least the k = 1 term, which holds none of
    them.  Dropping those terms leaves every Q_i, and so every swap, as
    the infinite carrier has it.

    Every other backend doubles M from max(2, dev) until passes at M and
    2M agree, and M is the smaller; CapExceeded is raised when no pass up
    to capacity M_limit settles.  Every pass has evolve_carrier's fixed
    tail budget, and all of them run in the caller's thread.
    """
    dev = state.deviation()
    if has_closed_form(bk):
        # evolve_carrier's tail budget, from the deviation already at hand
        return _evolve_infinite(state, 4 * dev + 16), dev + max(state.pattern)
    M = max(2, dev)
    prev, _ = evolve_carrier(bk, state, M)
    while M <= M_limit:
        cur, _ = evolve_carrier(bk, state, 2 * M)
        if cur == prev:
            return prev, M
        prev, M = cur, 2 * M
    raise CapExceeded(f"carrier evolution did not settle below capacity {M_limit}")


def _raise_chain(bk, state: AutomatonState, m: int):
    """The raising sweeps at chain positions k+1..m; returns (window, start)."""
    spec = state.spec
    window, start = list(state.window), state.window_start
    for mm in range(state.k + 1, m + 1):
        window, start = _sweep_raise(
            state, bk, window, start, spec.index_at(mm), spec.letter_at(mm - 1)
        )
    return window, start


def evolve_T_factorized(bk, state: AutomatonState, t: int = 1) -> AutomatonState:
    """t steps of the evolution as Weyl sweeps plus the automorphism power.

    The raising sweeps at chain positions k+1..k+t d (the lowering sweeps
    at k..k+t d+1 for t < 0) are followed by sigma^t on every site, read
    with one lookup per site from the ("sigma", spec, t mod order) memo; a
    miss goes through sigma_letterwise_pow, which stores the image.
    """
    spec, k, d = state.spec, state.k, state.spec.d
    window, start = _raise_chain(bk, state, k + max(t, 0) * d)
    for m in range(k, k + t * d, -1):  # lowering sweeps, for t < 0 only
        window, start = _sweep_lower(
            state, bk, window, start, spec.index_at(m), spec.letter_at(m)
        )
    if t % spec.sigma_order:
        # a stored image is an element, never falsy
        get = memo("sigma", spec, t % spec.sigma_order).get
        window = [get((b.l, b.x)) or sigma_letterwise_pow(b, t) for b in window]
    return AutomatonState(spec, k, start, tuple(window), state.pattern)


def evolve_fine(bk, state: AutomatonState, m: int) -> AutomatonState:
    """The interpolating step: partial sweep chain up to position m, then the
    per-site Weyl twist carrying the new background home."""
    spec, k = state.spec, state.k
    if m < k:
        raise ValueError(f"fine step index {m} below the offset {k}")
    window, start = _raise_chain(bk, state, m)
    twisted = []
    for b in window:
        for mm in range(m, k, -1):
            b = weyl_s(bk, spec.index_at(mm), b)
        twisted.append(b)
    return AutomatonState(spec, k, start, tuple(twisted), state.pattern)


# ---------------------------------------------------------------------------
# column transport


def column_diagram_check(bk, u: CrystalElement, b: CrystalElement,
                         k: int = 0, margin: int | None = None) -> dict:
    """Replay one R swap as a column of vertex cells.

    Feeding t(u) into a column of raising cells over site b must reproduce
    the chain's site states and output t of the swapped-out factor.
    Raises InapplicableError when the chain itself declines.
    """
    spec = u.spec
    image, states = r_factorized(bk, Tensor((u, b)), k=k, margin=margin)
    tk_u = t_def(bk, u, k)
    outputs = []
    cells_ok = True
    for j in range(1, spec.d + 1):
        i = spec.index_at(k + j)
        prev_site = states[j - 1].factors[1]
        want_site, s_out = vertex_step(bk, i, tk_u[j - 1], prev_site)
        if want_site != states[j].factors[1]:
            cells_ok = False
        outputs.append(s_out)
    b_oracle, v_oracle = r_elementary(bk, u, b)
    t_out = t_def(bk, v_oracle, k)
    ok = (
        cells_ok
        and tuple(outputs) == t_out
        and image == Tensor((b_oracle, v_oracle))
    )
    return {
        "ok": ok,
        "cells_ok": cells_ok,
        "outputs": list(outputs),
        "oracle_t": list(t_out),
        "image": image.word(),
        "oracle": Tensor((b_oracle, v_oracle)).word(),
    }
