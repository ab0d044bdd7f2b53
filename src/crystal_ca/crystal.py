"""Crystal elements and the operator layer on top of a structure backend.

Elements of B_l are nonnegative integer coordinate vectors (one slot per
stored letter of the family); tensor elements are ordered factor lists.
All Kashiwara-operator queries on single elements are delegated to a backend
object with methods eps/phi/e/f; everything else here (tensor routing, Weyl
operators, the diagram automorphism, extreme elements delta, the t-map) is
derived from those four queries.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import AlgebraSpec, _coord_letters, bar, is_barred


class FormatError(ValueError):
    """Malformed element/state text; carries the offending position."""

    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message if pos is None else f"{message} (position {pos})")
        self.pos = pos


class CapExceeded(RuntimeError):
    """A configured size cap (enumeration, window, M) was exceeded."""


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class CrystalElement:
    """A point of B_l: stored coordinates in the family's canonical slot order."""

    spec: AlgebraSpec
    l: int
    x: tuple[int, ...]

    def __post_init__(self):
        spec, l, x = self.spec, self.l, self.x
        if l < 1:
            raise ValueError(f"capacity must be positive, got {l}")
        fam, n = spec.family, spec.rank
        slots = len(_coord_letters(fam, n))
        if len(x) != slots:
            raise ValueError(f"expected {slots} coordinates, got {len(x)}")
        if min(x) < 0:
            raise ValueError(f"negative coordinate in {x}")
        total = sum(x)
        if fam in ("A1", "A2odd", "D1") and total != l:
            raise ValueError(f"coordinates {x} must sum to {l}")
        if fam == "B1":
            if x[n] not in (0, 1):
                raise ValueError(f"slot x_0 must be 0 or 1, got {x[n]}")
            if total != l:
                raise ValueError(f"coordinates {x} must sum to {l}")
        if fam == "A2even" and total > l:
            raise ValueError(f"coordinate sum {total} exceeds capacity {l}")
        if fam == "C1":
            if total > l or (l - total) % 2:
                raise ValueError(f"coordinate sum {total} not in {{l, l-2, ...}} for l={l}")
        if fam == "D1" and x[n - 1] and x[n]:
            raise ValueError(f"x_n and x_n-bar cannot both be positive in {x}")
        if fam == "D2":
            if x[n] not in (0, 1):
                raise ValueError(f"slot x_0 must be 0 or 1, got {x[n]}")
            if total > l:
                raise ValueError(f"coordinate sum {total} exceeds capacity {l}")

    def get(self, a: str) -> int:
        """Multiplicity of a letter, including the derived ones."""
        spec = self.spec
        if a == "0" and spec.family in ("A2even", "C1"):
            s = self.l - sum(self.x)
            return s if spec.family == "A2even" else s // 2
        if a == "e" and spec.family == "D2":
            return self.l - sum(self.x)
        try:
            return self.x[_slot_index(spec)[a]]
        except KeyError:
            raise ValueError(f"letter {a!r} not legal for {spec.family}") from None

    def word(self) -> str:
        """Canonical text form, e.g. 112333b1b."""
        _check_rank_printable(self.spec)
        return "".join(a * self.get(a) for a in self.spec.word_letters)

    def __repr__(self):
        return f"<{self.spec.family} B_{self.l} {''.join(map(str, self.x))}>"


@dataclass(frozen=True)
class Tensor:
    """An ordered tensor product of crystal elements (same algebra)."""

    factors: tuple[CrystalElement, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("tensor needs at least one factor")
        spec = self.factors[0].spec
        if any(f.spec != spec for f in self.factors):
            raise ValueError("tensor factors belong to different algebras")

    @property
    def spec(self) -> AlgebraSpec:
        return self.factors[0].spec

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.l for f in self.factors)

    def word(self) -> str:
        return ".".join(f.word() for f in self.factors)

    def __repr__(self):
        return f"<tensor {self.word()}>"


Element = CrystalElement | Tensor


@lru_cache(maxsize=None)
def _slot_index(spec: AlgebraSpec) -> dict[str, int]:
    return {a: i for i, a in enumerate(spec.coord_letters)}


@lru_cache(maxsize=None)
def _legal_letters(spec: AlgebraSpec) -> frozenset[str]:
    return frozenset(spec.word_letters)


def _check_rank_printable(spec: AlgebraSpec):
    limit = 8 if spec.family == "A1" else 9
    if spec.rank > limit:
        raise FormatError(
            f"rank {spec.rank} {spec.family} letters do not fit single characters"
        )


def from_counts(spec: AlgebraSpec, counts: dict[str, int], l: int | None = None) -> CrystalElement:
    """Build an element from letter multiplicities; infers the capacity.

    Derived letters ('0' for A2even/C1, 'e' for D2) contribute to the inferred
    capacity but are not stored.
    """
    legal = _legal_letters(spec)
    for a in counts:
        if a not in legal:
            raise FormatError(f"letter {a!r} not legal for {spec.family} rank {spec.rank}")
    stored = tuple(counts.get(a, 0) for a in spec.coord_letters)
    total = sum(stored)
    fam = spec.family
    if fam in ("A2even",):
        inferred = total + counts.get("0", 0)
    elif fam == "C1":
        inferred = total + 2 * counts.get("0", 0)
    elif fam == "D2":
        inferred = total + counts.get("e", 0)
    else:
        inferred = total
    if l is not None and l != inferred:
        raise FormatError(f"word implies capacity {inferred}, expected {l}")
    return CrystalElement(spec, inferred, stored)


def parse_element(spec: AlgebraSpec, text: str, l: int | None = None) -> CrystalElement:
    """Parse the text form of a single element (whitespace ignored)."""
    _check_rank_printable(spec)
    counts: dict[str, int] = {}
    legal = _legal_letters(spec)
    i, m = 0, len(text)
    seen = False
    while i < m:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "e" or c.isdigit():
            start = i
            a = c
            if c.isdigit() and c != "0" and i + 1 < m and text[i + 1] == "b":
                a = c + "b"
                i += 1
            if a not in legal:
                raise FormatError(
                    f"letter {a!r} not legal for {spec.family} rank {spec.rank}", pos=start
                )
            counts[a] = counts.get(a, 0) + 1
            seen = True
            i += 1
        else:
            raise FormatError(f"unexpected character {c!r}", pos=i)
    if not seen:
        raise FormatError("empty element text")
    return from_counts(spec, counts, l)


def parse_tensor(spec: AlgebraSpec, text: str, shape: tuple[int, ...] | None = None) -> Tensor:
    """Parse dot-separated factors, e.g. "1 2b.3.3b 1b.2"."""
    parts = text.split(".")
    if shape is not None and len(shape) != len(parts):
        raise FormatError(f"expected {len(shape)} factors, got {len(parts)}")
    offset = 0
    factors = []
    for j, part in enumerate(parts):
        if not part.strip():
            raise FormatError("empty tensor factor", pos=offset)
        want = None if shape is None else shape[j]
        try:
            factors.append(parse_element(spec, part, want))
        except FormatError as err:
            pos = offset + err.pos if err.pos is not None else offset
            raise FormatError(str(err).split(" (position")[0], pos=pos) from None
        offset += len(part) + 1
    return Tensor(tuple(factors))


# ---------------------------------------------------------------------------
# operators


def _signature(bk, i: int, factors) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The unmatched signs of a tensor for color i, in one left-to-right pass.

    Factor j writes eps_i minus signs then phi_i plus signs; a plus cancels
    against the nearest unmatched minus to its right.  Returns the unmatched
    minus signs and the unmatched plus signs as (factor position, count)
    runs, both in left-to-right order: e_i acts on the factor holding the
    rightmost unmatched minus, f_i on the factor holding the leftmost
    unmatched plus.  On head (x) tail this is the rule that e_i acts on the
    head iff phi_i(head) >= eps_i(tail), and f_i iff phi_i(head) > eps_i(tail).
    """
    minus: list[tuple[int, int]] = []
    plus: list[list[int]] = []
    for j, b in enumerate(factors):
        m = bk.eps(i, b)
        while m and plus:
            top = plus[-1]
            if top[1] > m:
                top[1] -= m
                m = 0
            else:
                m -= top[1]
                plus.pop()
        if m:
            minus.append((j, m))
        p = bk.phi(i, b)
        if p:
            plus.append([j, p])
    return minus, plus


def _size(runs) -> int:
    return sum(c for _, c in runs)


def _power(bk, i: int, b: Element, n: int, sig=None):
    """f_i^n for n > 0, e_i^-n for n < 0; None plays the role of 0.

    On a tensor the |n| leftmost unmatched plus signs (f) or rightmost
    unmatched minus signs (e) of one signature pass say how often each
    factor is hit.  sig is that pass when the caller already made it.
    """
    if isinstance(b, CrystalElement):
        op = bk.f if n > 0 else bk.e
        for _ in range(abs(n)):
            b = op(i, b)
        return b
    if n == 0:
        return b
    minus, plus = sig or _signature(bk, i, b.factors)
    runs, op, left = (plus, bk.f, n) if n > 0 else (reversed(minus), bk.e, -n)
    out = list(b.factors)
    for j, c in runs:
        c = min(c, left)
        for _ in range(c):
            out[j] = op(i, out[j])
            if out[j] is None:
                return None
        left -= c
        if not left:
            return Tensor(tuple(out))
    return None


def eps(bk, i: int, b: Element) -> int:
    if isinstance(b, CrystalElement):
        return bk.eps(i, b)
    return _size(_signature(bk, i, b.factors)[0])


def phi(bk, i: int, b: Element) -> int:
    if isinstance(b, CrystalElement):
        return bk.phi(i, b)
    return _size(_signature(bk, i, b.factors)[1])


def apply_e(bk, i: int, b: Element):
    """Raising operator; None plays the role of 0."""
    return _power(bk, i, b, -1)


def apply_f(bk, i: int, b: Element):
    """Lowering operator; None plays the role of 0."""
    return _power(bk, i, b, 1)


def e_max(bk, i: int, b: Element) -> Element:
    if isinstance(b, CrystalElement):
        return _power(bk, i, b, -bk.eps(i, b))
    sig = _signature(bk, i, b.factors)
    return _power(bk, i, b, -_size(sig[0]), sig)


def f_max(bk, i: int, b: Element) -> Element:
    if isinstance(b, CrystalElement):
        return _power(bk, i, b, bk.phi(i, b))
    sig = _signature(bk, i, b.factors)
    return _power(bk, i, b, _size(sig[1]), sig)


def weyl_s(bk, i: int, b: Element) -> Element:
    """Weyl group operator: the f- or e-power equalizing phi and eps."""
    if isinstance(b, CrystalElement):
        return _power(bk, i, b, bk.phi(i, b) - bk.eps(i, b))
    sig = _signature(bk, i, b.factors)
    return _power(bk, i, b, _size(sig[1]) - _size(sig[0]), sig)


# ---------------------------------------------------------------------------
# diagram automorphism on elements


def sigma_letterwise(b: Element) -> Element:
    """The automorphism in its explicit letter form (no backend needed)."""
    if isinstance(b, Tensor):
        return Tensor(tuple(sigma_letterwise(f) for f in b.factors))
    spec, x = b.spec, list(b.x)
    if spec.family == "A1":
        x = x[1:] + x[:1]
    elif spec.family in ("A2odd", "B1"):
        x[0], x[-1] = x[-1], x[0]
    elif spec.family == "D1":
        n = spec.rank
        x[0], x[-1] = x[-1], x[0]
        x[n - 1], x[n] = x[n], x[n - 1]
    return CrystalElement(spec, b.l, tuple(x))


def sigma_letterwise_pow(b: Element, power: int) -> Element:
    spec = b.spec if isinstance(b, CrystalElement) else b.factors[0].spec
    for _ in range(power % spec.sigma_order):
        b = sigma_letterwise(b)
    return b


def sigma_via_weyl(bk, b: Element, k: int = 0) -> Element:
    """The automorphism as a Weyl-operator chain; independent of k in [0, d].

    On tensors it acts factor-wise, matching the letterwise form.
    """
    if isinstance(b, Tensor):
        return Tensor(tuple(sigma_via_weyl(bk, f, k) for f in b.factors))
    spec = b.spec
    if not 0 <= k <= spec.d:
        raise ValueError(f"k must lie in 0..{spec.d}, got {k}")
    for m in range(k + spec.d, k, -1):
        b = weyl_s(bk, spec.index_at(m), b)
    return b


# ---------------------------------------------------------------------------
# extreme elements and the t-map


@lru_cache(maxsize=4096)
def delta(spec: AlgebraSpec, l: int, a: str) -> CrystalElement:
    """The element with all l units on letter a (elements are immutable, so
    one instance per argument triple is shared)."""
    if a not in spec.a_letters:
        raise ValueError(f"letter {a!r} cannot carry full weight in {spec.family}")
    return from_counts(spec, {a: l}, l)


def t_def(bk, b: Element, k: int = 0) -> tuple[int, ...]:
    """The t-map by definition: phi values along the e-max chain.

    With offset k the chain uses colors i_{k+1}..i_{k+d}; k=0 is the standard map.
    """
    spec = b.spec if isinstance(b, CrystalElement) else b.factors[0].spec
    out = []
    for j in range(1, spec.d + 1):
        i = spec.index_at(k + j)
        out.append(phi(bk, i, b))
        b = e_max(bk, i, b)
    return tuple(out)


def t_closed(b: CrystalElement) -> tuple[int, ...]:
    """Closed form of the t-map on B_l (standard offset)."""
    spec = b.spec
    n, fam = spec.rank, spec.family
    upper = spec.brace == "upper"
    g = b.get
    if fam == "A1":
        out = [g(str(a)) for a in range(n, 0, -1)]
    elif fam == "A2odd":
        pair = [g("1"), g("1b")] if upper else [g("1b"), g("1")]
        out = [g(str(a)) for a in range(n, 1, -1)] + pair + [g(f"{a}b") for a in range(2, n)]
    elif fam in ("A2even", "C1"):
        out = [g(str(a)) for a in range(n, 0, -1)] + [g("0")] + [g(f"{a}b") for a in range(1, n)]
    elif fam == "B1":
        pair = [g("1"), g("1b")] if upper else [g("1b"), g("1")]
        out = (
            [2 * g(str(n)) + g("0")]
            + [g(str(a)) for a in range(n - 1, 1, -1)]
            + pair
            + [g(f"{a}b") for a in range(2, n)]
        )
    elif fam == "D1":
        pair = [g("1"), g("1b")] if upper else [g("1b"), g("1")]
        out = (
            [g(str(n)) + g(str(n - 1))]
            + [g(str(a)) for a in range(n - 2, 1, -1)]
            + pair
            + [g(f"{a}b") for a in range(2, n - 1)]
            + [g(f"{n - 1}b") + g(str(n))]
        )
    else:  # D2
        out = (
            [2 * g(str(n)) + g("0")]
            + [g(str(a)) for a in range(n - 1, 0, -1)]
            + [g("e")]
            + [g(f"{a}b") for a in range(1, n)]
        )
    if len(out) != spec.d:
        raise AssertionError(f"t-vector length {len(out)} != d={spec.d}")
    return tuple(out)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_crystal(spec: AlgebraSpec, l: int, cap: int = 200_000) -> list[CrystalElement]:
    """All elements of B_l in lexicographic coordinate order."""
    fam, n = spec.family, spec.rank
    slots = len(spec.coord_letters)
    exact = fam in ("A1", "A2odd", "B1", "D1")
    x0_slot = n if fam in ("B1", "D2") else None
    out: list[CrystalElement] = []

    def rec(prefix: list[int], used: int):
        pos = len(prefix)
        if pos == slots:
            if exact and used != l:
                return
            if fam == "C1" and (l - used) % 2:
                return
            if fam == "D1" and prefix[n - 1] and prefix[n]:
                return
            if len(out) >= cap:
                raise CapExceeded(f"enumeration of {fam} B_{l} exceeds cap {cap}")
            out.append(CrystalElement(spec, l, tuple(prefix)))
            return
        hi = l - used
        if pos == x0_slot:
            hi = min(hi, 1)
        if exact and pos == slots - 1:
            lo = l - used
            if lo > hi:
                return
        else:
            lo = 0
        if fam == "D1" and pos == n and prefix[n - 1]:
            hi = 0
        for v in range(lo, hi + 1):
            prefix.append(v)
            rec(prefix, used + v)
            prefix.pop()

    rec([], 0)
    return out
