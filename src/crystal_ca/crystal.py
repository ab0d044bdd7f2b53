"""Crystal elements and the operator layer on top of a structure backend.

Elements of B_l are nonnegative integer coordinate vectors (one slot per
stored letter of the family); tensor elements are ordered factor lists.
All Kashiwara-operator queries on single elements are delegated to a backend
that answers three queries: eps, phi and power (f_i^n for n > 0, e_i^-n for
n < 0, so e_i and f_i are the powers 1 and -1).  Everything else here
(tensor routing, Weyl operators, the diagram automorphism, extreme elements
delta, the t-map) is derived from those queries.

Elements are validated where they enter from outside (the parsers,
from_counts, enumeration); elements and tensors the package derives from
valid ones are built with CrystalElement._trusted and Tensor._trusted and
not checked again.
"""
from __future__ import annotations

from functools import lru_cache

from .algebra import AlgebraSpec, Record, bar, is_barred


class FormatError(ValueError):
    """Malformed element/state text; carries the offending position."""

    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message if pos is None else f"{message} (position {pos})")
        self.pos = pos


class CapExceeded(RuntimeError):
    """A configured size cap (enumeration, window, M) was exceeded."""


# ---------------------------------------------------------------------------
# memos of derived data

# Every memo of derived data, under its name and its own key:
#   ("tables", family, rank, bk.identity)  (l, m) -> swap table of B_l (x) B_m
#   ("swaps", spec, bk.identity, l, m)     (a.x, b.x) -> (b~, a~)
#   ("inf", spec, p)                       (carrier x, b.x) -> (b~, carrier x~)
#   ("sigma", spec, power mod order)       (b.l, b.x) -> sigma^power(b)
#   ("pools", spec)                        l -> every element of B_l
# Memos that store elements key on the whole spec, brace included, as the
# elements carry it; tables hold coordinates only.  Only the builtin A1
# rules reach "inf", so its key needs no backend identity.
_MEMOS: dict[tuple, dict] = {}


def memo(*key) -> dict:
    """The memo under key, stored empty on first use and kept until
    clear_tables(); its owner fills it with a plain lookup and store."""
    found = _MEMOS.get(key)
    if found is None:
        found = _MEMOS[key] = {}
    return found


def clear_tables():
    """Forget every memo in the store."""
    _MEMOS.clear()


# ---------------------------------------------------------------------------
# elements


class CrystalElement(Record):
    """A point of B_l: stored coordinates in the family's canonical slot order."""

    __slots__ = ("spec", "l", "x")

    def __post_init__(self):
        l, x, slots = self.l, self.x, self.spec.slots
        if l < 1:
            raise ValueError(f"capacity must be positive, got {l}")
        if len(x) != len(slots.index):
            raise ValueError(f"expected {len(slots.index)} coordinates, got {len(x)}")
        if min(x) < 0:
            raise ValueError(f"negative coordinate in {x}")
        total = sum(x)
        if slots.slack is None:
            if total != l:
                raise ValueError(f"coordinates {x} must sum to {l}")
        elif total > l or (l - total) % slots.slack_units:
            raise ValueError(
                f"capacity {l} minus coordinate sum {total} is not a whole "
                f"count of {slots.slack!r} letters"
            )
        if slots.spin is not None and x[slots.spin] > 1:
            raise ValueError(f"slot x_0 must be 0 or 1, got {x[slots.spin]}")
        if slots.pair and x[slots.pair[0]] and x[slots.pair[1]]:
            raise ValueError(f"x_n and x_n-bar cannot both be positive in {x}")

    @classmethod
    def _trusted(cls, spec: AlgebraSpec, l: int, x: tuple[int, ...]) -> CrystalElement:
        """An element built without the checks of __post_init__.

        Only for coordinates derived from a valid element by a rule that keeps
        every invariant those checks enforce: backend images, slot
        permutations, and R swaps (table entries are backend images too; the
        A1 closed form maps B_l (x) B_m onto B_m (x) B_l).
        """
        el = object.__new__(cls)
        _set_spec(el, spec)
        _set_l(el, l)
        _set_x(el, x)
        return el

    def _key(self):
        return self.spec, self.l, self.x

    def get(self, a: str) -> int:
        """Multiplicity of a letter, including the derived ones."""
        slots = self.spec.slots
        if a == slots.slack:
            return (self.l - sum(self.x)) // slots.slack_units
        try:
            return self.x[slots.index[a]]
        except KeyError:
            raise ValueError(f"letter {a!r} not legal for {self.spec.family}") from None

    def word(self) -> str:
        """Canonical text form, e.g. 112333b1b."""
        _check_rank_printable(self.spec)
        return "".join(a * self.get(a) for a in self.spec.word_letters)

    def __repr__(self):
        return f"<{self.spec.family} B_{self.l} {''.join(map(str, self.x))}>"


# the slot descriptors' setters store a field without the Record's
# __setattr__ guard, at about half the cost of object.__setattr__
_set_spec = CrystalElement.spec.__set__
_set_l = CrystalElement.l.__set__
_set_x = CrystalElement.x.__set__


class Tensor(Record):
    """An ordered tensor product of crystal elements (same algebra)."""

    __slots__ = ("factors",)

    def __post_init__(self):
        if not self.factors:
            raise ValueError("tensor needs at least one factor")
        spec = self.factors[0].spec
        if any(f.spec is not spec and f.spec != spec for f in self.factors):
            raise ValueError("tensor factors belong to different algebras")

    @classmethod
    def _trusted(cls, factors: tuple[CrystalElement, ...]) -> Tensor:
        """A tensor built without the checks of __post_init__.

        Only for factors derived from a valid tensor by a rule that keeps
        their count and common algebra: operator images, the automorphism,
        and R swaps.
        """
        t = object.__new__(cls)
        _set_factors(t, factors)
        return t

    def _key(self):
        return self.factors

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


_set_factors = Tensor.factors.__set__

Element = CrystalElement | Tensor


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
    inferred = sum(stored)
    slots = spec.slots
    if slots.slack is not None:
        inferred += slots.slack_units * counts.get(slots.slack, 0)
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
    _check_rank_printable(spec)  # a rank error belongs to no factor position
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
    factor is hit, and each hit factor takes one backend power query.  sig
    is that pass when the caller already made it.
    """
    if n == 0:
        return b
    if isinstance(b, CrystalElement):
        return bk.power(i, b, n)
    minus, plus = sig or _signature(bk, i, b.factors)
    runs, sign, left = (plus, 1, n) if n > 0 else (reversed(minus), -1, -n)
    out = list(b.factors)
    for j, c in runs:
        c = min(c, left)
        out[j] = bk.power(i, out[j], sign * c)
        if out[j] is None:
            return None
        left -= c
        if not left:
            return Tensor._trusted(tuple(out))
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


def weyl_step(bk, i: int, t: Tensor) -> tuple[int, int, Tensor]:
    """eps_i(t), phi_i(t) and the Weyl image of a tensor, from one signature pass."""
    sig = _signature(bk, i, t.factors)
    e, p = _size(sig[0]), _size(sig[1])
    return e, p, _power(bk, i, t, p - e, sig)


def weyl_s(bk, i: int, b: Element) -> Element:
    """Weyl group operator: the f- or e-power equalizing phi and eps."""
    if isinstance(b, CrystalElement):
        return _power(bk, i, b, bk.phi(i, b) - bk.eps(i, b))
    return weyl_step(bk, i, b)[2]


# ---------------------------------------------------------------------------
# diagram automorphism on elements


def sigma_letterwise(b: CrystalElement) -> CrystalElement:
    """The automorphism in its explicit letter form (no backend needed).

    It only permutes slots, so the image of a valid element is valid.
    """
    spec = b.spec
    return CrystalElement._trusted(spec, b.l, spec.slots.sigma(b.x))


def sigma_letterwise_pow(b: Element, power: int) -> Element:
    """sigma^power letterwise; any integer power, taken mod order(sigma).

    Power 0 returns b itself.  Otherwise an element is looked up in the
    ("sigma", b.spec, power mod order) memo and, on a miss, built by repeated
    sigma_letterwise and stored; a tensor is mapped factor by factor.
    """
    spec = b.spec
    power %= spec.sigma_order
    if not power:
        return b
    if isinstance(b, Tensor):
        return Tensor._trusted(tuple([sigma_letterwise_pow(f, power) for f in b.factors]))
    images = memo("sigma", spec, power)
    key = (b.l, b.x)
    img = images.get(key)
    if img is None:
        img = b
        for _ in range(power):
            img = sigma_letterwise(img)
        images[key] = img
    return img


def sigma_via_weyl(bk, b: CrystalElement, k: int = 0) -> CrystalElement:
    """The automorphism as a Weyl-operator chain; independent of k in [0, d]."""
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
    spec = b.spec
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


def t_failures(bk, elements):
    """The t-map's law failures on `elements`, lazily and in order: a
    "closed-form" entry when the definition misses t_closed, and an
    "injectivity" entry when an element repeats an earlier element's value."""
    seen: dict[tuple[int, ...], CrystalElement] = {}
    for el in elements:
        tv, closed = t_def(bk, el), t_closed(el)
        if tv != closed:
            yield {"element": el.word(), "check": "closed-form",
                   "expected": list(closed), "got": list(tv)}
        if tv in seen:
            yield {"element": el.word(), "check": "injectivity",
                   "collides": seen[tv].word()}
        seen[tv] = el


# ---------------------------------------------------------------------------
# enumeration


_ENUM_CAP = 200_000  # elements one enumeration may return


def enumerate_crystal(spec: AlgebraSpec, l: int) -> list[CrystalElement]:
    """All elements of B_l in lexicographic coordinate order.

    Walks the vectors of coordinate sum at most l (exactly l without a slack
    letter, spin slot at most 1) and keeps those the constructor accepts.
    More than _ENUM_CAP elements raise CapExceeded.
    """
    if l < 1:
        raise ValueError(f"capacity must be positive, got {l}")
    slots = spec.slots
    last = len(slots.index) - 1
    out: list[CrystalElement] = []

    def rec(prefix: list[int], used: int):
        pos = len(prefix)
        if pos > last:
            try:
                el = CrystalElement(spec, l, tuple(prefix))
            except ValueError:
                return
            if len(out) >= _ENUM_CAP:
                raise CapExceeded(f"enumeration of {spec.family} B_{l} exceeds cap {_ENUM_CAP}")
            out.append(el)
            return
        hi = min(l - used, 1) if pos == slots.spin else l - used
        lo = hi if pos == last and slots.slack is None else 0
        for v in range(lo, hi + 1):
            prefix.append(v)
            rec(prefix, used + v)
            prefix.pop()

    rec([], 0)
    return out
