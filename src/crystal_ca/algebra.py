"""Static data and index arithmetic for the seven non-exceptional affine families.

Families are tagged A1, A2odd, A2even, B1, C1, D1, D2, standing for
A^(1)_n, A^(2)_{2n-1}, A^(2)_{2n}, B^(1)_n, C^(1)_n, D^(1)_n, D^(2)_{n+1}.
Each algebra owns a Dynkin diagram automorphism sigma, a translation datum
(d, i_1..i_d, a_0..a_d), and the extension of those sequences to all integers.
"""
from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

FAMILIES = ("A1", "A2odd", "A2even", "B1", "C1", "D1", "D2")

_MIN_RANK = {"A1": 1, "A2odd": 3, "A2even": 2, "B1": 3, "C1": 2, "D1": 4, "D2": 2}

# Letters are short strings: plain "3", barred "3b", zero "0", empty "e".


def bar(a: str) -> str:
    """Bar involution on plain/barred letters; "0" and "e" have no bar."""
    if a in ("0", "e"):
        raise ValueError(f"letter {a!r} has no barred partner")
    return a[:-1] if a.endswith("b") else a + "b"


def is_barred(a: str) -> bool:
    return a.endswith("b")


class Record:
    """An immutable value whose fields are named by __slots__.

    __init__ stores the fields in slot order, then runs the class's
    __post_init__ checks, which alone may normalize a field.  Records are
    equal, and hash alike, when they share a class and a _key() tuple.
    """

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


class TranslationData(NamedTuple):
    """One table row: d, the colors i_1..i_d and the letters a_0..a_d."""

    d: int
    i_seq: tuple[int, ...]  # i_seq[k-1] = i_k for 1 <= k <= d
    a_seq: tuple[str, ...]  # a_seq[k] = a_k for 0 <= k <= d


class AlgebraSpec(Record):
    """Family tag, rank n and the brace choice resolving the two allowed
    simultaneous variants of the translation datum."""

    __slots__ = ("family", "rank", "brace", "_hash")

    def __init__(self, family: str, rank: int, brace: str = "upper"):
        super().__init__(family, rank, brace, None)  # __post_init__ stores _hash

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.rank < _MIN_RANK[self.family]:
            raise ValueError(
                f"family {self.family} needs rank >= {_MIN_RANK[self.family]}, got {self.rank}"
            )
        if self.brace not in ("upper", "lower"):
            raise ValueError(f"brace must be 'upper' or 'lower', got {self.brace!r}")
        # specs key every cache on the hot paths: hash the fields once
        object.__setattr__(self, "_hash", hash(self._key()))

    def _key(self):
        return self.family, self.rank, self.brace

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild: a stored hash holds only in the process (and hash seed) that made it
        return AlgebraSpec, self._key()

    # -- index set and letters -------------------------------------------------

    @property
    def index_set(self) -> tuple[int, ...]:
        return _index_set(self.rank)

    @property
    def d(self) -> int:
        return self.translation_data().d

    @property
    def coord_letters(self) -> tuple[str, ...]:
        """Stored coordinate slots, in the order elements are written."""
        return _coord_letters(self.family, self.rank)

    @property
    def word_letters(self) -> tuple[str, ...]:
        """All letters that may appear in the text form, in canonical order.

        Includes the derived letters ("0" for A2even/C1, "e" for D2) that are
        not stored coordinates.
        """
        return _word_letters(self.family, self.rank)

    @property
    def a_letters(self) -> tuple[str, ...]:
        """The letter set {a_k | k in Z}: background letters of the automaton."""
        return _a_letters(self.family, self.rank)

    @property
    def slots(self) -> SlotRules:
        """Which coordinate vectors make up B_l, and sigma on them."""
        return slot_rules(self.family, self.rank)

    # -- sigma -----------------------------------------------------------------

    def sigma_index(self, i: int) -> int:
        """Action of sigma on the Dynkin index set."""
        if i not in self.index_set:
            raise ValueError(f"index {i} outside 0..{self.rank}")
        return _sigma(self.family, self.rank).index[i]

    @property
    def sigma_order(self) -> int:
        return _sigma(self.family, self.rank).order

    def sigma_letter(self, a: str) -> str:
        """Letterwise action of sigma on words (second table column)."""
        return _sigma(self.family, self.rank).letter.get(a, a)

    def sigma_letter_inv(self, a: str) -> str:
        return _sigma(self.family, self.rank).letter_inv.get(a, a)

    # -- translation data ------------------------------------------------------

    def translation_data(self) -> TranslationData:
        return _translation_data(self.family, self.rank, self.brace)

    def index_at(self, k: int) -> int:
        """i_k for any integer k, via i_{k+d} = sigma^{-1}(i_k)."""
        cycle = _sequences(self)[0]
        return cycle[k % len(cycle)]

    def letter_at(self, k: int) -> str:
        """a_k for any integer k, via a_{k+d} = sigma^{-1}(a_k) letterwise."""
        cycle = _sequences(self)[1]
        return cycle[k % len(cycle)]


# Data derived from a spec, computed once per spec and shared (specs and the
# tuples are immutable).  The AlgebraSpec properties above stay plain
# properties that read these: perfbench/tracing.py wraps coord_letters' fget.


@lru_cache(maxsize=None)
def _index_set(n: int) -> tuple[int, ...]:
    return tuple(range(n + 1))


def _plain(n: int) -> tuple[str, ...]:
    return tuple(str(a) for a in range(1, n + 1))


def _barred(n: int) -> tuple[str, ...]:
    return tuple(str(a) + "b" for a in range(n, 0, -1))


@lru_cache(maxsize=None)
def _coord_letters(family: str, n: int) -> tuple[str, ...]:
    if family == "A1":
        return tuple(str(a) for a in range(1, n + 2))
    if family in ("B1", "D2"):
        return _plain(n) + ("0",) + _barred(n)
    return _plain(n) + _barred(n)


@lru_cache(maxsize=None)
def _word_letters(family: str, n: int) -> tuple[str, ...]:
    letters, slack = _coord_letters(family, n), slot_rules(family, n).slack
    if slack is None:
        return letters
    cut = n + ("0" in letters)  # after the plain letters and any stored 0
    return letters[:cut] + (slack,) + letters[cut:]


@lru_cache(maxsize=None)
def _a_letters(family: str, n: int) -> tuple[str, ...]:
    return tuple(a for a in _coord_letters(family, n) if a != "0")


class SlotRules(NamedTuple):
    """The element set of B_l as a rule on coordinate vectors x.

    Without a slack letter the coordinates sum to l; with one, the slack
    letter is not stored and fills the remaining l - sum(x) capacity at
    slack_units per letter.  The spin slot holds 0 or 1, and the two pair
    slots are never both positive.  slot_rules shares one record per family
    and rank among all callers, so index must never be mutated.
    """

    index: dict[str, int]  # stored letter -> slot
    slack: str | None  # "0" for A2even and C1, "e" for D2
    slack_units: int | None  # capacity per slack letter: 2 for C1, else 1
    spin: int | None  # the stored "0" of B1 and D2
    pair: tuple[int, int] | None  # the slots of n and nb in D1
    sigma: itemgetter  # x -> sigma(x), slot by slot


_SLACK = {"A2even": ("0", 1), "C1": ("0", 2), "D2": ("e", 1)}


@lru_cache(maxsize=None)
def slot_rules(family: str, n: int) -> SlotRules:
    letters = _coord_letters(family, n)
    index = {a: p for p, a in enumerate(letters)}
    slack, units = _SLACK.get(family, (None, None))
    pair = (index[str(n)], index[f"{n}b"]) if family == "D1" else None
    # sigma(b) holds a as often as b holds sigma^{-1}(a)
    inv = AlgebraSpec(family, n).sigma_letter_inv
    sigma = itemgetter(*(index[inv(a)] for a in letters))
    return SlotRules(index, slack, units, index.get("0"), pair, sigma)


class Sigma(NamedTuple):
    """The diagram automorphism sigma on indices and on letters."""

    index: tuple[int, ...]  # index[i] = sigma(i)
    letter: dict[str, str]  # each letter sigma moves -> its image
    letter_inv: dict[str, str]
    order: int


@lru_cache(maxsize=None)
def _sigma(family: str, n: int) -> Sigma:
    """sigma from one rule per family: A1 rotates the indices and the letters
    by one step; A2odd, B1 and D1 swap index pairs (i, j), and with each the
    letters j and jb; the other families fix everything."""
    identity = list(range(n + 1))
    if family == "A1":
        letters = [str(a) for a in range(1, n + 2)]
        index = identity[-1:] + identity[:-1]
        letter = dict(zip(letters, letters[-1:] + letters[:-1]))
    else:
        index, letter = identity[:], {}
        swaps = {"A2odd": [(0, 1)], "B1": [(0, 1)], "D1": [(0, 1), (n - 1, n)]}
        for i, j in swaps.get(family, ()):
            index[i], index[j] = j, i
            letter.update({str(j): f"{j}b", f"{j}b": str(j)})
    order, power = 1, index
    while power != identity:
        power, order = [index[i] for i in power], order + 1
    return Sigma(tuple(index), letter, {b: a for a, b in letter.items()}, order)


@lru_cache(maxsize=None)
def _sequences(spec: AlgebraSpec) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """One full period of k -> i_k and k -> a_k, indexed by k mod d * order(sigma).

    i_{k+d} = sigma^{-1}(i_k) and a_{k+d} = sigma^{-1}(a_k), so both repeat
    after d * order(sigma) steps.
    """
    td, d, order = spec.translation_data(), spec.d, spec.sigma_order
    indices, letters = [], []
    for k in range(d * order):
        r = (k - 1) % d + 1
        i = td.i_seq[r - 1]
        for _ in range(((r - k) // d) % order):  # sigma^{-q}, k = q d + r
            i = spec.sigma_index(i)
        a = td.a_seq[k % d]
        for _ in range((-(k // d)) % order):
            a = spec.sigma_letter(a)
        indices.append(i)
        letters.append(a)
    return tuple(indices), tuple(letters)


@lru_cache(maxsize=None)
def _translation_data(family: str, n: int, brace: str) -> TranslationData:
    upper = brace == "upper"
    if family == "A1":
        d = n
        i_seq = [n + 1 - k for k in range(1, d + 1)]
        a_seq = [str(n + 1 - k) for k in range(0, d + 1)]
    elif family in ("A2odd", "B1"):
        d = 2 * n - 1
        i_seq = [0] * d
        for k in range(1, n):
            i_seq[k - 1] = n + 1 - k
        i_seq[n - 1], i_seq[n] = (1, 0) if upper else (0, 1)
        for k in range(n + 2, d + 1):
            i_seq[k - 1] = k - n
        a_seq = [""] * (d + 1)
        a_seq[0] = str(n) + "b"
        for k in range(1, n):
            a_seq[k] = str(n + 1 - k)
        a_seq[n] = "1" if upper else "1b"
        for k in range(n + 1, d + 1):
            a_seq[k] = str(k - n + 1) + "b"
    elif family in ("A2even", "C1", "D2"):
        d = 2 * n
        i_seq = [0] * d
        for k in range(1, n + 1):
            i_seq[k - 1] = n + 1 - k
        i_seq[n] = 0
        for k in range(n + 2, d + 1):
            i_seq[k - 1] = k - n - 1
        a_seq = [""] * (d + 1)
        a_seq[0] = str(n) + "b"
        for k in range(1, n + 1):
            a_seq[k] = str(n + 1 - k)
        for k in range(n + 1, d + 1):
            a_seq[k] = str(k - n) + "b"
    else:  # D1; AlgebraSpec has refused every other family
        d = 2 * n - 2
        i_seq = [0] * d
        i_seq[0] = n
        for k in range(2, n - 1):
            i_seq[k - 1] = n - k
        i_seq[n - 2], i_seq[n - 1] = (1, 0) if upper else (0, 1)
        for k in range(n + 1, 2 * n - 2):
            i_seq[k - 1] = k - n + 1
        i_seq[d - 1] = n
        a_seq = [""] * (d + 1)
        a_seq[0] = str(n) + "b"
        for k in range(1, n - 1):
            a_seq[k] = str(n - k)
        a_seq[n - 1] = "1" if upper else "1b"
        for k in range(n, 2 * n - 2):
            a_seq[k] = str(k - n + 2) + "b"
        a_seq[d] = str(n)

    data = TranslationData(d, tuple(i_seq), tuple(a_seq))
    spec = AlgebraSpec(family, n, brace)
    if data.a_seq[d] != spec.sigma_letter_inv(data.a_seq[0]):
        raise AssertionError(f"translation data inconsistent for {family} n={n}")
    return data
