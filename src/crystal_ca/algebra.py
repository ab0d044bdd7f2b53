"""Static data and index arithmetic for the seven non-exceptional affine families.

Families are tagged A1, A2odd, A2even, B1, C1, D1, D2, standing for
A^(1)_n, A^(2)_{2n-1}, A^(2)_{2n}, B^(1)_n, C^(1)_n, D^(1)_n, D^(2)_{n+1}.
Each algebra owns a Dynkin diagram automorphism sigma, a translation datum
(d, i_1..i_d, a_0..a_d), and the extension of those sequences to all integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@dataclass(frozen=True)
class TranslationData:
    """One table row: d, the colors i_1..i_d and the letters a_0..a_d."""

    d: int
    i_seq: tuple[int, ...]  # i_seq[k-1] = i_k for 1 <= k <= d
    a_seq: tuple[str, ...]  # a_seq[k] = a_k for 0 <= k <= d


@dataclass(frozen=True)
class AlgebraSpec:
    """Family tag, rank n and the brace choice resolving the two allowed
    simultaneous variants of the translation datum."""

    family: str
    rank: int
    brace: str = "upper"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.rank < _MIN_RANK[self.family]:
            raise ValueError(
                f"family {self.family} needs rank >= {_MIN_RANK[self.family]}, got {self.rank}"
            )
        if self.brace not in ("upper", "lower"):
            raise ValueError(f"brace must be 'upper' or 'lower', got {self.brace!r}")

    # -- index set and letters -------------------------------------------------

    @property
    def n(self) -> int:
        return self.rank

    @property
    def index_set(self) -> tuple[int, ...]:
        return _index_set(self.rank)

    @property
    def d(self) -> int:
        return _d(self.family, self.rank)

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

    # -- sigma -----------------------------------------------------------------

    def sigma_index(self, i: int) -> int:
        """Action of sigma on the Dynkin index set."""
        n = self.rank
        if i not in self.index_set:
            raise ValueError(f"index {i} outside 0..{n}")
        if self.family == "A1":
            return (i - 1) % (n + 1)
        if self.family in ("A2odd", "B1"):
            return {0: 1, 1: 0}.get(i, i)
        if self.family == "D1":
            return {0: 1, 1: 0, n: n - 1, n - 1: n}.get(i, i)
        return i

    def sigma_index_inv(self, i: int) -> int:
        if self.family == "A1":
            if i not in self.index_set:
                raise ValueError(f"index {i} outside 0..{self.rank}")
            return (i + 1) % (self.rank + 1)
        return self.sigma_index(i)  # an involution otherwise

    @property
    def sigma_order(self) -> int:
        if self.family == "A1":
            return self.rank + 1
        if self.family in ("A2odd", "B1", "D1"):
            return 2
        return 1

    def sigma_letter(self, a: str) -> str:
        """Letterwise action of sigma on words (second table column)."""
        n = self.rank
        if self.family == "A1":
            v = int(a) - 1
            return str(n + 1 if v == 0 else v)
        if self.family in ("A2odd", "B1"):
            return {"1": "1b", "1b": "1"}.get(a, a)
        if self.family == "D1":
            swap = {"1": "1b", "1b": "1", str(n): str(n) + "b", str(n) + "b": str(n)}
            return swap.get(a, a)
        return a

    def sigma_letter_inv(self, a: str) -> str:
        if self.family == "A1":
            v = int(a) + 1
            return str(1 if v == self.rank + 2 else v)
        return self.sigma_letter(a)

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

    # -- Dynkin diagram --------------------------------------------------------

    def dynkin_edges(self) -> frozenset[tuple[int, int]]:
        """Adjacency of the affine Dynkin diagram, edges as sorted pairs.

        Used only as a sanity anchor: sigma_index must be a graph automorphism.
        """
        n = self.rank
        if self.family == "A1":
            if n == 1:
                return frozenset({(0, 1)})
            cycle = {(i, i + 1) for i in range(n)}
            cycle.add((0, n))
            return frozenset(cycle)
        if self.family in ("A2odd", "B1"):
            edges = {(0, 2), (1, 2)} | {(i, i + 1) for i in range(2, n)}
            return frozenset(edges)
        if self.family == "D1":
            edges = {(0, 2), (1, 2), (n - 2, n - 1), (n - 2, n)}
            edges |= {(i, i + 1) for i in range(2, n - 2)}
            return frozenset(edges)
        return frozenset((i, i + 1) for i in range(n))  # a path


# Data derived from a spec, computed once per spec and shared (specs and the
# tuples are immutable).  The AlgebraSpec properties above stay plain
# properties that read these: perfbench/tracing.py wraps coord_letters' fget.


@lru_cache(maxsize=None)
def _index_set(n: int) -> tuple[int, ...]:
    return tuple(range(n + 1))


@lru_cache(maxsize=None)
def _d(family: str, n: int) -> int:
    return {
        "A1": n,
        "A2odd": 2 * n - 1,
        "A2even": 2 * n,
        "B1": 2 * n - 1,
        "C1": 2 * n,
        "D1": 2 * n - 2,
        "D2": 2 * n,
    }[family]


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
    if family == "A1":
        return _coord_letters(family, n)
    middle: tuple[str, ...] = ()
    if family in ("B1", "A2even", "C1"):
        middle = ("0",)
    elif family == "D2":
        middle = ("0", "e")
    return _plain(n) + middle + _barred(n)


@lru_cache(maxsize=None)
def _a_letters(family: str, n: int) -> tuple[str, ...]:
    if family == "A1":
        return _coord_letters(family, n)
    return _plain(n) + _barred(n)


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
    elif family == "D1":
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
    else:  # pragma: no cover - guarded by AlgebraSpec
        raise ValueError(family)

    data = TranslationData(d, tuple(i_seq), tuple(a_seq))
    spec = AlgebraSpec(family, n, brace)
    if data.a_seq[d] != spec.sigma_letter_inv(data.a_seq[0]):
        raise AssertionError(f"translation data inconsistent for {family} n={n}")
    return data
