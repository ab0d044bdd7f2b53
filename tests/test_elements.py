"""Element construction, text round trips, and enumeration."""
import random

import pytest

from crystal_ca import (
    FAMILIES,
    AlgebraSpec,
    CapExceeded,
    CrystalElement,
    FormatError,
    Tensor,
    crystal,
    delta,
    domain_gap,
    enumerate_crystal,
    from_counts,
    parse_element,
    parse_tensor,
    sample_domain_element,
    sigma_letterwise,
)
from crystal_ca.algebra import _MIN_RANK
from crystal_ca.rmatrix import _scramble

A13 = AlgebraSpec("A1", 3)
A2ODD3 = AlgebraSpec("A2odd", 3)
A2EVEN2 = AlgebraSpec("A2even", 2)
B13 = AlgebraSpec("B1", 3)
C12 = AlgebraSpec("C1", 2)
D14 = AlgebraSpec("D1", 4)
D22 = AlgebraSpec("D2", 2)


def test_coordinate_validation():
    CrystalElement(A13, 6, (3, 2, 1, 0))
    with pytest.raises(ValueError):
        CrystalElement(A13, 6, (3, 2, 1, 1))
    with pytest.raises(ValueError):
        CrystalElement(A13, 6, (3, 2, 1))
    with pytest.raises(ValueError):
        CrystalElement(A13, 6, (7, -1, 0, 0))
    with pytest.raises(ValueError):
        CrystalElement(A13, 0, (0, 0, 0, 0))


def test_family_constraints():
    # stored middle slot is 0/1 only
    with pytest.raises(ValueError):
        CrystalElement(B13, 5, (1, 0, 0, 2, 1, 0, 1))
    CrystalElement(B13, 5, (1, 0, 0, 1, 2, 1, 0))
    # at most one of the two middle slots of D1
    with pytest.raises(ValueError):
        CrystalElement(D14, 4, (1, 0, 0, 1, 1, 0, 0, 1))
    CrystalElement(D14, 4, (1, 0, 0, 2, 0, 0, 0, 1))
    # parity for C1
    with pytest.raises(ValueError):
        CrystalElement(C12, 3, (1, 0, 0, 1))
    CrystalElement(C12, 3, (1, 0, 0, 2))
    # slack allowed only where the family permits it
    CrystalElement(A2EVEN2, 3, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        CrystalElement(A2ODD3, 3, (1, 0, 0, 0, 0, 0))


def test_derived_coordinates():
    el = CrystalElement(A2EVEN2, 3, (1, 0, 0, 0))
    assert el.get("0") == 2
    el = CrystalElement(C12, 4, (1, 0, 0, 1))
    assert el.get("0") == 1
    el = CrystalElement(D22, 5, (1, 0, 1, 1, 0))
    assert el.get("e") == 2
    assert el.get("0") == 1


@pytest.mark.parametrize("spec, letter", [(A13, "0"), (A13, "5"), (A2ODD3, "0"), (D14, "e")])
def test_illegal_letter_refused(spec, letter):
    el = enumerate_crystal(spec, 1)[0]
    with pytest.raises(ValueError, match=f"^letter '{letter}' not legal for {spec.family}$"):
        el.get(letter)
    with pytest.raises(FormatError, match=f"^letter '{letter}' not legal for {spec.family} rank"):
        from_counts(spec, {"1": 1, letter: 1})


def test_words_and_parsing_roundtrip():
    assert CrystalElement(A13, 6, (3, 2, 1, 0)).word() == "111223"
    el = from_counts(A2ODD3, {"1": 2, "2": 1, "3": 3, "3b": 1})
    assert el.word() == "1123333b"
    assert parse_element(A2ODD3, "1123333b") == el
    assert parse_element(A2ODD3, "3b 3 31 2 31") == el  # order and spaces free
    d2 = from_counts(D22, {"1": 1, "0": 1, "e": 2, "2b": 1})
    assert d2.word() == "10ee2b"
    assert d2.l == 5
    assert parse_element(D22, "10ee2b") == d2


def test_reprs():
    el = parse_element(A13, "1124")
    assert repr(el) == "<A1 B_4 2101>"
    assert repr(Tensor((el, el))) == "<tensor 1124.1124>"


def test_capacity_inference_per_family():
    assert parse_element(A13, "1122").l == 4
    assert parse_element(B13, "1203b").l == 4          # stored zero counts once
    assert parse_element(C12, "1102b").l == 5          # derived zero counts twice
    assert parse_element(A2EVEN2, "120").l == 3
    assert parse_element(D22, "10ee2b").l == 5
    with pytest.raises(FormatError):
        parse_element(A13, "112", l=4)


def test_parse_errors_carry_position():
    with pytest.raises(FormatError) as err:
        parse_element(A13, "11x23")
    assert err.value.pos == 2
    with pytest.raises(FormatError) as err:
        parse_element(A13, "1152")
    assert err.value.pos == 2
    with pytest.raises(FormatError):
        parse_element(A13, "")
    with pytest.raises(FormatError) as err:
        parse_element(A13, "112b")  # bars are not A1 letters
    assert err.value.pos == 2
    with pytest.raises(FormatError):
        parse_element(A2ODD3, "12e")  # empty marker only in D2


def test_parse_tensor():
    t = parse_tensor(A13, "111223.344")
    assert t.shape == (6, 3)
    assert t.word() == "111223.344"
    t = parse_tensor(A2ODD3, "1 2b.3.3b 1b.2")
    assert [f.word() for f in t.factors] == ["12b", "3", "3b1b", "2"]
    with pytest.raises(FormatError):
        parse_tensor(A13, "11..22")


def test_parse_tensor_error_positions():
    # a rank error belongs to no factor; a bad letter keeps its position
    with pytest.raises(FormatError) as err:
        parse_tensor(AlgebraSpec("A1", 9), "2.2")
    assert err.value.pos is None and "(position" not in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_tensor(A13, "11.2x3")
    assert err.value.pos == 4 and str(err.value).endswith("(position 4)")


def test_tensor_validation():
    a = parse_element(A13, "12")
    b = parse_element(A2ODD3, "12")
    with pytest.raises(ValueError):
        Tensor((a, b))
    with pytest.raises(ValueError):
        Tensor(())
    # equal specs that are distinct objects are one algebra
    c = CrystalElement(AlgebraSpec("A1", 3), 2, (1, 1, 0, 0))
    assert c.spec is not a.spec and Tensor((a, c)).shape == (2, 2)
    # the two braces of A2odd are different algebras
    upper = parse_element(AlgebraSpec("A2odd", 3, "upper"), "12")
    lower = parse_element(AlgebraSpec("A2odd", 3, "lower"), "12")
    with pytest.raises(ValueError, match="different algebras"):
        Tensor((upper, lower))


def test_rank_printability_guard():
    big = AlgebraSpec("A1", 9)
    with pytest.raises(FormatError):
        delta(big, 1, "1").word()
    with pytest.raises(FormatError):
        parse_element(big, "1")


def test_delta():
    assert delta(A13, 6, "1").word() == "111111"
    assert delta(A2ODD3, 2, "3b").word() == "3b3b"
    assert delta(D14, 3, "4").x == (0, 0, 0, 3, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        delta(B13, 2, "0")
    with pytest.raises(ValueError):
        delta(D22, 2, "e")


def test_enumeration_counts_and_order():
    assert [el.x for el in enumerate_crystal(AlgebraSpec("A1", 1), 1)] == [(0, 1), (1, 0)]
    assert len(enumerate_crystal(A13, 3)) == 20
    assert len(enumerate_crystal(A2EVEN2, 1)) == 5
    assert len(enumerate_crystal(C12, 2)) == 11
    assert len(enumerate_crystal(D14, 1)) == 8
    assert len(enumerate_crystal(D22, 1)) == 6
    els = enumerate_crystal(A13, 2)
    assert [e.x for e in els] == sorted(e.x for e in els)
    assert len(set(els)) == len(els)


def test_enumeration_respects_constraints():
    for el in enumerate_crystal(D14, 2):
        assert el.x[3] == 0 or el.x[4] == 0
    for el in enumerate_crystal(C12, 3):
        assert (3 - sum(el.x)) % 2 == 0
    for el in enumerate_crystal(B13, 2):
        assert el.x[3] in (0, 1)


def test_enumeration_cap(monkeypatch):
    # enumerate_crystal reads no memo, so the store needs no clearing here
    monkeypatch.setattr(crystal, "_ENUM_CAP", 5)
    with pytest.raises(CapExceeded, match="^enumeration of A1 B_3 exceeds cap 5$"):
        enumerate_crystal(A13, 3)
    monkeypatch.setattr(crystal, "_ENUM_CAP", 20)
    assert len(enumerate_crystal(A13, 3)) == 20


@pytest.mark.parametrize("l", [0, -1])
def test_enumeration_rejects_nonpositive_capacity(l):
    with pytest.raises(ValueError, match="capacity must be positive"):
        enumerate_crystal(A13, l)


def _vectors(size, total):
    """Every nonnegative vector of the given size and sum at most total, in
    lexicographic order."""
    if size == 0:
        yield ()
        return
    for v in range(total + 1):
        for rest in _vectors(size - 1, total - v):
            yield (v,) + rest


def _valid(spec, l, x):
    try:
        CrystalElement(spec, l, x)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("family, rank", [
    (fam, _MIN_RANK[fam] + extra) for fam in FAMILIES for extra in (0, 1)
])
def test_slot_rules_agree_across_consumers(family, rank):
    spec = AlgebraSpec(family, rank)
    size = len(spec.coord_letters)
    for l in range(1, 5):
        els = enumerate_crystal(spec, l)
        # the sum-l+1 layer lies wholly outside B_l, so it is a filter case too
        assert [el.x for el in els] == [
            x for x in _vectors(size, l + 1) if _valid(spec, l, x)
        ]
        for el in els:
            image = sigma_letterwise(el)
            counts = {a: el.get(a) for a in spec.word_letters}
            assert {spec.sigma_letter(a): c for a, c in counts.items()} == {
                a: image.get(a) for a in spec.word_letters
            }
            # the slack letter's count carries the capacity the vector leaves
            assert from_counts(spec, counts) == el
        rng = random.Random(l)
        for margin in range(3):
            for a in spec.a_letters:
                # this M lets the sampler draw up to l on every other slot
                u = sample_domain_element(spec, margin + (size + 1) * l, a, margin, rng)
                # at this M the sampler's bound on the gap is tight
                assert domain_gap(u, a) >= margin
                for x in (u.x, _scramble(u, rng).x):
                    assert _valid(spec, u.l, x)
