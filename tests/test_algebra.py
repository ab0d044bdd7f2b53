"""Family data: index sets, diagram automorphism, translation sequences."""
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from crystal_ca import AlgebraSpec, AutomatonState, CrystalElement, Tensor, bar, is_barred
from crystal_ca.algebra import FAMILIES


def test_letter_helpers():
    assert bar("3") == "3b" and bar("3b") == "3"
    assert is_barred("2b") and not is_barred("2")
    with pytest.raises(ValueError):
        bar("0")
    with pytest.raises(ValueError):
        bar("e")


def test_rank_bounds():
    AlgebraSpec("A1", 1)
    AlgebraSpec("A2odd", 3)
    AlgebraSpec("A2even", 2)
    AlgebraSpec("B1", 3)
    AlgebraSpec("C1", 2)
    AlgebraSpec("D1", 4)
    AlgebraSpec("D2", 2)
    for fam, bad in [("A1", 0), ("A2odd", 2), ("A2even", 1), ("B1", 2),
                     ("C1", 1), ("D1", 3), ("D2", 1)]:
        with pytest.raises(ValueError):
            AlgebraSpec(fam, bad)
    with pytest.raises(ValueError):
        AlgebraSpec("E8", 8)
    with pytest.raises(ValueError):
        AlgebraSpec("A1", 2, "middle")


def test_d_values():
    assert AlgebraSpec("A1", 3).d == 3
    assert AlgebraSpec("A2odd", 3).d == 5
    assert AlgebraSpec("A2even", 2).d == 4
    assert AlgebraSpec("B1", 3).d == 5
    assert AlgebraSpec("C1", 2).d == 4
    assert AlgebraSpec("D1", 4).d == 6
    assert AlgebraSpec("D2", 2).d == 4


# the affine Dynkin diagrams as edge sets: sigma_index must map each onto itself
DYNKIN_EDGES = {
    ("A1", 1): {(0, 1)}, ("A1", 3): {(0, 1), (1, 2), (2, 3), (0, 3)},
    ("A2odd", 3): {(0, 2), (1, 2), (2, 3)}, ("A2even", 2): {(0, 1), (1, 2)},
    ("B1", 3): {(0, 2), (1, 2), (2, 3)}, ("C1", 2): {(0, 1), (1, 2)},
    ("D1", 4): {(0, 2), (1, 2), (2, 3), (2, 4)},
    ("D1", 5): {(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)}, ("D2", 2): {(0, 1), (1, 2)},
}


def test_sigma_index_is_diagram_automorphism():
    for (fam, rank), edges in DYNKIN_EDGES.items():
        spec = AlgebraSpec(fam, rank)
        image = {tuple(sorted((spec.sigma_index(a), spec.sigma_index(b))))
                 for a, b in edges}
        assert image == {tuple(sorted(e)) for e in edges}
        # bijection of the right order
        idx = list(spec.index_set)
        assert sorted(spec.sigma_index(i) for i in idx) == idx
        cur = idx[:]
        for _ in range(spec.sigma_order):
            cur = [spec.sigma_index(i) for i in cur]
        assert cur == idx
        for i in idx:
            # the inverse is i -> i + 1 on the A1 cycle; an involution otherwise
            inv = (i + 1) % (rank + 1) if fam == "A1" else spec.sigma_index(i)
            assert spec.sigma_index(inv) == i


@pytest.mark.parametrize("fam, rank", [("A1", 2), ("D1", 4), ("C1", 2)])
def test_sigma_index_outside_index_set(fam, rank):
    spec = AlgebraSpec(fam, rank)
    for i in (-1, rank + 1):
        with pytest.raises(ValueError, match=f"^index {i} outside 0..{rank}$"):
            spec.sigma_index(i)


def test_sigma_orders():
    assert AlgebraSpec("A1", 3).sigma_order == 4
    assert AlgebraSpec("A2odd", 3).sigma_order == 2
    assert AlgebraSpec("B1", 3).sigma_order == 2
    assert AlgebraSpec("D1", 4).sigma_order == 2
    for fam, rank in [("A2even", 2), ("C1", 2), ("D2", 2)]:
        assert AlgebraSpec(fam, rank).sigma_order == 1


def test_translation_data_a1():
    spec = AlgebraSpec("A1", 3)
    td = spec.translation_data()
    assert td.d == 3
    assert td.i_seq == (3, 2, 1)
    assert td.a_seq == ("4", "3", "2", "1")


def test_translation_data_a1_rank1_extension():
    spec = AlgebraSpec("A1", 1)
    assert [spec.index_at(k) for k in (1, 2, 3, 4)] == [1, 0, 1, 0]
    assert [spec.letter_at(k) for k in (0, 1, 2, 3)] == ["2", "1", "2", "1"]


def test_translation_data_a2odd():
    spec = AlgebraSpec("A2odd", 3)
    td = spec.translation_data()
    assert td.i_seq == (3, 2, 1, 0, 2)
    assert td.a_seq == ("3b", "3", "2", "1", "2b", "3b")
    lower = AlgebraSpec("A2odd", 3, "lower").translation_data()
    assert lower.i_seq == (3, 2, 0, 1, 2)
    assert lower.a_seq == ("3b", "3", "2", "1b", "2b", "3b")


def test_translation_data_b1():
    spec = AlgebraSpec("B1", 3)
    td = spec.translation_data()
    assert td.i_seq == (3, 2, 1, 0, 2)
    assert td.a_seq == ("3b", "3", "2", "1", "2b", "3b")


def test_translation_data_even_families():
    td = AlgebraSpec("A2even", 2).translation_data()
    assert td.i_seq == (2, 1, 0, 1)
    assert td.a_seq == ("2b", "2", "1", "1b", "2b")
    td = AlgebraSpec("C1", 2).translation_data()
    assert td.i_seq == (2, 1, 0, 1)
    assert td.a_seq == ("2b", "2", "1", "1b", "2b")
    td = AlgebraSpec("D2", 2).translation_data()
    assert td.i_seq == (2, 1, 0, 1)
    assert td.a_seq == ("2b", "2", "1", "1b", "2b")


def test_translation_data_d1():
    spec = AlgebraSpec("D1", 4)
    td = spec.translation_data()
    assert td.i_seq == (4, 2, 1, 0, 2, 4)
    assert td.a_seq == ("4b", "3", "2", "1", "2b", "3b", "4")
    lower = AlgebraSpec("D1", 4, "lower").translation_data()
    assert lower.i_seq == (4, 2, 0, 1, 2, 4)
    assert lower.a_seq == ("4b", "3", "2", "1b", "2b", "3b", "4")


def test_consecutive_background_letters_distinct():
    for fam, rank in [("A1", 2), ("A2odd", 3), ("A2even", 2), ("B1", 3),
                      ("C1", 3), ("D1", 4), ("D2", 2)]:
        spec = AlgebraSpec(fam, rank)
        letters = [spec.letter_at(k) for k in range(-2 * spec.d, 2 * spec.d + 1)]
        for a, b in zip(letters, letters[1:]):
            assert a != b


def test_index_extension_periodicity():
    for fam, rank in [("A1", 3), ("A2odd", 3), ("B1", 3), ("C1", 2), ("D1", 4)]:
        spec = AlgebraSpec(fam, rank)
        period = spec.d * spec.sigma_order
        for k in range(1, spec.d + 1):
            assert spec.index_at(k) == spec.translation_data().i_seq[k - 1]
            assert spec.index_at(k + period) == spec.index_at(k)
            assert spec.index_at(k - period) == spec.index_at(k)
        # one-step extension follows the automorphism
        for k in range(1, 2 * spec.d + 1):
            assert spec.sigma_index(spec.index_at(k + spec.d)) == spec.index_at(k)
        for k in range(-spec.d, 2 * spec.d):
            assert spec.letter_at(k + spec.d) == spec.sigma_letter_inv(spec.letter_at(k))


def test_sigma_letter_tables():
    a1 = AlgebraSpec("A1", 3)
    assert a1.sigma_letter("1") == "4" and a1.sigma_letter("3") == "2"
    assert a1.sigma_letter_inv("4") == "1"
    a2 = AlgebraSpec("A2odd", 3)
    assert a2.sigma_letter("1") == "1b" and a2.sigma_letter("1b") == "1"
    assert a2.sigma_letter("2") == "2"
    d1 = AlgebraSpec("D1", 4)
    assert d1.sigma_letter("4") == "4b" and d1.sigma_letter("4b") == "4"
    assert d1.sigma_letter("1") == "1b" and d1.sigma_letter("2") == "2"
    for fam, rank in [("A2even", 2), ("C1", 2), ("D2", 2)]:
        spec = AlgebraSpec(fam, rank)
        for a in spec.coord_letters:
            assert spec.sigma_letter(a) == a


def test_word_letters():
    assert AlgebraSpec("A1", 3).word_letters == ("1", "2", "3", "4")
    assert AlgebraSpec("A2odd", 3).word_letters == ("1", "2", "3", "3b", "2b", "1b")
    assert AlgebraSpec("A2even", 2).word_letters == ("1", "2", "0", "2b", "1b")
    assert AlgebraSpec("B1", 3).word_letters == ("1", "2", "3", "0", "3b", "2b", "1b")
    assert AlgebraSpec("C1", 2).word_letters == ("1", "2", "0", "2b", "1b")
    assert AlgebraSpec("D1", 4).word_letters == ("1", "2", "3", "4", "4b", "3b", "2b", "1b")
    assert AlgebraSpec("D2", 2).word_letters == ("1", "2", "0", "e", "2b", "1b")


def test_a_letters_exclude_special():
    for fam, rank in [("B1", 3), ("D2", 2), ("A2even", 2), ("C1", 2)]:
        spec = AlgebraSpec(fam, rank)
        assert "0" not in spec.a_letters
        assert "e" not in spec.a_letters


def test_families_constant():
    assert FAMILIES == ("A1", "A2odd", "A2even", "B1", "C1", "D1", "D2")


def test_spec_hash_contract():
    a, b = AlgebraSpec("A2odd", 3), AlgebraSpec("A2odd", 3)
    assert a == b and hash(a) == hash(b)
    assert a != AlgebraSpec("A2odd", 3, "lower")
    c = copy.copy(a)
    assert c == a and hash(c) == hash(a)


# Writes a pickled spec to argv[1], or loads it from there and prints what a
# dict keyed on a freshly built spec holds for it.
PICKLE_SCRIPT = """
import pickle, sys
from crystal_ca import AlgebraSpec
fresh = AlgebraSpec("C1", 2, "lower")
if sys.argv[2] == "write":
    with open(sys.argv[1], "wb") as fh:
        pickle.dump(fresh, fh)
else:
    with open(sys.argv[1], "rb") as fh:
        loaded = pickle.load(fh)
    print(loaded == fresh, {fresh: 1}.get(loaded))
"""


def test_spec_pickle_across_hash_seeds(tmp_path):
    # the hash a spec stores depends on the string-hash seed of the process
    # that built it, so a pickle must not carry it into another process
    src = Path(__file__).resolve().parent.parent / "src"
    path = str(tmp_path / "spec.pickle")
    out = []
    for seed, mode in (("1", "write"), ("2", "read")):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", PICKLE_SCRIPT, path, mode],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[1] == "True 1\n"


A12 = AlgebraSpec("A1", 2)
EL = CrystalElement(A12, 2, (1, 1, 0))
BACKGROUND = CrystalElement(A12, 2, (0, 0, 2))  # delta[a_0] of B_2 at rank 2
# each record class: valid fields, and an equal record built another way
RECORDS = [
    (AlgebraSpec, ("A1", 2, "upper"), lambda: AlgebraSpec("A1", 2)),
    (CrystalElement, (A12, 2, (1, 1, 0)), lambda: CrystalElement._trusted(A12, 2, (1, 1, 0))),
    (Tensor, ((EL,),), lambda: Tensor((CrystalElement._trusted(A12, 2, (1, 1, 0)),))),
    (AutomatonState, (A12, 0, 1, (EL,), (2,)),
     lambda: AutomatonState(A12, 0, 0, (BACKGROUND, EL, BACKGROUND), (2, 2))),
]


@pytest.mark.parametrize("cls, fields, twin", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_record_contract(cls, fields, twin):
    rec = cls(*fields)
    with pytest.raises(AttributeError):
        setattr(rec, cls.__slots__[0], fields[0])
    for wrong in ((), fields + (None,)):
        with pytest.raises(TypeError):
            cls(*wrong)
    for other in (twin(), copy.copy(rec), pickle.loads(pickle.dumps(rec))):
        assert other is not rec and other == rec and hash(other) == hash(rec)
    assert rec != fields and rec != rec._key()
    for other_cls, other_fields, _ in RECORDS:
        if other_cls is not cls:
            assert rec != other_cls(*other_fields)
